import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from matrixopt import care_admm, newton_admm
from matrixopt.baselines import care_residual, solve_lyapunov_direct
from matrixopt.care_admm import (
    AdmmConfig,
    AdmmState,
    _solve_spd,
    admm_step,
    kkt_residuals,
    lagrangian_value,
    solve_care_admm,
)
from matrixopt.errors import AdmmBreakdownError, DimensionError
from matrixopt.linalg import frobenius_norm, lu_solve
from matrixopt.newton_admm import LyapAdmmState, NewtonAdmmConfig, solve_lyapunov_admm
from matrixopt.problems import CareProblem, LyapunovProblem, ammonia_reactor, care_family


def scalar_problem():
    return CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])


def scalar_fixed_state():
    a, n, k = -2.0, 25.0, 1.0
    x = (a + np.sqrt(a * a + n * k)) / n
    return AdmmState(
        x=np.array([[x]]),
        y=np.array([[a * x]]),
        z=np.array([[x]]),
        w=np.array([[n * x]]),
        lambda_=np.zeros((1, 1)),
        pi_=np.zeros((1, 1)),
        gamma_=np.zeros((1, 1)),
    )


def random_care(rng, n=3):
    b = rng.standard_normal((n, 2))
    return CareProblem(
        a=rng.standard_normal((n, n)) - (n + 2) * np.eye(n),
        n_mat=b @ b.T,
        k_mat=np.eye(n),
    )


def state_norm(s: AdmmState) -> float:
    blocks = (s.x, s.y, s.z, s.w, s.lambda_, s.pi_, s.gamma_)
    return float(np.sqrt(sum(np.vdot(b, b) for b in blocks)))


class TestAdmmStep:
    def test_one_step_from_zero(self, rng):
        p = random_care(rng)
        cfg = AdmmConfig(alpha=0.7, beta=3.0, gamma=0.2)
        s1 = admm_step(p, AdmmState.zero(3), cfg)
        np.testing.assert_allclose(s1.x, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(s1.y, -p.k_mat / (1.0 + cfg.alpha), atol=1e-14)
        # Z from zeros: [(-Y1 - K) A^T] [A A^T + beta I + gamma N N^T]^{-1}
        z_sys = p.a @ p.a.T + cfg.beta * np.eye(3) + cfg.gamma * p.n_mat @ p.n_mat.T
        z_expected = np.linalg.solve(z_sys.T, ((-s1.y - p.k_mat) @ p.a.T).T).T
        np.testing.assert_allclose(s1.z, z_expected, atol=1e-12)

    def test_fixed_point_invariance(self):
        p = scalar_problem()
        s = scalar_fixed_state()
        s2 = admm_step(p, s, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01))
        for name in ("x", "y", "z", "w", "lambda_", "pi_", "gamma_"):
            np.testing.assert_allclose(
                getattr(s2, name), getattr(s, name), atol=1e-9
            )

    def test_multiplier_update_identities(self, rng):
        p = random_care(rng)
        cfg = AdmmConfig(alpha=0.7, beta=3.0, gamma=0.2)
        s = AdmmState.zero(3)
        for _ in range(5):
            s_new = admm_step(p, s, cfg)
            scale = 1e-14 * (1.0 + state_norm(s_new))
            np.testing.assert_allclose(
                s_new.lambda_ - s.lambda_,
                -cfg.alpha * (p.a.T @ s_new.x - s_new.y),
                atol=scale,
            )
            np.testing.assert_allclose(
                s_new.pi_ - s.pi_, -cfg.beta * (s_new.x - s_new.z), atol=scale
            )
            np.testing.assert_allclose(
                s_new.gamma_ - s.gamma_,
                -cfg.gamma * (s_new.z @ p.n_mat - s_new.w),
                atol=scale,
            )
            s = s_new

    def test_each_block_update_is_argmin(self, rng):
        # central differences of the augmented Lagrangian are exact for
        # quadratics, so the gradient at each freshly updated block must
        # vanish against the pre-update remaining blocks
        p = random_care(rng)
        cfg = AdmmConfig(alpha=0.7, beta=3.0, gamma=0.2)
        s = AdmmState.zero(3)
        for _ in range(3):
            s = admm_step(p, s, cfg)
        s_new = admm_step(p, s, cfg)
        mixed_per_block = {
            "x": AdmmState(s_new.x, s.y, s.z, s.w, s.lambda_, s.pi_, s.gamma_),
            "y": AdmmState(s_new.x, s_new.y, s.z, s.w, s.lambda_, s.pi_, s.gamma_),
            "z": AdmmState(s_new.x, s_new.y, s_new.z, s.w, s.lambda_, s.pi_, s.gamma_),
            "w": AdmmState(s_new.x, s_new.y, s_new.z, s_new.w, s.lambda_, s.pi_, s.gamma_),
        }
        h = 1e-3
        for block, mixed in mixed_per_block.items():
            grad = np.zeros((3, 3))
            base = getattr(mixed, block)
            for idx in np.ndindex(3, 3):
                bump = base.copy()
                bump[idx] += h
                up = lagrangian_value(p, _replace(mixed, block, bump), cfg)
                bump[idx] -= 2 * h
                down = lagrangian_value(p, _replace(mixed, block, bump), cfg)
                grad[idx] = (up - down) / (2 * h)
            assert frobenius_norm(grad) <= 1e-8 * (1.0 + state_norm(mixed)), block

    def test_shape_mismatch(self, rng):
        p = random_care(rng)
        with pytest.raises(Exception):
            admm_step(p, AdmmState.zero(4), AdmmConfig())

    def test_carried_products_serve_only_their_own_problem(self, rng):
        # A state made by a sweep on p1 carries p1's products; a sweep on
        # p2 must form its own, and on p1 reuse them to the same bits.
        p1, p2 = random_care(rng), random_care(rng)
        cfg = AdmmConfig(alpha=0.9, beta=3.0, gamma=0.1)
        s1 = admm_step(p1, admm_step(p1, AdmmState.zero(3), cfg), cfg)
        bare = replace(s1)
        assert s1.products is not None and bare.products is None
        for p in (p1, p2):
            carried, formed = admm_step(p, s1, cfg), admm_step(p, bare, cfg)
            for f in fields(AdmmState):
                assert np.array_equal(getattr(carried, f.name), getattr(formed, f.name)), f.name
        assert care_residual(p1, s1.x, s1.carried(p1, "atx")) == care_residual(p1, s1.x)
        assert s1.carried(p2, "atx") is None


class TestSolveSpd:
    def test_indefinite_system_falls_back_to_lu(self):
        system = np.array([[1.0, 2.0], [2.0, 1.0]])
        rhs = np.array([[1.0, 0.0], [3.0, 1.0]])
        assert np.array_equal(_solve_spd(system, rhs, "X-update"), lu_solve(system, rhs))

    def test_singular_indefinite_system_is_a_breakdown(self):
        with pytest.raises(AdmmBreakdownError, match="X-update"):
            _solve_spd(np.diag([1.0, 0.0, -1.0]), np.ones((3, 1)), "X-update")


def _replace(s: AdmmState, block: str, value: np.ndarray) -> AdmmState:
    blocks = {
        "x": s.x, "y": s.y, "z": s.z, "w": s.w,
        "lambda_": s.lambda_, "pi_": s.pi_, "gamma_": s.gamma_,
    }
    blocks[block] = value
    return AdmmState(**blocks)


class TestKktResiduals:
    def test_fixed_point_satisfies_kkt(self):
        residuals = kkt_residuals(scalar_problem(), scalar_fixed_state())
        assert all(r <= 1e-9 for r in residuals)

    def test_zero_state_on_ammonia(self):
        p = ammonia_reactor()
        res = kkt_residuals(p, AdmmState.zero(9))
        # feasibility gaps vanish at zero, Y-stationarity equals ||K||_F
        assert res[4] == 0.0 and res[5] == 0.0 and res[6] == 0.0
        assert res[1] == pytest.approx(frobenius_norm(p.k_mat))

    def test_converged_run_nearly_kkt(self):
        p = scalar_problem()
        report = solve_care_admm(p, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01, tol=1e-10))
        assert report.converged
        assert all(r <= 1e-4 for r in report.detail["final_kkt_residuals"])


class TestLagrangian:
    def test_zero_state_value(self, rng):
        p = random_care(rng)
        cfg = AdmmConfig()
        expected = 0.5 * frobenius_norm(p.k_mat) ** 2
        assert lagrangian_value(p, AdmmState.zero(3), cfg) == pytest.approx(expected)

    def test_scalar_spot_value(self):
        # independent arithmetic evaluation of every term for 1x1 blocks
        p = scalar_problem()
        cfg = AdmmConfig(alpha=0.5, beta=2.0, gamma=0.25)
        x, y, z, w, lam, pi, gam = 0.3, -0.5, 0.2, 6.0, 0.1, -0.2, 0.4
        s = AdmmState(*(np.array([[v]]) for v in (x, y, z, w, lam, pi, gam)))
        a, n, k = -2.0, 25.0, 1.0
        obj = y + z * a - w * x + k
        gy = a * x - y
        gz = x - z
        gw = z * n - w
        expected = (
            0.5 * obj * obj - lam * gy - pi * gz - gam * gw
            + 0.25 * gy * gy + 1.0 * gz * gz + 0.125 * gw * gw
        )
        assert lagrangian_value(p, s, cfg) == pytest.approx(expected, rel=1e-12)

    def test_feasible_state_zero_multipliers(self, rng):
        p = random_care(rng)
        cfg = AdmmConfig()
        x = rng.standard_normal((3, 3))
        s = AdmmState(
            x=x, y=p.a.T @ x, z=x, w=x @ p.n_mat,
            lambda_=np.zeros((3, 3)), pi_=np.zeros((3, 3)), gamma_=np.zeros((3, 3)),
        )
        obj = s.y + s.z @ p.a - s.w @ s.x + p.k_mat
        assert lagrangian_value(p, s, cfg) == pytest.approx(
            0.5 * frobenius_norm(obj) ** 2
        )


class TestSolveCareAdmm:
    def test_scalar_converges_to_root(self):
        p = scalar_problem()
        report = solve_care_admm(p, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01, tol=1e-8))
        assert report.converged
        assert report.solution[0, 0] == pytest.approx(0.1354066, abs=1e-6)

    def test_decrease_inequality(self, rng):
        p = random_care(rng)
        cfg = AdmmConfig(alpha=0.9, beta=3.0, gamma=0.1, tol=1e-8,
                         max_iterations=300, track_lagrangian=True)
        report = solve_care_admm(p, cfg)
        lag = report.detail["lagrangian_history"]
        for k, d in enumerate(report.detail["block_deltas"]):
            rhs = (
                cfg.beta / 2 * d["dx2"] + cfg.alpha / 2 * d["dy2"]
                + cfg.beta / 2 * d["dz2"] + cfg.gamma / 2 * d["dw2"]
                - d["dlambda2"] / cfg.alpha - d["dpi2"] / cfg.beta
                - d["dgamma2"] / cfg.gamma
            )
            assert lag[k] - lag[k + 1] >= rhs - 1e-8

    def test_feasibility_gaps_at_convergence(self):
        p = scalar_problem()
        report = solve_care_admm(p, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01, tol=1e-10))
        s = report.detail["state"]
        bound = 1e-4 * (1.0 + frobenius_norm(s.x))
        assert frobenius_norm(p.a.T @ s.x - s.y) <= bound
        assert frobenius_norm(s.x - s.z) <= bound
        assert frobenius_norm(s.z @ p.n_mat - s.w) <= bound

    def test_linear_case_matches_lyapunov(self, rng):
        a = rng.standard_normal((3, 3)) - 5 * np.eye(3)
        q = rng.standard_normal((3, 3))
        q = q @ q.T + np.eye(3)
        p = CareProblem(a=a, n_mat=np.zeros((3, 3)), k_mat=q)
        report = solve_care_admm(
            p, AdmmConfig(alpha=0.5, beta=10.0, gamma=0.05, tol=1e-10, max_iterations=100_000)
        )
        assert report.converged
        x_direct = solve_lyapunov_direct(LyapunovProblem(a=a, q=q))
        assert frobenius_norm(report.solution - x_direct) <= 1e-6

    def test_check_every_sampling(self):
        p = scalar_problem()
        cfg = AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01, tol=1e-8, check_every=5)
        report = solve_care_admm(p, cfg)
        assert report.converged
        assert report.iterations % 5 == 0
        assert len(report.residual_history) == report.iterations // 5 + 1

    def test_iteration_cap(self):
        p = scalar_problem()
        report = solve_care_admm(p, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01,
                                               tol=1e-300, max_iterations=10))
        assert report.termination == "max_iterations"
        assert report.iterations == 10

    def test_diagnostics_present(self):
        p = scalar_problem()
        report = solve_care_admm(p, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01))
        assert "asymmetry" in report.detail
        assert "closed_loop_max_real_eig" in report.detail
        # scalar stabilizing solution: a - n x < 0
        assert report.detail["closed_loop_max_real_eig"] < 0


def _care_run(track):
    return solve_care_admm(
        scalar_problem(),
        AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01, max_iterations=40, track_lagrangian=track),
    )


def _lyapunov_run(track):
    p = LyapunovProblem(a=[[-2.0, 1.0], [0.0, -3.0]], q=np.eye(2))
    return solve_lyapunov_admm(
        p, NewtonAdmmConfig(alpha=1.0, beta=2.0, inner_max=40, track_inner_lagrangian=track)
    )


@pytest.mark.parametrize("run", [_care_run, _lyapunov_run], ids=["care", "lyapunov"])
def test_both_splittings_share_the_loop_record(run):
    plain, tracked = run(False), run(True)
    for report in (plain, tracked):
        assert report.iterations > 0
        x = report.detail["state"].x
        assert report.detail["asymmetry"] == frobenius_norm(x - x.T)
    assert "lagrangian_history" not in plain.detail and "block_deltas" not in plain.detail
    assert len(tracked.detail["lagrangian_history"]) == tracked.iterations + 1
    assert len(tracked.detail["block_deltas"]) == tracked.iterations
    # the trace only observes: the run itself is the same
    assert tracked.residual_history == plain.residual_history


T8_16 = care_family("t8", 16).build()
LYAP_8 = LyapunovProblem(
    a=np.diag(np.full(7, 1.0), 1) - 4.0 * np.eye(8) + np.diag(np.full(7, 0.5), -1),
    q=np.eye(8),
)
SWEEP_GLOBALS = {"care": (care_admm, "admm_step"), "lyapunov": (newton_admm, "lyap_admm_step")}
BLOCK_NAMES = {
    "care": {"x", "y", "z", "w", "lambda_", "pi_", "gamma_"},
    "lyapunov": {"x", "y", "z", "lambda_", "pi_"},
}


def _sweeps(splitting, sweeps, init=None, track=False, check_every=1):
    """``sweeps`` sweeps of one splitting, none of them stopped by the tolerance."""
    if splitting == "care":
        cfg = AdmmConfig(alpha=0.91, beta=2.8, gamma=0.0014, tol=1e-300, max_iterations=sweeps,
                         check_every=check_every, track_lagrangian=track)
        return solve_care_admm(T8_16, cfg, init=init)
    cfg = NewtonAdmmConfig(inner_max=sweeps, track_inner_lagrangian=track)
    return solve_lyapunov_admm(LYAP_8, cfg, init=init, tol=1e-300)


def _blow_up_from(monkeypatch, splitting, call):
    """From its ``call``-th call on, the sweep returns a state whose
    blocks are all inf, as a run that overflowed would."""
    module, name = SWEEP_GLOBALS[splitting]
    sweep, calls = getattr(module, name), []

    def blown(p, s, *args):
        calls.append(1)
        if len(calls) < call:
            return sweep(p, s, *args)
        return type(s)(*(np.full_like(getattr(s, f.name), np.inf) for f in fields(s)))

    monkeypatch.setattr(module, name, blown)


@pytest.mark.parametrize("splitting", ["care", "lyapunov"])
class TestSweepLoop:
    def test_warm_start_continues_the_run_to_the_bit(self, splitting):
        # The warm start forms every product afresh, the long run carries
        # them from sweep to sweep: a stale product would split the two.
        whole = _sweeps(splitting, 70)
        first = _sweeps(splitting, 40)
        rest = _sweeps(splitting, 30, init=first.detail["state"])
        assert (whole.iterations, first.iterations, rest.iterations) == (70, 40, 30)
        assert rest.residual_history == whole.residual_history[40:]
        assert np.array_equal(rest.solution, whole.solution)
        for f in fields(whole.detail["state"]):
            assert np.array_equal(
                getattr(rest.detail["state"], f.name), getattr(whole.detail["state"], f.name)
            ), f.name

    def test_block_deltas_name_the_blocks_only(self, splitting):
        report = _sweeps(splitting, 5, track=True)
        names = {f"d{name.rstrip('_')}2" for name in BLOCK_NAMES[splitting]}
        assert [set(d) for d in report.detail["block_deltas"]] == [names] * 5
        assert {f.name for f in fields(report.detail["state"])} == BLOCK_NAMES[splitting]

    def test_blow_up_ends_diverged(self, splitting, monkeypatch):
        _blow_up_from(monkeypatch, splitting, 5)
        with np.errstate(invalid="ignore", over="ignore"):
            report = _sweeps(splitting, 50)
        assert (report.termination, report.iterations) == ("diverged", 5)
        assert len(report.residual_history) == report.iterations + 1
        assert np.isfinite(report.residual_history[:-1]).all()
        assert not np.isfinite(report.final_residual)

    def test_blow_up_raises_no_warning(self, splitting, monkeypatch):
        # The solve quiets numpy's inf/NaN warnings itself: the
        # ``diverged`` label already records the blow-up.
        _blow_up_from(monkeypatch, splitting, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _sweeps(splitting, 50)
        assert (report.termination, report.iterations) == ("diverged", 5)
        if splitting == "care":
            assert not np.isfinite(report.detail["final_kkt_residuals"]).any()
            assert np.isnan(report.detail["closed_loop_max_real_eig"])

    def test_non_finite_init_is_rejected(self, splitting):
        init = _sweeps(splitting, 3).detail["state"]
        init.y[0, 0] = np.inf
        with pytest.raises(ValueError, match="block y"):
            _sweeps(splitting, 3, init=init)

    def test_wrongly_shaped_init_is_rejected(self, splitting):
        n = T8_16.order if splitting == "care" else LYAP_8.order
        zero = AdmmState.zero if splitting == "care" else LyapAdmmState.zero
        with pytest.raises(DimensionError):
            _sweeps(splitting, 3, init=zero(n + 1))
        with pytest.raises(DimensionError, match="block z"):
            _sweeps(splitting, 3, init=replace(zero(n), z=np.zeros((n, n + 1))))


def test_blow_up_between_checks_ends_diverged_at_the_next_check(monkeypatch):
    _blow_up_from(monkeypatch, "care", 10)
    with np.errstate(invalid="ignore", over="ignore"):
        report = _sweeps("care", 50, check_every=7)
    assert (report.termination, report.iterations) == ("diverged", 14)
    assert len(report.residual_history) == report.iterations // 7 + 1
    assert np.isnan(report.detail["closed_loop_max_real_eig"])


class TestConfigValidation:
    def test_positive_penalties(self):
        with pytest.raises(ValueError):
            AdmmConfig(alpha=0.0)

    def test_check_every(self):
        with pytest.raises(ValueError):
            AdmmConfig(check_every=0)
