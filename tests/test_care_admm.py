import contextlib
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import block_deltas, peak_blocks, recorded_sweeps
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
    sweep_constants,
)
from matrixopt.errors import AdmmBreakdownError, DimensionError
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import cholesky_solve, frobenius_norm, lu_solve, spd_factor, spd_solve
from matrixopt.newton_admm import LyapAdmmState, NewtonAdmmConfig, solve_lyapunov_admm
from matrixopt.problems import CareProblem, LyapunovProblem, ammonia_reactor, table_source


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
        s1 = admm_step(p, AdmmState.zero(3), cfg, sweep_constants(p, cfg))
        np.testing.assert_allclose(s1.x, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(s1.y, -p.k_mat / (1.0 + cfg.alpha), atol=1e-14)
        # Z from zeros: [(-Y1 - K) A^T] [A A^T + beta I + gamma N N^T]^{-1}
        z_sys = p.a @ p.a.T + cfg.beta * np.eye(3) + cfg.gamma * p.n_mat @ p.n_mat.T
        z_expected = np.linalg.solve(z_sys.T, ((-s1.y - p.k_mat) @ p.a.T).T).T
        np.testing.assert_allclose(s1.z, z_expected, atol=1e-12)

    def test_fixed_point_invariance(self):
        p = scalar_problem()
        s = scalar_fixed_state()
        cfg = AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01)
        s2 = admm_step(p, s, cfg, sweep_constants(p, cfg))
        for name in ("x", "y", "z", "w", "lambda_", "pi_", "gamma_"):
            np.testing.assert_allclose(
                getattr(s2, name), getattr(s, name), atol=1e-9
            )

    def test_multiplier_update_identities(self, rng):
        p = random_care(rng)
        cfg = AdmmConfig(alpha=0.7, beta=3.0, gamma=0.2)
        const = sweep_constants(p, cfg)
        s = AdmmState.zero(3)
        for _ in range(5):
            s_new = admm_step(p, s, cfg, const)
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
        const = sweep_constants(p, cfg)
        s = AdmmState.zero(3)
        for _ in range(3):
            s = admm_step(p, s, cfg, const)
        s_new = admm_step(p, s, cfg, const)
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
        cfg = AdmmConfig()
        with pytest.raises(Exception):
            admm_step(p, AdmmState.zero(4), cfg, sweep_constants(p, cfg))

    def test_carried_products_serve_only_their_own_problem(self, rng):
        # A state made by a sweep on p1 carries p1's products; a sweep on
        # p2 must form its own, and on p1 reuse them to the same bits.
        # Either sweep drops them once read.
        p1, p2 = random_care(rng), random_care(rng)
        cfg = AdmmConfig(alpha=0.9, beta=3.0, gamma=0.1)
        const1 = sweep_constants(p1, cfg)
        s1 = admm_step(p1, admm_step(p1, AdmmState.zero(3), cfg, const1), cfg, const1)
        bare = replace(s1)
        assert s1.products is not None and bare.products is None
        assert care_residual(p1, s1.x, s1.carried(p1, "atx")) == care_residual(p1, s1.x)
        assert np.array_equal(s1.carried(p1, "t"), s1.y + s1.z @ p1.a + p1.k_mat)
        assert s1.carried(p2, "atx") is None
        for p in (p1, p2):
            s = replace(s1)
            s.products = s1.products
            const = sweep_constants(p, cfg)
            carried, formed = admm_step(p, s, cfg, const), admm_step(p, bare, cfg, const)
            assert s.products is None
            for f in fields(AdmmState):
                assert np.array_equal(getattr(carried, f.name), getattr(formed, f.name)), f.name


def reference_sweep(p: CareProblem, s: AdmmState, cfg: AdmmConfig) -> AdmmState:
    """The sweep with every SPD system applied by a solve, the Z system's
    by ``potrs`` on its Cholesky factor, and each right-hand side formed
    term by term."""
    a, n_mat, k_mat = p.a, p.n_mat, p.k_mat
    al, be, ga = cfg.alpha, cfg.beta, cfg.gamma
    eye = np.eye(p.order)
    x_sys = s.w.T @ s.w + al * (a @ a.T) + be * eye
    x_rhs = s.w.T @ (s.y + s.z @ a + k_mat) + a @ s.lambda_ + s.pi_ + al * (a @ s.y) + be * s.z
    x = cholesky_solve(x_sys, x_rhs)
    y = (s.w @ x + al * (a.T @ x) - s.z @ a - k_mat - s.lambda_) / (1.0 + al)
    z_factor = spd_factor(a @ a.T + be * eye + ga * (n_mat @ n_mat.T))
    z_rhs = (s.w @ x - y - k_mat) @ a.T - s.pi_ + s.gamma_ @ n_mat.T + be * x + ga * (s.w @ n_mat.T)
    z = spd_solve(z_factor, z_rhs.T).T
    w_rhs = (y + z @ a + k_mat) @ x.T - s.gamma_ + ga * (z @ n_mat)
    w = cholesky_solve(x @ x.T + ga * eye, w_rhs.T).T
    return AdmmState(
        x=x, y=y, z=z, w=w,
        lambda_=s.lambda_ - al * (a.T @ x - y),
        pi_=s.pi_ - be * (x - z),
        gamma_=s.gamma_ - ga * (z @ n_mat - w),
    )


@pytest.mark.parametrize(
    "p, cfg",
    [
        (table_source("t8", 64).build(), AdmmConfig(alpha=0.91, beta=2.8, gamma=0.0014)),
        (ammonia_reactor(), AdmmConfig(alpha=0.2, beta=100.0, gamma=0.01)),
    ],
    ids=["t8-n64", "ammonia"],
)
def test_sweep_matches_a_sweep_that_solves_every_system(p, cfg):
    # The sweep applies the Z system's inverse by a product and factors
    # common terms out of its right-hand sides: rounding-level changes.
    rng = np.random.default_rng(64)
    s = AdmmState(*(rng.standard_normal((p.order, p.order)) for _ in fields(AdmmState)))
    got, want = admm_step(p, s, cfg, sweep_constants(p, cfg)), reference_sweep(p, s, cfg)
    for f in fields(AdmmState):
        block, ref = getattr(got, f.name), getattr(want, f.name)
        assert frobenius_norm(block - ref) <= 1e-12 * frobenius_norm(ref), f.name


class TestSolveSpd:
    def test_indefinite_system_falls_back_to_lu(self):
        system = np.array([[1.0, 2.0], [2.0, 1.0]])
        rhs = np.array([[1.0, 0.0], [3.0, 1.0]])
        assert np.array_equal(_solve_spd(system, rhs, "X-update"), lu_solve(system, rhs))

    def test_singular_indefinite_system_is_a_breakdown(self):
        with pytest.raises(AdmmBreakdownError, match="X-update"):
            _solve_spd(np.diag([1.0, 0.0, -1.0]), np.ones((3, 1)), "X-update")

    def test_z_system_breakdown_is_raised_before_any_sweep(self):
        # A A^T is singular and beta I + gamma N N^T vanishes against it,
        # so the Z system has no Cholesky factor: the solve fails at set-up
        # and no partial report exists.
        p = CareProblem(a=[[1.0, 0.0], [1.0, 0.0]], n_mat=np.zeros((2, 2)), k_mat=np.eye(2))
        with pytest.raises(AdmmBreakdownError, match="Z-update") as err:
            solve_care_admm(p, AdmmConfig(beta=1e-300, gamma=1e-300))
        assert err.value.report is None


@pytest.mark.parametrize(
    "method, problem, params",
    [
        ("admm", CareProblem(a=[[1e200]], n_mat=[[1.0]], k_mat=[[1.0]]),
         {"alpha": 1, "beta": 1, "gamma": 1, "max_iterations": 5}),
        ("admm", LyapunovProblem(a=[[1e200]], q=[[1.0]]), {"max_iterations": 5}),
        ("newton-admm", CareProblem(a=[[1e200]], n_mat=[[1.0]], k_mat=[[1.0]]), {}),
    ],
    ids=["care-admm", "lyapunov-admm", "newton-admm"],
)
def test_overflowing_set_up_is_a_breakdown(method, problem, params):
    # A A^T overflows, so the sweep systems are infinite: the set-up
    # raises before any sweep, where sweeps would leave X stuck at 0.
    # numpy warns of the overflow once, unless the set-up runs inside a
    # driver loop: newton-admm's, which also attaches its partial report.
    in_loop = method == "newton-admm"
    with contextlib.nullcontext() if in_loop else pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(AdmmBreakdownError, match="X-update system is not finite") as err:
            run_method(method, problem, params)
    if in_loop:
        report = err.value.report
        assert (report.termination, report.iterations, report.residual_history) == (
            "error", 0, [1.0]
        )
    else:
        assert err.value.report is None


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

    def test_decrease_inequality(self, rng, sweep_records):
        p = random_care(rng)
        cfg = AdmmConfig(alpha=0.9, beta=3.0, gamma=0.1, tol=1e-8, max_iterations=300)
        report = solve_care_admm(p, cfg)
        assert len(sweep_records) == report.iterations > 0
        for k, (_, s, s_new) in enumerate(sweep_records):
            d = block_deltas(s, s_new)
            rhs = (
                cfg.beta / 2 * d["dx2"] + cfg.alpha / 2 * d["dy2"]
                + cfg.beta / 2 * d["dz2"] + cfg.gamma / 2 * d["dw2"]
                - d["dlambda2"] / cfg.alpha - d["dpi2"] / cfg.beta
                - d["dgamma2"] / cfg.gamma
            )
            assert lagrangian_value(p, s, cfg) - lagrangian_value(p, s_new, cfg) >= rhs - 1e-8, k

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

    def test_iteration_cap(self):
        p = scalar_problem()
        report = solve_care_admm(p, AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01,
                                               tol=1e-300, max_iterations=10))
        assert report.termination == "max_iterations"
        assert report.iterations == 10

    def test_diagnostics_present(self):
        p = scalar_problem()
        params = {"alpha": 1.0, "beta": 1.0, "gamma": 0.01}
        report = run_method("admm", p, params)
        assert set(report.detail) == {
            "state", "final_kkt_residuals", "final_lagrangian", "certificate"
        }
        state = report.detail["state"]
        assert report.detail["final_lagrangian"] == lagrangian_value(p, state, AdmmConfig(**params))
        cert = report.detail["certificate"]
        assert cert["asymmetry"] == 0.0  # a 1 x 1 X is symmetric
        # scalar stabilizing solution: a - n x < 0
        assert cert["closed_loop_max_real_eig"] < 0 and cert["root"] == "stabilizing"


def _care_run():
    return solve_care_admm(
        scalar_problem(), AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01, max_iterations=40)
    )


def _lyapunov_run():
    p = LyapunovProblem(a=[[-2.0, 1.0], [0.0, -3.0]], q=np.eye(2))
    return solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=2.0, inner_max=40))


@pytest.mark.parametrize("run", [_care_run, _lyapunov_run], ids=["care", "lyapunov"])
def test_both_splittings_share_the_loop_record(run):
    plain = run()
    with recorded_sweeps() as records:
        recorded = run()
    for report in (plain, recorded):
        assert report.iterations > 0
        assert "state" in report.detail and "asymmetry" not in report.detail
    # one record per sweep, each sweep reading the state the last one made
    assert len(records) == recorded.iterations
    assert all(before[2] is after[1] for before, after in zip(records, records[1:]))
    assert records[-1][2] is recorded.detail["state"]
    # recording only observes: the run itself is the same
    assert recorded.residual_history == plain.residual_history


T8_16 = table_source("t8", 16).build()
LYAP_8 = LyapunovProblem(
    a=np.diag(np.full(7, 1.0), 1) - 4.0 * np.eye(8) + np.diag(np.full(7, 0.5), -1),
    q=np.eye(8),
)
SWEEP_GLOBALS = {"care": (care_admm, "admm_step"), "lyapunov": (newton_admm, "lyap_admm_step")}
BLOCK_NAMES = {
    "care": {"x", "y", "z", "w", "lambda_", "pi_", "gamma_"},
    "lyapunov": {"x", "y", "z", "lambda_", "pi_"},
}


T8_16_PARAMS = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014, "tol": 1e-300}
T8_16_CFG = AdmmConfig(**T8_16_PARAMS)


def _sweeps(splitting, sweeps):
    """``sweeps`` sweeps of one splitting, none of them stopped by the tolerance."""
    if splitting == "care":
        return solve_care_admm(T8_16, replace(T8_16_CFG, max_iterations=sweeps))
    return _lyap_sweeps(sweeps)


def _lyap_sweeps(sweeps, init=None):
    """``sweeps`` Lyapunov ADMM sweeps from ``init``, none stopped by the tolerance."""
    return solve_lyapunov_admm(LYAP_8, NewtonAdmmConfig(tol=1e-300, inner_max=sweeps), init=init)


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


class TestSweepLoop:
    def test_warm_start_continues_the_run_to_the_bit(self):
        # The warm start forms every product afresh, the long run carries
        # them from sweep to sweep: a stale product would split the two.
        whole = _lyap_sweeps(70)
        first = _lyap_sweeps(40)
        rest = _lyap_sweeps(30, init=first.detail["state"])
        assert (whole.iterations, first.iterations, rest.iterations) == (70, 40, 30)
        assert rest.residual_history == whole.residual_history[40:]
        assert np.array_equal(rest.solution, whole.solution)
        for f in fields(whole.detail["state"]):
            assert np.array_equal(
                getattr(rest.detail["state"], f.name), getattr(whole.detail["state"], f.name)
            ), f.name

    @pytest.mark.parametrize("splitting", ["care", "lyapunov"])
    def test_block_deltas_name_the_blocks_only(self, splitting, sweep_records):
        report = _sweeps(splitting, 5)
        names = {f"d{name.rstrip('_')}2" for name in BLOCK_NAMES[splitting]}
        assert [set(block_deltas(s, new)) for _, s, new in sweep_records] == [names] * 5
        assert {f.name for f in fields(report.detail["state"])} == BLOCK_NAMES[splitting]

    @pytest.mark.parametrize("splitting", ["care", "lyapunov"])
    def test_blow_up_ends_diverged(self, splitting, monkeypatch):
        _blow_up_from(monkeypatch, splitting, 5)
        with np.errstate(invalid="ignore", over="ignore"):
            report = _sweeps(splitting, 50)
        assert (report.termination, report.iterations) == ("diverged", 5)
        assert len(report.residual_history) == report.iterations + 1
        assert np.isfinite(report.residual_history[:-1]).all()
        assert not np.isfinite(report.final_residual)

    @pytest.mark.parametrize("splitting", ["care", "lyapunov"])
    def test_blow_up_raises_no_warning(self, splitting, monkeypatch):
        # The solve quiets numpy's inf/NaN warnings itself: the
        # ``diverged`` label already records the blow-up.  The CARE run
        # goes through ``run_method``, which adds the certificate.
        _blow_up_from(monkeypatch, splitting, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if splitting == "care":
                report = run_method("admm", T8_16, {**T8_16_PARAMS, "max_iterations": 50})
            else:
                report = _sweeps(splitting, 50)
        assert (report.termination, report.iterations) == ("diverged", 5)
        if splitting == "care":
            assert not np.isfinite(report.detail["final_kkt_residuals"]).any()
            assert not np.isfinite(report.detail["final_lagrangian"])
            cert = report.detail["certificate"]
            assert np.isnan(cert["closed_loop_max_real_eig"]) and cert["root"] is None

    def test_init_is_read_not_written(self):
        init = _lyap_sweeps(3).detail["state"]
        blocks = {f.name: getattr(init, f.name) for f in fields(init)}
        before = {name: block.copy() for name, block in blocks.items()}
        _lyap_sweeps(5, init=init)
        for name, block in blocks.items():
            assert getattr(init, name) is block
            assert np.array_equal(block, before[name]), name

    def test_non_finite_init_is_rejected(self):
        init = _lyap_sweeps(3).detail["state"]
        init.y[0, 0] = np.inf
        with pytest.raises(ValueError, match="block y"):
            _lyap_sweeps(3, init=init)

    def test_wrongly_shaped_init_is_rejected(self):
        n = LYAP_8.order
        with pytest.raises(DimensionError):
            _lyap_sweeps(3, init=LyapAdmmState.zero(n + 1))
        with pytest.raises(DimensionError, match="block z"):
            _lyap_sweeps(3, init=replace(LyapAdmmState.zero(n), z=np.zeros((n, n + 1))))

    def test_init_is_checked_finite_first_then_shape(self):
        # as the problem matrices are: a block that is both wrongly
        # shaped and not finite fails the finite check
        n = LYAP_8.order
        z = np.zeros((n, n + 1))
        z[0, 0] = np.nan
        with pytest.raises(ValueError, match="^block z contains non-finite entries$") as err:
            _lyap_sweeps(3, init=replace(LyapAdmmState.zero(n), z=z))
        assert not isinstance(err.value, DimensionError)


def test_carried_products_equal_products_formed_afresh():
    # A sweep reads the Z A and T its state carries; the same blocks
    # without them must give the same sweep, to the bit.
    const = sweep_constants(T8_16, T8_16_CFG)
    state = AdmmState.zero(T8_16.order)
    for _ in range(40):
        state = admm_step(T8_16, state, T8_16_CFG, const)
    bare = AdmmState(*(getattr(state, f.name) for f in fields(state)))
    assert state.products is not None and bare.products is None
    carried = admm_step(T8_16, state, T8_16_CFG, const)
    fresh = admm_step(T8_16, bare, T8_16_CFG, const)
    for f in fields(carried):
        assert np.array_equal(getattr(carried, f.name), getattr(fresh, f.name)), f.name
    for name in ("za", "t", "atx"):
        assert np.array_equal(carried.carried(T8_16, name), fresh.carried(T8_16, name)), name


def test_start_state_dies_with_the_first_sweep():
    # The loop pops its start from the list it is handed, so once the
    # first sweep is done no reference to the start state is left.
    cfg = NewtonAdmmConfig()
    inverses = newton_admm._factors(LYAP_8, cfg)
    start = [LyapAdmmState.zero(LYAP_8.order)]
    start_block = weakref.ref(start[0].x)
    alive = []

    def sweep(state):
        alive.append(start_block() is not None)
        return newton_admm.lyap_admm_step(LYAP_8, state, cfg, inverses)

    report = care_admm.sweep_until(
        start, sweep, lambda state: newton_admm.lyapunov_residual(LYAP_8, state.x), 1e-300, 3
    )
    assert report.iterations == 3 and start == []
    assert alive == [True, False, False]


# Peak traced allocation of t8 admm at n=128, capped at 40 sweeps, in
# n x n blocks (problem built beforehand): a sweep holds the state it
# reads, the one it builds and its temporaries.  It was 38 when the start
# state and the old state's carried products lived through the loop, and
# 29 while the sweep constants kept the unfactored Z system and a sweep
# held each system and right-hand side past its solve.
ADMM_PEAK_BLOCKS = 23


def test_admm_peak_memory():
    n = 128
    p = table_source("t8", n).build()
    params = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014, "max_iterations": 40}
    report, peak = peak_blocks(lambda: run_method("admm", p, params), n)
    assert report.iterations == 40
    assert round(peak) <= ADMM_PEAK_BLOCKS


class TestConfigValidation:
    def test_positive_penalties(self):
        with pytest.raises(ValueError):
            AdmmConfig(alpha=0.0)
