import warnings

import numpy as np
import pytest

from conftest import block_deltas, frechet_apply, lyap_lagrangian_value, peak_blocks
from matrixopt import newton_admm
from matrixopt.baselines import care_residual, solve_lyapunov_direct
from matrixopt.errors import AdmmBreakdownError
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import frobenius_norm, symmetrize
from matrixopt.newton_admm import (
    LyapAdmmState,
    NewtonAdmmConfig,
    lyap_admm_step,
    lyapunov_residual,
    solve_lyapunov_admm,
    solve_newton_admm,
)
from matrixopt.problems import CareProblem, LyapunovProblem, gen_tridiagonal, table_source


def scalar_lyapunov():
    return LyapunovProblem(a=[[-2.0]], q=[[3.0]])


def scalar_fixed_state():
    # x solves -4x + 3 = 0; y = a x; z = x; both multipliers vanish
    return LyapAdmmState(
        x=np.array([[0.75]]),
        y=np.array([[-1.5]]),
        z=np.array([[0.75]]),
        lambda_=np.zeros((1, 1)),
        pi_=np.zeros((1, 1)),
    )


def t9_problem(n=16):
    bt = gen_tridiagonal(n, 5, 2, 1)
    return CareProblem(a=gen_tridiagonal(n, 6, 2, 1), n_mat=bt.T @ bt, k_mat=np.eye(n))


def outer_iterates(monkeypatch):
    """The list each later newton-admm run appends its outer iterates to,
    recorded through the Riccati residual it reads from its module."""
    seen, residual = [], newton_admm.care_residual

    def recording(p, x, *args):
        seen.append(x.copy())
        return residual(p, x, *args)

    monkeypatch.setattr(newton_admm, "care_residual", recording)
    return seen


def stable_random_care(rng, n=4):
    b = rng.standard_normal((n, 2))
    return CareProblem(
        a=rng.standard_normal((n, n)) - (n + 3) * np.eye(n),
        n_mat=b @ b.T,
        k_mat=np.eye(n),
    )


class TestLyapAdmmStep:
    def test_one_step_from_zero(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = rng.standard_normal((3, 3))
        q = q @ q.T
        p = LyapunovProblem(a=a, q=q)
        cfg = NewtonAdmmConfig(alpha=0.9, beta=7.0)
        s1 = lyap_admm_step(p, LyapAdmmState.zero(3), cfg, newton_admm._factors(p, cfg))
        np.testing.assert_allclose(s1.x, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(s1.y, -q / (1.0 + cfg.alpha), atol=1e-14)
        z_sys = a @ a.T + cfg.beta * np.eye(3)
        z_expected = np.linalg.solve(z_sys.T, ((-s1.y - q) @ a.T).T).T
        np.testing.assert_allclose(s1.z, z_expected, atol=1e-12)

    def test_fixed_point_invariance(self):
        p = scalar_lyapunov()
        s = scalar_fixed_state()
        cfg = NewtonAdmmConfig(alpha=1.0, beta=1.0)
        s2 = lyap_admm_step(p, s, cfg, newton_admm._factors(p, cfg))
        for name in ("x", "y", "z", "lambda_", "pi_"):
            np.testing.assert_allclose(getattr(s2, name), getattr(s, name), atol=1e-9)

    def test_multiplier_identities(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = rng.standard_normal((3, 3))
        p = LyapunovProblem(a=a, q=q @ q.T)
        cfg = NewtonAdmmConfig(alpha=0.9, beta=7.0)
        inverses = newton_admm._factors(p, cfg)
        s = LyapAdmmState.zero(3)
        for _ in range(4):
            s_new = lyap_admm_step(p, s, cfg, inverses)
            scale = 1e-13 * (1.0 + frobenius_norm(s_new.x))
            np.testing.assert_allclose(
                s_new.lambda_ - s.lambda_,
                -cfg.alpha * (p.a.T @ s_new.x - s_new.y),
                atol=scale,
            )
            np.testing.assert_allclose(
                s_new.pi_ - s.pi_, -cfg.beta * (s_new.x - s_new.z), atol=scale
            )
            s = s_new

    def test_decrease_inequality(self, rng, sweep_records):
        a = rng.standard_normal((4, 4)) - 5 * np.eye(4)
        q = rng.standard_normal((4, 4))
        p = LyapunovProblem(a=a, q=q @ q.T + np.eye(4))
        cfg = NewtonAdmmConfig(alpha=0.9, beta=7.0, tol=1e-10, inner_max=400)
        report = solve_lyapunov_admm(p, cfg)
        assert len(sweep_records) == report.iterations > 0
        for k, (_, s, s_new) in enumerate(sweep_records):
            d = block_deltas(s, s_new)
            rhs = (
                cfg.beta / 2 * d["dx2"] + cfg.alpha / 2 * d["dy2"]
                + cfg.beta / 2 * d["dz2"]
                - d["dlambda2"] / cfg.alpha - d["dpi2"] / cfg.beta
            )
            drop = lyap_lagrangian_value(p, s, cfg) - lyap_lagrangian_value(p, s_new, cfg)
            assert drop >= rhs - 1e-8, k


class TestSolveLyapunovAdmm:
    def test_scalar_run(self):
        report = solve_lyapunov_admm(
            scalar_lyapunov(), NewtonAdmmConfig(alpha=1.0, beta=1.0, tol=1e-8)
        )
        assert report.converged
        assert report.solution[0, 0] == pytest.approx(0.75, abs=1e-7)

    def test_decoupled_oracle(self):
        p = LyapunovProblem(a=np.diag([-1.0, -2.0]), q=np.eye(2))
        report = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=2.0, tol=1e-9))
        assert report.converged
        np.testing.assert_allclose(report.solution, np.diag([0.5, 0.25]), atol=1e-6)

    def test_zero_rhs(self):
        p = LyapunovProblem(a=np.diag([-1.0, -2.0]), q=np.zeros((2, 2)))
        report = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=2.0))
        assert report.converged and report.iterations == 0

    def test_matches_direct_on_random_stable(self, rng):
        for _ in range(3):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n)) - (n + 3) * np.eye(n)
            q = rng.standard_normal((n, n))
            p = LyapunovProblem(a=a, q=q @ q.T + np.eye(n))
            report = solve_lyapunov_admm(
                p, NewtonAdmmConfig(alpha=1.0, beta=10.0, tol=1e-9, inner_max=20_000)
            )
            assert report.converged
            x_direct = solve_lyapunov_direct(p)
            assert frobenius_norm(report.solution - x_direct) <= 1e-6

    def test_solution_symmetrized(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = rng.standard_normal((3, 3))
        p = LyapunovProblem(a=a, q=q @ q.T)
        report = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=5.0, tol=1e-9))
        np.testing.assert_array_equal(report.solution, report.solution.T)
        x = report.detail["state"].x
        assert frobenius_norm(x - x.T) > 0
        np.testing.assert_array_equal(report.solution, symmetrize(x))

    def test_settings_come_from_the_config(self, rng):
        a = rng.standard_normal((4, 4)) - 5 * np.eye(4)
        q = rng.standard_normal((4, 4))
        p = LyapunovProblem(a=a, q=q @ q.T + np.eye(4))
        capped = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=5.0, inner_max=3))
        assert capped.termination == "max_iterations" and capped.iterations == 3
        assert len(capped.residual_history) == 4 and set(capped.detail) == {"state"}

        report = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=5.0, tol=1e-6))
        assert report.converged
        assert report.residual_history[-1] <= 1e-6 < min(report.residual_history[:-1])


class TestFrechetApply:
    def test_zero_direction(self, rng):
        p = stable_random_care(rng)
        x = np.eye(4)
        np.testing.assert_array_equal(frechet_apply(p, x, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_at_zero_reduces_to_lyapunov_operator(self, rng):
        p = stable_random_care(rng)
        e = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            frechet_apply(p, np.zeros((4, 4)), e), p.a.T @ e + e @ p.a
        )

    def test_linearity(self, rng):
        p = stable_random_care(rng)
        x = rng.standard_normal((4, 4))
        e1 = rng.standard_normal((4, 4))
        e2 = rng.standard_normal((4, 4))
        lhs = frechet_apply(p, x, 2.0 * e1 - 3.0 * e2)
        rhs = 2.0 * frechet_apply(p, x, e1) - 3.0 * frechet_apply(p, x, e2)
        assert frobenius_norm(lhs - rhs) <= 1e-12 * max(1.0, frobenius_norm(rhs))

    @pytest.mark.parametrize("h", [1e-4, 1e-5])
    def test_directional_derivative(self, rng, h):
        # the residual map is quadratic: [F(x+hE) - F(x)]/h differs from
        # the derivative by exactly -h E N E
        p = stable_random_care(rng, n=3)
        x = rng.standard_normal((3, 3))
        x = 0.5 * (x + x.T)
        e = rng.standard_normal((3, 3))
        f = lambda z: p.a.T @ z + z @ p.a - z @ p.n_mat @ z + p.k_mat  # noqa: E731
        fd = (f(x + h * e) - f(x)) / h
        gap = fd - frechet_apply(p, x, e)
        correction = -h * (e @ p.n_mat @ e)
        assert frobenius_norm(gap - correction) <= 1e-7 * max(1.0, frobenius_norm(fd))


class TestSolveNewtonAdmm:
    def test_scalar_converges(self):
        p = CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=1.0, beta=1.0))
        assert report.converged
        assert report.solution[0, 0] == pytest.approx(0.1354066, abs=1e-7)

    def test_records_a_non_stabilizing_root(self):
        p = t9_problem(4)
        report = run_method("newton-admm", p, {"alpha": 0.8, "beta": 53.5})
        assert report.converged
        cert = report.detail["certificate"]
        assert cert["closed_loop_max_real_eig"] > 0 and cert["root"] == "anti-stabilizing"

    def test_t9_iteration_accounting(self):
        p = t9_problem(16)
        cfg = NewtonAdmmConfig(alpha=0.8, beta=53.5)
        report = solve_newton_admm(p, cfg=cfg)
        assert report.converged
        per_outer = report.detail["inner_iterations_per_outer"]
        assert report.iterations == sum(per_outer)
        assert report.detail["outer_iterations"] == len(per_outer)
        assert len(report.residual_history) == len(per_outer) + 1

    def test_inner_blow_up_ends_the_run_diverged(self, monkeypatch):
        p = t9_problem(16)
        params = {"alpha": 0.8, "beta": 53.5}
        trace = outer_iterates(monkeypatch)
        clean = run_method("newton-admm", p, params)
        first_step = trace[1]
        first, second = clean.detail["inner_iterations_per_outer"][:2]
        assert second > 3
        sweep, calls, warm = newton_admm.lyap_admm_step, [], []
        solve = newton_admm.solve_lyapunov_admm

        def recorded(lp, cfg, init=None):
            warm.append(init is not None)
            return solve(lp, cfg, init=init)

        def blown(lp, s, *args):
            # three sweeps into the second outer step, every block overflows
            calls.append(1)
            if len(calls) < first + 3:
                return sweep(lp, s, *args)
            return LyapAdmmState(*(np.full_like(s.x, np.inf) for _ in range(5)))

        monkeypatch.setattr(newton_admm, "solve_lyapunov_admm", recorded)
        monkeypatch.setattr(newton_admm, "lyap_admm_step", blown)
        with np.errstate(invalid="ignore", over="ignore"):
            report = run_method("newton-admm", p, params)
        # the second inner solve, handed the first one's final state, blew
        # up; the diverged outer step is not counted, the report is the
        # first step's
        assert warm == [False, True]
        assert report.termination == "diverged"
        assert report.detail["inner_iterations_per_outer"] == [first]
        assert report.iterations == first
        assert len(report.residual_history) == report.detail["outer_iterations"] + 1 == 2
        assert report.residual_history == clean.residual_history[:2]
        assert np.array_equal(report.solution, first_step)
        assert np.isfinite(report.detail["certificate"]["closed_loop_max_real_eig"])

    def test_warm_started_inner_error_counts_the_finished_inner_sweeps(self, monkeypatch):
        # The second inner solve, handed the first one's final state,
        # raises three sweeps in: the error's partial report counts the
        # first outer step's inner sweeps.
        p = t9_problem(16)
        cfg = NewtonAdmmConfig(alpha=0.8, beta=53.5)
        clean = solve_newton_admm(p, cfg=cfg)
        done = clean.detail["inner_iterations_per_outer"][0]
        sweep, calls = newton_admm.lyap_admm_step, []

        def breaks(lp, s, *args):
            calls.append(1)
            if len(calls) < done + 3:
                return sweep(lp, s, *args)
            raise AdmmBreakdownError("sweep system breaks down")

        monkeypatch.setattr(newton_admm, "lyap_admm_step", breaks)
        with pytest.raises(AdmmBreakdownError) as exc:
            solve_newton_admm(p, cfg=cfg)
        report = exc.value.report
        assert (report.termination, report.iterations) == ("error", done)
        assert report.detail["outer_iterations"] == 1

    def test_inner_blow_up_raises_no_warning(self, monkeypatch):
        p = t9_problem(16)
        monkeypatch.setattr(
            newton_admm, "lyap_admm_step",
            lambda lp, s, *args: LyapAdmmState(*(np.full_like(s.x, np.inf) for _ in range(5))),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=0.8, beta=53.5))
        assert (report.termination, report.iterations) == ("diverged", 0)

    def test_outer_iterates_symmetric(self, rng, monkeypatch):
        p = stable_random_care(rng)
        trace = outer_iterates(monkeypatch)
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=1.0, beta=5.0))
        assert report.converged
        assert len(trace) == len(report.residual_history)
        for x in trace:
            assert frobenius_norm(x - x.T) <= 1e-10

    def test_newton_step_consistency(self, rng, monkeypatch):
        # each inner solution satisfies the linearized equation: the
        # derivative applied to the step matches minus the residual map
        # within the inner tolerance
        p = stable_random_care(rng)
        cfg = NewtonAdmmConfig(alpha=1.0, beta=5.0, tol=1e-11, inner_tol_value=1e-6)
        trace = outer_iterates(monkeypatch)
        report = solve_newton_admm(p, cfg=cfg)
        assert report.converged
        f = lambda z: p.a.T @ z + z @ p.a - z @ p.n_mat @ z + p.k_mat  # noqa: E731
        for k in range(len(trace) - 1):
            step = trace[k + 1] - trace[k]
            lhs = frechet_apply(p, trace[k], step)
            # symmetrization of the inner solve perturbs the identity by
            # no more than the recorded asymmetry, folded into the bound
            tol = max(report.detail["inner_tolerances"][k], 1e-9)
            assert frobenius_norm(lhs + f(trace[k])) <= 10.0 * tol

    def test_matches_exact_newton_with_tight_inner(self, rng, monkeypatch):
        p = stable_random_care(rng, n=4)
        # a forcing factor of 1e-6 and a tight outer tolerance keep every
        # inner solve near exact
        params = {"alpha": 1.0, "beta": 8.0, "tol": 1e-11, "inner_tol_value": 1e-6,
                  "inner_max": 50_000}
        trace = outer_iterates(monkeypatch)
        inexact = run_method("newton-admm", p, params)
        exact = run_method("newton", p, {"tol": 1e-8, "max_iterations": 30})
        assert inexact.converged and exact.converged
        # the same root, certified by the same record
        na_cert, cert = inexact.detail["certificate"], exact.detail["certificate"]
        assert set(na_cert) == set(cert)
        assert na_cert["root"] == cert["root"] == "stabilizing"
        assert na_cert["closed_loop_max_real_eig"] == pytest.approx(
            cert["closed_loop_max_real_eig"], rel=1e-6
        )
        na_trace = trace[1:]
        # replay the exact recurrence to collect its iterates
        x = np.zeros((4, 4))
        for k in range(min(len(na_trace), exact.iterations)):
            a_k = p.a - p.n_mat @ x
            q_k = x @ p.n_mat @ x + p.k_mat
            x = solve_lyapunov_direct(LyapunovProblem(a=a_k, q=0.5 * (q_k + q_k.T)))
            assert frobenius_norm(na_trace[k] - x) <= 1e-6 * (1.0 + frobenius_norm(x))

    def test_stagnation_on_tiny_inner_budget(self, rng):
        p = stable_random_care(rng)
        cfg = NewtonAdmmConfig(alpha=1.0, beta=5.0, inner_max=2)
        report = solve_newton_admm(p, cfg=cfg)
        assert report.termination == "stagnated"

    def test_zero_initial_residual(self):
        p = CareProblem(a=[[-1.0]], n_mat=[[0.0]], k_mat=[[0.0]])
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=1.0, beta=1.0))
        assert report.converged and report.iterations == 0


# A A^T has entries of 1e300 and is singular, so beta I rounds away in
# both constant sweep systems and Cholesky rejects each.
HUGE_SINGULAR_A = np.array([[1e150, 0.0], [1e150, 0.0]])
SINGULAR_SWEEP = "^sweep system not positive definite: 2-th leading minor"


def test_lyapunov_admm_breaks_down_on_a_sweep_system_rounded_singular():
    with pytest.raises(AdmmBreakdownError, match=SINGULAR_SWEEP) as err:
        run_method("admm", LyapunovProblem(a=HUGE_SINGULAR_A, q=np.eye(2)))
    assert err.value.report is None


def test_newton_admm_breakdown_carries_its_partial_report():
    p = CareProblem(a=HUGE_SINGULAR_A, n_mat=np.eye(2), k_mat=np.eye(2))
    with pytest.raises(AdmmBreakdownError, match=SINGULAR_SWEEP) as err:
        run_method("newton-admm", p)
    report = err.value.report
    assert (report.termination, report.iterations) == ("error", 0)
    assert report.residual_history == [care_residual(p, np.zeros((2, 2)))]
    assert report.detail["outer_iterations"] == 0


# Peak traced allocation of t9 newton-admm at n=128, in n x n blocks
# (problem built beforehand): the problem and its Lyapunov step, the two
# sweep factors, the outer iterate, and the inner state a sweep reads
# and the one it builds.  It was 24 when the start state and the warm
# start handed to the inner solve lived through the inner loop.
NEWTON_ADMM_PEAK_BLOCKS = 20


def test_newton_admm_peak_memory():
    n = 128
    p = table_source("t9", n).build()
    params = {"alpha": 0.8, "beta": 53.5}
    report, peak = peak_blocks(lambda: run_method("newton-admm", p, params), n)
    assert report.converged and report.iterations == 80
    assert round(peak) <= NEWTON_ADMM_PEAK_BLOCKS


class TestLyapLagrangian:
    def test_zero_state_value(self):
        p = scalar_lyapunov()
        cfg = NewtonAdmmConfig(alpha=1.0, beta=1.0)
        assert lyap_lagrangian_value(p, LyapAdmmState.zero(1), cfg) == pytest.approx(
            0.5 * 9.0
        )

    def test_residual_helper(self):
        p = scalar_lyapunov()
        assert lyapunov_residual(p, np.array([[0.75]])) <= 1e-14
        assert lyapunov_residual(p, np.zeros((1, 1))) == pytest.approx(3.0)


class TestConfigValidation:
    def test_forcing_factor_range(self):
        for factor in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="forcing factor"):
                NewtonAdmmConfig(inner_tol_value=factor)
