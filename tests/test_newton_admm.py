import warnings

import numpy as np
import pytest

from matrixopt import newton_admm
from matrixopt.baselines import (
    BaselineConfig,
    care_residual,
    solve_lyapunov_direct,
    solve_newton_care,
)
from matrixopt.errors import DimensionError, PreconditionError
from matrixopt.linalg import frobenius_norm
from matrixopt.newton_admm import (
    LyapAdmmState,
    NewtonAdmmConfig,
    frechet_apply,
    lyap_admm_step,
    lyap_lagrangian_value,
    lyapunov_residual,
    solve_lyapunov_admm,
    solve_newton_admm,
)
from matrixopt.problems import CareProblem, LyapunovProblem, gen_tridiagonal


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
        s1 = lyap_admm_step(p, LyapAdmmState.zero(3), cfg)
        np.testing.assert_allclose(s1.x, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(s1.y, -q / (1.0 + cfg.alpha), atol=1e-14)
        z_sys = a @ a.T + cfg.beta * np.eye(3)
        z_expected = np.linalg.solve(z_sys.T, ((-s1.y - q) @ a.T).T).T
        np.testing.assert_allclose(s1.z, z_expected, atol=1e-12)

    def test_fixed_point_invariance(self):
        p = scalar_lyapunov()
        s = scalar_fixed_state()
        s2 = lyap_admm_step(p, s, NewtonAdmmConfig(alpha=1.0, beta=1.0))
        for name in ("x", "y", "z", "lambda_", "pi_"):
            np.testing.assert_allclose(getattr(s2, name), getattr(s, name), atol=1e-9)

    def test_multiplier_identities(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = rng.standard_normal((3, 3))
        p = LyapunovProblem(a=a, q=q @ q.T)
        cfg = NewtonAdmmConfig(alpha=0.9, beta=7.0)
        s = LyapAdmmState.zero(3)
        for _ in range(4):
            s_new = lyap_admm_step(p, s, cfg)
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

    def test_decrease_inequality(self, rng):
        a = rng.standard_normal((4, 4)) - 5 * np.eye(4)
        q = rng.standard_normal((4, 4))
        p = LyapunovProblem(a=a, q=q @ q.T + np.eye(4))
        cfg = NewtonAdmmConfig(alpha=0.9, beta=7.0, inner_max=400, track_inner_lagrangian=True)
        report = solve_lyapunov_admm(p, cfg, tol=1e-10)
        lag = report.detail["lagrangian_history"]
        for k, d in enumerate(report.detail["block_deltas"]):
            rhs = (
                cfg.beta / 2 * d["dx2"] + cfg.alpha / 2 * d["dy2"]
                + cfg.beta / 2 * d["dz2"]
                - d["dlambda2"] / cfg.alpha - d["dpi2"] / cfg.beta
            )
            assert lag[k] - lag[k + 1] >= rhs - 1e-8


class TestSolveLyapunovAdmm:
    def test_scalar_run(self):
        report = solve_lyapunov_admm(
            scalar_lyapunov(), NewtonAdmmConfig(alpha=1.0, beta=1.0), tol=1e-8
        )
        assert report.converged
        assert report.solution[0, 0] == pytest.approx(0.75, abs=1e-7)

    def test_decoupled_oracle(self):
        p = LyapunovProblem(a=np.diag([-1.0, -2.0]), q=np.eye(2))
        report = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=2.0), tol=1e-9)
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
                p, NewtonAdmmConfig(alpha=1.0, beta=10.0, inner_max=20_000), tol=1e-9
            )
            assert report.converged
            x_direct = solve_lyapunov_direct(p)
            assert frobenius_norm(report.solution - x_direct) <= 1e-6

    def test_solution_symmetrized(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = rng.standard_normal((3, 3))
        p = LyapunovProblem(a=a, q=q @ q.T)
        report = solve_lyapunov_admm(p, NewtonAdmmConfig(alpha=1.0, beta=5.0), tol=1e-9)
        np.testing.assert_array_equal(report.solution, report.solution.T)
        assert "asymmetry" in report.detail

    def test_settings_come_from_the_config(self, rng):
        a = rng.standard_normal((4, 4)) - 5 * np.eye(4)
        q = rng.standard_normal((4, 4))
        p = LyapunovProblem(a=a, q=q @ q.T + np.eye(4))
        capped = solve_lyapunov_admm(
            p, NewtonAdmmConfig(alpha=1.0, beta=5.0, inner_max=3, track_inner_lagrangian=True)
        )
        assert capped.termination == "max_iterations" and capped.iterations == 3
        assert len(capped.detail["lagrangian_history"]) == 4
        assert "lagrangian_history" not in solve_lyapunov_admm(p, NewtonAdmmConfig()).detail

        cfg = NewtonAdmmConfig(alpha=1.0, beta=5.0, outer_tol=1e-6)
        default = solve_lyapunov_admm(p, cfg)
        explicit = solve_lyapunov_admm(p, cfg, tol=cfg.outer_tol)
        assert default.converged and default.final_residual <= 1e-6
        assert default.iterations == explicit.iterations
        assert default.residual_history == explicit.residual_history
        np.testing.assert_array_equal(default.solution, explicit.solution)


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

    def test_shape_check(self, rng):
        p = stable_random_care(rng)
        with pytest.raises(DimensionError):
            frechet_apply(p, np.eye(4), np.eye(3))


class TestSolveNewtonAdmm:
    def test_scalar_converges(self):
        p = CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=1.0, beta=1.0))
        assert report.converged
        assert report.solution[0, 0] == pytest.approx(0.1354066, abs=1e-7)

    def test_records_a_non_stabilizing_root(self):
        p = t9_problem(4)
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=0.8, beta=53.5))
        assert report.converged
        assert report.detail["closed_loop_max_real_eig"] > 0

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
        cfg = NewtonAdmmConfig(alpha=0.8, beta=53.5)
        clean = solve_newton_admm(p, cfg=cfg)
        first, second = clean.detail["inner_iterations_per_outer"][:2]
        assert second > 3
        sweep, calls = newton_admm.lyap_admm_step, []

        def blown(lp, s, *args):
            # three sweeps into the second outer step, every block overflows
            calls.append(1)
            if len(calls) < first + 3:
                return sweep(lp, s, *args)
            return LyapAdmmState(*(np.full_like(s.x, np.inf) for _ in range(5)))

        monkeypatch.setattr(newton_admm, "lyap_admm_step", blown)
        with np.errstate(invalid="ignore", over="ignore"):
            report = solve_newton_admm(p, cfg=cfg)
        # the diverged outer step is not counted; the report is the first step's
        assert report.termination == "diverged"
        assert report.detail["inner_iterations_per_outer"] == [first]
        assert report.iterations == first
        assert len(report.residual_history) == report.detail["outer_iterations"] + 1 == 2
        assert report.residual_history == clean.residual_history[:2]
        assert np.array_equal(report.solution, clean.detail["outer_trace"][1])
        assert np.isfinite(report.detail["closed_loop_max_real_eig"])

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

    def test_outer_iterates_symmetric(self, rng):
        p = stable_random_care(rng)
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=1.0, beta=5.0))
        assert report.converged
        for x in report.detail["outer_trace"]:
            assert frobenius_norm(x - x.T) <= 1e-10

    def test_newton_step_consistency(self, rng):
        # each inner solution satisfies the linearized equation: the
        # derivative applied to the step matches minus the residual map
        # within the inner tolerance
        p = stable_random_care(rng)
        cfg = NewtonAdmmConfig(alpha=1.0, beta=5.0, inner_tol_mode="fixed",
                               inner_tol_value=1e-10)
        report = solve_newton_admm(p, cfg=cfg)
        assert report.converged
        trace = report.detail["outer_trace"]
        f = lambda z: p.a.T @ z + z @ p.a - z @ p.n_mat @ z + p.k_mat  # noqa: E731
        for k in range(len(trace) - 1):
            step = trace[k + 1] - trace[k]
            lhs = frechet_apply(p, trace[k], step)
            # symmetrization of the inner solve perturbs the identity by
            # no more than the recorded asymmetry, folded into the bound
            tol = max(report.detail["inner_tolerances"][k], 1e-9)
            assert frobenius_norm(lhs + f(trace[k])) <= 10.0 * tol

    def test_matches_exact_newton_with_tight_inner(self, rng):
        p = stable_random_care(rng, n=4)
        cfg = NewtonAdmmConfig(alpha=1.0, beta=8.0, inner_tol_mode="fixed",
                               inner_tol_value=1e-12, inner_max=50_000)
        inexact = solve_newton_admm(p, cfg=cfg)
        exact = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8, max_iterations=30))
        assert inexact.converged and exact.converged
        # the same root, certified by the same record
        assert inexact.detail["closed_loop_max_real_eig"] == pytest.approx(
            exact.detail["closed_loop_max_real_eig"], rel=1e-6
        )
        assert "symmetry_gap" in inexact.detail and "symmetry_gap" in exact.detail
        na_trace = inexact.detail["outer_trace"][1:]
        # replay the exact recurrence to collect its iterates
        x = np.zeros((4, 4))
        for k in range(min(len(na_trace), exact.iterations)):
            a_k = p.a - p.n_mat @ x
            q_k = x @ p.n_mat @ x + p.k_mat
            x = solve_lyapunov_direct(LyapunovProblem(a=a_k, q=0.5 * (q_k + q_k.T)))
            assert frobenius_norm(na_trace[k] - x) <= 1e-6 * (1.0 + frobenius_norm(x))

    def test_stagnation_on_tiny_inner_budget(self, rng):
        p = stable_random_care(rng)
        cfg = NewtonAdmmConfig(alpha=1.0, beta=5.0, inner_max=2,
                               inner_tol_mode="fixed", inner_tol_value=1e-14)
        report = solve_newton_admm(p, cfg=cfg)
        assert report.termination == "stagnated"

    def test_nonsymmetric_x0_rejected(self, rng):
        p = stable_random_care(rng)
        with pytest.raises(PreconditionError):
            solve_newton_admm(p, x0=np.triu(np.ones((4, 4))))

    def test_wrong_shape_x0_rejected(self, rng):
        p = stable_random_care(rng)
        with pytest.raises(DimensionError):
            solve_newton_admm(p, x0=np.eye(3))

    def test_zero_initial_residual(self):
        p = CareProblem(a=[[-1.0]], n_mat=[[0.0]], k_mat=[[0.0]])
        report = solve_newton_admm(p, cfg=NewtonAdmmConfig(alpha=1.0, beta=1.0))
        assert report.converged and report.iterations == 0


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
        with pytest.raises(ValueError):
            NewtonAdmmConfig(inner_tol_mode="forcing", inner_tol_value=1.5)

    def test_fixed_positive(self):
        with pytest.raises(ValueError):
            NewtonAdmmConfig(inner_tol_mode="fixed", inner_tol_value=0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            NewtonAdmmConfig(inner_tol_mode="adaptive")
