import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from conftest import random_sylvester
from matrixopt import baselines
from matrixopt.baselines import (
    BaselineConfig,
    care_residual,
    solve_anderson_richardson,
    solve_cg,
    solve_lyapunov_direct,
    solve_newton_care,
)
from matrixopt.errors import (
    NewtonBreakdownError,
    PreconditionError,
    SingularMatrixError,
)
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import frobenius_norm, symmetrize, trace_inner
from matrixopt.problems import (
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    gen_tridiagonal,
    paper_suite,
)


def scalar_care(a=-2.0, n=25.0, k=1.0):
    problem = CareProblem(a=[[a]], n_mat=[[n]], k_mat=[[k]])
    stabilizing_root = (a + np.sqrt(a * a + n * k)) / n
    return problem, stabilizing_root


class TestConjugateGradient:
    def test_one_dimensional(self):
        p = SylvesterProblem(a=[[5.0]], b=[[6.0]], c=[[1.0]])
        report = solve_cg(p)
        assert report.converged and report.iterations == 1
        assert report.solution[0, 0] == pytest.approx(1.0 / 11.0)

    def test_zero_rhs_needs_no_iteration(self):
        p = SylvesterProblem(a=np.eye(3), b=np.eye(3), c=np.zeros((3, 3)))
        report = solve_cg(p)
        assert report.converged and report.iterations == 0

    def test_t6_family(self):
        p = SylvesterProblem(
            a=gen_tridiagonal(128, 5, -1, -1),
            b=gen_tridiagonal(128, 6, 2, 2),
            c=np.eye(128),
        )
        report = solve_cg(p, BaselineConfig(tol=1e-12))
        assert report.converged and report.iterations <= 30
        assert report.final_residual <= 1e-12

    def test_rejects_nonsymmetric(self, rng):
        p = random_sylvester(rng, 3, 3)  # not symmetric
        with pytest.raises(PreconditionError):
            solve_cg(p)

    def test_matches_oracle(self, rng):
        p = random_sylvester(rng, 4, 4, spd=True)
        report = solve_cg(p, BaselineConfig(tol=1e-12))
        x_star = scipy.linalg.solve_sylvester(p.a, p.b, p.c)
        assert frobenius_norm(report.solution - x_star) <= 1e-6 * (
            1.0 + frobenius_norm(x_star)
        )

    def test_directions_pairwise_conjugate(self, rng):
        p = random_sylvester(rng, 5, 5, spd=True)
        dirs = []

        class Recording(SylvesterProblem):
            def apply(self, x):
                dirs.append(x.copy())
                return super().apply(x)

        report = solve_cg(Recording(p.a, p.b, p.c), BaselineConfig(tol=1e-12))
        assert report.converged and len(dirs) == report.iterations >= 2
        dirs = dirs[:5]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                li = p.a @ dirs[i] + dirs[i] @ p.b
                bound = 1e-8 * frobenius_norm(dirs[i]) * frobenius_norm(dirs[j])
                assert abs(trace_inner(li, dirs[j])) <= bound


class TestAndersonRichardson:
    def test_scalar_contraction(self):
        p = SylvesterProblem(a=[[1.0]], b=[[1.0]], c=[[2.0]])
        report = solve_anderson_richardson(p, BaselineConfig(tol=1e-12))
        assert report.converged and report.detail["omega"] == 0.5
        assert report.solution[0, 0] == pytest.approx(1.0)

    def test_fixed_point_input(self):
        p = SylvesterProblem(a=np.eye(2), b=np.eye(2), c=np.zeros((2, 2)))
        report = solve_anderson_richardson(p)
        assert report.converged and report.iterations == 0

    def test_t6_family_converges(self):
        p = SylvesterProblem(
            a=gen_tridiagonal(128, 5, -1, -1),
            b=gen_tridiagonal(128, 6, 2, 2),
            c=np.eye(128),
        )
        report = solve_anderson_richardson(p, BaselineConfig(tol=1e-8))
        assert report.converged and report.final_residual <= 1e-8

    def test_divergence_detected(self):
        p = SylvesterProblem(a=[[0.0, -5.0], [5.0, 0.0]], b=[[0.1]], c=[[1.0], [1.0]])
        report = solve_anderson_richardson(p, BaselineConfig(max_iterations=500))
        assert report.termination == "diverged"

    @pytest.mark.parametrize("a, c", [
        (np.zeros((2, 2)), np.ones((2, 2))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.array([[1e308]]), np.array([[1.0]])),
    ], ids=["zero", "zero-rhs", "norm-sum-overflows"])
    def test_step_must_be_finite_and_positive(self, a, c):
        # omega = 1 / (||A||_1 + ||B||_1): A = B = 0 has no step, and
        # 1e308 + 1e308 overflows to a step of 0 that never moves X.
        p = SylvesterProblem(a=a, b=a, c=c)
        with pytest.raises(PreconditionError, match="^solve_anderson_richardson requires") as err:
            solve_anderson_richardson(p)
        assert err.value.report is None

    def test_column_sums_that_overflow_raise_no_warning(self):
        # Each column of A sums past the largest float: the step is still
        # rejected as 1 / inf, with no overflow warning on the way.
        a = np.full((2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=r"got 1 / inf$"):
                run_method("ar", SylvesterProblem(a=a, b=a, c=np.ones((2, 2))))

    def test_huge_divergence_ends_on_its_bound_with_finite_numbers(self):
        # The same rotation from C = 1e150: the mixing's inner products
        # overflow once the residual passes about 1.3e154, below ar's
        # bound of 1e6 times the first residual.  Those steps go unmixed,
        # and the run passes the bound with finite numbers.
        p = SylvesterProblem(a=[[0.0, -5.0], [5.0, 0.0]], b=[[0.1]], c=[[1e150], [1e150]])
        report = solve_anderson_richardson(p)
        history = report.residual_history
        assert (report.termination, report.iterations) == ("diverged", 72)
        assert history[-2] <= 1e6 * history[0] < history[-1] < np.inf
        assert np.isfinite(report.solution).all()


class TestCareResidual:
    def test_scalar_stabilizing_root(self):
        p, root = scalar_care()
        assert root == pytest.approx(0.1354066, abs=1e-7)
        assert care_residual(p, np.array([[root]])) <= 1e-6

    def test_zero_iterate(self):
        p, _ = scalar_care()
        assert care_residual(p, np.zeros((1, 1))) == pytest.approx(1.0)

    def test_linear_case_matches_lyapunov(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = np.eye(3)
        x = solve_lyapunov_direct(LyapunovProblem(a=a, q=q))
        p = CareProblem(a=a, n_mat=np.zeros((3, 3)), k_mat=q)
        assert care_residual(p, x) <= 1e-10


class TestLyapunovDirect:
    def test_scalar(self):
        x = solve_lyapunov_direct(LyapunovProblem(a=[[-2.0]], q=[[3.0]]))
        assert x[0, 0] == pytest.approx(0.75)

    def test_decoupled_diagonal(self):
        x = solve_lyapunov_direct(LyapunovProblem(a=np.diag([-1.0, -2.0]), q=np.eye(2)))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-12)

    def test_zero_rhs(self):
        x = solve_lyapunov_direct(LyapunovProblem(a=np.diag([-1.0, -2.0]), q=np.zeros((2, 2))))
        np.testing.assert_allclose(x, np.zeros((2, 2)), atol=1e-14)

    def test_eigenvalue_sum_zero_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_lyapunov_direct(LyapunovProblem(a=np.diag([1.0, -1.0]), q=np.eye(2)))

    def test_result_exactly_symmetric(self, rng):
        a = rng.standard_normal((4, 4)) - 5 * np.eye(4)
        q = rng.standard_normal((4, 4))
        q = q @ q.T
        x = solve_lyapunov_direct(LyapunovProblem(a=a, q=q))
        np.testing.assert_array_equal(x, x.T)

    def test_residual_bound(self, rng):
        a = rng.standard_normal((5, 5)) - 6 * np.eye(5)
        q = rng.standard_normal((5, 5))
        q = q @ q.T + np.eye(5)
        p = LyapunovProblem(a=a, q=q)
        x = solve_lyapunov_direct(p)
        res = frobenius_norm(a.T @ x + x @ a + q)
        assert res <= 1e-10 * (1.0 + frobenius_norm(q))


def non_normal_stable(n):
    """A seeded Gaussian matrix shifted left of its spectral disk: non-normal,
    with complex eigenvalue pairs, so its real Schur form has 2x2 blocks."""
    rng = np.random.default_rng([5, n])
    return rng.standard_normal((n, n)) - (np.sqrt(n) + 1.0) * np.eye(n)


def real_spectrum_stable(n):
    """A seeded non-normal matrix with eigenvalues -1, ..., -n, so its real
    Schur form is triangular."""
    rng = np.random.default_rng([7, n])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = np.triu(rng.standard_normal((n, n)), 1) - np.diag(np.arange(1.0, n + 1.0))
    return q @ t @ q.T


def scipy_newton(p, steps):
    """Exact Newton from X = 0 with scipy's Lyapunov solver, ``steps`` steps."""
    x = np.zeros_like(p.a)
    for _ in range(steps):
        a_k = p.a - p.n_mat @ x
        x = scipy.linalg.solve_continuous_lyapunov(a_k.T, -(x @ p.n_mat @ x + p.k_mat))
    return x


class TestBartelsStewart:
    ORDERS = (2, 3, 5, 8, 17)
    REAL_ORDER = 12

    def test_cases_cover_two_by_two_blocks(self):
        trailing = []
        for n in self.ORDERS:
            t, _ = scipy.linalg.schur(non_normal_stable(n), output="real")
            assert np.any(np.diag(t, -1) != 0.0), n
            trailing.append(t[-1, -2] != 0.0)
        assert any(trailing)
        t, _ = scipy.linalg.schur(real_spectrum_stable(self.REAL_ORDER), output="real")
        assert not np.any(np.diag(t, -1))

    @pytest.mark.parametrize("n", (*ORDERS, REAL_ORDER))
    def test_matches_scipy_sylvester(self, n):
        a = real_spectrum_stable(n) if n == self.REAL_ORDER else non_normal_stable(n)
        q = np.random.default_rng([6, n]).standard_normal((n, n))
        q = q + q.T
        x = solve_lyapunov_direct(LyapunovProblem(a=a, q=q))
        want = scipy.linalg.solve_sylvester(a.T, a, -q)
        np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-10)
        t, u = scipy.linalg.schur(a, output="real")
        y = baselines._solve_schur_columns(t, -(u.T @ q @ u))
        np.testing.assert_allclose(x, symmetrize(u @ y @ u.T), rtol=0.0, atol=1e-13)

    def test_column_solve_runs_only_on_near_singular_systems(self, monkeypatch):
        calls = Counter()
        for name in ("_solve_schur_columns", "kron", "lu_solve"):
            def spy(*args, name=name, original=getattr(baselines, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(baselines, name, spy)
        for n in self.ORDERS:
            solve_lyapunov_direct(LyapunovProblem(a=non_normal_stable(n), q=np.eye(n)))
        assert not calls
        with pytest.raises(SingularMatrixError):
            solve_lyapunov_direct(LyapunovProblem(a=np.diag([1.0, -1.0]), q=np.eye(2)))
        assert calls == {"_solve_schur_columns": 1, "lu_solve": 1}
        calls.clear()
        with pytest.raises(SingularMatrixError):
            solve_lyapunov_direct(LyapunovProblem(a=[[0.0, 1.0], [-1.0, 0.0]], q=np.eye(2)))
        assert calls == {"_solve_schur_columns": 1, "kron": 2, "lu_solve": 1}

    def test_rotation_generator_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_lyapunov_direct(LyapunovProblem(a=[[0.0, 1.0], [-1.0, 0.0]], q=np.eye(2)))

    def test_newton_runs_past_the_kronecker_cap(self):
        row = paper_suite("t10")[7]
        p = row.source.build()
        assert (row.method, p.order) == ("newton", 128)
        report = run_method("newton", p, row.params)
        assert report.converged and report.iterations == 5
        want = scipy_newton(p, report.iterations)
        assert frobenius_norm(report.solution - want) <= 1e-10 * frobenius_norm(want)


class TestNewtonCare:
    def test_scalar_converges_to_stabilizing_root(self):
        p, root = scalar_care()
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8, max_iterations=20))
        assert report.converged and report.iterations <= 8
        assert report.solution[0, 0] == pytest.approx(root, abs=1e-8)

    def test_scalar_quadratic_convergence(self):
        p, _ = scalar_care()
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8, max_iterations=20))
        r = report.residual_history
        assert len(r) >= 4
        for prev, cur in zip(r[-3:-1], r[-2:]):
            assert cur <= 1e4 * prev * prev

    def test_linear_case_single_step(self, rng):
        a = rng.standard_normal((3, 3)) - 4 * np.eye(3)
        q = rng.standard_normal((3, 3))
        q = q @ q.T + np.eye(3)
        p = CareProblem(a=a, n_mat=np.zeros((3, 3)), k_mat=q)
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-10))
        assert report.converged and report.iterations == 1

    def test_iterates_symmetric(self, rng):
        b = rng.standard_normal((4, 2))
        p = CareProblem(
            a=rng.standard_normal((4, 4)) - 5 * np.eye(4),
            n_mat=b @ b.T,
            k_mat=np.eye(4),
        )
        report = run_method("newton", p, {"tol": 1e-10, "max_iterations": 30})
        assert report.converged
        assert report.detail["certificate"]["asymmetry"] <= 1e-10

    @pytest.mark.parametrize("a, n", [(1e-300, 1.0), (1e-308, 10.0)])
    def test_overflowing_step_ends_diverged_quietly(self, a, n):
        # The first step solves 2 a X + 1 = 0, so X = -1 / (2 a) and X N X
        # overflows.  The next step's Lyapunov problem would not be
        # finite, and at a = 1e-308 neither is the closed loop A - N X.
        p = CareProblem(a=[[a]], n_mat=[[n]], k_mat=[[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_method("newton", p)
        assert (report.termination, report.iterations) == ("diverged", 1)
        assert report.residual_history == [1.0, np.inf]
        assert report.solution[0, 0] == pytest.approx(-0.5 / a)
        cert = report.detail["certificate"]
        assert cert["residual"] == np.inf and cert["root"] is None
        assert np.isnan(cert["closed_loop_max_real_eig"])

    def test_breakdown_carries_partial_report(self):
        p = CareProblem(a=[[0.0]], n_mat=[[0.0]], k_mat=[[1.0]])
        with pytest.raises(NewtonBreakdownError) as err:
            solve_newton_care(p)
        assert err.value.report is not None
        assert err.value.report.termination == "error"

    def test_t8_family(self):
        bt = gen_tridiagonal(16, 5, 2, 1)
        p = CareProblem(
            a=gen_tridiagonal(16, 6, 2, 1),
            n_mat=bt.T @ bt,
            k_mat=np.eye(16),
        )
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8, max_iterations=50))
        assert report.converged
        assert report.final_residual <= 1e-7

    def test_closed_loop_certificate_of_the_stabilizing_root(self):
        p, _ = scalar_care()
        report = run_method("newton", p, {"tol": 1e-8, "max_iterations": 20})
        cert = report.detail["certificate"]
        assert cert["closed_loop_max_real_eig"] < 0 and cert["root"] == "stabilizing"

    def test_closed_loop_certificate_records_a_non_stabilizing_root(self):
        row = paper_suite("t8")[1]
        p = row.source.build()
        assert (row.method, p.order) == ("newton", 16)
        report = run_method("newton", p, row.params)
        assert report.converged
        abscissa = float(np.max(np.linalg.eigvals(p.a - p.n_mat @ report.solution).real))
        cert = report.detail["certificate"]
        recorded = cert["closed_loop_max_real_eig"]
        assert np.sign(recorded) == np.sign(abscissa) == 1.0
        assert recorded == pytest.approx(abscissa, rel=1e-12)
        assert cert["root"] == "anti-stabilizing"
