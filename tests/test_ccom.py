import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sylvester
import matrixopt.ccom as ccom
from matrixopt.ccom import ROW_NORM_FLOOR, CcomConfig, ccom_step, solve_ccom
from matrixopt.errors import SingularMatrixError
from matrixopt.linalg import frobenius_norm, lu_solve, vec
from matrixopt.oracle import sylvester_operator_matrix
from matrixopt.problems import SylvesterProblem, gen_tridiagonal, table_source


class TestCcomStep:
    def test_square_identity_system(self):
        c = np.array([[3.0], [4.0]])
        x = ccom_step(np.eye(2), c, np.array([2.0, 3.0]))
        np.testing.assert_allclose(x, c, atol=1e-12)

    def test_minimum_norm_solution(self):
        # x = M^T (M M^T)^{-1} c for unit weights: (0.4, 0.8)
        m = np.array([[1.0, 2.0]])
        x = ccom_step(m, np.array([[2.0]]), np.ones(2))
        np.testing.assert_allclose(x.ravel(), [0.4, 0.8], atol=1e-12)

    def test_weighted_step_is_the_closed_form(self, rng):
        m = rng.standard_normal((2, 5))
        c = rng.standard_normal((2, 1))
        d = rng.uniform(0.5, 2.0, 5)
        d_inv = np.diag(1.0 / d)
        expected = d_inv @ m.T @ np.linalg.solve(m @ d_inv @ m.T, c)
        np.testing.assert_allclose(ccom_step(m, c, d), expected, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_weight_is_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            ccom_step(np.eye(2), np.ones((2, 1)), np.array([1.0, bad]))

    def test_duplicate_rows_singular(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(SingularMatrixError):
            ccom_step(m, np.array([[2.0], [2.0]]), np.ones(2))

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 4), (5, 7), (8, 8)])
    def test_square_operator_step_ignores_the_weights(self, rng, m, n):
        # M = I (x) A + B^T (x) I is square, so D^{-1} M^T (M D^{-1} M^T)^{-1} c
        # is M^{-1} c for every positive D: the reweighting moves no iterate.
        for _ in range(5):
            p = random_sylvester(rng, m, n)
            m_sys, c_vec = sylvester_operator_matrix(p), vec(p.c)
            want = lu_solve(m_sys, c_vec)
            d = 10.0 ** rng.uniform(-1.0, 1.0, m * n)
            got = ccom_step(m_sys, c_vec, d)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_feasibility(self, rng):
        for _ in range(5):
            m = rng.standard_normal((3, 6))
            c = rng.standard_normal((3, 1))
            d = rng.uniform(0.5, 2.0, 6)
            x = ccom_step(m, c, d)
            assert np.linalg.norm(m @ x - c) <= 1e-8 * (1.0 + np.linalg.norm(c))


class TestSolveCcom:
    def test_diagonal_family_one_iteration(self):
        p = SylvesterProblem(a=2 * np.eye(10), b=np.eye(10), c=np.eye(10))
        report = solve_ccom(p)
        assert report.converged and report.iterations == 1
        assert report.final_residual <= 1e-8

    def test_tridiagonal_family(self):
        p = SylvesterProblem(
            a=gen_tridiagonal(10, 2, -4, -4),
            b=gen_tridiagonal(10, 1, 3, 3),
            c=np.eye(10),
        )
        report = solve_ccom(p)
        assert report.converged and report.iterations <= 3

    def test_first_iterate_matches_oracle_when_square(self, rng):
        p = random_sylvester(rng, 4, 5)
        report = solve_ccom(p, CcomConfig(max_iterations=1, tol=1e-30))
        x_direct = scipy.linalg.solve_sylvester(p.a, p.b, p.c)
        assert frobenius_norm(report.solution - x_direct) <= 1e-8

    def test_monotone_objective_and_feasibility(self, rng):
        p = random_sylvester(rng, 3, 3)
        report = solve_ccom(p)
        l21 = report.detail["l21_history"]
        for prev, cur in zip(l21, l21[1:]):
            assert cur <= prev + 1e-10
        rhs = 1e-8 * (1.0 + report.residual_history[0])  # ||C||_F, the residual at X = 0
        assert all(gap <= rhs for gap in report.detail["feasibility_history"])

    def test_iteration_cap_is_not_an_error(self, rng):
        p = random_sylvester(rng, 3, 3)
        report = solve_ccom(p, CcomConfig(tol=1e-300, max_iterations=2))
        assert report.termination == "max_iterations"
        assert report.iterations == 2

    def test_zero_entries_get_floored_finite_weights(self, monkeypatch):
        # t3's A and B are diagonal, so X is diagonal and 90 of its 100
        # entries are zero.  This right-hand side leaves a rounding-level
        # residual, so steps past the first run on the floored weights.
        t3 = table_source("t3", 10).build()
        p = SylvesterProblem(a=t3.a, b=t3.b, c=np.diag(np.arange(1.0, 11.0) / 7.0))
        weights, step = [], ccom.ccom_step

        def recording(m, c, d):
            weights.append(d)
            return step(m, c, d)

        monkeypatch.setattr(ccom, "ccom_step", recording)
        report = solve_ccom(p, CcomConfig(tol=1e-300, max_iterations=5))
        assert report.iterations == len(weights) == 5
        assert np.count_nonzero(report.solution) == 10
        for d in weights[1:]:
            assert np.isfinite(d).all()
            assert np.count_nonzero(d == 1.0 / (2.0 * ROW_NORM_FLOOR)) == 90
        l21 = report.detail["l21_history"]
        for prev, cur in zip(l21, l21[1:]):
            assert cur <= prev + 1e-10

    def test_history_invariant(self, rng):
        p = random_sylvester(rng, 3, 4)
        report = solve_ccom(p)
        assert len(report.residual_history) == report.iterations + 1
        assert report.final_residual == report.residual_history[-1]


class TestL1Analog:
    def test_underdetermined_l1_minimizer(self):
        # min |x1| + |x2|  s.t.  x1 + 2 x2 = 2 has the unique solution
        # (0, 1); the reweighted iteration drives the iterates there.
        m = np.array([[1.0, 2.0]])
        c = np.array([[2.0]])
        x = ccom_step(m, c, np.ones(2))
        objective = [float(np.abs(x).sum())]
        for _ in range(60):
            x = ccom_step(m, c, 1.0 / (2.0 * np.maximum(np.abs(x.ravel()), ROW_NORM_FLOOR)))
            objective.append(float(np.abs(x).sum()))
        np.testing.assert_allclose(x.ravel(), [0.0, 1.0], atol=1e-4)
        for prev, cur in zip(objective, objective[1:]):
            assert cur <= prev + 1e-10


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_reweight_majorization_inequality(u_vals, v_vals):
    # ||u|| - ||u||^2 / (2||u_t||) <= ||u_t|| - ||u_t||^2 / (2||u_t||)
    # for any nonzero vectors; equivalent to (||u|| - ||u_t||)^2 >= 0.
    u = np.array(u_vals)
    u_t = np.array(v_vals[: len(u_vals)] or [1.0])
    nu = np.linalg.norm(u)
    nt = np.linalg.norm(u_t)
    if nt == 0.0:
        return
    lhs = nu - nu**2 / (2 * nt)
    rhs = nt - nt**2 / (2 * nt)
    assert lhs <= rhs + 1e-12 * max(1.0, nt)
