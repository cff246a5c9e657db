import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matrixopt.errors import (
    CapacityError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import (
    LU_PIVOT_RTOL,
    MatrixOperator,
    as_matrix,
    cholesky_solve,
    frobenius_norm,
    kron,
    lu_solve,
    pseudo_inverse,
    symmetrize,
    trace_inner,
    unvec,
    vec,
)
from matrixopt.problems import SylvesterProblem, gen_tridiagonal, paper_suite

finite_entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_converts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64 and m.shape == (2, 2)


class TestFrobeniusAndInner:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_inner_identity(self):
        assert trace_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_inner_hand_value(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[4.0, 3.0], [2.0, 1.0]])
        assert trace_inner(a, b) == pytest.approx(20.0)

    def test_inner_with_zero(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        assert trace_inner(a, np.zeros((2, 3))) == 0.0

    def test_inner_shape_mismatch(self):
        with pytest.raises(DimensionError):
            trace_inner(np.eye(2), np.eye(3))

    @given(arrays(np.float64, (5, 7), elements=finite_entries))
    @settings(max_examples=30, deadline=None)
    def test_norm_squared_is_self_inner(self, m):
        lhs = frobenius_norm(m) ** 2
        rhs = trace_inner(m, m)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_norm_squared_random_large(self, rng):
        for _ in range(5):
            m = rng.standard_normal((64, 64))
            assert frobenius_norm(m) ** 2 == pytest.approx(trace_inner(m, m), rel=1e-12)


class TestLuSolve:
    """lu_solve calls LAPACK getrf/getrs directly: its answers are
    scipy's to the bit, and singular systems raise our error.  No test
    here may let a warning escape."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_identity_system(self, rng):
        b = rng.standard_normal((3, 2))
        np.testing.assert_allclose(lu_solve(np.eye(3), b), b)

    def test_diagonal_back_substitution(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        np.testing.assert_allclose(x, [[1.0], [2.0]])

    def test_rank_one_is_singular(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.ones((2, 2)), np.ones((2, 1)))

    def test_multiply_back(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            rhs = rng.standard_normal((n, 3))
            x = lu_solve(a, rhs)
            err = frobenius_norm(a @ x - rhs)
            assert err <= 1e-10 * (1.0 + frobenius_norm(rhs))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            lu_solve(np.ones((2, 3)), np.ones((2, 1)))

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("rhs_shape", ["vector", "matrix"])
    def test_bit_identical_to_scipy(self, n, rhs_shape):
        rng = np.random.default_rng(1000 + n)
        a = rng.standard_normal((n, n))
        rhs = rng.standard_normal(n if rhs_shape == "vector" else (n, 3))
        want = scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(a, check_finite=False), rhs, check_finite=False
        )
        got = lu_solve(a, rhs)
        assert got.shape == rhs.shape
        assert np.array_equal(got, want)

    def test_zero_column_is_singular(self, rng):
        a = rng.standard_normal((4, 4))
        a[:, 2] = 0.0
        with pytest.raises(SingularMatrixError):
            lu_solve(a, np.ones(4))

    def test_pivot_below_the_relative_threshold_is_singular(self):
        a = np.diag([1.0, 0.5 * LU_PIVOT_RTOL])
        with pytest.raises(SingularMatrixError):
            lu_solve(a, np.ones((2, 1)))

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.zeros((3, 3)), np.ones(3))

    def test_empty_system_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            lu_solve(np.zeros((0, 0)), np.zeros(0))


class TestCholeskySolve:
    """cholesky_solve is one LAPACK posv call: its answers are scipy's
    cho_factor/cho_solve to the bit.  No test here may let a warning
    escape."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("n", [9, 128])
    @pytest.mark.parametrize("columns", [None, 1, 9, 64, 128], ids=lambda c: f"cols{c}")
    def test_bit_identical_to_scipy(self, n, columns):
        rng = np.random.default_rng(2000 + n)
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        rhs = rng.standard_normal(n if columns is None else (n, columns))
        want = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(a, check_finite=False), rhs, check_finite=False
        )
        got = cholesky_solve(a, rhs)
        assert got.shape == rhs.shape
        assert np.array_equal(got, want)
        if columns is not None:
            # the ADMM sweeps pass transposed (Fortran-ordered) right-hand sides
            rhs_t = np.ascontiguousarray(rhs.T).T
            assert np.array_equal(cholesky_solve(a, rhs_t), want)

    def test_empty_system_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            cholesky_solve(np.zeros((0, 0)), np.zeros((0, 1)))

    def test_scaled_identity(self):
        x = cholesky_solve(4.0 * np.eye(2), np.array([[8.0], [4.0]]))
        np.testing.assert_allclose(x, [[2.0], [1.0]])

    def test_hand_spd_system(self):
        # 2x + y = 3, x + 2y = 3 -> x = y = 1
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = cholesky_solve(a, np.array([[3.0], [3.0]]))
        np.testing.assert_allclose(x, [[1.0], [1.0]], atol=1e-12)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve(a, np.ones((2, 1)))


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_truncation(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(pseudo_inverse(a), [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_zero_matrix(self):
        assert pseudo_inverse(np.zeros((2, 3))).shape == (3, 2)

    def test_rank_tol_positive(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.eye(2), rank_tol=0.0)

    def test_penrose_identities_rank_deficient(self, rng):
        for _ in range(8):
            m, n, r = 6, 4, 2
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            ap = pseudo_inverse(a)
            na = frobenius_norm(a)
            assert frobenius_norm(a @ ap @ a - a) <= 1e-10 * na
            assert frobenius_norm(ap @ a @ ap - ap) <= 1e-10 * frobenius_norm(ap)
            assert frobenius_norm((a @ ap).T - a @ ap) <= 1e-10 * max(1.0, na)
            assert frobenius_norm((ap @ a).T - ap @ a) <= 1e-10 * max(1.0, na)


class TestKronVec:
    def test_kron_identities(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_expansion(self):
        out = kron(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, [[3.0, 6.0], [4.0, 8.0]])

    def test_kron_capacity(self):
        with pytest.raises(CapacityError):
            kron(np.ones((100, 100)), np.ones((100, 100)))

    def test_vec_ordering(self):
        v = vec(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(v.ravel(), [1.0, 3.0, 2.0, 4.0])

    def test_vec_scalar(self):
        np.testing.assert_allclose(vec(np.array([[7.0]])), [[7.0]])

    @given(arrays(np.float64, (5, 7), elements=finite_entries))
    @settings(max_examples=25, deadline=None)
    def test_unvec_round_trip(self, m):
        np.testing.assert_array_equal(unvec(vec(m), 5, 7), m)

    def test_unvec_shape_check(self):
        with pytest.raises(DimensionError):
            unvec(np.ones((5, 1)), 2, 3)

    def test_vec_kron_compatibility(self, rng):
        # vec(A X B) == (B^T kron A) vec(X), checked by brute force
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            x = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            lhs = vec(a @ x @ b)
            rhs = kron(b.T, a) @ vec(x)
            err = np.linalg.norm(lhs - rhs)
            assert err <= 1e-12 * max(1.0, frobenius_norm(x))


def test_symmetrize():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(m)
    np.testing.assert_allclose(s, s.T)
    np.testing.assert_allclose(s, [[1.0, 1.0], [1.0, 1.0]])


def _banded(rng, n, k):
    """n x n matrix with random, non-constant diagonals -k..k."""
    return sum(np.diag(rng.standard_normal(n - abs(d)), d) for d in range(-k, k + 1))


def _rel_err(got, want):
    return frobenius_norm(got - want) / frobenius_norm(want)


class TestMatrixOperator:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, m", [(9, 9), (9, 4), (6, 11)])
    def test_band_products_match_the_dense_ones(self, k, order, n, m):
        rng = np.random.default_rng(100 * k + n + m)
        a = _banded(rng, n, k)
        op = MatrixOperator.of(a)
        assert op.dense is None and len(op.bands) == 2 * k + 1
        x_left = np.asarray(rng.standard_normal((n, m)), order=order)
        x_right = np.asarray(rng.standard_normal((m, n)), order=order)
        assert _rel_err(op.left(x_left), a @ x_left) <= 1e-14
        assert _rel_err(op.right(x_right), x_right @ a) <= 1e-14
        assert _rel_err(op.T.left(x_left), a.T @ x_left) <= 1e-14
        assert _rel_err(op.T.right(x_right), x_right @ a.T) <= 1e-14
        acc = rng.standard_normal((m, n))
        want = acc + x_right @ a
        assert _rel_err(op.right(x_right, add_to=acc), want) <= 1e-14

    def test_half_bandwidth_is_the_smallest_that_holds(self):
        a = gen_tridiagonal(8, 5.0, -1.0, 0.0)  # lower bidiagonal
        assert len(MatrixOperator.of(a).bands) == 3
        assert len(MatrixOperator.of(np.eye(8)).bands) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: rng.standard_normal((7, 7)),  # full
            lambda rng: gen_tridiagonal(3, 2.0, -1.0, 1.5),  # 2k + 1 == n
            lambda rng: _banded(rng, 5, 2),  # 2k + 1 == n
            lambda rng: _banded(rng, 8, 2) + 0.5 * np.eye(8, k=3),  # one entry outside
            lambda rng: _banded(rng, 8, 1) + np.diag([1.0, 0.0, 0.0, 0.0, 0.0], -3),
        ],
        ids=["full", "tridiagonal-3", "pentadiagonal-5", "band-2-plus-one", "band-1-plus-one"],
    )
    def test_dense_path_is_the_dense_product_to_the_bit(self, build):
        rng = np.random.default_rng(3)
        a = build(rng)
        n = a.shape[0]
        b = rng.standard_normal((n, n))
        op_a, op_b = MatrixOperator.of(a), MatrixOperator.of(b)
        assert op_a.dense is a and op_b.dense is b
        x = rng.standard_normal((n, n))
        assert np.array_equal(op_a.left(x), a @ x)
        assert np.array_equal(op_a.right(x), x @ a)
        assert np.array_equal(op_a.T.left(x), a.T @ x)
        assert np.array_equal(op_b.right(x, add_to=op_a.left(x)), a @ x + x @ b)
        p = SylvesterProblem(a, b, rng.standard_normal((n, n)))
        assert np.array_equal(p.apply(x), a @ x + x @ b)
        assert np.array_equal(p.apply_adjoint(x), a.T @ x + x @ b.T)
        assert np.array_equal(p.residual_matrix(x), a @ x + x @ b - p.c)

    def test_problem_operator_matches_the_dense_operator(self):
        rng = np.random.default_rng(5)
        a, b = _banded(rng, 12, 1), _banded(rng, 7, 2)
        p = SylvesterProblem(a, b, rng.standard_normal((12, 7)))
        x = rng.standard_normal((12, 7))
        assert _rel_err(p.apply(x), a @ x + x @ b) <= 1e-14
        assert _rel_err(p.apply_adjoint(x), a.T @ x + x @ b.T) <= 1e-14
        assert _rel_err(p.residual_matrix(x), a @ x + x @ b - p.c) <= 1e-14

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_wrong_order_is_a_dimension_error(self, side):
        for m in (gen_tridiagonal(6, 2.0, 1.0, 1.0), np.ones((6, 6))):
            op = MatrixOperator.of(m)
            x = np.ones((5, 5))
            with pytest.raises(DimensionError):
                getattr(op, side)(x)


# t6 at n=256, recorded with dense products: the band form keeps every
# count and termination.
T6_N256 = {
    "dfp": (2, "converged", 3),
    "bfgs": (2, "converged", 3),
    "cg": (10, "converged", 11),
    "ar": (17, "converged", 18),
}


@pytest.mark.parametrize("method", sorted(T6_N256))
def test_t6_n256_keeps_its_counts(method):
    (row,) = [r for r in paper_suite("t6") if r.method == method and r.source.order == 256]
    report = run_method(method, row.source.build(), row.params)
    assert (report.iterations, report.termination, len(report.residual_history)) == T6_N256[method]
