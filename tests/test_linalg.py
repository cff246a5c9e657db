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
from matrixopt.linalg import (
    LU_PIVOT_RTOL,
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
