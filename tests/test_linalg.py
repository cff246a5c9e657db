import ast
import contextlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matrixopt.linalg as linalg
from matrixopt.errors import (
    CapacityError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import (
    LU_PIVOT_RTOL,
    RANK_TOL,
    MatrixOperator,
    as_matrix,
    cholesky_solve,
    frobenius_norm,
    kron,
    lu_inverse,
    lu_solve,
    pseudo_inverse,
    spd_factor,
    sylvester_apply,
    symmetrize,
    trace_inner,
    unvec,
    vec,
)
from matrixopt.problems import SylvesterProblem, gen_tridiagonal, table_source

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

    def test_empty_matrix(self):
        assert frobenius_norm(np.zeros((0, 3))) == 0.0

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

    def test_norm_scales_past_the_square_range(self):
        # Squares of these entries overflow or underflow; the norm does not.
        assert frobenius_norm(np.full((3, 3), 1e200)) == 3e200
        assert frobenius_norm(np.full((3, 3), 1e-200)) == 3e-200

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [9, 256, 1024])
    def test_norm_bits_do_not_depend_on_the_thread_count(self, n, order):
        # Both OpenBLAS copies at one and at two threads, held and not:
        # one norm, to the bit.
        controls = [linalg.find_openblas(copy) for copy in linalg.OPENBLAS_COPIES]
        if None in controls:
            pytest.skip("an OpenBLAS copy's thread count cannot be set")
        m = np.asarray(np.random.default_rng(n).standard_normal((n, n)), order=order)
        saved = [get() for get, _, _ in controls]
        norms = set()
        try:
            for threads in (1, 2):
                for _, set_, _ in controls:
                    set_(threads)
                for hold in (contextlib.nullcontext, linalg.serial_products):
                    with hold():
                        norms.add(frobenius_norm(m).hex())
        finally:
            for (_, set_, _), count in zip(controls, saved):
                set_(count)
        assert len(norms) == 1


# Calls that compute a norm: numpy's and scipy's ``norm``, ``einsum`` (a
# sum of squares overflows above about 1e154) and the BLAS kernel itself.
NORM_KERNELS = {"norm", "einsum", "nrm2", "_NRM2"}


def _norm_kernel_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and NORM_KERNELS & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]


def _inside_and_outside(kernel_name: str, find) -> tuple[list, dict]:
    """The nodes ``find`` returns inside ``linalg.<kernel_name>``, and the
    lines of every other one in ``src/``, by module."""
    src = Path(linalg.__file__).resolve().parent
    trees = {path.relative_to(src).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
             for path in src.rglob("*.py")}
    kernel = next(node for node in ast.walk(trees["linalg.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == kernel_name)
    inside = find(kernel)
    outside = {
        module: lines
        for module, tree in trees.items()
        if (lines := [node.lineno for node in find(tree) if node not in inside])
    }
    return inside, outside


def test_frobenius_norm_is_the_one_norm_kernel():
    inside, outside = _inside_and_outside("frobenius_norm", _norm_kernel_calls)
    assert len(inside) == 1
    assert outside == {}


def _transpose_sums(tree: ast.AST) -> list[ast.AST]:
    """``X + X.T`` and ``X.T + X`` sums in ``tree``, ``X += X.T`` included."""
    def transposed(t, x):
        return (isinstance(t, ast.Attribute) and t.attr == "T"
                and ast.unparse(t.value) == ast.unparse(x))

    sums = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, right = node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            left, right = node.target, node.value
        else:
            continue
        if transposed(left, right) or transposed(right, left):
            sums.append(node)
    return sums


def test_symmetrize_is_the_one_symmetrization():
    inside, outside = _inside_and_outside("symmetrize", _transpose_sums)
    assert len(inside) == 1
    assert outside == {}


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


class TestLuInverse:
    """lu_inverse shares lu_solve's factorization and pivot test, and
    inverts the factors with getri."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("n", [1, 7, 64, 200])
    def test_matches_lu_solve_on_the_identity(self, n):
        rng = np.random.default_rng(2000 + n)
        a = rng.standard_normal((n, n)) + math.sqrt(n) * np.eye(n)
        want = lu_solve(a, np.eye(n))
        got = lu_inverse(a)
        assert frobenius_norm(got - want) <= 1e-13 * frobenius_norm(want)

    @pytest.mark.parametrize("solve", [
        lambda a: lu_solve(a, np.ones(a.shape[0])), lu_inverse,
    ], ids=["lu_solve", "lu_inverse"])
    @pytest.mark.parametrize("a", [
        np.ones((2, 2)),
        np.diag([1.0, 0.5 * LU_PIVOT_RTOL]),
        np.diag([1.0, 2.0 * LU_PIVOT_RTOL]) @ np.array([[1.0, 0.0], [1.0, 1.0]]),
        np.zeros((3, 3)),
        np.diag([-3.0, 1e-14]),
    ], ids=["rank-one", "below-threshold", "above-threshold", "zero", "negative-scale"])
    def test_one_pivot_rule(self, solve, a):
        # Both raise exactly when a pivot falls below the threshold
        # relative to max |a_ij|, which may be a negative entry's.
        pivots = np.abs(scipy.linalg.lapack.dgetrf(a)[0].diagonal())
        scale = np.abs(a).max()
        if scale == 0.0 or pivots.min() < LU_PIVOT_RTOL * scale:
            with pytest.raises(SingularMatrixError):
                solve(a)
        else:
            assert np.isfinite(solve(a)).all()

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
    def test_non_square_is_a_dimension_error(self, shape):
        with pytest.raises(DimensionError):
            lu_inverse(np.ones(shape))


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

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
    def test_spd_factor_takes_a_non_empty_square_matrix(self, shape):
        with pytest.raises(DimensionError, match="spd_factor needs a non-empty square matrix"):
            spd_factor(np.ones(shape))

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

    @pytest.mark.parametrize("m, n, r", [(3, 3, 1), (6, 4, 2), (4, 6, 3), (64, 40, 20)])
    def test_svd_path_is_the_scaled_copy_product_to_the_bit(self, rng, m, n, r):
        """vt scaled in place gives the product of a scaled copy of vt.T."""
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > RANK_TOL * s[0]
        s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        assert np.array_equal(pseudo_inverse(a), (vt.T * s_inv) @ u.T)

    @staticmethod
    def _counted_svd(monkeypatch):
        """Route np.linalg.svd through a counter; returns the call list."""
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @staticmethod
    def _with_singular_values(rng, s):
        n = len(s)
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (u * s) @ v.T

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_full_rank_square_skips_the_svd(self, monkeypatch, rng, n):
        a = self._with_singular_values(rng, rng.uniform(1.0, 4.0, n))
        expected = np.linalg.pinv(a)

        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        ap = pseudo_inverse(a)
        assert frobenius_norm(ap - expected) <= 1e-12 * frobenius_norm(expected)

    @pytest.mark.parametrize("kind", ["rank-deficient", "non-square", "zero"])
    def test_rank_deficient_non_square_and_zero_take_the_svd(self, monkeypatch, rng, kind):
        a = {
            "rank-deficient": rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5)),
            "non-square": rng.standard_normal((4, 6)),
            "zero": np.zeros((3, 3)),
        }[kind]
        expected = np.linalg.pinv(a, rcond=RANK_TOL)
        calls = self._counted_svd(monkeypatch)
        ap = pseudo_inverse(a)
        assert calls == [a.shape]
        assert frobenius_norm(ap - expected) <= 1e-12 * max(1.0, frobenius_norm(expected))

    def test_cutoff_matrices_take_the_svd(self, monkeypatch):
        # sigma_min = RANK_TOL * sigma_max exactly: the SVD's keep-or-drop
        # decision is set by rounding, so the certificate must leave every
        # such matrix to it.  These spectra put ||a||_F ||a^-1||_F within
        # rounding of the condition number itself.
        rng = np.random.default_rng(7)
        spectra = ([1.0, RANK_TOL], [1.0, math.sqrt(RANK_TOL), RANK_TOL])
        cases = [self._with_singular_values(rng, s) for s in spectra for _ in range(100)]
        expected = [np.linalg.pinv(a, rcond=RANK_TOL) for a in cases]
        calls = self._counted_svd(monkeypatch)
        for a, e in zip(cases, expected):
            assert frobenius_norm(pseudo_inverse(a) - e) <= 1e-10 * frobenius_norm(e)
        assert len(calls) == len(cases)

    # Outcomes of the SVD on non-finite input, recorded before the LU path
    # existed: the LU path leaves every such matrix to the SVD.
    @pytest.mark.parametrize("a, outcome", [
        ([[np.nan]], np.linalg.LinAlgError),
        ([[1.0, np.nan], [0.0, 1.0]], np.linalg.LinAlgError),
        (np.full((3, 3), np.inf), np.linalg.LinAlgError),
        ([[np.inf]], [[0.0]]),
        ([[1.0, np.inf], [0.0, 1.0]], np.full((2, 2), np.nan)),
        ([[np.inf, 0.0], [0.0, 1.0]], np.zeros((2, 2))),
    ], ids=["nan-1x1", "nan-2x2", "inf-3x3", "inf-1x1", "inf-2x2-upper", "inf-2x2-diagonal"])
    def test_non_finite_input_keeps_its_svd_outcome(self, monkeypatch, a, outcome):
        calls = self._counted_svd(monkeypatch)
        a = np.array(a)
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                pseudo_inverse(a)
        else:
            np.testing.assert_array_equal(pseudo_inverse(a), outcome)
        assert calls == [a.shape]

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_overflowing_bound_warns_nothing(self, monkeypatch, scale):
        # The pivots pass the LU test, but ||a||_F ||a^-1||_F is about
        # 1.25e13, above 1 / (RANK_TOL + n eps); at 1e-300 the entries of
        # a^-1 overflow, so the bound is not finite.  Either way the
        # matrix goes to the SVD, and nothing warns.
        a = scale * np.array([[1.0, 0.5], [0.0, 1e-13]])
        expected = np.linalg.pinv(a, rcond=RANK_TOL)
        calls = self._counted_svd(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ap = pseudo_inverse(a)
        assert calls == [a.shape]
        assert frobenius_norm(ap - expected) <= 1e-12 * frobenius_norm(expected)

    def test_tiny_matrix_keeps_its_truncation(self):
        # ||a||_F ||a^-1||_F = 1e13 is representable at this scale, and
        # the SVD drops the singular value at 1e-13 of the largest.
        assert pseudo_inverse(1e-170 * np.diag([1.0, 1e-13]))[1, 1] == 0.0

    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        log_ratio=st.floats(-16.0, -2.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    @example(n=2, seed=0, log_ratio=-12.0, log_scale=0.0)
    @example(n=5, seed=1, log_ratio=-12.0, log_scale=2.5)
    @settings(max_examples=150, deadline=None)
    def test_certificate_admits_no_matrix_the_svd_truncates(self, n, seed, log_ratio, log_scale):
        # M = U diag(s) V^T with sigma_min / sigma_max = 10^log_ratio, across
        # RANK_TOL; the other singular values lie between, spread in log.
        rng = np.random.default_rng(seed)
        ratio = 10.0 ** log_ratio
        s = np.sort(np.r_[1.0, ratio ** rng.uniform(0.0, 1.0, n - 2), ratio])[::-1]
        s *= 10.0 ** log_scale
        a = self._with_singular_values(rng, s)
        ap = pseudo_inverse(a)
        if s[-1] <= RANK_TOL * s[0]:
            expected = np.linalg.pinv(a, rcond=RANK_TOL)
            assert frobenius_norm(ap - expected) <= 1e-10 * frobenius_norm(expected)
        # The four Penrose identities, to rounding scaled by the effective
        # condition number ||a||_2 ||a^+||_2 of either path's answer; the
        # first also carries the truncated part, below RANK_TOL sigma_max.
        unit = 1e3 * n * np.finfo(float).eps * np.linalg.norm(a, 2) * np.linalg.norm(ap, 2)
        na, nap = frobenius_norm(a), frobenius_norm(ap)
        assert frobenius_norm(a @ ap @ a - a) <= (unit + math.sqrt(n) * RANK_TOL) * na
        assert frobenius_norm(ap @ a @ ap - ap) <= unit * nap
        assert frobenius_norm((a @ ap).T - a @ ap) <= unit
        assert frobenius_norm((ap @ a).T - ap @ a) <= unit


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


def _banded(rng, n, k, upper=None):
    """n x n matrix with random, non-constant diagonals -k..k (-k..upper
    when given)."""
    upper = k if upper is None else upper
    return sum(np.diag(rng.standard_normal(n - abs(d)), d) for d in range(-k, upper + 1))


def _rel_err(got, want):
    return frobenius_norm(got - want) / frobenius_norm(want)


def _zero(n):
    """The operator of the n x n zero matrix: one all-zero diagonal."""
    return MatrixOperator.of(np.zeros((n, n)))


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
        zero = _zero(m)
        assert _rel_err(sylvester_apply(op, zero, x_left), a @ x_left) <= 1e-14
        assert _rel_err(sylvester_apply(zero, op, x_right), x_right @ a) <= 1e-14
        assert _rel_err(sylvester_apply(op.T, zero, x_left), a.T @ x_left) <= 1e-14
        assert _rel_err(sylvester_apply(zero, op.T, x_right), x_right @ a.T) <= 1e-14
        acc = rng.standard_normal((m, n))
        want = acc + x_right @ a
        assert _rel_err(sylvester_apply(zero, op, x_right, -acc), want) <= 1e-14
        b = _banded(rng, m, k)
        got = sylvester_apply(op, MatrixOperator.of(b), x_left, acc.T)
        assert _rel_err(got, a @ x_left + x_left @ b - acc.T) <= 1e-14

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
        c = rng.standard_normal((n, n))
        op_a, op_b = MatrixOperator.of(a), MatrixOperator.of(b)
        assert op_a.dense is a and op_b.dense is b
        x = rng.standard_normal((n, n))
        assert np.array_equal(sylvester_apply(op_a, op_a, x), a @ x + x @ a)
        assert np.array_equal(sylvester_apply(op_a.T, op_b.T, x), a.T @ x + x @ b.T)
        assert np.array_equal(sylvester_apply(op_a, op_b, x), a @ x + x @ b)
        assert np.array_equal(sylvester_apply(op_a, op_b, x, c), a @ x + x @ b - c)
        p = SylvesterProblem(a, b, c)
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
        eye = MatrixOperator.of(np.eye(5))
        x = np.ones((5, 5))
        for m in (gen_tridiagonal(6, 2.0, 1.0, 1.0), np.ones((6, 6))):
            op = MatrixOperator.of(m)
            with pytest.raises(DimensionError):
                if side == "left":
                    sylvester_apply(op, eye, x)
                else:
                    sylvester_apply(eye, op, x)


def _reference_left(op, x):
    """M @ x by the whole-matrix per-side code the kernel replaced."""
    if op.dense is not None:
        return op.dense @ x
    (_, main), *off = op.bands
    n = len(main)
    out = main[:, None] * x
    for d, v in off:
        if d > 0:
            out[: n - d] += v[:, None] * x[d:]
        else:
            out[-d:] += v[:, None] * x[: n + d]
    return out


def _reference_right(op, x, add_to):
    """add_to + x @ M formed in ``add_to``, by the same per-side code."""
    if op.dense is not None:
        add_to += x @ op.dense
        return add_to
    (_, main), *off = op.bands
    n = len(main)
    out = add_to
    out += x * main
    for d, v in off:
        if d > 0:
            out[:, d:] += x[:, : n - d] * v
        else:
            out[:, : n + d] += x[:, -d:] * v
    return out


def _reference(a, b, x, c=None):
    out = _reference_right(b, x, _reference_left(a, x))
    if c is not None:
        out -= c
    return out


def _same_bits(got, want):
    """Equal to the bit, the sign of a zero included."""
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


# (lower, upper) half-bandwidths, one-sided bands included.
BANDS = [(0, 0), (1, 1), (2, 2), (1, 0), (0, 2), (2, 1)]


class TestSylvesterApply:
    """The row-blocked kernel against the whole-matrix per-side products."""

    @pytest.mark.parametrize("rows", [1, 3, 64], ids=["rows1", "rows3", "rows64"])
    @pytest.mark.parametrize("m, n", [(7, 7), (5, 11), (13, 6)])
    @pytest.mark.parametrize(
        "pairing", ["banded-banded", "dense-banded", "banded-dense", "dense-dense"]
    )
    def test_bit_identical_to_the_per_side_products(self, monkeypatch, pairing, m, n, rows):
        # Blocks of 1 and 3 rows leave a partial last block at every m
        # here; blocks of 64 rows hold all of m.
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * n * rows)
        rng = np.random.default_rng(m * n + rows)
        a_kind, b_kind = pairing.split("-")
        for (a_lo, a_hi), (b_lo, b_hi) in zip(BANDS, BANDS[2:] + BANDS[:2]):
            a = _banded(rng, m, a_lo, a_hi) if a_kind == "banded" else rng.standard_normal((m, m))
            b = _banded(rng, n, b_lo, b_hi) if b_kind == "banded" else rng.standard_normal((n, n))
            op_a, op_b = MatrixOperator.of(a), MatrixOperator.of(b)
            # A band too wide for its order (2k + 1 >= m) stays dense.
            assert (op_a.dense is None) == (a_kind == "banded" and 2 * max(a_lo, a_hi) < m - 1)
            assert (op_b.dense is None) == (b_kind == "banded" and 2 * max(b_lo, b_hi) < n - 1)
            c = rng.standard_normal((m, n))
            for order in ("C", "F"):
                x = np.asarray(rng.standard_normal((m, n)), order=order)
                x[::2, ::3] = -0.0
                for got, want in (
                    (sylvester_apply(op_a, op_b, x), _reference(op_a, op_b, x)),
                    (sylvester_apply(op_a, op_b, x, c), _reference(op_a, op_b, x, c)),
                    (sylvester_apply(op_a.T, op_b.T, x), _reference(op_a.T, op_b.T, x)),
                    (sylvester_apply(op_a.T, op_b.T, x, c), _reference(op_a.T, op_b.T, x, c)),
                ):
                    assert got.flags.c_contiguous
                    assert _same_bits(got, want), (a_lo, a_hi, b_lo, b_hi, order)

    @pytest.mark.parametrize("rows", [1, 3, 64], ids=["rows1", "rows3", "rows64"])
    def test_an_infinity_stays_in_its_row(self, monkeypatch, rows):
        """Shifting the flat block by a column wraps an entry's last
        column into the next row's first; an inf there must not reach it."""
        m, n = 9, 8
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * n * rows)
        rng = np.random.default_rng(rows)
        # Positive coefficients: every term an inf reaches has its sign,
        # so the reference forms no inf - inf.
        op_a = MatrixOperator.of(np.abs(_banded(rng, m, 1, 1)))
        op_b = MatrixOperator.of(np.abs(_banded(rng, n, 2, 2)))
        x = rng.standard_normal((m, n))
        x[2, -1], x[6, 0] = np.inf, -np.inf
        # Row 0 of the result sums only -0.0 terms: a wrapped column must
        # add -0.0 there too, or that zero loses its sign.
        x[:2] = -0.0
        for a, b in ((op_a, op_b), (op_a.T, op_b.T)):
            got = sylvester_apply(a, b, x)
            assert _same_bits(got, _reference(a, b, x))
            assert not np.isnan(got).any()
            assert np.signbit(got[0]).all()
            assert np.isfinite([got[3, 0], got[3, 1], got[5, -1], got[5, -2]]).all()


# t6 at n=256 at the solver defaults, recorded with dense products: the
# band form keeps every count and termination.
T6_N256 = {
    "dfp": (2, "converged", 3),
    "bfgs": (2, "converged", 3),
    "cg": (10, "converged", 11),
    "ar": (17, "converged", 18),
}


@pytest.mark.parametrize("method", sorted(T6_N256))
def test_t6_n256_keeps_its_counts(method):
    report = run_method(method, table_source("t6", 256).build(), {})
    assert (report.iterations, report.termination, len(report.residual_history)) == T6_N256[method]
