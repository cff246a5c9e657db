"""Dense linear-algebra substrate shared by every solver.

All matrices are plain two-dimensional ``float64`` numpy arrays; the
:func:`as_matrix` helper enforces that carrier contract (finite entries,
explicit shape) at module boundaries.  Operations are pure functions of
their inputs, apart from :func:`serial_products`, which sets the BLAS
thread count of numpy's and scipy's OpenBLAS copies for the duration of
a block; :func:`~matrixopt.harness.manifest.run_method` enters it once per
solve, and no solver enters it itself.  The LU and Cholesky solves call
LAPACK directly, bit-identical to scipy's wrappers; :func:`lu_solve` and
:func:`lu_inverse` share one factorization and pivot test.
:func:`pseudo_inverse` skips its SVD for a square matrix whose LU
inverse certifies full rank.
:func:`sylvester_apply` is the one kernel for A X + X B (- C): it reads
a narrowly banded :class:`MatrixOperator` from its diagonals, one
cache-sized block of rows at a time.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import threading
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import (
    CapacityError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

# Largest entry count a Kronecker product may produce (4096 x 4096 output).
DEFAULT_KRON_CAP = 4096 * 4096

# Relative pivot threshold below which LU declares the matrix singular.
LU_PIVOT_RTOL = 1e-14

# Relative singular-value cutoff of the pseudo-inverse.
RANK_TOL = 1e-12

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``obj`` to a 2-D float64 array with finite entries."""
    m = np.asarray(obj, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_positive(config, *names: str) -> None:
    """Raise ValueError naming the first field of ``names`` on ``config``
    whose value is not finite and positive; NaN fails too."""
    for name in names:
        if not 0 < getattr(config, name) < math.inf:
            raise ValueError(f"{name} must be finite and positive")


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm sqrt(sum of squared entries), as one BLAS ``nrm2``
    call.  nrm2 scales as it sums, so the norm is finite whenever it is
    representable; squaring each entry first overflows once an entry
    passes about 1e154.

    Raveled in memory order, so a Fortran-ordered matrix is not copied.
    An empty matrix, which nrm2 rejects, has norm 0.
    """
    return _NRM2(np.ravel(m, order="K")) if np.size(m) else 0.0


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product tr(a^T b) = sum_ij a_ij * b_ij."""
    if a.shape != b.shape:
        raise DimensionError(f"trace_inner shapes differ: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


# The LAPACK routines behind scipy's LU and Cholesky solvers, and BLAS
# ``nrm2``, resolved once: called directly they skip the per-call
# batching, validation and warnings.
_GETRF, _GETRS, _GETRI, _GETRI_LWORK, _POTRF, _POTRS, _POSV = (
    scipy.linalg.get_lapack_funcs(
        ("getrf", "getrs", "getri", "getri_lwork", "potrf", "potrs", "posv"),
        (np.empty((1, 1)),),
    )
)
(_NRM2,) = scipy.linalg.get_blas_funcs(("nrm2",), (np.empty((1, 1)),))


def _square(a, who: str) -> np.ndarray:
    """``a`` as a float64 array, checked to be square of order at least one."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"{who} needs a non-empty square matrix, got {a.shape}")
    return a


def _system(a, rhs, who: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``rhs`` as float64 arrays, checked to form a linear system
    of order at least one."""
    a = _square(a, who)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != a.shape[0]:
        raise DimensionError(
            f"rhs of shape {rhs.shape} does not match system order {a.shape[0]}"
        )
    return a, rhs


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors (in a new array) and pivots of the square matrix ``a``.

    Raises :class:`SingularMatrixError` when any pivot magnitude falls
    below ``LU_PIVOT_RTOL`` times the largest entry magnitude of ``a``.
    """
    # max |a_ij| from the extreme entries: no n x n |a| temporary.
    scale = max(a.max(), -a.min())
    lu, piv, info = _GETRF(a, overwrite_a=False)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info}")
    if scale == 0.0 or np.abs(lu.diagonal()).min() < LU_PIVOT_RTOL * scale:
        raise SingularMatrixError("numerically singular pivot in LU factorization")
    return lu, piv


def lu_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ X = rhs by LU with partial pivoting.

    Raises :class:`SingularMatrixError` when any pivot magnitude falls
    below ``LU_PIVOT_RTOL`` times the largest entry magnitude of ``a``.
    """
    a, rhs = _system(a, rhs, "lu_solve")
    lu, piv = _lu_factor(a)
    x, info = _GETRS(lu, piv, rhs, trans=0, overwrite_b=False)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info}")
    return x


def lu_inverse(a: np.ndarray) -> np.ndarray:
    """a^-1 by LU with partial pivoting: ``getri`` inverts the factors in
    place, about 2n^3 flops against 2.7n^3 for :func:`lu_solve` on the
    n identity columns.

    Raises :class:`SingularMatrixError` under :func:`lu_solve`'s pivot test.
    """
    a = _square(a, "lu_inverse")
    lu, piv = _lu_factor(a)
    lwork, _ = _GETRI_LWORK(a.shape[0])
    inv, info = _GETRI(lu, piv, lwork=int(lwork), overwrite_lu=True)
    if info > 0:
        raise SingularMatrixError("zero pivot in LU factorization")
    if info < 0:
        raise ValueError(f"getri rejected argument {-info}")
    return inv


def cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ X = rhs for symmetric positive definite ``a`` via Cholesky,
    in one LAPACK ``posv`` call that reads the upper triangle of ``a``.

    Raises :class:`NotPositiveDefiniteError` on a non-positive pivot, in
    which case the caller may fall back to :func:`lu_solve`.
    """
    a, rhs = _system(a, rhs, "cholesky_solve")
    _, x, info = _POSV(a, rhs, lower=False, overwrite_a=False, overwrite_b=False)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"posv rejected argument {-info}")
    return x


def spd_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky-factor a symmetric positive definite matrix for reuse.

    Returns an opaque factor object accepted by :func:`spd_solve`.  Only
    the upper triangle of ``a`` is read.
    """
    c, info = _POTRF(_square(a, "spd_factor"), lower=False, overwrite_a=False, clean=False)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"potrf rejected argument {-info}")
    return c


def spd_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve against a factor produced by :func:`spd_factor`."""
    x, info = _POTRS(factor, rhs, lower=False, overwrite_b=False)
    if info != 0:
        raise ValueError(f"potrs rejected argument {-info}")
    return x


# Each bundled OpenBLAS copy: (site-packages glob, exported symbol suffix).
OPENBLAS_COPIES = {
    "numpy": ("numpy.libs/libscipy_openblas64_*.so", "64_"),
    "scipy": ("scipy.libs/libscipy_openblas*.so", ""),
}


def find_openblas(copy: str):
    """(get, set, config) of the OpenBLAS copy bundled with ``copy``
    (``numpy`` or ``scipy``): its thread-count getter and setter and its
    ``openblas_get_config`` string, or None when there is none to find.
    Opening a copy that is already loaded returns its handle."""
    pattern, suffix = OPENBLAS_COPIES[copy]
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(glob.glob(str(site / pattern))):
        try:
            lib = ctypes.CDLL(path)
            get, set_, config = (
                getattr(lib, f"scipy_openblas_{name}{suffix}")
                for name in ("get_num_threads", "set_num_threads", "get_config")
            )
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        return get, set_, config
    return None


def blas_environment() -> dict:
    """Thread count a solve runs each bundled OpenBLAS copy at (read
    inside :func:`serial_products`) and its ``openblas_get_config``
    string (None when the copy is not found)."""
    threads, configs = {}, {}
    with serial_products():
        for copy in OPENBLAS_COPIES:
            get, _, config = find_openblas(copy) or (None, None, None)
            threads[copy] = get and get()
            configs[copy] = config and config().decode(errors="replace").strip()
    return {"openblas_threads": threads, "openblas_config": configs}


_UNSEEN = object()
_serial = threading.Lock()
_serial_state = {"controls": _UNSEEN, "depth": 0, "lowered": []}


@contextlib.contextmanager
def serial_products():
    """Run the block with both bundled OpenBLAS copies, numpy's and
    scipy's, at one thread.

    Each copy keeps its own pool of worker threads, and the rounding of
    its inner products and factorizations depends on its thread count;
    at one thread the bits do not depend on the host's core count.

    The setting is process-wide: blocks nest and may overlap across
    threads.  Under one lock and one depth count, the first block to
    enter lowers each copy whose count is above one to one, and the
    last to leave restores those counts.  A copy that cannot be found
    is skipped, so without either the block runs unchanged.
    """
    state = _serial_state
    with _serial:
        if state["controls"] is _UNSEEN:
            found = [find_openblas(copy) for copy in OPENBLAS_COPIES]
            state["controls"] = [controls for controls in found if controls is not None]
        if state["depth"] == 0:
            counts = [(set_, get()) for get, set_, _ in state["controls"]]
            state["lowered"] = [(set_, count) for set_, count in counts if count > 1]
            for set_, _ in state["lowered"]:
                set_(1)
        state["depth"] += 1
    try:
        yield
    finally:
        with _serial:
            state["depth"] -= 1
            if state["depth"] == 0:
                for set_, count in state["lowered"]:
                    set_(count)


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse.

    Singular values at or below ``RANK_TOL * sigma_max`` are truncated.
    The zero matrix maps to the zero matrix of transposed shape.

    A non-empty square ``a`` whose LU inverse (:func:`lu_inverse`:
    ``getrf``, then ``getri`` in the factors' storage) certifies full
    rank skips the SVD.  ||a||_F ||a^-1||_F bounds sigma_max / sigma_min
    from above; the SVD's singular values carry rounding errors of about
    n eps sigma_max, so when the bound stays below
    ``1 / (RANK_TOL + n eps)`` the SVD would keep every singular value,
    and the inverse is the answer.  A singular pivot, a larger or
    non-finite bound leaves the matrix to the SVD.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0] if a.ndim == 2 else 0
    if n > 0 and a.shape[1] == n:
        try:
            inv = lu_inverse(a)
        except SingularMatrixError:
            pass
        else:
            # Python floats: an overflowing product is inf, never a warning.
            tol = RANK_TOL + n * _EPS
            if frobenius_norm(a) * frobenius_norm(inv) * tol < 1.0:
                return inv
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > RANK_TOL * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    # Scaled in place, one array fewer: vt.T then has the layout of a scaled
    # copy of it, so the product is the same to the bit.
    vt *= s_inv[:, None]
    return vt.T @ u.T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with an output-size guard.

    Raises :class:`CapacityError` when the output would exceed
    :data:`DEFAULT_KRON_CAP` entries; the dense product grows
    quartically, so failing loudly beats thrashing memory.
    """
    out_rows = a.shape[0] * b.shape[0]
    out_cols = a.shape[1] * b.shape[1]
    if out_rows * out_cols > DEFAULT_KRON_CAP:
        raise CapacityError(
            f"kron output {out_rows}x{out_cols} exceeds cap of {DEFAULT_KRON_CAP} entries"
        )
    return np.kron(a, b)


# Widest half-bandwidth whose products are read from the diagonals.
MAX_HALF_BANDWIDTH = 2

# Output bytes per row block of :func:`sylvester_apply`: with the block's
# rows of x and one temporary it stays in a core's cache (32 rows at n=1024).
BLOCK_BYTES = 256 * 1024


class MatrixOperator:
    """One square matrix M, kept as the operand of the products M @ X
    and X @ M that :func:`sylvester_apply` forms.

    When every nonzero of the n x n matrix M lies within half-bandwidth
    k <= :data:`MAX_HALF_BANDWIDTH` and 2k + 1 < n, M is kept as its
    2k + 1 diagonals and a product costs O(k n m) for an n x m (or
    m x n) X instead of a dense product's O(n^2 m); otherwise M is kept
    whole and its products are the dense ``m @ x`` and ``x @ m``.
    Build one with :meth:`of`.
    """

    __slots__ = ("dense", "bands")

    def __init__(self, dense: np.ndarray | None, bands: tuple = ()):
        self.dense = dense  # None when banded
        self.bands = bands  # ((offset, diagonal), ...), main diagonal first

    @classmethod
    def of(cls, m: np.ndarray) -> "MatrixOperator":
        """The banded operator of ``m`` when the band form applies, else
        the dense one: O(n^2) to decide, one count of the nonzeros."""
        n = m.shape[0]
        outside = np.count_nonzero(m)
        for k in range(MAX_HALF_BANDWIDTH + 1):
            if 2 * k + 1 >= n:
                break
            outside -= sum(np.count_nonzero(np.diagonal(m, d)) for d in {k, -k})
            if outside == 0:
                offsets = [0] + [d for j in range(1, k + 1) for d in (j, -j)]
                return cls(None, tuple((d, np.diagonal(m, d).copy()) for d in offsets))
        return cls(m)

    @property
    def T(self) -> "MatrixOperator":
        """The operator of M^T."""
        if self.dense is not None:
            return MatrixOperator(self.dense.T)
        return MatrixOperator(None, tuple((-d, v) for d, v in self.bands))

    def _check(self, rows: int, side: str):
        n = len(self.bands[0][1]) if self.dense is None else self.dense.shape[0]
        if rows != n:
            raise DimensionError(f"{side} product with an order-{n} matrix got {rows}")


def sylvester_apply(
    a: MatrixOperator, b: MatrixOperator, x: np.ndarray, c: np.ndarray | None = None
) -> np.ndarray:
    """a x + x b, minus ``c`` when given, as a new C-ordered array.

    A dense side is one whole-matrix product, ``a @ x`` first and
    ``x @ b`` added after every banded term.  Banded terms are formed a
    block of rows at a time (about :data:`BLOCK_BYTES` of output), so
    every pass over a block runs in cache: A's diagonals from row
    slices of x, B's diagonals as shifted adds on the flat block.
    Every entry receives the same terms in the same order as the
    whole-matrix per-side products (A's diagonals, B's, main diagonal
    first, then ``-c``), so the result is bit-identical to them.
    """
    m, n = x.shape
    a._check(m, "left")
    b._check(n, "right")
    out = np.empty((m, n)) if a.dense is None else a.dense @ x
    if a.dense is None or b.dense is None:
        _banded_terms(a.bands, b.bands, x, out, None if b.dense is not None else c)
    if b.dense is not None:
        out += x @ b.dense
        if c is not None:
            out -= c
    return out


def _banded_terms(left: tuple, right: tuple, x: np.ndarray, out: np.ndarray, c):
    """Form the banded terms of a x + x b (- c) in ``out``, a block of
    rows at a time: A's terms overwrite a block (``left`` empty: ``out``
    already holds a @ x), B's terms and ``-c`` are added to it."""
    m, n = x.shape
    rows = min(m, max(1, BLOCK_BYTES // (8 * n)))
    tmp = np.empty(rows * n)
    if right:
        x_flat = np.ascontiguousarray(x).reshape(-1)
        # B's off-diagonals laid along the flat block: entry i * n + j of
        # a tile multiplies the x entry that lands in column j.  Entries
        # whose x would come from a neighbouring row hold 1.0, so that
        # product never warns; it is replaced by -0.0 before the add.
        tiles = []
        for d, v in right[1:]:
            row = np.ones(n)
            row[max(d, 0) : n + min(d, 0)] = v
            tiles.append((d, np.tile(row, rows)))
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        block = out[r0:r1]
        if left:
            (_, main), *off = left
            np.multiply(main[r0:r1, None], x[r0:r1], out=block)
            for d, v in off:
                # Row i gains v[i + min(d, 0)] * x[i + d] where row i + d exists.
                lo, hi = max(r0, -d), min(r1, m - d)
                if lo < hi:
                    term = tmp[: (hi - lo) * n].reshape(hi - lo, n)
                    shift = min(d, 0)
                    np.multiply(v[lo + shift : hi + shift, None], x[lo + d : hi + d], out=term)
                    block[lo - r0 : hi - r0] += term
        if right:
            size = (r1 - r0) * n
            flat, x_block, term = block.reshape(-1), x_flat[r0 * n : r1 * n], tmp[:size]
            np.multiply(x_block.reshape(r1 - r0, n), right[0][1], out=term.reshape(r1 - r0, n))
            flat += term
            for d, tile in tiles:
                # Column j of the block gains x[:, j - d] * v: the flat
                # block shifted by d.  -0.0, the additive identity, fills
                # the columns the shift wraps, so even a zero keeps its sign.
                if d > 0:
                    np.multiply(x_block[: size - d], tile[d:size], out=term[d:])
                    term.reshape(r1 - r0, n)[:, :d] = -0.0
                else:
                    np.multiply(x_block[-d:], tile[: size + d], out=term[: size + d])
                    term.reshape(r1 - r0, n)[:, n + d :] = -0.0
                flat += term
        if c is not None:
            block -= c[r0:r1]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking operator: columns of ``m`` concatenated into one column.

    Storage is row-major throughout the package; the column-major order
    here is what the Kronecker identity vec(AXB) = (B^T kron A) vec(X)
    assumes, so the conversion is always explicit.
    """
    m = np.asarray(m, dtype=np.float64)
    return m.reshape(-1, 1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a column vector into rows x cols."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (rows * cols, 1):
        raise DimensionError(
            f"unvec expects shape ({rows * cols}, 1), got {v.shape}"
        )
    return v.reshape(rows, cols, order="F").copy()


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average away floating-point asymmetry: (m + m^T) / 2, formed in
    one new array; the one place the package adds a matrix to its
    transpose."""
    out = m + m.T
    out *= 0.5
    return out
