"""Dense linear-algebra substrate shared by every solver.

All matrices are plain two-dimensional ``float64`` numpy arrays; the
:func:`as_matrix` helper enforces that carrier contract (finite entries,
explicit shape) at module boundaries.  Operations are pure functions of
their inputs, apart from :func:`serial_products`, which sets numpy's
BLAS thread count for the duration of a block.  The LU and Cholesky
solves call LAPACK directly, bit-identical to scipy's wrappers.
:class:`MatrixOperator` multiplies by a narrowly banded matrix through
its diagonals.
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

# Default relative singular-value cutoff for the pseudo-inverse.
DEFAULT_RANK_TOL = 1e-12


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


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm sqrt(sum of squared entries).

    Summed by numpy's own loop, not a BLAS dot product, so the result
    does not depend on the BLAS thread count.
    """
    return math.sqrt(np.einsum("ij,ij->", m, m))


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product tr(a^T b) = sum_ij a_ij * b_ij."""
    if a.shape != b.shape:
        raise DimensionError(f"trace_inner shapes differ: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


# The LAPACK routines behind scipy's LU and Cholesky solvers, resolved once:
# called directly they skip the per-call batching, validation and warnings.
_GETRF, _GETRS, _POTRF, _POTRS, _POSV = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "potrf", "potrs", "posv"), (np.empty((1, 1)),)
)


def _system(a, rhs, who: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``rhs`` as float64 arrays, checked to form a linear system
    of order at least one."""
    a = np.asarray(a, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"{who} needs a non-empty square matrix, got {a.shape}")
    if rhs.ndim not in (1, 2) or rhs.shape[0] != a.shape[0]:
        raise DimensionError(
            f"rhs of shape {rhs.shape} does not match system order {a.shape[0]}"
        )
    return a, rhs


def lu_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ X = rhs by LU with partial pivoting.

    Raises :class:`SingularMatrixError` when any pivot magnitude falls
    below ``LU_PIVOT_RTOL`` times the largest entry magnitude of ``a``.
    """
    a, rhs = _system(a, rhs, "lu_solve")
    scale = np.abs(a).max()
    lu, piv, info = _GETRF(a, overwrite_a=False)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info}")
    if scale == 0.0 or np.abs(lu.diagonal()).min() < LU_PIVOT_RTOL * scale:
        raise SingularMatrixError("numerically singular pivot in LU factorization")
    x, info = _GETRS(lu, piv, rhs, trans=0, overwrite_b=False)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info}")
    return x


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
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"spd_factor needs a square matrix, got {a.shape}")
    c, info = _POTRF(a, lower=False, overwrite_a=False, clean=False)
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
    """(get, set) thread-count controls of the OpenBLAS copy bundled
    with ``copy`` (``numpy`` or ``scipy``), or None when there is none
    to find.  Opening a copy that is already loaded returns its handle."""
    pattern, suffix = OPENBLAS_COPIES[copy]
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(glob.glob(str(site / pattern))):
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> dict:
    """Current thread count of each bundled OpenBLAS copy (None when the
    copy is not found)."""
    out = {}
    for copy in OPENBLAS_COPIES:
        controls = find_openblas(copy)
        out[copy] = None if controls is None else controls[0]()
    return out


_UNSEEN = object()
_serial = threading.Lock()
_serial_state = {"controls": _UNSEEN, "depth": 0, "saved": 1}


@contextlib.contextmanager
def serial_products():
    """Run the block with numpy's OpenBLAS at one thread.

    numpy and scipy each bundle an OpenBLAS copy with its own worker
    threads.  A loop that alternates numpy products with scipy
    factorizations keeps both pools spinning, which on a small machine
    costs more than the products' threading gains.  The ADMM iterates
    are bit-identical at any thread count.

    The setting is process-wide: blocks nest and may overlap across
    threads.  The first block to enter saves the count and lowers it to
    one, the last to leave restores it; a count of one is left alone.
    Without a findable copy the block runs unchanged.
    """
    state = _serial_state
    with _serial:
        if state["controls"] is _UNSEEN:
            state["controls"] = find_openblas("numpy")
        controls = state["controls"]
        if controls is not None:
            if state["depth"] == 0:
                state["saved"] = controls[0]()
                if state["saved"] > 1:
                    controls[1](1)
            state["depth"] += 1
    try:
        yield
    finally:
        if controls is not None:
            with _serial:
                state["depth"] -= 1
                if state["depth"] == 0 and state["saved"] > 1:
                    controls[1](state["saved"])


def pseudo_inverse(a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose inverse via SVD.

    Singular values below ``rank_tol * sigma_max`` are truncated.  The
    zero matrix maps to the zero matrix of transposed shape.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    a = np.asarray(a, dtype=np.float64)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > rank_tol * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * s_inv) @ u.T


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


class MatrixOperator:
    """The products M @ X and X @ M with one square matrix M.

    When every nonzero of the n x n matrix M lies within half-bandwidth
    k <= :data:`MAX_HALF_BANDWIDTH` and 2k + 1 < n, the products are
    formed from M's 2k + 1 diagonals, in O(k n m) work for an n x m (or
    m x n) X instead of a dense product's O(n^2 m); otherwise they are
    the dense products ``m @ x`` and ``x @ m`` unchanged.  Build one
    with :meth:`of`.
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

    def left(self, x: np.ndarray) -> np.ndarray:
        """M @ x."""
        self._check(x.shape[0], "left")
        if self.dense is not None:
            return self.dense @ x
        (_, main), *off = self.bands
        n = len(main)
        out = main[:, None] * x
        for d, v in off:
            if d > 0:
                out[: n - d] += v[:, None] * x[d:]
            else:
                out[-d:] += v[:, None] * x[: n + d]
        return out

    def right(self, x: np.ndarray, add_to: np.ndarray | None = None) -> np.ndarray:
        """x @ M, or, given ``add_to``, add_to + x @ M formed in place."""
        self._check(x.shape[1], "right")
        if self.dense is not None:
            if add_to is None:
                return x @ self.dense
            add_to += x @ self.dense
            return add_to
        (_, main), *off = self.bands
        n = len(main)
        if add_to is None:
            out = x * main
        else:
            out = add_to
            out += x * main
        for d, v in off:
            if d > 0:
                out[:, d:] += x[:, : n - d] * v
            else:
                out[:, : n + d] += x[:, -d:] * v
        return out


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
    """Average away floating-point asymmetry: (m + m^T) / 2."""
    return 0.5 * (m + m.T)
