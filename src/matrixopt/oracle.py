"""Direct Sylvester solver and residuals.

:func:`solve_kronecker_direct`, the Sylvester ``direct`` method, flattens
the equation through the identity (I_n kron A + B^T kron I_m) vec(X) =
vec(C) and LU-solves it.  Desk-scale orders keep that tractable.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import frobenius_norm, kron, lu_solve, unvec, vec
from .problems import SylvesterProblem


def sylvester_residual(p: SylvesterProblem, x: np.ndarray, r: np.ndarray | None = None) -> float:
    """Frobenius norm of A x + x B - C; ``r`` is that matrix when the
    caller has already formed it.  Formed here, it is the dense product,
    independent of the problem's banded operator."""
    if x.shape != p.shape:
        raise DimensionError(f"iterate must be {p.shape}, got {x.shape}")
    if r is None:
        r = p.a @ x + x @ p.b - p.c
    return frobenius_norm(r)


def sylvester_operator_matrix(p: SylvesterProblem) -> np.ndarray:
    """The mn x mn coefficient matrix I_n kron A + B^T kron I_m."""
    m = p.a.shape[0]
    n = p.b.shape[0]
    return kron(np.eye(n), p.a) + kron(p.b.T, np.eye(m))


def solve_kronecker_direct(p: SylvesterProblem) -> np.ndarray:
    """Direct solve of the vectorized system; the package's Sylvester oracle.

    Raises :class:`~matrixopt.errors.SingularMatrixError` when the spectra
    of A and -B overlap, and a capacity error when the Kronecker system
    would exceed the size cap.
    """
    m_sys = sylvester_operator_matrix(p)
    x = lu_solve(m_sys, vec(p.c))
    return unvec(x, p.a.shape[0], p.b.shape[0])
