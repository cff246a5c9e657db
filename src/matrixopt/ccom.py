"""Row-sparsity-reweighted solver for the Sylvester equation.

The equation A X + X B = C is flattened to M x = c and attacked as the
constrained problem  min ||x||_{2,1}  s.t.  M x = c.  Each sweep solves
the weighted least-norm step

    x = D^{-1} M^T (M D^{-1} M^T)^{-1} c,

then refreshes the diagonal weights D from the current row norms, which
monotonically decreases the group-norm objective.  On a vectorized
equation the rows of x are scalars, so the objective degenerates to the
l1 norm; ``group_rows`` restores genuine row groups (``group_rows = m``
groups the entries of each stacked column together).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, ParameterError
from .linalg import cholesky_solve, lu_solve, unvec, vec
from .oracle import sylvester_operator_matrix, sylvester_residual
from .problems import SylvesterProblem
from .report import SolveReport, iterate


# Smallest group norm a reweighting divides by.
ROW_NORM_FLOOR = 1e-12


@dataclass
class CcomConfig:
    epsilon: float = 1e-8
    max_iterations: int = 100
    group_rows: int = 1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.group_rows < 1:
            raise ValueError("group_rows must be a positive integer")


def l21_norm(m: np.ndarray) -> float:
    """Sum over rows of the row's Euclidean norm."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return float(np.sqrt((m * m).sum(axis=1)).sum())


def reweight_diagonal(x: np.ndarray, floor: float) -> np.ndarray:
    """Diagonal D with d_ii = 1 / (2 * max(||row i of x||_2, floor)).

    The floor keeps zero rows from making the weighted step divide by
    zero; it is the standard reweighted-least-squares safeguard.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    norms = np.maximum(np.sqrt((x * x).sum(axis=1)), floor)
    return np.diag(1.0 / (2.0 * norms))


def ccom_step(m_sys: np.ndarray, c_vec: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Weighted least-norm feasible point x = D^{-1} M^T (M D^{-1} M^T)^{-1} c.

    ``d`` is the positive diagonal weight matrix.  The inner system is
    symmetric positive definite whenever M has full row rank, so it is
    Cholesky-solved with an LU fallback; rank deficiency surfaces as a
    singular-matrix error.
    """
    d_diag = np.diag(d) if d.ndim == 2 else np.asarray(d, dtype=np.float64)
    if np.any(d_diag <= 0):
        raise ValueError("weight diagonal must be positive")
    d_inv = 1.0 / d_diag
    # M D^{-1} M^T built by scaling columns of M.
    md_inv = m_sys * d_inv[np.newaxis, :]
    gram = md_inv @ m_sys.T
    try:
        z = cholesky_solve(gram, c_vec)
    except NotPositiveDefiniteError:
        z = lu_solve(gram, c_vec)
    return d_inv[:, np.newaxis] * (m_sys.T @ z)


def _group_norms(x_flat: np.ndarray, group_rows: int) -> np.ndarray:
    """Euclidean norm of each contiguous block of ``group_rows`` entries."""
    groups = x_flat.reshape(-1, group_rows)
    return np.sqrt((groups * groups).sum(axis=1))


def solve_ccom(p: SylvesterProblem, cfg: CcomConfig | None = None) -> SolveReport:
    """Iterate weighted least-norm steps until the equation residual
    drops below ``cfg.epsilon`` or the iteration cap is hit.

    The report's ``detail`` carries the per-iterate group-norm objective
    (``l21_history``) and constraint gap ``||M x - c||_2``
    (``feasibility_history``).  A rank-deficient operator raises
    :class:`SingularMatrixError` carrying the partial report.
    """
    cfg = cfg or CcomConfig()
    m, n = p.shape
    if (m * n) % cfg.group_rows != 0:
        raise ParameterError(
            f"group_rows={cfg.group_rows} does not divide the {m * n} unknowns"
        )
    m_sys = sylvester_operator_matrix(p)
    c_vec = vec(p.c)
    l21_history: list[float] = []
    feas_history: list[float] = []

    def step(state):
        _, weights = state
        x_flat = ccom_step(m_sys, c_vec, weights).ravel()
        norms = _group_norms(x_flat, cfg.group_rows)
        l21_history.append(float(norms.sum()))
        feas_history.append(float(np.linalg.norm(m_sys @ x_flat[:, np.newaxis] - c_vec)))
        weights = np.repeat(1.0 / (2.0 * np.maximum(norms, ROW_NORM_FLOOR)), cfg.group_rows)
        return unvec(x_flat.reshape(-1, 1), m, n), weights

    return iterate(
        (np.zeros((m, n)), np.ones(m * n)),  # D_0 = I
        step,
        lambda state: sylvester_residual(p, state[0]),
        lambda state, res: "converged" if res <= cfg.epsilon else None,
        cfg.max_iterations,
        solution=lambda state: state[0],
        detail={
            "l21_history": l21_history,
            "feasibility_history": feas_history,
            "rhs_norm": float(np.linalg.norm(c_vec)),
        },
    )
