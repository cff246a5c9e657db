"""Reweighted least-norm solver for the Sylvester equation.

The equation A X + X B = C is flattened to M x = c and attacked as the
constrained problem  min ||x||_1  s.t.  M x = c, the l_{2,1} objective
on the scalar rows of x = vec(X).  Each sweep solves the weighted
least-norm step

    x = D^{-1} M^T (M D^{-1} M^T)^{-1} c,

then refreshes the diagonal weights D from |x|.  M = I (x) A + B^T (x) I
is square, so a nonsingular M makes the step M^{-1} c for every
positive D: the weights change no iterate beyond rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .linalg import cholesky_solve, frobenius_norm, lu_solve, require_positive, unvec, vec
from .oracle import sylvester_operator_matrix, sylvester_residual
from .problems import SylvesterProblem
from .report import SolveReport, iterate


# Smallest |x_i| a reweighting divides by, so that a zero entry gets a
# large finite weight, not an infinite one.
ROW_NORM_FLOOR = 1e-12


@dataclass
class CcomConfig:
    tol: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        require_positive(self, "tol")


def ccom_step(m_sys: np.ndarray, c_vec: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Weighted least-norm feasible point x = D^{-1} M^T (M D^{-1} M^T)^{-1} c.

    ``d`` is the positive diagonal of D, a 1-D array.  The inner system
    is symmetric positive definite whenever M has full row rank, so it
    is Cholesky-solved with an LU fallback; rank deficiency surfaces as
    a singular-matrix error.
    """
    if np.any(d <= 0):
        raise ValueError("weight diagonal must be positive")
    d_inv = 1.0 / d
    # M D^{-1} M^T built by scaling columns of M.
    md_inv = m_sys * d_inv[np.newaxis, :]
    gram = md_inv @ m_sys.T
    try:
        z = cholesky_solve(gram, c_vec)
    except NotPositiveDefiniteError:
        z = lu_solve(gram, c_vec)
    return d_inv[:, np.newaxis] * (m_sys.T @ z)


def solve_ccom(p: SylvesterProblem, cfg: CcomConfig | None = None) -> SolveReport:
    """Iterate weighted least-norm steps until the equation residual
    drops below ``cfg.tol`` or the iteration cap is hit.

    The report's ``detail`` carries the per-iterate objective ||vec(X)||_1
    (``l21_history``) and constraint gap ``||M x - c||_2``
    (``feasibility_history``).  A rank-deficient operator raises
    :class:`SingularMatrixError` carrying the partial report.
    """
    cfg = cfg or CcomConfig()
    m, n = p.shape
    m_sys = sylvester_operator_matrix(p)
    c_vec = vec(p.c)
    l21_history: list[float] = []
    feas_history: list[float] = []

    def step(state):
        _, weights = state
        x_flat = ccom_step(m_sys, c_vec, weights).ravel()
        norms = np.abs(x_flat)
        l21_history.append(float(norms.sum()))
        feas_history.append(frobenius_norm(m_sys @ x_flat[:, np.newaxis] - c_vec))
        weights = 1.0 / (2.0 * np.maximum(norms, ROW_NORM_FLOOR))
        return unvec(x_flat.reshape(-1, 1), m, n), weights

    return iterate(
        (np.zeros((m, n)), np.ones(m * n)),  # D_0 = I
        step,
        lambda state: sylvester_residual(p, state[0]),
        cfg.max_iterations,
        tol=cfg.tol,
        solution=lambda state: state[0],
        detail={"l21_history": l21_history, "feasibility_history": feas_history},
    )
