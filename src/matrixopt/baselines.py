"""Comparator solvers: matrix conjugate gradient, depth-1
Anderson-accelerated Richardson, and exact Newton for the Riccati
equation backed by a direct Lyapunov solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    DimensionError,
    NewtonBreakdownError,
    PreconditionError,
    SingularMatrixError,
)
from .linalg import frobenius_norm, kron, lu_solve, symmetrize, trace_inner, unvec, vec
from .problems import CareProblem, LyapunovProblem, SylvesterProblem
from .report import SolveReport, Stop, iterate


# Outer-step cap of exact Newton when no config is given.
NEWTON_MAX_STEPS = 100


@dataclass
class BaselineConfig:
    tol: float = 1e-8
    max_iterations: int = 1000
    richardson_omega: float | str = "auto"

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if isinstance(self.richardson_omega, str) and self.richardson_omega != "auto":
            raise ValueError("richardson_omega must be 'auto' or a number")


def _symmetry_gap(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.T)))


def solve_cg(p: SylvesterProblem, cfg: BaselineConfig | None = None) -> SolveReport:
    """Conjugate gradient on L(X) = A X + X B under the trace inner product.

    Requires symmetric A and B (so that L is self-adjoint); symmetry is
    checked, positive definiteness is the caller's obligation: a search
    direction with <d, L d> <= 0 ends the run as stagnated.  Starts
    from X = 0 and stops when the equation residual drops below ``tol``.
    For orders up to 8 the first five search directions are kept in
    ``detail["directions"]`` so tests can audit pairwise conjugacy.
    """
    cfg = cfg or BaselineConfig()
    scale_a = max(1.0, float(np.abs(p.a).max()))
    scale_b = max(1.0, float(np.abs(p.b).max()))
    if _symmetry_gap(p.a) > 1e-10 * scale_a or _symmetry_gap(p.b) > 1e-10 * scale_b:
        raise PreconditionError("solve_cg requires symmetric A and B")

    m, n = p.shape
    detail: dict = {"directions": []}
    keep_dirs = max(m, n) <= 8

    def step(s):
        if keep_dirs and len(detail["directions"]) < 5:
            detail["directions"].append(s.d.copy())
        ld = p.a @ s.d + s.d @ p.b
        dld = trace_inner(s.d, ld)
        if dld <= 0:
            raise Stop("stagnated")
        alpha = s.rr / dld
        s.x = s.x + alpha * s.d
        s.r = s.r - alpha * ld
        rr_new = trace_inner(s.r, s.r)
        s.d = s.r + (rr_new / s.rr) * s.d
        s.rr = rr_new
        return s

    state = SimpleNamespace(x=np.zeros((m, n)), r=p.c.copy(), d=p.c.copy())
    state.rr = trace_inner(state.r, state.r)
    return iterate(
        state,
        step,
        lambda s: frobenius_norm(s.r),
        lambda s, res: "converged" if res <= cfg.tol else None,
        cfg.max_iterations,
        solution=lambda s: s.x,
        detail=detail,
    )


def solve_anderson_richardson(
    p: SylvesterProblem, cfg: BaselineConfig | None = None
) -> SolveReport:
    """Damped Richardson iteration X <- X - omega R with depth-1 Anderson
    mixing over the last two iterate/residual pairs.

    ``omega="auto"`` uses 1 / (||A||_1 + ||B||_1), a cheap upper proxy
    for the operator's spectral radius.  This is a best-effort
    comparator: convergence is not guaranteed, and blow-up beyond 1e6
    times the initial residual terminates the run as diverged.
    """
    cfg = cfg or BaselineConfig()
    if cfg.richardson_omega == "auto":
        omega = 1.0 / (
            float(np.abs(p.a).sum(axis=0).max()) + float(np.abs(p.b).sum(axis=0).max())
        )
    else:
        omega = float(cfg.richardson_omega)

    def step(s):
        gx = s.x - omega * s.r
        x_next = gx
        if s.r_prev is not None:
            dr = s.r - s.r_prev
            denom = float(np.vdot(dr, dr))
            if denom > 0:
                theta = float(np.vdot(s.r, dr)) / denom
                g_prev = s.x_prev - omega * s.r_prev
                x_next = gx - theta * (gx - g_prev)
        s.x_prev, s.r_prev, s.x = s.x, s.r, x_next
        s.r = p.a @ x_next + x_next @ p.b - p.c
        return s

    state = SimpleNamespace(x=np.zeros(p.shape), x_prev=None, r_prev=None)
    state.r = p.a @ state.x + state.x @ p.b - p.c
    blow_up = 1e6 * max(frobenius_norm(state.r), 1.0)

    def stop(s, res):
        if res <= cfg.tol:
            return "converged"
        return "diverged" if res > blow_up else None

    return iterate(
        state,
        step,
        lambda s: frobenius_norm(s.r),
        stop,
        cfg.max_iterations,
        solution=lambda s: s.x,
        detail={"omega": omega},
    )


def care_residual(p: CareProblem, x: np.ndarray) -> float:
    """Frobenius norm of A^T x + x A - x N x + K."""
    n = p.order
    if x.shape != (n, n):
        raise DimensionError(f"iterate must be {n}x{n}, got {x.shape}")
    return frobenius_norm(p.a.T @ x + x @ p.a - x @ p.n_mat @ x + p.k_mat)


def solve_lyapunov_direct(p: LyapunovProblem) -> np.ndarray:
    """Direct dense solve of A^T X + X A + Q = 0 via the vectorized system.

    Solvable iff no two eigenvalues of A sum to zero; that failure mode
    surfaces as a singular-matrix error from the LU factorization.  The
    result is symmetrized before returning.
    """
    n = p.order
    eye = np.eye(n)
    m_sys = kron(eye, p.a.T) + kron(p.a.T, eye)
    x = unvec(lu_solve(m_sys, -vec(p.q)), n, n)
    return symmetrize(x)


def _symmetric_x0(x0: np.ndarray | None, n: int) -> np.ndarray:
    """The starting iterate of a Newton solver: zero, or a symmetric n x n ``x0``."""
    x = np.zeros((n, n)) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n, n):
        raise DimensionError(f"x0 must be {n}x{n}, got {x.shape}")
    if _symmetry_gap(x) > 1e-10 * max(1.0, float(np.abs(x).max())):
        raise PreconditionError("x0 must be symmetric")
    return x


def solve_newton_care(
    p: CareProblem,
    x0: np.ndarray | None = None,
    cfg: BaselineConfig | None = None,
) -> SolveReport:
    """Exact Newton iteration for the Riccati equation.

    Each step solves the Lyapunov equation with closed-loop matrix
    A_k = A - N X_k and forcing Q_k = X_k N X_k + K directly, so the
    iterates are symmetric by construction and converge quadratically
    near a solution.  A singular Lyapunov system raises
    :class:`NewtonBreakdownError` carrying the partial report.
    """
    cfg = cfg or BaselineConfig(max_iterations=NEWTON_MAX_STEPS)

    def step(x):
        a_k = p.a - p.n_mat @ x
        q_k = symmetrize(x @ p.n_mat @ x + p.k_mat)
        try:
            return solve_lyapunov_direct(LyapunovProblem(a=a_k, q=q_k))
        except SingularMatrixError as exc:
            raise NewtonBreakdownError(f"singular Lyapunov system in a Newton step: {exc}") from exc

    report = iterate(
        _symmetric_x0(x0, p.order),
        step,
        lambda x: care_residual(p, x),
        lambda x, res: "converged" if res <= cfg.tol else None,
        cfg.max_iterations,
        solution=lambda x: x,
        detail={},
    )
    report.detail["symmetry_gap"] = _symmetry_gap(report.solution)
    return report
