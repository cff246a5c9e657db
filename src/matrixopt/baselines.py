"""Comparator solvers: matrix conjugate gradient, depth-1
Anderson-accelerated Richardson, and exact Newton for the Riccati
equation backed by a direct Lyapunov solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NewtonBreakdownError,
    PreconditionError,
    SingularMatrixError,
)
from .linalg import frobenius_norm, kron, lu_solve, symmetrize, trace_inner, unvec, vec
from .oracle import sylvester_residual
from .problems import CareProblem, LyapunovProblem, SylvesterProblem
from .report import SolveReport


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
    checked, positive definiteness is the caller's obligation.  Starts
    from X = 0 and stops when the equation residual drops below ``tol``.
    For orders up to 8 the first five search directions are kept in
    ``detail["directions"]`` so tests can audit pairwise conjugacy.
    """
    cfg = cfg or BaselineConfig()
    scale_a = max(1.0, float(np.abs(p.a).max()))
    scale_b = max(1.0, float(np.abs(p.b).max()))
    if _symmetry_gap(p.a) > 1e-10 * scale_a or _symmetry_gap(p.b) > 1e-10 * scale_b:
        raise PreconditionError("solve_cg requires symmetric A and B")

    start = time.perf_counter()
    m, n = p.shape
    x = np.zeros((m, n))
    r = p.c.copy()
    history = [frobenius_norm(r)]
    detail: dict = {"directions": []}
    keep_dirs = max(m, n) <= 8

    if history[0] <= cfg.tol:
        return SolveReport(
            solution=x,
            iterations=0,
            residual_history=history,
            final_residual=history[0],
            wall_time_seconds=time.perf_counter() - start,
            termination="converged",
            detail=detail,
        )

    d = r.copy()
    rr = trace_inner(r, r)
    termination = "max_iterations"
    iterations = 0
    for _ in range(cfg.max_iterations):
        if keep_dirs and len(detail["directions"]) < 5:
            detail["directions"].append(d.copy())
        ld = p.a @ d + d @ p.b
        dld = trace_inner(d, ld)
        if dld <= 0:
            termination = "stagnated"
            break
        alpha = rr / dld
        x = x + alpha * d
        r = r - alpha * ld
        iterations += 1
        history.append(frobenius_norm(r))
        if history[-1] <= cfg.tol:
            termination = "converged"
            break
        rr_new = trace_inner(r, r)
        d = r + (rr_new / rr) * d
        rr = rr_new

    return SolveReport(
        solution=x,
        iterations=iterations,
        residual_history=history,
        final_residual=history[-1],
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
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

    start = time.perf_counter()
    m, n = p.shape
    x = np.zeros((m, n))
    r = p.a @ x + x @ p.b - p.c
    history = [frobenius_norm(r)]
    detail = {"omega": omega}
    termination = "max_iterations"
    iterations = 0

    if history[0] <= cfg.tol:
        termination = "converged"
    else:
        x_prev = None
        r_prev = None
        for _ in range(cfg.max_iterations):
            gx = x - omega * r
            if r_prev is not None:
                dr = r - r_prev
                denom = float(np.vdot(dr, dr))
                if denom > 0:
                    theta = float(np.vdot(r, dr)) / denom
                    g_prev = x_prev - omega * r_prev
                    x_next = gx - theta * (gx - g_prev)
                else:
                    x_next = gx
            else:
                x_next = gx
            x_prev, r_prev = x, r
            x = x_next
            r = p.a @ x + x @ p.b - p.c
            iterations += 1
            history.append(frobenius_norm(r))
            if history[-1] <= cfg.tol:
                termination = "converged"
                break
            if history[-1] > 1e6 * max(history[0], 1.0):
                termination = "diverged"
                break

    return SolveReport(
        solution=x,
        iterations=iterations,
        residual_history=history,
        final_residual=history[-1],
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
        detail=detail,
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
    n = p.order
    x = np.zeros((n, n)) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n, n):
        raise DimensionError(f"x0 must be {n}x{n}, got {x.shape}")
    if _symmetry_gap(x) > 1e-10 * max(1.0, float(np.abs(x).max())):
        raise PreconditionError("x0 must be symmetric")

    start = time.perf_counter()
    history = [care_residual(p, x)]
    iterations = 0
    termination = "max_iterations"
    if history[0] <= cfg.tol:
        termination = "converged"
    else:
        for _ in range(cfg.max_iterations):
            a_k = p.a - p.n_mat @ x
            q_k = symmetrize(x @ p.n_mat @ x + p.k_mat)
            try:
                x = solve_lyapunov_direct(LyapunovProblem(a=a_k, q=q_k))
            except SingularMatrixError as exc:
                report = SolveReport(
                    solution=x,
                    iterations=iterations,
                    residual_history=history,
                    final_residual=history[-1],
                    wall_time_seconds=time.perf_counter() - start,
                    termination="error",
                )
                raise NewtonBreakdownError(
                    f"singular Lyapunov system at outer step {iterations}: {exc}",
                    report=report,
                ) from exc
            iterations += 1
            history.append(care_residual(p, x))
            if history[-1] <= cfg.tol:
                termination = "converged"
                break

    return SolveReport(
        solution=x,
        iterations=iterations,
        residual_history=history,
        final_residual=history[-1],
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
        detail={"symmetry_gap": _symmetry_gap(x)},
    )
