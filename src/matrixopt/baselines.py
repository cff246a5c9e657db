"""Comparator solvers: matrix conjugate gradient, depth-1
Anderson-accelerated Richardson, and exact Newton for the Riccati
equation backed by a direct Lyapunov solve (Bartels-Stewart on the real
Schur form; no n^2 x n^2 Kronecker system is formed).

Newton's outer loop, :func:`newton_iteration`, lives here once: exact
Newton runs it with the direct Lyapunov solve, and Newton-ADMM
(:mod:`matrixopt.newton_admm`) with an inexact ADMM solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    NewtonBreakdownError,
    PreconditionError,
    SingularMatrixError,
)
from .linalg import (
    frobenius_norm,
    kron,
    lu_solve,
    serial_products,
    symmetrize,
    trace_inner,
    unvec,
    vec,
)
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
        ld = p.apply(s.d)
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
                x_next = gx - theta * (gx - s.gx_prev)
        s.gx_prev, s.r_prev, s.x = gx, s.r, x_next
        s.r = p.residual_matrix(x_next)
        return s

    state = SimpleNamespace(x=np.zeros(p.shape), gx_prev=None, r_prev=None)
    state.r = p.residual_matrix(state.x)
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


def care_residual(p: CareProblem, x: np.ndarray, atx: np.ndarray | None = None) -> float:
    """Frobenius norm of A^T x + x A - x N x + K; ``atx`` is the product
    A^T x when the caller has already formed it."""
    n = p.order
    if x.shape != (n, n):
        raise DimensionError(f"iterate must be {n}x{n}, got {x.shape}")
    if atx is None:
        atx = p.a.T @ x
    return frobenius_norm(atx + x @ p.a - x @ p.n_mat @ x + p.k_mat)


def closed_loop_max_real_eig(p: CareProblem, x: np.ndarray) -> float:
    """Spectral abscissa of the closed loop A - N x; negative iff x stabilizes."""
    return float(np.max(np.linalg.eigvals(p.a - p.n_mat @ x).real))


def solve_lyapunov_direct(p: LyapunovProblem) -> np.ndarray:
    """Bartels-Stewart solve of A^T X + X A + Q = 0 on the real Schur form.

    With A = U T U^T (T upper quasi-triangular) the equation becomes
    T^T Y + Y T = -U^T Q U for Y = U^T X U, solved column by column from
    the left: a 1x1 diagonal block of T gives the n x n system
    (T^T + t_kk I) y_k = c_k - Y[:, :k] T[:k, k], a 2x2 block S the 2n x 2n
    system (I_2 kron T^T + S^T kron I_n) vec[y_k y_k+1] = vec of the two
    right-hand columns.  Each column system is LU-factored densely, so a
    solve costs O(n^4) (against O(n^6) for the n^2 x n^2 Kronecker
    system), and LU's pivot test keeps the failure contract: when two
    eigenvalues of A sum to zero, a column system is singular and
    :class:`SingularMatrixError` is raised.  The result is symmetrized
    before returning.
    """
    n = p.order
    # The solve alternates scipy factorizations with numpy products, so
    # numpy's BLAS pool is held at one thread (see serial_products).
    with serial_products():
        t, u = scipy.linalg.schur(p.a, output="real")
        c = -(u.T @ p.q @ u)
        tt = t.T
        eye = np.eye(n)
        block_tt = None  # I_2 kron T^T, built at the first 2x2 block
        y = np.zeros((n, n))
        k = 0
        while k < n:
            if k + 1 < n and t[k + 1, k] != 0.0:
                if block_tt is None:
                    block_tt = kron(np.eye(2), tt)
                rhs = c[:, k : k + 2] - y[:, :k] @ t[:k, k : k + 2]
                m_sys = block_tt + kron(t[k : k + 2, k : k + 2].T, eye)
                y[:, k : k + 2] = unvec(lu_solve(m_sys, vec(rhs)), n, 2)
                k += 2
            else:
                rhs = c[:, k] - y[:, :k] @ t[:k, k]
                y[:, k] = lu_solve(tt + t[k, k] * eye, rhs)
                k += 1
        return symmetrize(u @ y @ u.T)


def newton_iteration(
    p: CareProblem,
    x0: np.ndarray | None,
    lyapunov_solve: Callable[[LyapunovProblem], np.ndarray],
    residual: Callable[[np.ndarray], float],
    stop: Callable[[np.ndarray, float], str | None],
    max_steps: int,
    detail: dict,
) -> SolveReport:
    """Newton's iteration for the Riccati equation (Kleinman, 1968).

    From X_0 = ``x0`` (zero when None; must be symmetric n x n), each step
    hands the linearized equation

        (A - N X_k)^T X_{k+1} + X_{k+1} (A - N X_k) + X_k N X_k + K = 0

    to ``lyapunov_solve``, which returns X_{k+1}; ``residual`` and ``stop``
    are :func:`~matrixopt.report.iterate`'s.  The report records the final
    ``symmetry_gap`` and closed-loop abscissa ``closed_loop_max_real_eig``;
    a non-negative abscissa marks a non-stabilizing root, not an error.
    """
    n = p.order
    x = np.zeros((n, n)) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n, n):
        raise DimensionError(f"x0 must be {n}x{n}, got {x.shape}")
    if _symmetry_gap(x) > 1e-10 * max(1.0, float(np.abs(x).max())):
        raise PreconditionError("x0 must be symmetric")

    def step(x):
        return lyapunov_solve(
            LyapunovProblem(a=p.a - p.n_mat @ x, q=symmetrize(x @ p.n_mat @ x + p.k_mat))
        )

    report = iterate(x, step, residual, stop, max_steps, solution=lambda x: x, detail=detail)
    report.detail["symmetry_gap"] = _symmetry_gap(report.solution)
    report.detail["closed_loop_max_real_eig"] = closed_loop_max_real_eig(p, report.solution)
    return report


def solve_newton_care(
    p: CareProblem,
    x0: np.ndarray | None = None,
    cfg: BaselineConfig | None = None,
) -> SolveReport:
    """Exact Newton iteration for the Riccati equation.

    Each step of :func:`newton_iteration` solves its Lyapunov equation
    directly, so the iterates are symmetric by construction and converge
    quadratically near a solution.  A singular Lyapunov system raises
    :class:`NewtonBreakdownError` carrying the partial report.
    """
    cfg = cfg or BaselineConfig(max_iterations=NEWTON_MAX_STEPS)

    def lyapunov_solve(lp):
        try:
            return solve_lyapunov_direct(lp)
        except SingularMatrixError as exc:
            raise NewtonBreakdownError(f"singular Lyapunov system in a Newton step: {exc}") from exc

    return newton_iteration(
        p,
        x0,
        lyapunov_solve,
        lambda x: care_residual(p, x),
        lambda x, res: "converged" if res <= cfg.tol else None,
        cfg.max_iterations,
        detail={},
    )
