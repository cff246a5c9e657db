"""Comparator solvers: matrix conjugate gradient, depth-1
Anderson-accelerated Richardson, and exact Newton for the Riccati
equation backed by a direct Lyapunov solve (Bartels-Stewart on the real
Schur form through LAPACK's ``dtrsyl``, O(n^3); a column-by-column LU
solve takes over only on a near-singular system, and no n^2 x n^2
Kronecker system is formed).

Newton's outer loop, :func:`newton_iteration`, lives here once: exact
Newton runs it with the direct Lyapunov solve, and Newton-ADMM
(:mod:`matrixopt.newton_admm`) with an inexact ADMM solve.
"""

from __future__ import annotations

import math
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
    require_positive,
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

    def __post_init__(self):
        require_positive(self, "tol")


def _symmetry_gap(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.T)))


def solve_cg(p: SylvesterProblem, cfg: BaselineConfig | None = None) -> SolveReport:
    """Conjugate gradient on L(X) = A X + X B under the trace inner product.

    Requires symmetric A and B (so that L is self-adjoint); symmetry is
    checked, positive definiteness is the caller's obligation: a search
    direction with <d, L d> <= 0 ends the run as stagnated.  Starts
    from X = 0 and stops when the equation residual drops below ``tol``.
    """
    cfg = cfg or BaselineConfig()
    scale_a = max(1.0, float(np.abs(p.a).max()))
    scale_b = max(1.0, float(np.abs(p.b).max()))
    if _symmetry_gap(p.a) > 1e-10 * scale_a or _symmetry_gap(p.b) > 1e-10 * scale_b:
        raise PreconditionError("solve_cg requires symmetric A and B")

    def step(s):
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

    state = SimpleNamespace(x=np.zeros(p.shape), r=p.c.copy(), d=p.c.copy())
    state.rr = trace_inner(state.r, state.r)
    return iterate(
        state,
        step,
        lambda s: frobenius_norm(s.r),
        cfg.max_iterations,
        tol=cfg.tol,
        solution=lambda s: s.x,
        detail={},
    )


def solve_anderson_richardson(
    p: SylvesterProblem, cfg: BaselineConfig | None = None
) -> SolveReport:
    """Damped Richardson iteration X <- X - omega R with depth-1 Anderson
    mixing over the last two iterate/residual pairs.  A step whose mixing
    coefficient is not finite (an inner product overflowed) takes the
    plain Richardson step.

    omega is 1 / (||A||_1 + ||B||_1), a cheap upper proxy for the
    operator's spectral radius, reported as ``detail["omega"]``; an
    omega that is not finite and positive (A = B = 0, or a norm sum
    that overflows) is a :class:`PreconditionError`.  This is a
    best-effort comparator: convergence is not guaranteed, and blow-up
    beyond 1e6 times the initial residual terminates the run as
    diverged.
    """
    cfg = cfg or BaselineConfig()
    norm_sum = float(np.abs(p.a).sum(axis=0).max()) + float(np.abs(p.b).sum(axis=0).max())
    omega = 1.0 / norm_sum if norm_sum > 0 else math.inf
    if not 0 < omega < math.inf:
        raise PreconditionError(
            f"solve_anderson_richardson requires a finite positive step 1 / (||A||_1 + ||B||_1), "
            f"got 1 / {norm_sum:g}"
        )

    def step(s):
        gx = s.x - omega * s.r
        x_next = gx
        if s.r_prev is not None:
            dr = s.r - s.r_prev
            denom = float(np.vdot(dr, dr))
            theta = float(np.vdot(s.r, dr)) / denom if 0 < denom < math.inf else math.nan
            if math.isfinite(theta):
                x_next = gx - theta * (gx - s.gx_prev)
        s.gx_prev, s.r_prev, s.x = gx, s.r, x_next
        s.r = p.residual_matrix(x_next)
        return s

    state = SimpleNamespace(x=np.zeros(p.shape), gx_prev=None, r_prev=None)
    state.r = p.residual_matrix(state.x)
    blow_up = 1e6 * max(frobenius_norm(state.r), 1.0)

    return iterate(
        state,
        step,
        lambda s: frobenius_norm(s.r),
        cfg.max_iterations,
        tol=cfg.tol,
        stop=lambda s, res: "diverged" if res > blow_up else None,
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


def certify_care(p: CareProblem, x: np.ndarray, residual: float) -> dict:
    """Certificate of a CARE answer ``x`` whose report ends at ``residual``
    (not recomputed): that residual, it over ||K||_F (NaN when K = 0),
    ||x - x^T||_F, the closed-loop abscissa max Re eig(A - N x) and the
    ``root``: ``stabilizing`` when every closed-loop eigenvalue has negative
    real part, ``anti-stabilizing`` when every one has positive real part,
    else ``mixed``.  A blown-up answer, one whose ``residual`` is not
    finite, gets NaN and no ``root``."""
    k_norm = frobenius_norm(p.k_mat)
    asymmetry, abscissa, root = math.nan, math.nan, None
    if math.isfinite(residual):
        real = np.linalg.eigvals(p.a - p.n_mat @ x).real
        asymmetry, abscissa = frobenius_norm(x - x.T), float(real.max())
        root = "stabilizing" if abscissa < 0 else "anti-stabilizing" if real.min() > 0 else "mixed"
    return {
        "residual": residual,
        "relative_residual": residual / k_norm if k_norm else math.nan,
        "asymmetry": asymmetry,
        "closed_loop_max_real_eig": abscissa,
        "root": root,
    }


# LAPACK's Sylvester solver for quasi-triangular operands, resolved once.
(_TRSYL,) = scipy.linalg.get_lapack_funcs(("trsyl",), (np.empty((1, 1)),))


def solve_lyapunov_direct(p: LyapunovProblem) -> np.ndarray:
    """Bartels-Stewart solve of A^T X + X A + Q = 0 on the real Schur form.

    With A = U T U^T (T upper quasi-triangular) the equation becomes
    T^T Y + Y T = C with C = -U^T Q U and Y = U^T X U.  LAPACK's
    ``dtrsyl`` back-substitutes through T's 1x1 and 2x2 diagonal blocks
    in O(n^3) work, the same order as the Schur factorization.  When two
    eigenvalues of A sum to zero or nearly so, ``dtrsyl`` perturbs the
    system and reports it; the solve then falls back to
    :func:`_solve_schur_columns`, which solves the unperturbed system by
    dense LU and raises :class:`SingularMatrixError` when LU's pivot test
    finds it singular.  The result is symmetrized before returning.
    """
    t, u = scipy.linalg.schur(p.a, output="real")
    c = -(u.T @ p.q @ u)
    y, scale, info = _TRSYL(t, t, c, trana="T")
    y = y / scale if info == 0 else _solve_schur_columns(t, c)
    return symmetrize(u @ y @ u.T)


def _solve_schur_columns(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve T^T Y + Y T = C column by column from the left, for T upper
    quasi-triangular in real Schur form.

    A 1x1 diagonal block of T gives the n x n system
    (T^T + t_kk I) y_k = c_k - Y[:, :k] T[:k, k], a 2x2 block S the 2n x 2n
    system (I_2 kron T^T + S^T kron I_n) vec[y_k y_k+1] = vec of the two
    right-hand columns.  Each column system is LU-factored densely, so a
    solve costs O(n^4) (against O(n^6) for the n^2 x n^2 Kronecker
    system), and LU's pivot test raises :class:`SingularMatrixError` when
    a column system is singular.
    """
    n = t.shape[0]
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
    return y


def newton_iteration(
    p: CareProblem,
    lyapunov_solve: Callable[[LyapunovProblem], np.ndarray],
    residual: Callable[[np.ndarray], float],
    max_steps: int,
    *,
    tol: float,
    stop: Callable[[np.ndarray, float], str | None] | None = None,
    detail: dict,
) -> SolveReport:
    """Newton's iteration for the Riccati equation (Kleinman, 1968).

    From X_0 = 0, each step hands the linearized equation

        (A - N X_k)^T X_{k+1} + X_{k+1} (A - N X_k) + X_k N X_k + K = 0

    to ``lyapunov_solve``, which returns X_{k+1}; ``residual``, ``tol``
    and ``stop`` are :func:`~matrixopt.report.iterate`'s.
    """
    def step(x):
        return lyapunov_solve(
            LyapunovProblem(a=p.a - p.n_mat @ x, q=symmetrize(x @ p.n_mat @ x + p.k_mat))
        )

    return iterate(
        np.zeros((p.order, p.order)), step, residual, max_steps,
        tol=tol, stop=stop, solution=lambda x: x, detail=detail,
    )


def solve_newton_care(p: CareProblem, cfg: BaselineConfig | None = None) -> SolveReport:
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
        p, lyapunov_solve, lambda x: care_residual(p, x), cfg.max_iterations,
        tol=cfg.tol, detail={},
    )
