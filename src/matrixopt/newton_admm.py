"""Newton outer iteration for the Riccati equation with an ADMM-based
Lyapunov solver inside.

Outer loop: at the current symmetric iterate X the equation is
linearized through its Fréchet derivative E -> (A - N X)^T E + E (A - N X),
giving the Lyapunov equation

    (A - N X_k)^T X_{k+1} + X_{k+1} (A - N X_k) + X_k N X_k + K = 0.

Inner loop: that equation is split as

    min 0.5 ||Y + Z A + Q||_F^2   s.t.  A^T X = Y,  X = Z,

and swept by a three-block ADMM whose block argmins are closed-form SPD
solves.  The two system matrices (alpha A A^T + beta I and A A^T + beta I)
are constant within one Lyapunov problem, so their Cholesky factors are
computed once per outer step and reused by every inner sweep.

The inner solves are inexact by default: each one runs to a tolerance
proportional to the current outer residual (a forcing rule), warm-started
from the previous inner state.  A ``fixed`` tolerance mode mimics
near-exact solves, under which the outer trajectory tracks exact Newton.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .baselines import care_residual
from .errors import (
    AdmmBreakdownError,
    DimensionError,
    NotPositiveDefiniteError,
    PreconditionError,
)
from .linalg import frobenius_norm, spd_factor, spd_solve, symmetrize, trace_inner
from .problems import CareProblem, LyapunovProblem
from .report import SolveReport

INNER_TOL_MODES = ("forcing", "fixed")


@dataclass
class NewtonAdmmConfig:
    alpha: float = 0.8
    beta: float = 50.0
    outer_tol: float = 1e-8
    outer_max: int = 50
    inner_tol_mode: str = "forcing"
    inner_tol_value: float = 0.1
    inner_max: int = 5000
    track_inner_lagrangian: bool = False

    def __post_init__(self):
        if min(self.alpha, self.beta) <= 0:
            raise ValueError("penalties alpha, beta must be positive")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.inner_tol_mode not in INNER_TOL_MODES:
            raise ValueError(f"inner_tol_mode must be one of {INNER_TOL_MODES}")
        if self.inner_tol_mode == "forcing" and not 0 < self.inner_tol_value < 1:
            raise ValueError("forcing factor must lie in (0, 1)")
        if self.inner_tol_mode == "fixed" and self.inner_tol_value <= 0:
            raise ValueError("fixed inner tolerance must be positive")


@dataclass
class LyapAdmmState:
    """Primal blocks X, Y, Z and the two constraint multipliers."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lambda_: np.ndarray
    pi_: np.ndarray

    def __post_init__(self):
        n = self.x.shape[0]
        for name in ("x", "y", "z", "lambda_", "pi_"):
            block = getattr(self, name)
            if block.shape != (n, n):
                raise DimensionError(f"block {name} must be {n}x{n}, got {block.shape}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"block {name} contains non-finite entries")

    @classmethod
    def zero(cls, n: int) -> "LyapAdmmState":
        return cls(*(np.zeros((n, n)) for _ in range(5)))


def lyapunov_residual(p: LyapunovProblem, x: np.ndarray) -> float:
    """Frobenius norm of A^T x + x A + Q."""
    return frobenius_norm(p.a.T @ x + x @ p.a + p.q)


def frechet_apply(p: CareProblem, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Derivative of the Riccati residual map at ``x`` applied to ``e``:
    (A - N x)^T e + e (A - N x)."""
    n = p.order
    for name, m in (("x", x), ("e", e)):
        if m.shape != (n, n):
            raise DimensionError(f"{name} must be {n}x{n}, got {m.shape}")
    closed_loop = p.a - p.n_mat @ x
    return closed_loop.T @ e + e @ closed_loop


def _factors(p: LyapunovProblem, alpha: float, beta: float):
    """Cholesky factors of the two constant sweep systems."""
    aat = p.a @ p.a.T
    eye = np.eye(p.order)
    try:
        fx = spd_factor(alpha * aat + beta * eye)
        fz = spd_factor(aat + beta * eye)
    except NotPositiveDefiniteError as exc:  # impossible for alpha, beta > 0
        raise AdmmBreakdownError(f"sweep system not positive definite: {exc}") from exc
    return fx, fz


def _sweep(p: LyapunovProblem, s: LyapAdmmState, alpha: float, beta: float, fx, fz) -> LyapAdmmState:
    a, q = p.a, p.q
    x = spd_solve(fx, a @ s.lambda_ + s.pi_ + alpha * (a @ s.y) + beta * s.z)
    y = (alpha * (a.T @ x) - s.z @ a - q - s.lambda_) / (1.0 + alpha)
    z = spd_solve(fz, ((-y - q) @ a.T - s.pi_ + beta * x).T).T
    lambda_ = s.lambda_ - alpha * (a.T @ x - y)
    pi_ = s.pi_ - beta * (x - z)
    return LyapAdmmState(x=x, y=y, z=z, lambda_=lambda_, pi_=pi_)


def lyap_admm_step(p: LyapunovProblem, s: LyapAdmmState, cfg: NewtonAdmmConfig) -> LyapAdmmState:
    """One three-block sweep X -> Y -> Z followed by the multiplier steps."""
    if s.x.shape != (p.order, p.order):
        raise DimensionError(
            f"state order {s.x.shape[0]} does not match problem order {p.order}"
        )
    fx, fz = _factors(p, cfg.alpha, cfg.beta)
    return _sweep(p, s, cfg.alpha, cfg.beta, fx, fz)


def lyap_lagrangian_value(p: LyapunovProblem, s: LyapAdmmState, cfg: NewtonAdmmConfig) -> float:
    """Augmented Lagrangian of the three-block splitting at the state."""
    obj = s.y + s.z @ p.a + p.q
    gap_y = p.a.T @ s.x - s.y
    gap_z = s.x - s.z
    return (
        0.5 * float(np.vdot(obj, obj))
        - trace_inner(s.lambda_, gap_y)
        - trace_inner(s.pi_, gap_z)
        + 0.5 * cfg.alpha * float(np.vdot(gap_y, gap_y))
        + 0.5 * cfg.beta * float(np.vdot(gap_z, gap_z))
    )


def _lyap_block_deltas(s: LyapAdmmState, s_new: LyapAdmmState) -> dict:
    sq = lambda m: float(np.vdot(m, m))  # noqa: E731
    return {
        "dx2": sq(s_new.x - s.x),
        "dy2": sq(s_new.y - s.y),
        "dz2": sq(s_new.z - s.z),
        "dlambda2": sq(s_new.lambda_ - s.lambda_),
        "dpi2": sq(s_new.pi_ - s.pi_),
    }


def solve_lyapunov_admm(
    p: LyapunovProblem,
    cfg: NewtonAdmmConfig | None = None,
    init: LyapAdmmState | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
    track_lagrangian: bool = False,
) -> SolveReport:
    """Sweep the three-block ADMM until ||A^T X + X A + Q||_F <= tol.

    The reported solution is symmetrized; the raw asymmetry and the full
    final state (for warm starts) are kept in ``detail``.
    """
    cfg = cfg or NewtonAdmmConfig()
    max_iter = cfg.inner_max if max_iter is None else max_iter
    n = p.order
    state = init if init is not None else LyapAdmmState.zero(n)
    start = time.perf_counter()
    fx, fz = _factors(p, cfg.alpha, cfg.beta)

    history = [lyapunov_residual(p, state.x)]
    detail: dict = {}
    if track_lagrangian:
        detail["lagrangian_history"] = [lyap_lagrangian_value(p, state, cfg)]
        detail["block_deltas"] = []

    iterations = 0
    termination = "max_iterations"
    if history[0] <= tol:
        termination = "converged"
    else:
        while iterations < max_iter:
            new_state = _sweep(p, state, cfg.alpha, cfg.beta, fx, fz)
            iterations += 1
            if track_lagrangian:
                detail["lagrangian_history"].append(
                    lyap_lagrangian_value(p, new_state, cfg)
                )
                detail["block_deltas"].append(_lyap_block_deltas(state, new_state))
            state = new_state
            history.append(lyapunov_residual(p, state.x))
            if history[-1] <= tol:
                termination = "converged"
                break

    detail["asymmetry"] = frobenius_norm(state.x - state.x.T)
    detail["state"] = state
    return SolveReport(
        solution=symmetrize(state.x),
        iterations=iterations,
        residual_history=history,
        final_residual=history[-1],
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
        detail=detail,
    )


def _warn_if_not_certified_stable(closed_loop: np.ndarray) -> None:
    radii = np.abs(closed_loop).sum(axis=1) - np.abs(np.diag(closed_loop))
    if np.any(np.diag(closed_loop) + radii >= 0):
        warnings.warn(
            "initial closed-loop matrix A - N X0 is not certifiably stable "
            "(Gershgorin); the iteration may converge to a non-stabilizing root",
            stacklevel=3,
        )


def solve_newton_admm(
    p: CareProblem,
    x0: np.ndarray | None = None,
    cfg: NewtonAdmmConfig | None = None,
) -> SolveReport:
    """Inexact Newton iteration with warm-started ADMM Lyapunov solves.

    ``report.iterations`` counts the total number of inner sweeps across
    all outer steps (the headline cost metric); the outer count, per-outer
    sweep counts, and inner tolerances live in ``detail``.  Two
    consecutive inner runs hitting their sweep cap terminate the run as
    stagnated.
    """
    cfg = cfg or NewtonAdmmConfig()
    n = p.order
    x = np.zeros((n, n)) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n, n):
        raise DimensionError(f"x0 must be {n}x{n}, got {x.shape}")
    if np.max(np.abs(x - x.T)) > 1e-10 * max(1.0, float(np.abs(x).max())):
        raise PreconditionError("x0 must be symmetric")
    _warn_if_not_certified_stable(p.a - p.n_mat @ x)

    start = time.perf_counter()
    history = [care_residual(p, x)]
    detail: dict = {
        "outer_iterations": 0,
        "inner_iterations_per_outer": [],
        "inner_tolerances": [],
        "inner_final_residuals": [],
    }
    if cfg.track_inner_lagrangian:
        detail["inner_lagrangian_traces"] = []
    keep_trace = n <= 64
    if keep_trace:
        detail["outer_trace"] = [x.copy()]

    total_inner = 0
    termination = "max_iterations"
    inner_state: LyapAdmmState | None = None
    maxed_streak = 0

    if history[0] <= cfg.outer_tol:
        termination = "converged"
    else:
        for _ in range(cfg.outer_max):
            a_k = p.a - p.n_mat @ x
            q_k = symmetrize(x @ p.n_mat @ x + p.k_mat)
            lyap = LyapunovProblem(a=a_k, q=q_k)
            if cfg.inner_tol_mode == "fixed":
                inner_tol = cfg.inner_tol_value
            else:
                inner_tol = max(cfg.inner_tol_value * history[-1], cfg.outer_tol / 10.0)
            inner = solve_lyapunov_admm(
                lyap,
                cfg,
                init=inner_state,
                tol=inner_tol,
                max_iter=cfg.inner_max,
                track_lagrangian=cfg.track_inner_lagrangian,
            )
            total_inner += inner.iterations
            detail["outer_iterations"] += 1
            detail["inner_iterations_per_outer"].append(inner.iterations)
            detail["inner_tolerances"].append(inner_tol)
            detail["inner_final_residuals"].append(inner.final_residual)
            if cfg.track_inner_lagrangian:
                detail["inner_lagrangian_traces"].append(
                    {
                        "lagrangian_history": inner.detail["lagrangian_history"],
                        "block_deltas": inner.detail["block_deltas"],
                    }
                )
            inner_state = inner.detail["state"]
            x = inner.solution
            if keep_trace:
                detail["outer_trace"].append(x.copy())
            history.append(care_residual(p, x))
            if inner.termination == "max_iterations":
                maxed_streak += 1
                if maxed_streak >= 2:
                    termination = "stagnated"
                    break
            else:
                maxed_streak = 0
            if history[-1] <= cfg.outer_tol:
                termination = "converged"
                break

    return SolveReport(
        solution=x,
        iterations=total_inner,
        residual_history=history,
        final_residual=history[-1],
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
        detail=detail,
    )
