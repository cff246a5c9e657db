"""Newton-ADMM for the Riccati equation: exact Newton's outer loop
(:func:`~matrixopt.baselines.newton_iteration`) with each Lyapunov step
solved inexactly by ADMM.

Outer loop: at the current symmetric iterate X the equation is
linearized through its Fréchet derivative E -> (A - N X)^T E + E (A - N X),
giving the Lyapunov equation

    (A - N X_k)^T X_{k+1} + X_{k+1} (A - N X_k) + X_k N X_k + K = 0.

Inner loop: that equation is split as

    min 0.5 ||Y + Z A + Q||_F^2   s.t.  A^T X = Y,  X = Z,

and swept by a three-block ADMM whose block argmins are closed-form SPD
solves, on the sweep loop CARE-ADMM runs on
(:func:`~matrixopt.care_admm.sweep_until`).  The two system matrices
(alpha A A^T + beta I and A A^T + beta I) are constant within one
Lyapunov problem, so their Cholesky factors are computed once per outer
step and reused by every inner sweep.  The inner solver reads its sweep
cap (``inner_max``), its Lagrangian trace switch and its default
tolerance (``outer_tol``) from :class:`NewtonAdmmConfig` alone.

The inner solves are inexact by default: each one runs to a tolerance
proportional to the current outer residual (a forcing rule), warm-started
from the previous inner state.  A ``fixed`` tolerance mode mimics
near-exact solves, under which the outer trajectory tracks exact Newton.
The report carries the same post-loop record as exact Newton's
(``symmetry_gap``, ``closed_loop_max_real_eig``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .baselines import care_residual, newton_iteration
from .care_admm import QUIET_BLOW_UP, _augmented_lagrangian, _BlockState, sweep_until
from .errors import AdmmBreakdownError, DimensionError, MatrixOptError, NotPositiveDefiniteError
from .linalg import frobenius_norm, serial_products, spd_factor, spd_solve, symmetrize
from .problems import CareProblem, LyapunovProblem
from .report import SolveReport, Stop

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
class LyapAdmmState(_BlockState):
    """Primal blocks X, Y, Z and the two constraint multipliers."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lambda_: np.ndarray
    pi_: np.ndarray


def lyapunov_residual(p: LyapunovProblem, x: np.ndarray, atx: np.ndarray | None = None) -> float:
    """Frobenius norm of A^T x + x A + Q; ``atx`` is the product A^T x
    when the caller has already formed it."""
    if atx is None:
        atx = p.a.T @ x
    return frobenius_norm(atx + x @ p.a + p.q)


def frechet_apply(p: CareProblem, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Derivative of the Riccati residual map at ``x`` applied to ``e``:
    (A - N x)^T e + e (A - N x)."""
    n = p.order
    for name, m in (("x", x), ("e", e)):
        if m.shape != (n, n):
            raise DimensionError(f"{name} must be {n}x{n}, got {m.shape}")
    closed_loop = p.a - p.n_mat @ x
    return closed_loop.T @ e + e @ closed_loop


def _factors(p: LyapunovProblem, cfg: NewtonAdmmConfig):
    """Cholesky factors of the two constant sweep systems."""
    aat = p.a @ p.a.T
    eye = np.eye(p.order)
    try:
        fx = spd_factor(cfg.alpha * aat + cfg.beta * eye)
        fz = spd_factor(aat + cfg.beta * eye)
    except NotPositiveDefiniteError as exc:  # impossible for alpha, beta > 0
        raise AdmmBreakdownError(f"sweep system not positive definite: {exc}") from exc
    return fx, fz


def lyap_admm_step(
    p: LyapunovProblem, s: LyapAdmmState, cfg: NewtonAdmmConfig, factors=None
) -> LyapAdmmState:
    """One three-block sweep X -> Y -> Z followed by the multiplier steps.
    ``factors`` carries the Cholesky factors of :func:`_factors`; without
    them they are formed here.  The new state carries its A^T X for the
    residual check."""
    if s.x.shape != (p.order, p.order):
        raise DimensionError(
            f"state order {s.x.shape[0]} does not match problem order {p.order}"
        )
    fx, fz = factors or _factors(p, cfg)
    a, q, alpha, beta = p.a, p.q, cfg.alpha, cfg.beta
    a_t = a.T
    x = spd_solve(fx, a @ s.lambda_ + s.pi_ + alpha * (a @ s.y) + beta * s.z)
    atx = a_t @ x
    y = (alpha * atx - s.z @ a - q - s.lambda_) / (1.0 + alpha)
    z = spd_solve(fz, ((-y - q) @ a_t - s.pi_ + beta * x).T).T
    lambda_ = s.lambda_ - alpha * (atx - y)
    pi_ = s.pi_ - beta * (x - z)
    new = LyapAdmmState(x=x, y=y, z=z, lambda_=lambda_, pi_=pi_)
    new.products = (p, {"atx": atx})
    return new


def lyap_lagrangian_value(p: LyapunovProblem, s: LyapAdmmState, cfg: NewtonAdmmConfig) -> float:
    """Augmented Lagrangian of the three-block splitting at the state."""
    return _augmented_lagrangian(
        s.y + s.z @ p.a + p.q,
        ((s.lambda_, p.a.T @ s.x - s.y, cfg.alpha), (s.pi_, s.x - s.z, cfg.beta)),
    )


def solve_lyapunov_admm(
    p: LyapunovProblem,
    cfg: NewtonAdmmConfig | None = None,
    init: LyapAdmmState | None = None,
    tol: float | None = None,
) -> SolveReport:
    """Sweep the three-block ADMM until ||A^T X + X A + Q||_F <= tol
    (``cfg.outer_tol`` when not given), for at most ``cfg.inner_max``
    sweeps; ``cfg.track_inner_lagrangian`` turns on the Lagrangian trace.

    The reported solution is symmetrized; the raw asymmetry and the full
    final state (for warm starts) are kept in ``detail``.  ``init`` must
    have finite n x n blocks.
    """
    cfg = cfg or NewtonAdmmConfig()
    factors = _factors(p, cfg)
    lagrangian = lambda state: lyap_lagrangian_value(p, state, cfg)  # noqa: E731
    with np.errstate(**QUIET_BLOW_UP):
        return sweep_until(
            init.checked(p.order) if init is not None else LyapAdmmState.zero(p.order),
            lambda state: lyap_admm_step(p, state, cfg, factors),
            lambda state: lyapunov_residual(p, state.x, state.carried(p, "atx")),
            cfg.outer_tol if tol is None else tol,
            cfg.inner_max,
            lagrangian=lagrangian if cfg.track_inner_lagrangian else None,
            solution=lambda state: symmetrize(state.x),
        )


def solve_newton_admm(
    p: CareProblem,
    x0: np.ndarray | None = None,
    cfg: NewtonAdmmConfig | None = None,
) -> SolveReport:
    """Exact Newton's loop (:func:`~matrixopt.baselines.newton_iteration`)
    with each Lyapunov step solved inexactly by warm-started ADMM.

    ``report.iterations`` counts the total number of inner sweeps across
    all outer steps (the headline cost metric), on a finished report and
    on the partial report of an error alike; the outer count, per-outer
    sweep counts, and inner tolerances live in ``detail``.  Two
    consecutive inner runs hitting their sweep cap terminate the run as
    stagnated.  An inner run that diverges ends the run ``diverged`` at
    the last outer iterate; like a step that raises, its outer step and
    inner sweeps are not counted.
    """
    cfg = cfg or NewtonAdmmConfig()
    # Besides the iterate: its Riccati residual (the forcing rule reads it),
    # the inner state to warm-start from, and the run of capped inner solves.
    outer = SimpleNamespace(residual=None, inner=None, capped_streak=0)
    detail: dict = {
        "outer_iterations": 0,
        "inner_iterations_per_outer": [],
        "inner_tolerances": [],
        "inner_final_residuals": [],
    }
    if cfg.track_inner_lagrangian:
        detail["inner_lagrangian_traces"] = []
    keep_trace = p.order <= 64
    if keep_trace:
        detail["outer_trace"] = []

    def residual(x):
        if keep_trace:
            detail["outer_trace"].append(x.copy())
        outer.residual = care_residual(p, x)
        return outer.residual

    def lyapunov_solve(lp):
        if cfg.inner_tol_mode == "fixed":
            inner_tol = cfg.inner_tol_value
        else:
            inner_tol = max(cfg.inner_tol_value * outer.residual, cfg.outer_tol / 10.0)
        inner = solve_lyapunov_admm(lp, cfg, init=outer.inner, tol=inner_tol)
        if inner.termination == "diverged":
            raise Stop("diverged")
        detail["outer_iterations"] += 1
        detail["inner_iterations_per_outer"].append(inner.iterations)
        detail["inner_tolerances"].append(inner_tol)
        detail["inner_final_residuals"].append(inner.final_residual)
        if cfg.track_inner_lagrangian:
            detail["inner_lagrangian_traces"].append(
                {key: inner.detail[key] for key in ("lagrangian_history", "block_deltas")}
            )
        outer.inner = inner.detail["state"]
        if inner.termination == "max_iterations":
            outer.capped_streak += 1
        else:
            outer.capped_streak = 0
        return inner.solution

    def stop(x, res):
        if outer.capped_streak >= 2:
            return "stagnated"
        return "converged" if res <= cfg.outer_tol else None

    try:
        with serial_products():
            report = newton_iteration(
                p, x0, lyapunov_solve, residual, stop, cfg.outer_max, detail=detail
            )
    except MatrixOptError as exc:
        if exc.report is not None:
            exc.report.iterations = sum(detail["inner_iterations_per_outer"])
        raise
    report.iterations = sum(detail["inner_iterations_per_outer"])
    return report
