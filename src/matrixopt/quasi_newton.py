"""DFP and BFGS solvers for min 0.5 ||A X + X B - C||_F^2.

Two operating modes:

``matrix_form``
    The inverse-curvature approximation G is m x m and acts on the m x n
    gradient by left multiplication (search direction -G g).  The rank-2
    update fractions then have n x n *matrix* denominators, which are
    resolved with Moore-Penrose pseudo-inverses: the DFP correction reads
    ``delta (delta^T y)^+ delta^T - (G y)(y^T G y)^+ (G y)^T``, the unique
    reading that preserves the secant relation G y = delta when the
    denominators are nonsingular.

``vectorized``
    The iterate is flattened; G is mn x mn and the updates are the
    textbook scalar-denominator formulas.  Memory grows as (mn)^2, so
    this mode is capped at small orders.

The default line search is the closed-form exact minimizer: the
objective is quadratic along any line, which is also why well-behaved
runs converge in a handful of steps.  Armijo backtracking and a
Wolfe-Powell bracket-and-zoom search are provided for comparison runs;
note Armijo never tests curvature and can stall far from the solution.
All three read their values and slopes off that exact quadratic profile,
so a run evaluates one gradient per iterate.  The residual
R = A X + X B - C of each iterate is formed once and kept with it: the
objective value, the recorded residual norm and the next line search
read it.

The model is updated only when another step will read it: the step whose
gradient passes ``grad_tol`` forms no update (in matrix form each update
costs one or two n x n SVDs).  An update whose model has a non-finite
Frobenius norm ends the run as ``diverged``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    CapacityError,
    CurvatureError,
    DegenerateDirectionError,
    DimensionError,
    LineSearchError,
    PreconditionError,
)
from .linalg import (
    DEFAULT_KRON_CAP,
    frobenius_norm,
    pseudo_inverse,
    symmetrize,
    trace_inner,
    vec,
    unvec,
)
from .oracle import sylvester_residual
from .problems import SylvesterProblem
from .report import SolveReport, Stop, iterate

METHODS = ("dfp", "bfgs")
LINESEARCHES = ("exact", "armijo", "wolfe")
MODES = ("matrix_form", "vectorized")
# Curvature <delta, y> (and y^T G y) at or below this skips a vectorized update.
CURVATURE_FLOOR = 1e-14


@dataclass
class QnConfig:
    method: str = "bfgs"
    linesearch: str = "exact"
    sigma1: float = 1e-4
    sigma2: float = 0.9
    grad_tol: float = 1e-8
    max_iterations: int = 500
    mode: str = "matrix_form"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.linesearch not in LINESEARCHES:
            raise ValueError(f"linesearch must be one of {LINESEARCHES}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 < self.sigma1 < 0.5:
            raise ValueError("sigma1 must lie in (0, 0.5)")
        if not self.sigma1 < self.sigma2 < 1:
            raise ValueError("sigma2 must lie in (sigma1, 1)")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class QnState:
    """One inverse-curvature update's operands.

    ``delta = X_k - X_{k-1}`` and ``y = g_k - g_{k-1}`` are m x n;
    ``inv_hessian`` is m x m in matrix form, mn x mn vectorized.
    """

    x: np.ndarray
    g: np.ndarray
    inv_hessian: np.ndarray
    delta: np.ndarray
    y: np.ndarray


def f1_value(p: SylvesterProblem, x: np.ndarray, r: np.ndarray | None = None) -> float:
    """0.5 ||A x + x B - C||_F^2; ``r`` is the residual A x + x B - C
    when the caller has already formed it."""
    if x.shape != p.shape:
        raise DimensionError(f"iterate must be {p.shape}, got {x.shape}")
    if r is None:
        r = p.residual_matrix(x)
    return 0.5 * float(np.vdot(r, r))


def f1_gradient(p: SylvesterProblem, x: np.ndarray) -> np.ndarray:
    """Gradient A^T R + R B^T with R = A x + x B - C.

    This is the adjoint of the equation operator applied to the residual,
    validated against central finite differences in the test suite.
    """
    if x.shape != p.shape:
        raise DimensionError(f"iterate must be {p.shape}, got {x.shape}")
    return p.apply_adjoint(p.residual_matrix(x))


def _profile(
    p: SylvesterProblem, x: np.ndarray, d: np.ndarray, r: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Coefficients of the objective along ``d``: with R = A x + x B - C
    (``r`` when given) and S = A d + d B, f(x + t d) = phi0 + t dphi0 +
    t^2 ss / 2 exactly, for (phi0, dphi0, ss) = (||R||^2 / 2, <R, S>, <S, S>)."""
    if r is None:
        r = p.residual_matrix(x)
    s = p.apply(d)
    return 0.5 * float(np.vdot(r, r)), float(np.vdot(r, s)), float(np.vdot(s, s))


def exact_step(
    p: SylvesterProblem, x: np.ndarray, direction: np.ndarray, r: np.ndarray | None = None
) -> float:
    """Closed-form minimizer of the quadratic profile along ``direction``:
    max(0, -dphi0 / ss) over nonnegative steps.  ``r``, here and in the
    other searches, is the residual at ``x`` when already formed."""
    _, dphi0, ss = _profile(p, x, direction, r)
    if ss == 0.0:
        raise DegenerateDirectionError("direction lies in the operator null space")
    return max(0.0, -dphi0 / ss)


def armijo_search(
    p: SylvesterProblem,
    x: np.ndarray,
    direction: np.ndarray,
    sigma1: float = 1e-4,
    max_trials: int = 60,
    r: np.ndarray | None = None,
) -> float:
    """Backtracking search halving from 1.0 until sufficient decrease
    holds, read off the quadratic profile."""
    phi0, dphi0, ss = _profile(p, x, direction, r)
    if dphi0 >= 0:
        raise PreconditionError("armijo_search requires a descent direction")
    alpha = 1.0
    for _ in range(max_trials):
        if phi0 + alpha * dphi0 + 0.5 * alpha * alpha * ss <= phi0 + sigma1 * alpha * dphi0:
            return alpha
        alpha *= 0.5
    raise LineSearchError(f"no sufficient-decrease step in {max_trials} halvings")


def wolfe_search(
    p: SylvesterProblem,
    x: np.ndarray,
    direction: np.ndarray,
    sigma1: float = 1e-4,
    sigma2: float = 0.9,
    max_trials: int = 60,
    r: np.ndarray | None = None,
) -> float:
    """Bracket-and-zoom search for a step meeting both Wolfe-Powell
    conditions: sufficient decrease with slope fraction ``sigma1`` and the
    curvature bound with fraction ``sigma2`` (which rules out vanishing
    steps), both read off the quadratic profile.

    Starts at 1.0, doubles while the step is too short, bisects once a
    bracket exists; fails after ``max_trials`` trial points.
    """
    phi0, dphi0, ss = _profile(p, x, direction, r)
    if dphi0 >= 0:
        raise PreconditionError("wolfe_search requires a descent direction")

    lo = 0.0
    hi = None
    alpha = 1.0
    for _ in range(max_trials):
        if phi0 + alpha * dphi0 + 0.5 * alpha * alpha * ss > phi0 + sigma1 * alpha * dphi0:
            hi = alpha
        elif dphi0 + alpha * ss < sigma2 * dphi0:
            lo = alpha
        else:
            return alpha
        alpha = 0.5 * (lo + hi) if hi is not None else 2.0 * alpha
    raise LineSearchError(f"no Wolfe-Powell step after {max_trials} trials")


def _curvature_guard(name: str, value: float):
    if value <= CURVATURE_FLOOR:
        raise CurvatureError(
            f"{name} = {value:.3e} is at or below the floor {CURVATURE_FLOOR:.1e}"
        )


def dfp_update(state: QnState, mode: str = "matrix_form") -> np.ndarray:
    """Rank-2 DFP update of the inverse-curvature approximation.

    Vectorized mode raises :class:`CurvatureError` when <delta, y> (or the
    G-weighted denominator) is at or below :data:`CURVATURE_FLOOR`; the caller
    is expected to skip the update and continue.  Matrix form resolves
    singular matrix denominators with pseudo-inverses instead.
    """
    g = state.inv_hessian
    if mode == "vectorized":
        d = vec(state.delta).ravel()
        y = vec(state.y).ravel()
        s = float(d @ y)
        _curvature_guard("<delta, y>", s)
        gy = g @ y
        ygy = float(y @ gy)
        _curvature_guard("y^T G y", ygy)
        return symmetrize(g + np.outer(d, d) / s - np.outer(gy, gy) / ygy)
    if mode != "matrix_form":
        raise ValueError(f"unknown mode {mode!r}")
    d, y = state.delta, state.y
    k = pseudo_inverse(d.T @ y)
    gy = g @ y
    t = pseudo_inverse(y.T @ gy)
    return symmetrize(g + d @ k @ d.T - gy @ t @ gy.T)


def bfgs_update(state: QnState, mode: str = "matrix_form") -> np.ndarray:
    """Rank-2 BFGS update of the inverse-curvature approximation.

    In vectorized mode positive definiteness is preserved whenever
    <delta, y> > 0, which the Wolfe-Powell search guarantees.
    """
    g = state.inv_hessian
    if mode == "vectorized":
        d = vec(state.delta).ravel()
        y = vec(state.y).ravel()
        s = float(d @ y)
        _curvature_guard("<delta, y>", s)
        gy = g @ y
        ygy = float(y @ gy)
        dd = np.outer(d, d)
        cross = np.outer(d, gy)
        return symmetrize(g + (s + ygy) / (s * s) * dd - (cross + cross.T) / s)
    if mode != "matrix_form":
        raise ValueError(f"unknown mode {mode!r}")
    d, y = state.delta, state.y
    dk = d @ pseudo_inverse(d.T @ y)
    e = np.eye(d.shape[0]) - dk @ y.T
    return symmetrize(e @ g @ e.T + dk @ d.T)


def _direction(g_mat: np.ndarray, inv_h: np.ndarray, mode: str, shape) -> np.ndarray:
    if mode == "matrix_form":
        return -(inv_h @ g_mat)
    return unvec(-(inv_h @ vec(g_mat)), *shape)


def solve_quasi_newton(
    p: SylvesterProblem,
    cfg: QnConfig | None = None,
    x0: np.ndarray | None = None,
) -> SolveReport:
    """Quasi-Newton iteration X <- X + lambda (-G g) until ||g||_F falls
    below ``cfg.grad_tol``.

    The model is updated after every step except the one whose gradient
    passes the tolerance, so a converged run has ``iterations - 1``
    updates and a run stopped by ``max_iterations`` has ``iterations``.
    ``detail`` carries one audit per update attempted (``updates``:
    secant error, symmetry error, model norm, curvature, accepted step),
    the objective trace (``f_history``), gradient norms, and the count of
    vectorized updates skipped for curvature (``curvature_skips``).
    Line-search failures re-raise with the partial report attached to the
    exception.  A direction that is not a descent direction, or an exact
    step of zero, ends the run as stagnated; a model whose Frobenius norm
    is not finite (an entry that overflowed, or a norm that did) ends it
    as diverged, on the step that formed the model.
    """
    cfg = cfg or QnConfig()
    m, n = p.shape
    if cfg.mode == "vectorized" and (m * n) ** 2 > DEFAULT_KRON_CAP:
        raise CapacityError(
            f"vectorized inverse Hessian would need ({m * n})^2 entries"
        )
    state = SimpleNamespace(
        x=np.zeros((m, n)) if x0 is None else np.array(x0, dtype=np.float64)
    )
    if state.x.shape != (m, n):
        raise DimensionError(f"x0 must be {m}x{n}, got {state.x.shape}")
    state.inv_h = np.eye(m) if cfg.mode == "matrix_form" else np.eye(m * n)
    state.inv_h_norm = frobenius_norm(state.inv_h)
    state.r = p.residual_matrix(state.x)
    state.g = f1_gradient(p, state.x)
    g_norm = frobenius_norm(state.g)
    state.done = g_norm < cfg.grad_tol
    detail: dict = {
        "updates": [],
        "f_history": [f1_value(p, state.x, state.r)],
        "grad_norm_history": [g_norm],
        "curvature_skips": 0,
        "mode": cfg.mode,
        "method": cfg.method,
    }
    update_fn = dfp_update if cfg.method == "dfp" else bfgs_update

    def step(s):
        direction = _direction(s.g, s.inv_h, cfg.mode, (m, n))
        if trace_inner(s.g, direction) >= 0:
            raise Stop("stagnated")
        if cfg.linesearch == "exact":
            lam = exact_step(p, s.x, direction, r=s.r)
        elif cfg.linesearch == "armijo":
            lam = armijo_search(p, s.x, direction, cfg.sigma1, r=s.r)
        else:
            lam = wolfe_search(p, s.x, direction, cfg.sigma1, cfg.sigma2, r=s.r)
        if lam == 0.0:
            raise Stop("stagnated")

        x_new = s.x + lam * direction
        # The model update below is the step's memory peak: hold no more
        # n x n arrays through it than the step needs.
        del direction
        s.r = p.residual_matrix(x_new)
        g_new = f1_gradient(p, x_new)
        g_norm = frobenius_norm(g_new)
        s.done = g_norm < cfg.grad_tol
        # Only a next step reads the model, so the converging step forms none.
        if not s.done:
            update_model(s, x_new, g_new, lam)
        s.x, s.g = x_new, g_new
        detail["f_history"].append(f1_value(p, x_new, s.r))
        detail["grad_norm_history"].append(g_norm)
        return s

    def update_model(s, x_new, g_new, lam):
        """Replace ``s.inv_h`` by its update for the step to ``x_new``."""
        delta = x_new - s.x
        y = g_new - s.g
        update = QnState(x=x_new, g=g_new, inv_hessian=s.inv_h, delta=delta, y=y)
        audit = {
            "step": lam,
            "curvature": trace_inner(delta, y),
            "skipped": False,
        }
        try:
            inv_h = update_fn(update, cfg.mode)
        except CurvatureError:
            detail["curvature_skips"] += 1
            audit["skipped"] = True
        else:
            if cfg.mode == "matrix_form":
                secant_err = frobenius_norm(inv_h @ y - delta)
            else:
                secant_err = float(
                    np.linalg.norm(inv_h @ vec(y).ravel() - vec(delta).ravel())
                )
            audit["secant_error"] = secant_err
            audit["delta_norm"] = frobenius_norm(delta)
            audit["symmetry_error"] = frobenius_norm(inv_h - inv_h.T)
            audit["inv_hessian_norm"] = frobenius_norm(inv_h)
            if inv_h.shape[0] <= 64:
                audit["min_eigenvalue"] = float(np.linalg.eigvalsh(inv_h).min())
            s.inv_h, s.inv_h_norm = inv_h, audit["inv_hessian_norm"]
        detail["updates"].append(audit)

    def stop(s, res):
        if s.done:
            return "converged"
        if not math.isfinite(s.inv_h_norm):
            return "diverged"
        return None

    return iterate(
        state,
        step,
        lambda s: sylvester_residual(p, s.x, s.r),
        stop,
        cfg.max_iterations,
        solution=lambda s: s.x,
        detail=detail,
    )
