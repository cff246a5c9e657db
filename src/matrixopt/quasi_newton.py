"""DFP and BFGS solvers for min 0.5 ||A X + X B - C||_F^2 in matrix form.

The inverse-curvature approximation G is m x m and acts on the m x n
gradient by left multiplication (search direction -G g).  The rank-2
update fractions then have n x n *matrix* denominators, which are
resolved with Moore-Penrose pseudo-inverses: the DFP correction reads
``delta (delta^T y)^+ delta^T - (G y)(y^T G y)^+ (G y)^T``, the unique
reading that preserves the secant relation G y = delta when the
denominators are nonsingular.  An m x m model captures the whole
operator only on favourable problems, such as commuting A and B; on
general problems a run may stop short of the solution, as ``stagnated``
or ``diverged`` or with a line-search error carrying the partial report.

The default line search is the closed-form exact minimizer: the
objective is quadratic along any line, which is also why well-behaved
runs converge in a handful of steps.  Armijo backtracking and a
Wolfe-Powell bracket-and-zoom search are provided for comparison runs;
note Armijo never tests curvature and can stall far from the solution.
All three read their values and slopes off that exact quadratic profile,
so a run evaluates one gradient per iterate.  The residual
R = A X + X B - C of each iterate is formed once and kept with it: the
gradient, the objective value, the recorded residual norm and the next
line search read it.

The start model is the identity and is never formed (``None`` stands
for it): the first direction is -g, and the first update reads G y = y
and forms E E^T in place of E I E^T.  The model is updated only when
another step will read it: the step whose gradient passes ``grad_tol``
forms no update (each update costs one or two n x n pseudo-inverses).
An update keeps the order of its textbook expression,
(G + d K d^T) - (G y) T (G y)^T for DFP and E G E^T + dk d^T for BFGS,
but accumulates it in one array, and a step releases its old iterate
before the update, so the first update of a square run holds at most
eight n x n arrays at once.  An update whose model has a non-finite
Frobenius norm ends the run as ``diverged``.  The loop holds scipy's
OpenBLAS copy, which factors the LU inverses, at one thread
(``serial_products``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DimensionError,
    LineSearchError,
    PreconditionError,
)
from .linalg import (
    frobenius_norm,
    pseudo_inverse,
    serial_products,
    trace_inner,
)
from .oracle import sylvester_residual
from .problems import SylvesterProblem
from .report import SolveReport, Stop, iterate

METHODS = ("dfp", "bfgs")
LINESEARCHES = ("exact", "armijo", "wolfe")


@dataclass
class QnConfig:
    method: str = "bfgs"
    linesearch: str = "exact"
    sigma1: float = 1e-4
    sigma2: float = 0.9
    grad_tol: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.linesearch not in LINESEARCHES:
            raise ValueError(f"linesearch must be one of {LINESEARCHES}")
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
    ``inv_hessian`` is m x m, or None for the identity, the start model.
    """

    x: np.ndarray
    g: np.ndarray
    inv_hessian: np.ndarray | None
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


def f1_gradient(
    p: SylvesterProblem, x: np.ndarray, r: np.ndarray | None = None
) -> np.ndarray:
    """Gradient A^T R + R B^T with R = A x + x B - C (``r`` when the
    caller has already formed it).

    This is the adjoint of the equation operator applied to the residual,
    validated against central finite differences in the test suite.
    """
    if x.shape != p.shape:
        raise DimensionError(f"iterate must be {p.shape}, got {x.shape}")
    if r is None:
        r = p.residual_matrix(x)
    return p.apply_adjoint(r)


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


def _plus_identity(m: np.ndarray) -> np.ndarray:
    """m + I, formed in m's storage."""
    m.flat[:: m.shape[0] + 1] += 1.0
    return m


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2, formed in m's storage."""
    m += m.T
    m *= 0.5
    return m


def dfp_update(state: QnState) -> np.ndarray:
    """Rank-2 DFP update of the m x m inverse-curvature approximation;
    singular matrix denominators are resolved with pseudo-inverses."""
    g = state.inv_hessian
    d, y = state.delta, state.y
    gy = y if g is None else g @ y
    # (G + d K d^T) - (G y) T (G y)^T, accumulated in one array; the
    # subtrahend is formed first so that G y and T are gone before K is.
    correction = gy @ pseudo_inverse(y.T @ gy) @ gy.T
    del gy
    out = d @ pseudo_inverse(d.T @ y) @ d.T
    if g is None:
        _plus_identity(out)
    else:
        out += g
    out -= correction
    del correction
    return _symmetrized(out)


def bfgs_update(state: QnState) -> np.ndarray:
    """Rank-2 BFGS update of the m x m inverse-curvature approximation;
    the matrix denominator delta^T y is resolved with a pseudo-inverse."""
    g = state.inv_hessian
    d, y = state.delta, state.y
    dk = d @ pseudo_inverse(d.T @ y)
    # E = I - dk y^T, then E G E^T + dk d^T accumulated in one array.
    e = dk @ y.T
    np.negative(e, out=e)
    _plus_identity(e)
    out = e @ e.T if g is None else e @ g @ e.T
    del e
    out += dk @ d.T
    return _symmetrized(out)


def solve_quasi_newton(
    p: SylvesterProblem,
    cfg: QnConfig | None = None,
    x0: np.ndarray | None = None,
) -> SolveReport:
    """Quasi-Newton iteration X <- X + lambda (-G g), with G the m x m
    model, until ||g||_F falls below ``cfg.grad_tol``.

    The model is updated after every step except the one whose gradient
    passes the tolerance, so a converged run has ``iterations - 1``
    updates and a run stopped by ``max_iterations`` has ``iterations``.
    ``detail`` carries one audit per update (``updates``:
    secant error, symmetry error, model norm, curvature, accepted step),
    the objective trace (``f_history``) and the gradient norms.
    Line-search failures re-raise with the partial report attached to the
    exception.  A direction that is not a descent direction, or an exact
    step of zero, ends the run as stagnated; a model whose Frobenius norm
    is not finite (an entry that overflowed, or a norm that did) ends it
    as diverged, on the step that formed the model.
    """
    cfg = cfg or QnConfig()
    m, n = p.shape
    state = SimpleNamespace(
        x=np.zeros((m, n)) if x0 is None else np.array(x0, dtype=np.float64)
    )
    if state.x.shape != (m, n):
        raise DimensionError(f"x0 must be {m}x{n}, got {state.x.shape}")
    # The identity start model is never formed: None stands for it.
    state.inv_h = None
    state.inv_h_norm = math.sqrt(m)
    state.r = p.residual_matrix(state.x)
    state.g = f1_gradient(p, state.x, state.r)
    g_norm = frobenius_norm(state.g)
    state.done = g_norm < cfg.grad_tol
    detail: dict = {
        "updates": [],
        "f_history": [f1_value(p, state.x, state.r)],
        "grad_norm_history": [g_norm],
        "method": cfg.method,
    }
    update_fn = dfp_update if cfg.method == "dfp" else bfgs_update

    def step(s):
        direction = -s.g if s.inv_h is None else -(s.inv_h @ s.g)
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
        g_new = f1_gradient(p, x_new, s.r)
        g_norm = frobenius_norm(g_new)
        s.done = g_norm < cfg.grad_tol
        # Only a next step reads the model, so the converging step forms
        # none.  The old iterate is released before the update.
        if s.done:
            s.x, s.g = x_new, g_new
        else:
            delta, y = x_new - s.x, g_new - s.g
            s.x, s.g = x_new, g_new
            update_model(s, delta, y, lam)
        detail["f_history"].append(f1_value(p, x_new, s.r))
        detail["grad_norm_history"].append(g_norm)
        return s

    def update_model(s, delta, y, lam):
        """Replace ``s.inv_h`` by its update for the step ``delta`` that
        moved the gradient by ``y``."""
        audit = {
            "step": lam,
            "curvature": trace_inner(delta, y),
        }
        inv_h = update_fn(
            QnState(x=s.x, g=s.g, inv_hessian=s.inv_h, delta=delta, y=y)
        )
        # Release the old model before the audit's temporaries.
        s.inv_h = inv_h
        audit["secant_error"] = frobenius_norm(inv_h @ y - delta)
        audit["delta_norm"] = frobenius_norm(delta)
        audit["symmetry_error"] = frobenius_norm(inv_h - inv_h.T)
        audit["inv_hessian_norm"] = frobenius_norm(inv_h)
        if inv_h.shape[0] <= 64:
            audit["min_eigenvalue"] = float(np.linalg.eigvalsh(inv_h).min())
        s.inv_h_norm = audit["inv_hessian_norm"]
        detail["updates"].append(audit)

    def stop(s, res):
        if s.done:
            return "converged"
        if not math.isfinite(s.inv_h_norm):
            return "diverged"
        return None

    with serial_products("scipy"):
        return iterate(
            state,
            step,
            lambda s: sylvester_residual(p, s.x, s.r),
            stop,
            cfg.max_iterations,
            solution=lambda s: s.x,
            detail=detail,
        )
