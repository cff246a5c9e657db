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
The one blow-up bound is sqrt(m) / eps, sqrt(m) being the Frobenius
norm of the identity start and eps machine epsilon: a model whose norm
exceeds it ends the run ``diverged`` before a line search reads it.

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
another step will read it: the step whose gradient passes ``tol``
forms no update (each update costs one or two n x n pseudo-inverses).
An update keeps the order of its textbook expression,
(G + d K d^T) - (G y) T (G y)^T for DFP and E G E^T + dk d^T for BFGS,
but accumulates it in one array, and a step releases its old iterate
before the update, so the first update of a square run holds at most
eight n x n arrays at once.  A model past the blow-up bound, or a
gradient whose Frobenius norm is not finite, ends the run as
``diverged``; a step whose gradient is not finite forms no update.
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
from .linalg import frobenius_norm, pseudo_inverse, require_positive, symmetrize, trace_inner
from .oracle import sylvester_residual
from .problems import SylvesterProblem
from .report import SolveReport, Stop, iterate

METHODS = ("dfp", "bfgs")
LINESEARCHES = ("exact", "armijo", "wolfe")

# Slope fractions of the sufficient-decrease (SIGMA1) and curvature
# (SIGMA2) conditions: the textbook Wolfe pair (Nocedal & Wright,
# Numerical Optimization, 2006, section 3.1).
SIGMA1 = 1e-4
SIGMA2 = 0.9

# Trial points either line search tries before it gives up.
LINE_SEARCH_TRIALS = 60


@dataclass
class QnConfig:
    """``tol`` bounds the gradient norm ||g||_F, not the residual."""

    method: str = "bfgs"
    linesearch: str = "exact"
    tol: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.linesearch not in LINESEARCHES:
            raise ValueError(f"linesearch must be one of {LINESEARCHES}")
        require_positive(self, "tol")


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
    return f1_value(p, x, r), float(np.vdot(r, s)), float(np.vdot(s, s))


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
    p: SylvesterProblem, x: np.ndarray, direction: np.ndarray, r: np.ndarray | None = None
) -> float:
    """Backtracking search halving from 1.0 until sufficient decrease
    with slope fraction ``SIGMA1`` holds, read off the quadratic profile;
    fails after ``LINE_SEARCH_TRIALS`` halvings."""
    phi0, dphi0, ss = _profile(p, x, direction, r)
    if dphi0 >= 0:
        raise PreconditionError("armijo_search requires a descent direction")
    alpha = 1.0
    for _ in range(LINE_SEARCH_TRIALS):
        if phi0 + alpha * dphi0 + 0.5 * alpha * alpha * ss <= phi0 + SIGMA1 * alpha * dphi0:
            return alpha
        alpha *= 0.5
    raise LineSearchError(f"no sufficient-decrease step in {LINE_SEARCH_TRIALS} halvings")


def wolfe_search(
    p: SylvesterProblem, x: np.ndarray, direction: np.ndarray, r: np.ndarray | None = None
) -> float:
    """Bracket-and-zoom search for a step meeting both Wolfe-Powell
    conditions: sufficient decrease with slope fraction ``SIGMA1`` and the
    curvature bound with fraction ``SIGMA2`` (which rules out vanishing
    steps), both read off the quadratic profile.

    Starts at 1.0, doubles while the step is too short, bisects once a
    bracket exists; fails after ``LINE_SEARCH_TRIALS`` trial points.
    """
    phi0, dphi0, ss = _profile(p, x, direction, r)
    if dphi0 >= 0:
        raise PreconditionError("wolfe_search requires a descent direction")

    lo = 0.0
    hi = None
    alpha = 1.0
    for _ in range(LINE_SEARCH_TRIALS):
        if phi0 + alpha * dphi0 + 0.5 * alpha * alpha * ss > phi0 + SIGMA1 * alpha * dphi0:
            hi = alpha
        elif dphi0 + alpha * ss < SIGMA2 * dphi0:
            lo = alpha
        else:
            return alpha
        alpha = 0.5 * (lo + hi) if hi is not None else 2.0 * alpha
    raise LineSearchError(f"no Wolfe-Powell step after {LINE_SEARCH_TRIALS} trials")


def _plus_identity(m: np.ndarray) -> np.ndarray:
    """m + I, formed in m's storage."""
    m.flat[:: m.shape[0] + 1] += 1.0
    return m


def dfp_update(g: np.ndarray | None, d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-2 DFP update of the m x m inverse-curvature approximation
    ``g`` (None for the identity, the start model) for the m x n step
    ``d = X_k - X_{k-1}`` that moved the gradient by ``y = g_k - g_{k-1}``;
    singular matrix denominators are resolved with pseudo-inverses."""
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
    return symmetrize(out)


def bfgs_update(g: np.ndarray | None, d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-2 BFGS update of the inverse-curvature approximation ``g``,
    with :func:`dfp_update`'s operands; the matrix denominator d^T y is
    resolved with a pseudo-inverse."""
    dk = d @ pseudo_inverse(d.T @ y)
    # E = I - dk y^T, then E G E^T + dk d^T accumulated in one array.
    e = dk @ y.T
    np.negative(e, out=e)
    _plus_identity(e)
    out = e @ e.T if g is None else e @ g @ e.T
    del e
    out += dk @ d.T
    return symmetrize(out)


def solve_quasi_newton(p: SylvesterProblem, cfg: QnConfig | None = None) -> SolveReport:
    """Quasi-Newton iteration X <- X + lambda (-G g) from X_0 = 0, with
    G the m x m model, until ||g||_F falls below ``cfg.tol``.

    The model is updated after every step except one whose gradient
    passes the tolerance or is not finite, so a converged run has
    ``iterations - 1`` updates and a run stopped by ``max_iterations``
    has ``iterations``.
    ``detail`` carries only ``grad_norm_history``, the gradient norm of
    each iterate, which the stop rule reads; the objective is half the
    square of each ``residual_history`` entry.  Line-search failures
    re-raise with the partial report attached to the exception.
    A direction that is not a descent direction, or an exact step of
    zero, ends the run as stagnated; a model whose Frobenius norm
    exceeds sqrt(m) / eps or is NaN, or a gradient whose norm is not
    finite, ends it as diverged, on the step that formed it.
    """
    cfg = cfg or QnConfig()
    m, n = p.shape
    state = SimpleNamespace(x=np.zeros((m, n)))
    # The identity start model is never formed: None stands for it.
    state.inv_h = None
    state.inv_h_norm = math.sqrt(m)
    state.r = p.residual_matrix(state.x)
    state.g = f1_gradient(p, state.x, state.r)
    detail: dict = {"grad_norm_history": [frobenius_norm(state.g)]}
    update_fn = dfp_update if cfg.method == "dfp" else bfgs_update
    blown_up_norm = math.sqrt(m) / np.finfo(np.float64).eps

    def step(s):
        direction = -s.g if s.inv_h is None else -(s.inv_h @ s.g)
        if trace_inner(s.g, direction) >= 0:
            raise Stop("stagnated")
        if cfg.linesearch == "exact":
            lam = exact_step(p, s.x, direction, r=s.r)
        elif cfg.linesearch == "armijo":
            lam = armijo_search(p, s.x, direction, r=s.r)
        else:
            lam = wolfe_search(p, s.x, direction, r=s.r)
        if lam == 0.0:
            raise Stop("stagnated")

        x_new = s.x + lam * direction
        # The model update below is the step's memory peak: hold no more
        # n x n arrays through it than the step needs.
        del direction
        s.r = p.residual_matrix(x_new)
        g_new = f1_gradient(p, x_new, s.r)
        g_norm = frobenius_norm(g_new)
        # Only a next step reads the model, so a step whose gradient passes
        # or blows up forms none.  The old iterate goes before the update.
        if g_norm < cfg.tol or not math.isfinite(g_norm):
            s.x, s.g = x_new, g_new
        else:
            delta, y = x_new - s.x, g_new - s.g
            s.x, s.g = x_new, g_new
            s.inv_h = update_fn(s.inv_h, delta, y)
            s.inv_h_norm = frobenius_norm(s.inv_h)
        detail["grad_norm_history"].append(g_norm)
        return s

    def stop(s, res):
        g_norm = detail["grad_norm_history"][-1]
        if g_norm < cfg.tol:
            return "converged"
        return None if s.inv_h_norm <= blown_up_norm and math.isfinite(g_norm) else "diverged"

    return iterate(
        state,
        step,
        lambda s: sylvester_residual(p, s.x, s.r),
        cfg.max_iterations,
        tol=None,
        stop=stop,
        solution=lambda s: s.x,
        detail=detail,
    )
