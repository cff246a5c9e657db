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
Lyapunov problem, so each is inverted once per inner solve and every
inner sweep applies the two inverses by products.  The inner solver
reads its sweep cap (``inner_max``) and its tolerance (``tol``) from
:class:`NewtonAdmmConfig` alone.

The inner solves are inexact: each one runs to the tolerance
max(inner_tol_value ||R(X_k)||_F, tol / 10), proportional to the
current outer residual (a forcing rule), warm-started from the previous
inner state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .baselines import care_residual, newton_iteration
from .care_admm import _BlockState, _finite, sweep_until
from .errors import AdmmBreakdownError, DimensionError, MatrixOptError, NotPositiveDefiniteError
from .linalg import frobenius_norm, require_positive, spd_factor, spd_solve, symmetrize
from .problems import CareProblem, LyapunovProblem
from .report import SolveReport, Stop


@dataclass
class NewtonAdmmConfig:
    alpha: float = 0.8
    beta: float = 50.0
    tol: float = 1e-8
    outer_max: int = 50
    inner_tol_value: float = 0.1
    inner_max: int = 5000

    def __post_init__(self):
        require_positive(self, "alpha", "beta", "tol")
        if not 0 < self.inner_tol_value < 1:
            raise ValueError("forcing factor inner_tol_value must lie in (0, 1)")


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


def _factors(p: LyapunovProblem, cfg: NewtonAdmmConfig):
    """Inverses of the two constant sweep systems, each solved from its
    Cholesky factor; their eigenvalues are at least beta, so a product
    with an inverse errs as a solve would.  A system that is not finite
    (A A^T overflowed), or one that Cholesky rejects, raises
    :class:`AdmmBreakdownError`."""
    aat = p.a @ p.a.T
    eye = np.eye(p.order)
    try:
        fx = spd_factor(_finite(cfg.alpha * aat + cfg.beta * eye, "X-update"))
        fz = spd_factor(_finite(aat + cfg.beta * eye, "Z-update"))
    except NotPositiveDefiniteError as exc:  # beta I rounds away against a huge singular A A^T
        raise AdmmBreakdownError(f"sweep system not positive definite: {exc}") from exc
    return spd_solve(fx, eye), spd_solve(fz, eye)


def lyap_admm_step(
    p: LyapunovProblem, s: LyapAdmmState, cfg: NewtonAdmmConfig, inverses
) -> LyapAdmmState:
    """One three-block sweep X -> Y -> Z followed by the multiplier steps.
    ``inverses`` carries the system inverses of :func:`_factors`, which
    X and Z are multiplied by.  The new state carries its A^T X for the
    residual check; the old state's, read by then, is dropped."""
    if s.x.shape != (p.order, p.order):
        raise DimensionError(
            f"state order {s.x.shape[0]} does not match problem order {p.order}"
        )
    s.products = None
    fx_inv, fz_inv = inverses
    a, q, alpha, beta = p.a, p.q, cfg.alpha, cfg.beta
    a_t = a.T
    x = fx_inv @ (a @ (s.lambda_ + alpha * s.y) + (s.pi_ + beta * s.z))
    atx = a_t @ x
    y = (alpha * atx - s.z @ a - q - s.lambda_) / (1.0 + alpha)
    z = ((-y - q) @ a_t - s.pi_ + beta * x) @ fz_inv
    lambda_ = s.lambda_ - alpha * (atx - y)
    pi_ = s.pi_ - beta * (x - z)
    new = LyapAdmmState(x=x, y=y, z=z, lambda_=lambda_, pi_=pi_)
    new.products = (p, {"atx": atx})
    return new


def solve_lyapunov_admm(
    p: LyapunovProblem,
    cfg: NewtonAdmmConfig | None = None,
    init: LyapAdmmState | None = None,
) -> SolveReport:
    """Sweep the three-block ADMM until ||A^T X + X A + Q||_F <= ``cfg.tol``,
    for at most ``cfg.inner_max`` sweeps.

    The reported solution is symmetrized; ``detail["state"]`` keeps the
    full final state, raw X block included (for warm starts).  ``init``
    must have finite n x n blocks; it is read, never written, and the
    solve keeps no reference to it.
    """
    cfg = cfg or NewtonAdmmConfig()
    inverses = _factors(p, cfg)
    start = [init.checked(p.order) if init is not None else LyapAdmmState.zero(p.order)]
    del init
    return sweep_until(
        start,
        lambda state: lyap_admm_step(p, state, cfg, inverses),
        lambda state: lyapunov_residual(p, state.x, state.carried(p, "atx")),
        cfg.tol,
        cfg.inner_max,
        solution=lambda state: symmetrize(state.x),
    )


def solve_newton_admm(p: CareProblem, cfg: NewtonAdmmConfig | None = None) -> SolveReport:
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
    # the inner state to warm-start from (in a list the next inner solve
    # pops, so that solve holds it alone), and the run of capped inner solves.
    outer = SimpleNamespace(residual=None, inner=[], capped_streak=0)
    detail: dict = {
        "outer_iterations": 0,
        "inner_iterations_per_outer": [],
        "inner_tolerances": [],
        "inner_final_residuals": [],
    }

    def residual(x):
        outer.residual = care_residual(p, x)
        return outer.residual

    def lyapunov_solve(lp):
        inner_tol = max(cfg.inner_tol_value * outer.residual, cfg.tol / 10.0)
        inner = solve_lyapunov_admm(
            lp, replace(cfg, tol=inner_tol), init=outer.inner.pop() if outer.inner else None
        )
        if inner.termination == "diverged":
            raise Stop("diverged")
        detail["outer_iterations"] += 1
        detail["inner_iterations_per_outer"].append(inner.iterations)
        detail["inner_tolerances"].append(inner_tol)
        detail["inner_final_residuals"].append(inner.final_residual)
        outer.inner.append(inner.detail["state"])
        if inner.termination == "max_iterations":
            outer.capped_streak += 1
        else:
            outer.capped_streak = 0
        return inner.solution

    try:
        report = newton_iteration(
            p, lyapunov_solve, residual, cfg.outer_max, tol=cfg.tol,
            stop=lambda x, res: "stagnated" if outer.capped_streak >= 2 else None,
            detail=detail,
        )
    except MatrixOptError as exc:
        if exc.report is not None:
            exc.report.iterations = sum(detail["inner_iterations_per_outer"])
        raise
    report.iterations = sum(detail["inner_iterations_per_outer"])
    return report
