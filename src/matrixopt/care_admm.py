"""Four-block ADMM for the continuous algebraic Riccati equation.

The quadratic equation A^T X + X A - X N X + K = 0 is rewritten as the
constrained least-squares problem

    min 0.5 ||Y + Z A - W X + K||_F^2
    s.t. A^T X = Y,   X = Z,   Z N = W,

whose augmented Lagrangian (penalties alpha, beta, gamma on the three
constraints) is block-wise strongly convex.  One sweep minimizes over
X, Y, Z, W in that fixed order - each argmin has a closed form solved as
an SPD linear system - then takes gradient-ascent steps on the three
multipliers.  The sweep order matters: the per-sweep decrease inequality
the tests assert is specific to it.

The sweep loop, :func:`sweep_until`, is the one both ADMM splittings of
the package run on: this four-block one and the three-block Lyapunov
splitting of :mod:`~matrixopt.newton_admm`.  It owns the ``detail`` keys
the two share: the final ``state``, the ``asymmetry`` of its X block and,
on request, the augmented-Lagrangian trace and per-sweep block changes.

X is not kept symmetric during the iteration (the updates do not
preserve symmetry); the final report logs ``||X - X^T||_F`` and the
closed-loop spectral abscissa as diagnostics instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import AdmmBreakdownError, DimensionError, NotPositiveDefiniteError, SingularMatrixError
from .linalg import (
    cholesky_solve,
    frobenius_norm,
    lu_solve,
    serial_products,
    spd_factor,
    spd_solve,
    trace_inner,
)
from .baselines import care_residual, closed_loop_max_real_eig
from .problems import CareProblem
from .report import SolveReport, iterate


@dataclass
class AdmmConfig:
    alpha: float = 0.5
    beta: float = 10.0
    gamma: float = 0.05
    tol: float = 1e-8
    max_iterations: int = 50_000
    check_every: int = 1
    track_lagrangian: bool = False

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ValueError("penalties alpha, beta, gamma must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")


@dataclass
class _BlockState:
    """Square blocks of one ADMM splitting, every field an n x n array.

    Building a state checks nothing: a solver checks its ``init`` once
    (:meth:`checked`), and a blow-up in the loop shows as a non-finite
    residual.  ``products``, no field and so no block, holds products the
    sweep that made the state formed, with their problem; so blocks are
    not changed in place."""

    products = None

    def checked(self, n: int):
        """This state's blocks in a new state without ``products``, after
        checking that each is a finite n x n array."""
        blocks = [np.asarray(getattr(self, f.name), dtype=np.float64) for f in fields(self)]
        for f, block in zip(fields(self), blocks):
            if block.shape != (n, n):
                raise DimensionError(f"block {f.name} must be {n}x{n}, got {block.shape}")
            if not np.isfinite(block).all():
                raise ValueError(f"block {f.name} contains non-finite entries")
        return type(self)(*blocks)

    def carried(self, p, name: str):
        """The product ``name`` carried from the sweep that made this
        state, or None unless that sweep ran on problem ``p``."""
        if self.products is None or self.products[0] is not p:
            return None
        return self.products[1][name]

    @classmethod
    def zero(cls, n: int):
        return cls(*(np.zeros((n, n)) for _ in fields(cls)))


@dataclass
class AdmmState(_BlockState):
    """Primal blocks X, Y, Z, W and multipliers for the three constraints."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    lambda_: np.ndarray
    pi_: np.ndarray
    gamma_: np.ndarray


def _solve_spd(system: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return cholesky_solve(system, rhs)
    except NotPositiveDefiniteError:
        pass
    try:
        return lu_solve(system, rhs)
    except SingularMatrixError as exc:
        raise AdmmBreakdownError(f"{what} system is singular: {exc}") from exc


@dataclass(frozen=True)
class SweepConstants:
    """The parts of a sweep that depend only on the problem and the
    penalties: alpha A A^T, beta I, gamma I, and the Z-update system
    (kept factored when Cholesky succeeds).  The X system adds the first
    two separately, in the order an unhoisted sweep does, so iterates
    keep their last bit."""

    al_aat: np.ndarray
    be_eye: np.ndarray
    ga_eye: np.ndarray
    z_sys: np.ndarray
    z_factor: np.ndarray | None

    @classmethod
    def of(cls, p: CareProblem, cfg: AdmmConfig) -> "SweepConstants":
        a, n_mat = p.a, p.n_mat
        eye = np.eye(p.order)
        aat = a @ a.T
        z_sys = aat + cfg.beta * eye + cfg.gamma * (n_mat @ n_mat.T)
        try:
            z_factor = spd_factor(z_sys)
        except NotPositiveDefiniteError:
            z_factor = None
        return cls(cfg.alpha * aat, cfg.beta * eye, cfg.gamma * eye, z_sys, z_factor)


def admm_step(
    p: CareProblem, s: AdmmState, cfg: AdmmConfig, const: SweepConstants | None = None
) -> AdmmState:
    """One sweep of the seven updates, X -> Y -> Z -> W -> multipliers.

    Every explicit inverse in the closed forms is realized as a linear
    solve; the Z and W updates multiply by an inverse from the right and
    are handled by solving the (symmetric) system against a transposed
    right-hand side.  ``const`` carries the sweep-invariant systems from
    :meth:`SweepConstants.of`; without it they are formed here.

    The new state carries its Z A, the next sweep's first product, and
    its A^T X, the residual's; without them ``s.z @ a`` is formed here.
    """
    a, n_mat, k_mat = p.a, p.n_mat, p.k_mat
    n = p.order
    if s.x.shape != (n, n):
        raise DimensionError(f"state order {s.x.shape[0]} does not match problem order {n}")
    if const is None:
        const = SweepConstants.of(p, cfg)
    al, be, ga = cfg.alpha, cfg.beta, cfg.gamma
    a_t, n_t = a.T, n_mat.T

    za = s.carried(p, "za")
    if za is None:
        za = s.z @ a
    x_sys = s.w.T @ s.w + const.al_aat + const.be_eye
    x_rhs = s.w.T @ (s.y + za + k_mat) + a @ s.lambda_ + s.pi_ + al * (a @ s.y) + be * s.z
    x = _solve_spd(x_sys, x_rhs, "X-update")

    wx = s.w @ x
    atx = a_t @ x
    y = (wx + al * atx - za - k_mat - s.lambda_) / (1.0 + al)

    z_rhs = (
        (wx - y - k_mat) @ a_t
        - s.pi_
        + s.gamma_ @ n_t
        + be * x
        + ga * (s.w @ n_t)
    )
    if const.z_factor is not None:
        z = spd_solve(const.z_factor, z_rhs.T).T
    else:
        z = _solve_spd(const.z_sys, z_rhs.T, "Z-update").T

    zn = z @ n_mat
    za = z @ a
    w_sys = x @ x.T + const.ga_eye
    w_rhs = (y + za + k_mat) @ x.T - s.gamma_ + ga * zn
    w = _solve_spd(w_sys, w_rhs.T, "W-update").T

    lambda_ = s.lambda_ - al * (atx - y)
    pi_ = s.pi_ - be * (x - z)
    gamma_ = s.gamma_ - ga * (zn - w)
    new = AdmmState(x=x, y=y, z=z, w=w, lambda_=lambda_, pi_=pi_, gamma_=gamma_)
    new.products = (p, {"za": za, "atx": atx})
    return new


def kkt_residuals(p: CareProblem, s: AdmmState) -> tuple[float, ...]:
    """Frobenius norms of the seven first-order optimality conditions:
    stationarity in X, Y, Z, W followed by the three feasibility gaps."""
    a, n_mat, k_mat = p.a, p.n_mat, p.k_mat
    x, y, z, w = s.x, s.y, s.z, s.w
    return (
        frobenius_norm(w.T @ w @ x - w.T @ (y + z @ a + k_mat) - a @ s.lambda_ - s.pi_),
        frobenius_norm(y + z @ a - w @ x + k_mat + s.lambda_),
        frobenius_norm(z @ a @ a.T + (y - w @ x + k_mat) @ a.T + s.pi_ - s.gamma_ @ n_mat.T),
        frobenius_norm(w @ x @ x.T - (y + z @ a + k_mat) @ x.T + s.gamma_),
        frobenius_norm(a.T @ x - y),
        frobenius_norm(x - z),
        frobenius_norm(z @ n_mat - w),
    )


def _augmented_lagrangian(obj: np.ndarray, constraints) -> float:
    """0.5 ||obj||^2 - sum <mult, gap> + sum 0.5 penalty ||gap||^2 over
    the (multiplier, gap, penalty) triples of ``constraints``."""
    value = 0.5 * float(np.vdot(obj, obj))
    for mult, gap, _ in constraints:
        value -= trace_inner(mult, gap)
    for _, gap, penalty in constraints:
        value += 0.5 * penalty * float(np.vdot(gap, gap))
    return value


def lagrangian_value(p: CareProblem, s: AdmmState, cfg: AdmmConfig) -> float:
    """Augmented Lagrangian of the split problem at the given state."""
    a, n_mat, k_mat = p.a, p.n_mat, p.k_mat
    return _augmented_lagrangian(
        s.y + s.z @ a - s.w @ s.x + k_mat,
        (
            (s.lambda_, a.T @ s.x - s.y, cfg.alpha),
            (s.pi_, s.x - s.z, cfg.beta),
            (s.gamma_, s.z @ n_mat - s.w, cfg.gamma),
        ),
    )


# numpy's error state for a whole ADMM solve: a blow-up already ends the
# run ``diverged`` (see sweep_until), so its inf and NaN arithmetic, in
# the loop and in the diagnostics after it, raises no warnings.
QUIET_BLOW_UP = {"invalid": "ignore", "over": "ignore"}


def _block_deltas(s: _BlockState, s_new: _BlockState) -> dict:
    """Squared change of each block, keyed ``d<block>2``."""
    sq = lambda m: float(np.vdot(m, m))  # noqa: E731
    return {
        f"d{f.name.rstrip('_')}2": sq(getattr(s_new, f.name) - getattr(s, f.name))
        for f in fields(s)
    }


def sweep_until(
    state, sweep, residual, tol, max_iterations, *,
    lagrangian=None, check_every=1, solution=lambda state: state.x,
) -> SolveReport:
    """The sweep loop of both ADMM splittings: apply ``sweep`` until
    ``residual(state) <= tol`` or ``max_iterations`` sweeps, with numpy's
    BLAS at one thread.  A residual that is not finite ends the run
    ``diverged``; callers run the loop under ``np.errstate(**QUIET_BLOW_UP)``.

    ``detail`` keeps the last full ``state`` (for warm starts) and the
    ``asymmetry`` ``||X - X^T||_F`` of its X block.  Given a
    ``lagrangian`` (state -> float) it also carries that function's trace
    ``lagrangian_history`` and the squared block changes ``block_deltas``
    of every sweep, which the invariant tests turn into the per-sweep
    decrease inequality.
    """
    detail: dict = {"state": state}
    if lagrangian is not None:
        detail["lagrangian_history"] = [lagrangian(state)]
        detail["block_deltas"] = []

    def step(state):
        new_state = sweep(state)
        if lagrangian is not None:
            detail["lagrangian_history"].append(lagrangian(new_state))
            detail["block_deltas"].append(_block_deltas(state, new_state))
        detail["state"] = new_state
        return new_state

    def stop(state, res):
        if res <= tol:
            return "converged"
        return None if math.isfinite(res) else "diverged"

    with serial_products():
        report = iterate(
            state, step, residual, stop, max_iterations,
            check_every=check_every, solution=solution, detail=detail,
        )
    # Carried products serve the loop alone; a warm start forms its own.
    detail["state"].products = None
    x = detail["state"].x
    detail["asymmetry"] = frobenius_norm(x - x.T)
    return report


def solve_care_admm(
    p: CareProblem,
    cfg: AdmmConfig | None = None,
    init: AdmmState | None = None,
) -> SolveReport:
    """Iterate :func:`admm_step` from the zero state (or ``init``) until
    the Riccati residual of the X block drops below ``cfg.tol``.

    The residual is evaluated every ``check_every`` sweeps; the history
    records the sampled values, starting with the initial residual.  With
    ``track_lagrangian`` the detail map carries the augmented-Lagrangian
    trace and block changes of :func:`sweep_until`; after the loop it
    gains the KKT residuals and the closed-loop spectral abscissa (NaN
    when X is not finite).  ``init`` must have finite n x n blocks.
    """
    cfg = cfg or AdmmConfig()
    const = SweepConstants.of(p, cfg)
    lagrangian = lambda state: lagrangian_value(p, state, cfg)  # noqa: E731
    with np.errstate(**QUIET_BLOW_UP):
        report = sweep_until(
            init.checked(p.order) if init is not None else AdmmState.zero(p.order),
            lambda state: admm_step(p, state, cfg, const),
            lambda state: care_residual(p, state.x, state.carried(p, "atx")),
            cfg.tol,
            cfg.max_iterations,
            lagrangian=lagrangian if cfg.track_lagrangian else None,
            check_every=cfg.check_every,
        )
        state = report.detail["state"]
        report.detail["final_kkt_residuals"] = kkt_residuals(p, state)
        report.detail["closed_loop_max_real_eig"] = (
            closed_loop_max_real_eig(p, state.x) if np.isfinite(state.x).all() else math.nan
        )
    return report
