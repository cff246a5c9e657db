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
splitting of :mod:`~matrixopt.newton_admm`.  It owns the ``detail`` key
the two share, the final ``state``.  It also owns its start state, so a
running solve holds two generations of blocks: the state a sweep reads
and the one it builds.

X is not kept symmetric during the iteration (the updates do not
preserve symmetry).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import AdmmBreakdownError, DimensionError, NotPositiveDefiniteError, SingularMatrixError
from .linalg import (
    as_matrix,
    cholesky_solve,
    frobenius_norm,
    lu_solve,
    require_positive,
    spd_factor,
    spd_solve,
    trace_inner,
)
from .baselines import care_residual
from .problems import CareProblem
from .report import SolveReport, iterate


@dataclass
class AdmmConfig:
    alpha: float = 0.5
    beta: float = 10.0
    gamma: float = 0.05
    tol: float = 1e-8
    max_iterations: int = 50_000

    def __post_init__(self):
        require_positive(self, "alpha", "beta", "gamma", "tol")


@dataclass
class _BlockState:
    """Square blocks of one ADMM splitting, every field an n x n array.

    Building a state checks nothing: the Lyapunov solver checks its
    ``init`` once (:meth:`checked`), and a blow-up in the loop shows as
    a non-finite residual.  ``products``, no field and so no block, holds
    products the sweep that made the state formed, with their problem;
    so blocks are not changed in place.  The next sweep drops them once
    it has read them: by then the residual check has read its own."""

    products = None

    def checked(self, n: int):
        """This state's blocks in a new state without ``products``, after
        checking that each is a finite matrix, then that each is n x n."""
        blocks = [as_matrix(getattr(self, f.name), f"block {f.name}") for f in fields(self)]
        for f, block in zip(fields(self), blocks):
            if block.shape != (n, n):
                raise DimensionError(f"block {f.name} must be {n}x{n}, got {block.shape}")
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


def _finite(system: np.ndarray, what: str) -> np.ndarray:
    """``system``, checked to be finite: a sweep system that overflowed
    at set-up would leave every sweep stuck at its start."""
    if not np.isfinite(system).all():
        raise AdmmBreakdownError(f"{what} system is not finite")
    return system


def sweep_constants(p: CareProblem, cfg: AdmmConfig):
    """The parts of a sweep that depend only on the problem and the
    penalties: (alpha A A^T, beta I, gamma I, Z^-1), Z being the Z-update
    system A A^T + beta I + gamma N N^T, inverted from its Cholesky
    factor (its eigenvalues are at least beta, so a product with the
    inverse errs as a solve would).  The X system adds the first two
    separately, in the order an unhoisted sweep does.  A constant system
    that is not finite (A A^T or N N^T overflowed), or a Z system that
    Cholesky rejects (possible only when beta I + gamma N N^T is
    negligible against a singular A A^T), raises
    :class:`AdmmBreakdownError` here, before any sweep."""
    eye = np.eye(p.order)
    aat = p.a @ p.a.T
    al_aat = _finite(cfg.alpha * aat, "X-update")
    z_system = _finite(aat + cfg.beta * eye + cfg.gamma * (p.n_mat @ p.n_mat.T), "Z-update")
    try:
        z_factor = spd_factor(z_system)
    except NotPositiveDefiniteError as exc:
        raise AdmmBreakdownError(f"Z-update system not positive definite: {exc}") from exc
    return al_aat, cfg.beta * eye, cfg.gamma * eye, spd_solve(z_factor, eye)


def admm_step(p: CareProblem, s: AdmmState, cfg: AdmmConfig, const) -> AdmmState:
    """One sweep of the seven updates, X -> Y -> Z -> W -> multipliers.

    The X and W updates solve their SPD systems (W's from the right, by
    a transposed right-hand side); the Z update multiplies by the
    inverse of its constant system.  ``const`` carries the
    sweep-invariant matrices of :func:`sweep_constants`.

    The new state carries its Z A and T = Y + Z A + K, which the next
    X update reads, and its A^T X, the residual's; without them Z A and
    T are formed here, to the same bits.
    """
    a, n_mat, k_mat = p.a, p.n_mat, p.k_mat
    n = p.order
    if s.x.shape != (n, n):
        raise DimensionError(f"state order {s.x.shape[0]} does not match problem order {n}")
    al, be, ga = cfg.alpha, cfg.beta, cfg.gamma
    al_aat, be_eye, ga_eye, z_inverse = const
    a_t, n_t = a.T, n_mat.T

    za, t = s.carried(p, "za"), s.carried(p, "t")
    s.products = None
    if za is None:
        za = s.z @ a
        t = s.y + za + k_mat
    x_sys = s.w.T @ s.w + al_aat + be_eye
    x_rhs = s.w.T @ t + a @ (s.lambda_ + al * s.y) + (s.pi_ + be * s.z)
    del t
    x = _solve_spd(x_sys, x_rhs, "X-update")
    del x_sys, x_rhs

    wx = s.w @ x
    atx = a_t @ x
    y = (wx + al * atx - za - k_mat - s.lambda_) / (1.0 + al)

    z_rhs = (wx - y - k_mat) @ a_t + (s.gamma_ + ga * s.w) @ n_t + (be * x - s.pi_)
    del wx
    z = z_rhs @ z_inverse
    del z_rhs

    zn = z @ n_mat
    za = z @ a
    t = y + za + k_mat
    w_sys = x @ x.T + ga_eye
    w_rhs = t @ x.T - s.gamma_ + ga * zn
    w = _solve_spd(w_sys, w_rhs.T, "W-update").T
    del w_sys, w_rhs

    lambda_ = s.lambda_ - al * (atx - y)
    pi_ = s.pi_ - be * (x - z)
    gamma_ = s.gamma_ - ga * (zn - w)
    new = AdmmState(x=x, y=y, z=z, w=w, lambda_=lambda_, pi_=pi_, gamma_=gamma_)
    new.products = (p, {"za": za, "t": t, "atx": atx})
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


def sweep_until(
    start: list, sweep, residual, tol, max_iterations, *, solution=lambda state: state.x,
) -> SolveReport:
    """The sweep loop of both ADMM splittings: apply ``sweep`` for at most
    ``max_iterations`` sweeps, ended by :func:`~matrixopt.report.iterate`'s
    stop order at tolerance ``tol``.

    The loop owns its start state: ``start`` is a one-element list that
    it pops, and a caller keeps no other reference, so the start state
    dies with the first sweep.  ``detail`` keeps the last full ``state``
    (for warm starts).
    """
    detail: dict = {"state": start.pop()}

    def step(state):
        detail["state"] = sweep(state)
        return detail["state"]

    report = iterate(
        detail["state"], step, residual, max_iterations,
        tol=tol, solution=solution, detail=detail,
    )
    # Carried products serve the loop alone; a warm start forms its own.
    detail["state"].products = None
    return report


def solve_care_admm(p: CareProblem, cfg: AdmmConfig | None = None) -> SolveReport:
    """Iterate :func:`admm_step` from the zero state until the Riccati
    residual of the X block drops below ``cfg.tol``.

    The history records the residual after every sweep, starting with the
    initial residual.  After the loop the detail map gains the KKT
    residuals and the augmented Lagrangian of the final state, formed
    with numpy's inf/NaN warnings off: a blow-up has already ended the
    run ``diverged``.
    """
    cfg = cfg or AdmmConfig()
    const = sweep_constants(p, cfg)
    report = sweep_until(
        [AdmmState.zero(p.order)],
        lambda state: admm_step(p, state, cfg, const),
        lambda state: care_residual(p, state.x, state.carried(p, "atx")),
        cfg.tol,
        cfg.max_iterations,
    )
    state = report.detail["state"]
    with np.errstate(invalid="ignore", over="ignore"):
        report.detail["final_kkt_residuals"] = kkt_residuals(p, state)
        report.detail["final_lagrangian"] = lagrangian_value(p, state, cfg)
    return report
