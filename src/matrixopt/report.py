"""Solve reports, and the one iteration driver every iterative solver
runs on.

:func:`iterate` owns what all solvers share; a solver supplies only its
step, its residual, its tolerance, any stop rule of its own and its
``detail`` entries.

* History: ``residual_history`` starts with the residual of the initial
  state, then records the residual after every step, so it has
  ``iterations + 1`` entries.
* Stop order: after each recorded residual ``r``, before the cap, a
  non-finite ``r`` ends the run ``diverged``; else the solver's own
  ``stop(state, r)``, if given, may end it; else ``r <= tol`` ends it
  ``converged`` (``tol`` is None when ``stop`` alone converges).  So an
  initial state that passes takes no step, and a run that passes on its
  last allowed step is ``converged``.  A step may also end the run,
  uncounted, by raising :class:`Stop`.  numpy's overflow and invalid
  warnings are off in the loop: the termination records every blow-up.
* Caps: a negative ``max_iterations`` raises
  :class:`~matrixopt.errors.ParameterError` before the first residual.
* Errors: a :class:`~matrixopt.errors.MatrixOptError` raised inside the
  loop leaves with the partial report of the steps taken so far in its
  ``report`` attribute, with termination ``"error"``.
* Timing: ``wall_time_seconds`` times the iteration.  Set-up before the
  call and diagnostics a solver adds to ``detail`` afterwards are
  outside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import MatrixOptError, ParameterError

TERMINATIONS = ("converged", "max_iterations", "stagnated", "diverged", "error")


@dataclass
class SolveReport:
    """Outcome of one solver run; :func:`iterate` fixes how the history
    is recorded.  ``detail`` carries solver-specific diagnostics
    (gradient-norm histories, inner-iteration counts, certificates, ...).
    """

    solution: np.ndarray
    iterations: int
    residual_history: list[float]
    wall_time_seconds: float
    termination: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        if self.iterations < 0 or self.wall_time_seconds < 0:
            raise ValueError("iterations and wall time must be nonnegative")
        if not self.residual_history:
            raise ValueError("residual_history must be nonempty")

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    def summary(self) -> dict:
        """JSON-friendly summary without the dense solution payload."""
        return {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "termination": self.termination,
            "wall_time_seconds": self.wall_time_seconds,
        }


class Stop(Exception):
    """Raised by a step to end the run, uncounted; its one argument is
    the termination."""


def iterate(
    state: Any,
    step: Callable[[Any], Any],
    residual: Callable[[Any], float],
    max_iterations: int,
    *,
    tol: float | None,
    stop: Callable[[Any, float], str | None] | None = None,
    solution: Callable[[Any], np.ndarray],
    detail: dict,
) -> SolveReport:
    """Apply ``step`` to ``state`` until the module's stop order ends the
    run or ``max_iterations`` steps are taken.  ``solution(state)`` is the
    iterate the report returns; the step may fill ``detail`` as it goes."""
    if max_iterations < 0:
        raise ParameterError(f"iteration cap must be nonnegative, got {max_iterations}")
    start = time.perf_counter()
    history: list[float] = []
    iterations = 0

    def report(termination: str) -> SolveReport:
        return SolveReport(
            solution=solution(state),
            iterations=iterations,
            residual_history=history,
            wall_time_seconds=time.perf_counter() - start,
            termination=termination,
            detail=detail,
        )

    def ends(r: float) -> str | None:
        if not np.isfinite(r):
            return "diverged"
        if stop is not None and (termination := stop(state, r)):
            return termination
        return "converged" if tol is not None and r <= tol else None

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            history.append(residual(state))
            while (termination := ends(history[-1])) is None and iterations < max_iterations:
                try:
                    state = step(state)
                except Stop as halt:
                    (termination,) = halt.args
                    break
                iterations += 1
                history.append(residual(state))
        except MatrixOptError as exc:
            if history:
                exc.report = report("error")
            raise
        return report(termination or "max_iterations")
