"""Solve reports, and the one iteration driver every iterative solver
runs on.

:func:`iterate` owns what all solvers share; a solver supplies only its
step, its residual, its stop rule and its ``detail`` entries.

* History: ``residual_history`` starts with the residual of the initial
  state, then records the residual after every ``check_every``-th step
  and after the step that reaches ``max_iterations``.  With the default
  stride of 1 it has ``iterations + 1`` entries.
* Stop order: after each recorded residual ``r`` the driver asks
  ``stop(state, r)`` for a termination, before it checks the cap.  An
  initial state that already passes ends the run at 0 iterations, and a
  run that passes on its last allowed step is ``converged``.  A step may
  also end the run, uncounted, by raising :class:`Stop`.
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

from .errors import MatrixOptError

TERMINATIONS = ("converged", "max_iterations", "stagnated", "diverged", "error")


@dataclass
class SolveReport:
    """Outcome of one solver run; :func:`iterate` fixes how the history
    is sampled.  ``detail`` carries solver-specific diagnostics
    (per-update audits, inner-iteration counts, objective histories, ...).
    """

    solution: np.ndarray
    iterations: int
    residual_history: list[float]
    final_residual: float
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
        if self.final_residual != self.residual_history[-1]:
            raise ValueError("final_residual must equal the last history entry")

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
    stop: Callable[[Any, float], str | None],
    max_iterations: int,
    *,
    check_every: int = 1,
    solution: Callable[[Any], np.ndarray],
    detail: dict,
) -> SolveReport:
    """Apply ``step`` to ``state`` until ``stop`` returns a termination or
    ``max_iterations`` steps are taken, as the module docstring describes.
    ``solution(state)`` is the iterate the report returns; the step may
    fill ``detail`` as it goes.
    """
    start = time.perf_counter()
    history: list[float] = []
    iterations = 0

    def report(termination: str) -> SolveReport:
        return SolveReport(
            solution=solution(state),
            iterations=iterations,
            residual_history=history,
            final_residual=history[-1],
            wall_time_seconds=time.perf_counter() - start,
            termination=termination,
            detail=detail,
        )

    try:
        history.append(residual(state))
        termination = stop(state, history[-1])
        while termination is None and iterations < max_iterations:
            try:
                state = step(state)
            except Stop as halt:
                (termination,) = halt.args
                break
            iterations += 1
            if iterations % check_every == 0 or iterations == max_iterations:
                history.append(residual(state))
                termination = stop(state, history[-1])
    except MatrixOptError as exc:
        if history:
            exc.report = report("error")
        raise
    return report(termination or "max_iterations")
