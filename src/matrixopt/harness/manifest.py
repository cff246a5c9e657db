"""Benchmark manifests: suite rows bound to registered solvers, executed
one at a time in list order into CSV/JSON records.

Reference figures from the source tables ride along in the CSV for
comparison but never influence execution.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from ..baselines import (
    NEWTON_MAX_STEPS,
    BaselineConfig,
    certify_care,
    solve_anderson_richardson,
    solve_cg,
    solve_lyapunov_direct,
    solve_newton_care,
)
from ..care_admm import AdmmConfig, solve_care_admm
from ..ccom import CcomConfig, solve_ccom
from ..errors import ParameterError, PreconditionError
from ..linalg import blas_environment, serial_products
from ..newton_admm import (
    NewtonAdmmConfig,
    lyapunov_residual,
    solve_lyapunov_admm,
    solve_newton_admm,
)
from ..oracle import solve_kronecker_direct, sylvester_residual
from ..problems import CareProblem, LyapunovProblem, SuiteRow, SylvesterProblem
from ..quasi_newton import QnConfig, solve_quasi_newton
from ..report import SolveReport, iterate

CSV_COLUMNS = (
    "algorithm",
    "n",
    "iterations",
    "final_residual",
    "wall_time_seconds",
    "paper_iterations",
    "paper_error",
)


@dataclass(frozen=True)
class Method:
    """How one method solves one problem class.

    ``solve(problem, cfg)`` calls its solver by name, so the function is
    looked up in this module at call time.  ``keys`` maps each parameter
    key the method takes to a field of ``config``; ``preset`` holds the
    fields the method fixes before the keys apply; :func:`run_method`
    holds OpenBLAS copy ``hold`` (``numpy``/``scipy``/None) at one thread.
    """

    solve: Callable
    config: type | None = None
    keys: dict[str, str] = field(default_factory=dict)
    preset: dict = field(default_factory=dict)
    hold: str | None = None


def _keys(*same: str, **renamed: str) -> dict[str, str]:
    """Parameter key -> config field; a key in ``same`` names its field."""
    return {**{key: key for key in same}, **renamed}


def _direct(solve, residual):
    """An exact solve reported as a zero-iteration run of the driver at an
    infinite tolerance: ``converged`` when its residual is finite,
    ``diverged`` when it is not.  The wall time covers the solve."""

    def run(problem, _cfg) -> SolveReport:
        start = time.perf_counter()
        report = iterate(
            solve(problem), None, lambda x: residual(problem, x), 0,
            tol=math.inf, solution=lambda x: x, detail={"direct": True},
        )
        report.wall_time_seconds = time.perf_counter() - start
        return report

    return run


_QN_KEYS = _keys("max_iterations", "linesearch", "tol")

# (method, problem class) -> Method.  Every default is the config
# dataclass's own; a key missing from a row is rejected for that row.
# Methods alternating numpy products with scipy factorizations hold numpy's
# OpenBLAS copy; dfp and bfgs hold scipy's, which factors their LU inverses.
METHODS = {
    ("ccom", SylvesterProblem): Method(
        lambda p, cfg: solve_ccom(p, cfg),
        CcomConfig,
        _keys("max_iterations", "tol"),
        hold="numpy",
    ),
    ("dfp", SylvesterProblem): Method(
        lambda p, cfg: solve_quasi_newton(p, cfg), QnConfig, _QN_KEYS, {"method": "dfp"},
        hold="scipy",
    ),
    ("bfgs", SylvesterProblem): Method(
        lambda p, cfg: solve_quasi_newton(p, cfg), QnConfig, _QN_KEYS, {"method": "bfgs"},
        hold="scipy",
    ),
    ("cg", SylvesterProblem): Method(
        lambda p, cfg: solve_cg(p, cfg), BaselineConfig, _keys("tol", "max_iterations")
    ),
    ("ar", SylvesterProblem): Method(
        lambda p, cfg: solve_anderson_richardson(p, cfg),
        BaselineConfig,
        _keys("tol", "max_iterations"),
    ),
    ("admm", CareProblem): Method(
        lambda p, cfg: solve_care_admm(p, cfg),
        AdmmConfig,
        _keys("alpha", "beta", "gamma", "tol", "max_iterations"),
        hold="numpy",
    ),
    ("admm", LyapunovProblem): Method(
        lambda p, cfg: solve_lyapunov_admm(p, cfg),
        NewtonAdmmConfig,
        _keys("alpha", "beta", "tol", max_iterations="inner_max"),
        hold="numpy",
    ),
    ("newton", CareProblem): Method(
        lambda p, cfg: solve_newton_care(p, cfg=cfg),
        BaselineConfig,
        _keys("tol", "max_iterations"),
        {"max_iterations": NEWTON_MAX_STEPS},
        hold="numpy",
    ),
    ("newton-admm", CareProblem): Method(
        lambda p, cfg: solve_newton_admm(p, cfg=cfg),
        NewtonAdmmConfig,
        _keys("alpha", "beta", "tol", "outer_max", "inner_tol_value", "inner_max"),
        hold="numpy",
    ),
    ("direct", SylvesterProblem): Method(
        _direct(lambda p: solve_kronecker_direct(p), lambda p, x: sylvester_residual(p, x))
    ),
    ("direct", LyapunovProblem): Method(
        _direct(lambda p: solve_lyapunov_direct(p), lambda p, x: lyapunov_residual(p, x)),
        hold="numpy",
    ),
}

METHOD_NAMES = tuple(dict.fromkeys(method for method, _ in METHODS))


def configure(method: str, problem, params: dict | None = None):
    """The :class:`Method` and config object for ``method`` on ``problem``.

    ``params`` overrides config fields through the method's key map.  An
    unknown method, or one that does not solve ``problem``, raises
    :class:`PreconditionError`; a key the method does not take, or a
    value its config rejects, raises :class:`ParameterError`.
    """
    kinds = [kind for name, kind in METHODS if name == method]
    if not kinds:
        raise PreconditionError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    spec = next((METHODS[method, kind] for kind in kinds if isinstance(problem, kind)), None)
    if spec is None:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise PreconditionError(f"{method} solves {names}, not {type(problem).__name__}")
    params = params or {}
    unknown = [key for key in params if key not in spec.keys]
    if unknown:
        raise ParameterError(
            f"{method} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(spec.keys) or 'no parameters'}"
        )
    if spec.config is None:
        return spec, None
    fields = {spec.keys[key]: value for key, value in params.items()}
    try:
        return spec, spec.config(**{**spec.preset, **fields})
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{method} rejects {params}: {exc}") from exc


def run_method(method: str, problem, params: dict | None = None) -> SolveReport:
    """Dispatch one solve through the method table, with the method's
    ``hold`` copy of OpenBLAS at one thread from set-up to certificate.
    A CARE answer gets ``detail["certificate"]``, :func:`certify_care` of
    its solution; this is the one place any answer is certified."""
    spec, cfg = configure(method, problem, params)
    with serial_products(spec.hold) if spec.hold else contextlib.nullcontext():
        report = spec.solve(problem, cfg)
        if isinstance(problem, CareProblem):
            report.detail["certificate"] = certify_care(problem, report.solution, report.final_residual)
    return report


@dataclass
class RunRecord:
    row: SuiteRow
    iterations: int | None = None
    final_residual: float | None = None
    wall_time_seconds: float | None = None
    termination: str | None = None
    error: str | None = None

    def fields(self) -> dict:
        """The record as its ``--json`` entry; the CSV row is a subset."""
        return {
            "algorithm": self.row.method,
            "n": self.row.source.order,
            "params": self.row.params,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "wall_time_seconds": self.wall_time_seconds,
            "termination": self.termination,
            "error": self.error,
            "paper_iterations": self.row.paper_iterations,
            "paper_error": self.row.paper_error,
        }

    def csv_row(self) -> list:
        fields = self.fields()
        return [_cell(fields[column]) for column in CSV_COLUMNS]


def _cell(v):
    """A CSV cell: empty for None, a real in ``.6e`` form, else as is."""
    if v is None:
        return ""
    return v if isinstance(v, (int, str)) else format(float(v), ".6e")


def row_error(exc: Exception) -> str:
    """A failed row's error text, led by the exception's class name."""
    return f"{type(exc).__name__}: {exc}"


def _execute(row: SuiteRow) -> RunRecord:
    try:
        problem = row.source.build()
        report = run_method(row.method, problem, row.params)
    except Exception as exc:  # noqa: BLE001 - one bad row must not abort the table
        return RunRecord(row=row, termination="error", error=row_error(exc))
    return RunRecord(row=row, **report.summary())


def run_manifest(rows: list[SuiteRow], cap: int) -> list[RunRecord]:
    """Execute every row with order <= cap, one at a time in list order;
    failures, an unknown method among them, are recorded per row and
    never abort the run."""
    return [_execute(row) for row in rows if row.source.order <= cap]


def write_csv(records: list[RunRecord]) -> str:
    """Render records as CSV with the pinned column schema."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rec.csv_row() for rec in records)
    return buffer.getvalue()


def summary_json(suite: str, records: list[RunRecord]) -> dict:
    converged = sum(1 for r in records if r.termination == "converged")
    return {
        "suite": suite,
        "environment": {**blas_environment(), "cpu_count": os.cpu_count()},
        "rows_run": len(records),
        "rows_converged": converged,
        "rows_failed": sum(1 for r in records if r.error is not None),
        "records": [r.fields() for r in records],
    }
