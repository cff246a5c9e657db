"""Benchmark manifests: suite rows bound to registered solvers, executed
(optionally in a worker pool) into CSV/JSON records.

Each record keeps its manifest row index and results are sorted by it
before emission, so the output is identical no matter how workers
interleave.  Reference figures from the source tables ride along in the
CSV for comparison but never influence execution.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from ..baselines import (
    NEWTON_MAX_STEPS,
    BaselineConfig,
    solve_anderson_richardson,
    solve_cg,
    solve_lyapunov_direct,
    solve_newton_care,
)
from ..care_admm import AdmmConfig, solve_care_admm
from ..ccom import CcomConfig, solve_ccom
from ..errors import ParameterError, PreconditionError
from ..linalg import blas_threads, serial_products
from ..newton_admm import (
    NewtonAdmmConfig,
    lyapunov_residual,
    solve_lyapunov_admm,
    solve_newton_admm,
)
from ..oracle import solve_kronecker_direct, sylvester_residual
from ..problems import (
    DESK_SCALE_MAX_ORDER,
    CareProblem,
    LyapunovProblem,
    SuiteRow,
    SylvesterProblem,
    paper_suite,
)
from ..quasi_newton import QnConfig, solve_quasi_newton
from ..report import SolveReport

ENV_THREAD_CAP = "MATRIXOPT_THREADS"

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
    fields the method fixes before the keys apply.
    """

    solve: Callable
    config: type | None = None
    keys: dict[str, str] = field(default_factory=dict)
    preset: dict = field(default_factory=dict)


def _keys(*same: str, **renamed: str) -> dict[str, str]:
    """Parameter key -> config field; a key in ``same`` names its field."""
    return {**{key: key for key in same}, **renamed}


def _direct(solve, residual):
    """An exact solve reported as a converged zero-iteration run."""

    def run(problem, _cfg) -> SolveReport:
        start = time.perf_counter()
        x = solve(problem)
        r = residual(problem, x)
        return SolveReport(
            solution=x,
            iterations=0,
            residual_history=[r],
            wall_time_seconds=time.perf_counter() - start,
            termination="converged",
            detail={"direct": True},
        )

    return run


_QN_KEYS = _keys("max_iterations", "linesearch", "sigma1", "sigma2", tol="grad_tol")
_NA_KEYS = _keys("alpha", "beta", tol="outer_tol")

# (method, problem class) -> Method.  Every default is the config
# dataclass's own; a key missing from a row is rejected for that row.
METHODS = {
    ("ccom", SylvesterProblem): Method(
        lambda p, cfg: solve_ccom(p, cfg),
        CcomConfig,
        _keys("max_iterations", "group_rows", tol="epsilon"),
    ),
    ("dfp", SylvesterProblem): Method(
        lambda p, cfg: solve_quasi_newton(p, cfg), QnConfig, _QN_KEYS, {"method": "dfp"}
    ),
    ("bfgs", SylvesterProblem): Method(
        lambda p, cfg: solve_quasi_newton(p, cfg), QnConfig, _QN_KEYS, {"method": "bfgs"}
    ),
    ("cg", SylvesterProblem): Method(
        lambda p, cfg: solve_cg(p, cfg), BaselineConfig, _keys("tol", "max_iterations")
    ),
    ("ar", SylvesterProblem): Method(
        lambda p, cfg: solve_anderson_richardson(p, cfg),
        BaselineConfig,
        _keys("tol", "max_iterations", omega="richardson_omega"),
    ),
    ("admm", CareProblem): Method(
        lambda p, cfg: solve_care_admm(p, cfg),
        AdmmConfig,
        _keys("alpha", "beta", "gamma", "tol", "max_iterations", "check_every"),
    ),
    ("admm", LyapunovProblem): Method(
        lambda p, cfg: solve_lyapunov_admm(p, cfg),
        NewtonAdmmConfig,
        {**_NA_KEYS, "max_iterations": "inner_max"},
    ),
    ("newton", CareProblem): Method(
        lambda p, cfg: solve_newton_care(p, cfg=cfg),
        BaselineConfig,
        _keys("tol", "max_iterations"),
        {"max_iterations": NEWTON_MAX_STEPS},
    ),
    ("newton-admm", CareProblem): Method(
        lambda p, cfg: solve_newton_admm(p, cfg=cfg),
        NewtonAdmmConfig,
        {**_NA_KEYS, **_keys("outer_max", "inner_tol_mode", "inner_tol_value", "inner_max")},
    ),
    ("direct", SylvesterProblem): Method(
        _direct(lambda p: solve_kronecker_direct(p), lambda p, x: sylvester_residual(p, x))
    ),
    ("direct", LyapunovProblem): Method(
        _direct(lambda p: solve_lyapunov_direct(p), lambda p, x: lyapunov_residual(p, x))
    ),
}

METHOD_NAMES = tuple(dict.fromkeys(method for method, _ in METHODS))


def configure(method: str, problem, params: dict | None = None):
    """The solve function and config object for ``method`` on ``problem``.

    ``params`` overrides config fields through the method's key map.  A
    key the method does not take, or a value its config rejects, raises
    :class:`ParameterError`.
    """
    if method not in METHOD_NAMES:
        raise PreconditionError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    spec = next(
        (m for (name, kind), m in METHODS.items() if name == method and isinstance(problem, kind)),
        None,
    )
    if spec is None:
        kinds = " or ".join(kind.__name__ for name, kind in METHODS if name == method)
        raise PreconditionError(f"{method} solves {kinds}, not {type(problem).__name__}")
    params = params or {}
    unknown = [key for key in params if key not in spec.keys]
    if unknown:
        raise ParameterError(
            f"{method} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(spec.keys) or 'no parameters'}"
        )
    if spec.config is None:
        return spec.solve, None
    fields = {spec.keys[key]: value for key, value in params.items()}
    try:
        return spec.solve, spec.config(**{**spec.preset, **fields})
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{method} rejects {params}: {exc}") from exc


def run_method(method: str, problem, params: dict | None = None) -> SolveReport:
    """Dispatch one solve through the method table."""
    solve, cfg = configure(method, problem, params)
    return solve(problem, cfg)


@dataclass
class RunManifest:
    suite: str
    rows: list[SuiteRow]

    def __post_init__(self):
        for row in self.rows:
            if row.method not in METHOD_NAMES:
                raise ValueError(f"manifest row references unknown method {row.method!r}")

    def capped_rows(self, cap: int) -> list[tuple[int, SuiteRow]]:
        return [(i, row) for i, row in enumerate(self.rows) if row.source.order <= cap]


@dataclass
class RunRecord:
    index: int
    row: SuiteRow
    iterations: int | None = None
    final_residual: float | None = None
    wall_time_seconds: float | None = None
    termination: str | None = None
    error: str | None = None

    def csv_row(self) -> list:
        return [
            self.row.method,
            self.row.source.order,
            self.iterations if self.iterations is not None else "",
            _fmt(self.final_residual),
            _fmt(self.wall_time_seconds),
            self.row.paper_iterations if self.row.paper_iterations is not None else "",
            _fmt(self.row.paper_error),
        ]


def _fmt(v) -> str:
    return "" if v is None else format(float(v), ".6e")


def manifest_for_suite(suite: str) -> RunManifest:
    return RunManifest(suite=suite, rows=paper_suite(suite))


def row_error(exc: Exception) -> str:
    """A failed row's error text, led by the exception's class name."""
    return f"{type(exc).__name__}: {exc}"


def _execute(index: int, row: SuiteRow) -> RunRecord:
    try:
        problem = row.source.build()
        report = run_method(row.method, problem, row.params)
    except Exception as exc:  # noqa: BLE001 - one bad row must not abort the table
        return RunRecord(index=index, row=row, termination="error", error=row_error(exc))
    return RunRecord(index=index, row=row, **report.summary())


def effective_workers(requested: int | None) -> int:
    """Worker-pool width: the requested count capped by MATRIXOPT_THREADS."""
    width = 1 if requested is None else max(1, requested)
    env = os.environ.get(ENV_THREAD_CAP)
    if env:
        try:
            width = min(width, max(1, int(env)))
        except ValueError:
            pass
    return width


def run_manifest(
    manifest: RunManifest,
    cap: int = DESK_SCALE_MAX_ORDER,
    workers: int | None = None,
) -> list[RunRecord]:
    """Execute every row with order <= cap; failures are recorded per row
    and never abort the run.  Records come back in manifest order."""
    jobs = manifest.capped_rows(cap)
    width = effective_workers(workers)
    if width == 1 or len(jobs) <= 1:
        records = [_execute(i, row) for i, row in jobs]
    else:
        # Both copies are held across the pool, so no row's BLAS thread
        # counts depend on which other rows overlap it.
        with (
            serial_products("numpy"),
            serial_products("scipy"),
            ThreadPoolExecutor(max_workers=width) as pool,
        ):
            records = list(pool.map(lambda job: _execute(*job), jobs))
    return sorted(records, key=lambda rec: rec.index)


def write_csv(records: list[RunRecord], fh: io.TextIOBase | None = None) -> str:
    """Render records as CSV with the pinned column schema."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    text = buffer.getvalue()
    if fh is not None:
        fh.write(text)
    return text


def summary_json(manifest: RunManifest, records: list[RunRecord]) -> dict:
    converged = sum(1 for r in records if r.termination == "converged")
    return {
        "suite": manifest.suite,
        "environment": {"openblas_threads": blas_threads(), "cpu_count": os.cpu_count()},
        "rows_run": len(records),
        "rows_converged": converged,
        "rows_failed": sum(1 for r in records if r.error is not None),
        "records": [
            {
                "algorithm": r.row.method,
                "n": r.row.source.order,
                "params": r.row.params,
                "iterations": r.iterations,
                "final_residual": r.final_residual,
                "wall_time_seconds": r.wall_time_seconds,
                "termination": r.termination,
                "error": r.error,
                "paper_iterations": r.row.paper_iterations,
                "paper_error": r.row.paper_error,
            }
            for r in records
        ],
    }
