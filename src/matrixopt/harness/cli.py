"""Command-line interface: ``solve``, ``bench``, ``sweep``, ``plot``.

Exit codes: 0 converged / success, 1 usage error, 2 solver stopped short
(iteration cap, stagnation, divergence), 3 solver error.

Solver parameters can come from an INI config file (one section per
method, keys identical to the long flags) with command-line flags taking
precedence.  The parameter keys, their types and the methods that take
each one are read off the method table and its config dataclasses.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import sys
import typing

import numpy as np

from ..errors import MatrixOptError, ParameterError, PreconditionError, UnknownSuiteError
from ..mmio import read_matrix_market, write_matrix_market
from ..problems import (
    DESK_SCALE_MAX_ORDER,
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    paper_suite,
    table_source,
)
from ..quasi_newton import LINESEARCHES
from .manifest import (
    METHODS,
    configure,
    row_error,
    run_manifest,
    run_method,
    summary_json,
    write_csv,
)
from .plotting import emit_convergence_plot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_SOLVER_ERROR = 3

# Config fields whose values come from a fixed vocabulary.
_CHOICES = {"linesearch": LINESEARCHES}

# Equation -> problem class and the matrix fields its --from-mm files
# fill, in order.
_EQUATIONS = {
    "sylvester": (SylvesterProblem, ("a", "b", "c")),
    "lyapunov": (LyapunovProblem, ("a", "q")),
    "care": (CareProblem, ("a", "n_mat", "k_mat")),
}

# The penalty axes a sweep may span, in CSV column order.
_PENALTIES = ("alpha", "beta", "gamma")

# Numeric flags with a range: flag -> (test, what the flag must be).
_RANGES = {
    "random": (lambda v: v > 0, "positive"),
    "seed": (lambda v: v >= 0, "non-negative"),
    "tolerance": (lambda v: 0 < v < math.inf, "finite and positive"),
}


def _file_names(fields) -> str:
    """The --from-mm file names of matrix ``fields``, e.g. ``A N K``."""
    return " ".join(name[0].upper() for name in fields)


def _param_table() -> dict[str, tuple]:
    """Parameter key -> (type, choices, methods taking it), sorted by key."""
    table: dict[str, tuple] = {}
    for (method, _), spec in METHODS.items():
        hints = typing.get_type_hints(spec.config) if spec.config else {}
        for key, name in spec.keys.items():
            _, _, methods = table.setdefault(key, (hints[name], _CHOICES.get(name), {}))
            methods[method] = None
    return {key: table[key] for key in sorted(table)}


_PARAMS = _param_table()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="matrixopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver on one problem")
    solve.add_argument("equation", choices=tuple(_EQUATIONS))
    solve.add_argument("--method", required=True)
    solve.add_argument("--suite", "--gen", dest="suite", help="problem family t1..t10")
    solve.add_argument("--n", type=int, help="problem order for generator families")
    inputs = "; ".join(f"{eq}: {_file_names(fields)}" for eq, (_, fields) in _EQUATIONS.items())
    solve.add_argument(
        "--from-mm", nargs="+", metavar="PATH", help=f"MatrixMarket inputs ({inputs})"
    )
    solve.add_argument("--config", help="INI config file (sections per method)")
    solve.add_argument("--out", help="write the JSON report here instead of stdout")
    solve.add_argument("--to-mm", help="write the solution matrix to this MatrixMarket file")
    solve.add_argument("--history", action="store_true", help="include residual history in the report")
    for key, (kind, choices, methods) in _PARAMS.items():
        flags = ["--" + key.replace("_", "-")] + (["--max-iter"] if key == "max_iterations" else [])
        solve.add_argument(
            *flags, dest=key, type=kind, choices=choices, help=f"taken by {', '.join(methods)}"
        )

    bench = sub.add_parser("bench", help="run a reference-table suite")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--cap", type=int, default=DESK_SCALE_MAX_ORDER, help="largest order to run (default %(default)s)")
    bench.add_argument("--out", help="CSV output path (default stdout)")
    bench.add_argument("--json", dest="json_out", help="JSON summary output path")

    sweep = sub.add_parser("sweep", help="penalty-parameter sweep")
    sweep.add_argument("--suite", required=True)
    sweep.add_argument("--n", type=int, required=True)
    swept = [m for (m, kind), s in METHODS.items() if kind is CareProblem and "alpha" in s.keys]
    sweep.add_argument("--method", default="admm", choices=swept)
    sweep.add_argument("--alpha", required=True, metavar="LO:HI:K or V")
    sweep.add_argument("--beta", required=True, metavar="LO:HI:K or V")
    sweep.add_argument("--gamma", metavar="LO:HI:K or V")
    sweep.add_argument("--random", type=int, metavar="R", help="sample R log-uniform points instead of the grid")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--tol", type=float)
    sweep.add_argument("--max-iterations", type=int, dest="max_iterations")
    sweep.add_argument("--out", help="CSV output path (default stdout)")

    plot = sub.add_parser("plot", help="render a convergence SVG from a JSON report")
    plot.add_argument("--report", required=True, help="JSON report produced by solve --history")
    plot.add_argument("--out", required=True)
    plot.add_argument("--tolerance", type=float)

    return parser


def _params_from_config(path: str | None, method: str, parser: _Parser) -> dict:
    if not path:
        return {}
    cfg = configparser.ConfigParser()
    try:
        if not cfg.read(path):
            parser.error(f"config file {path!r} not found")
        items = list(cfg[method].items()) if method in cfg else []
    except configparser.Error as exc:
        parser.error(f"config file {path!r} does not parse: {str(exc).splitlines()[0]}")
    params = {}
    for key, raw in items:
        key = key.replace("-", "_")
        if key not in _PARAMS:
            parser.error(f"config key {key!r} in section [{method}] is not recognized")
        try:
            params[key] = _PARAMS[key][0](raw)
        except ValueError:
            parser.error(f"config key {key!r} has invalid value {raw!r}")
    return params


def _collect_params(args, parser: _Parser) -> dict:
    params = _params_from_config(getattr(args, "config", None), args.method, parser)
    for key in _PARAMS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _build_problem(args, parser: _Parser):
    eq = args.equation
    kind, fields = _EQUATIONS[eq]
    if args.from_mm:
        if args.suite:
            parser.error("--suite and --from-mm each name the problem; give one of them")
        try:
            mats = [read_matrix_market(path) for path in args.from_mm]
            if len(mats) != len(fields):
                count = {2: "two", 3: "three"}[len(fields)]
                parser.error(f"{eq} --from-mm needs {count} files: {_file_names(fields)}")
            return kind(**dict(zip(fields, mats)))
        except (ValueError, MatrixOptError) as exc:
            parser.error(f"invalid problem data: {exc}")
    if not args.suite:
        parser.error("either --suite/--gen or --from-mm is required")
    if eq == "lyapunov":
        parser.error("lyapunov problems come from --from-mm files")
    return _suite_problem(args.suite, args.n, eq, parser)


def _suite_problem(suite: str, n: int | None, eq: str, parser: _Parser):
    """The problem of table ``suite`` at order ``n``, which must be an
    ``eq`` problem; anything else is a usage error."""
    try:
        source = table_source(suite, n or 0)
    except UnknownSuiteError as exc:
        parser.error(str(exc))
    except ValueError:
        parser.error("--n must be a positive order with a generator suite")
    problem = source.build()
    if not isinstance(problem, _EQUATIONS[eq][0]):
        parser.error(f"suite {suite!r} is not a {eq} problem")
    return problem


def _json_safe(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, (np.integer, np.floating)):
        return _json_safe(value.item())
    if isinstance(value, dict):
        safe = {str(k): _json_safe(v) for k, v in value.items()}
        return {k: v for k, v in safe.items() if v is not _DROP}
    if isinstance(value, (list, tuple)):
        items = [_json_safe(v) for v in value]
        return [v for v in items if v is not _DROP]
    return _DROP


_DROP = object()


def _report_json(args, problem, params, report) -> dict:
    problem_desc = {
        "equation": args.equation,
        "suite": args.suite,
        "n": None if args.from_mm else problem.a.shape[0],
        "files": list(args.from_mm) if args.from_mm else None,
    }
    payload = {
        "method": args.method,
        "problem": problem_desc,
        "config": params,
        **report.summary(),
        "detail": report.detail,
    }
    if args.history:
        payload["residual_history"] = [float(v) for v in report.residual_history]
    return payload


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(payload: dict, path: str | None) -> None:
    """Write ``payload`` as strict JSON, a non-finite float as its repr string."""
    _write(json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n", path)


def _cmd_solve(args, parser: _Parser) -> int:
    params = _collect_params(args, parser)
    problem = _build_problem(args, parser)
    configure(args.method, problem, params)
    try:
        report = run_method(args.method, problem, params)
    except ParameterError:  # a negative iteration cap, which the driver rejects
        raise
    except MatrixOptError as exc:
        failure = {"method": args.method, "error": row_error(exc), "termination": "error"}
        _write_json(failure, args.out)
        return EXIT_SOLVER_ERROR
    _write_json(_report_json(args, problem, params, report), args.out)
    if args.to_mm:
        try:
            write_matrix_market(args.to_mm, report.solution)
        except ValueError as exc:  # a non-finite answer has no MatrixMarket form
            print(f"matrixopt: {args.to_mm} not written: solution {exc}", file=sys.stderr)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_bench(args, parser: _Parser) -> int:
    try:
        rows = paper_suite(args.suite)
    except MatrixOptError as exc:
        parser.error(str(exc))
    if all(row.source.order > args.cap for row in rows):
        raise ParameterError(f"--cap {args.cap} is below every order of suite {args.suite}")
    records = run_manifest(rows, cap=args.cap)
    _write(write_csv(records), args.out)
    if args.json_out:
        _write_json(summary_json(args.suite, records), args.json_out)
    if all(rec.termination == "converged" for rec in records):
        return EXIT_OK
    return EXIT_NOT_CONVERGED


def _parse_axis(spec: str, name: str, parser: _Parser) -> tuple[float, float, int]:
    """``LO:HI:K`` as ``(lo, hi, k)``, and a fixed ``V`` as ``(V, V, 1)``."""
    parts = spec.split(":")
    try:
        lo, hi, k = [spec, spec, "1"] if len(parts) == 1 else parts
        lo, hi, k = float(lo), float(hi), int(k)
        if k >= 1 and 0 < lo <= hi < np.inf:
            return lo, hi, k
    except ValueError:
        pass
    parser.error(f"--{name} must be a finite 'value' > 0 or 'lo:hi:count' with 0 < lo <= hi")


def _cmd_sweep(args, parser: _Parser) -> int:
    keys = METHODS[(args.method, CareProblem)].keys
    penalties = [name for name in _PENALTIES if name in keys]
    for name in _PENALTIES:
        given = getattr(args, name) is not None
        if name in keys and not given:
            parser.error(f"--{name} is required for {args.method} sweeps")
        if given and name not in keys:
            parser.error(f"{args.method} sweeps take no --{name}")
    axes = [_parse_axis(getattr(args, name), name, parser) for name in penalties]

    if args.random:
        # log-uniform draws on each ranged axis; a fixed axis takes none
        rng = np.random.default_rng(args.seed)
        points = [
            tuple(lo if lo == hi else float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                  for lo, hi, _ in axes)
            for _ in range(args.random)
        ]
    else:
        points = list(itertools.product(*(np.geomspace(lo, hi, k).tolist() for lo, hi, k in axes)))

    problem = _suite_problem(args.suite, args.n, "care", parser)

    # newton-admm has no max_iterations; a sweep bounds its inner cap
    cap_key = "max_iterations" if "max_iterations" in keys else "inner_max"
    fixed = {"tol": args.tol, cap_key: args.max_iterations}
    fixed = {key: value for key, value in fixed.items() if value is not None}
    rows = []
    best = None
    for point in points:
        row = dict(zip(penalties, point))
        try:
            report = run_method(args.method, problem, {**row, **fixed})
        except ParameterError:
            raise
        except Exception as exc:  # noqa: BLE001 - one bad point must not abort the sweep
            row["termination"] = f"error: {row_error(exc)}"
        else:
            row.update(
                iterations=report.iterations,
                final_residual=report.final_residual,
                termination=report.termination,
            )
            if report.converged and (best is None or report.iterations < best["iterations"]):
                best = row
        rows.append(row)

    columns = (*_PENALTIES, "iterations", "final_residual", "termination")
    lines = [",".join((*columns, "best"))]
    for row in rows:
        lines.append(",".join([*(str(row.get(c, "")) for c in columns), "*" if row is best else ""]))
    _write("\n".join(lines) + "\n", args.out)
    print(json.dumps({"best": _json_safe(best)}), file=sys.stderr)
    return EXIT_OK if best is not None else EXIT_NOT_CONVERGED


def _cmd_plot(args, parser: _Parser) -> int:
    path = args.report
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            parser.error(f"report {path!r} is not JSON: {exc}")
    if not isinstance(payload, dict):
        parser.error(f"report {path!r} is not a JSON object")
    history = payload.get("residual_history")
    if not history:
        parser.error("report has no residual_history; rerun solve with --history")
    tolerance = args.tolerance
    if tolerance is None and isinstance(payload.get("config"), dict):
        tolerance = payload["config"].get("tol")
    if not isinstance(history, list) or not all(
        isinstance(v, (int, float)) or v in ("inf", "-inf", "nan") for v in history
    ) or not (isinstance(tolerance or 0.0, (int, float)) and math.isfinite(tolerance or 0.0)):
        parser.error(f"report {path!r} holds a residual or tolerance that is not a number")
    if not any(isinstance(v, (int, float)) and math.isfinite(v) for v in history):
        parser.error(f"report {path!r} holds no finite residual to plot")
    emit_convergence_plot(payload, args.out, tolerance=tolerance)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, (ok, what) in _RANGES.items():
            value = getattr(args, flag, None)
            if value is not None and not ok(value):
                raise ParameterError(f"--{flag} must be {what}")
        if args.command == "solve":
            return _cmd_solve(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        return _cmd_plot(args, parser)
    except PreconditionError as exc:  # raised before any solver ran
        parser.exit(EXIT_USAGE, f"matrixopt: error: {exc}\n")
    except MatrixOptError as exc:
        print(f"matrixopt: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except OSError as exc:
        print(f"matrixopt: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
