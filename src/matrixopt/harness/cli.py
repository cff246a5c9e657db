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
import sys
import typing

import numpy as np

from ..errors import MatrixOptError, ParameterError, UnknownSuiteError
from ..mmio import read_matrix_market, write_matrix_market
from ..newton_admm import INNER_TOL_MODES
from ..problems import (
    DESK_SCALE_MAX_ORDER,
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    table_source,
)
from ..quasi_newton import LINESEARCHES
from .manifest import (
    METHOD_NAMES,
    METHODS,
    manifest_for_suite,
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
_CHOICES = {"linesearch": LINESEARCHES, "inner_tol_mode": INNER_TOL_MODES}


def _number_or_word(raw: str):
    """A ``float | str`` field: a number, or a word such as ``auto``."""
    try:
        return float(raw)
    except ValueError:
        return raw


def _param_table() -> dict[str, tuple]:
    """Parameter key -> (type, choices, methods taking it), sorted by key."""
    table: dict[str, tuple] = {}
    for (method, _), spec in METHODS.items():
        hints = typing.get_type_hints(spec.config) if spec.config else {}
        for key, name in spec.keys.items():
            hint = hints[name]
            kind = hint if hint in (int, float, str) else _number_or_word
            _, _, methods = table.setdefault(key, (kind, _CHOICES.get(name), {}))
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
    solve.add_argument("equation", choices=("sylvester", "lyapunov", "care"))
    solve.add_argument("--method", required=True)
    solve.add_argument("--suite", "--gen", dest="suite", help="problem family t1..t10")
    solve.add_argument("--n", type=int, help="problem order for generator families")
    solve.add_argument(
        "--from-mm",
        nargs="+",
        metavar="PATH",
        help="MatrixMarket inputs (sylvester: A B C; lyapunov: A Q; care: A N K)",
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
    bench.add_argument("--workers", type=int, default=1)

    sweep = sub.add_parser("sweep", help="penalty-parameter sweep")
    sweep.add_argument("--suite", required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--method", default="admm", choices=("admm", "newton-admm"))
    sweep.add_argument("--alpha", required=True, metavar="LO:HI:K or V")
    sweep.add_argument("--beta", required=True, metavar="LO:HI:K or V")
    sweep.add_argument("--gamma", metavar="LO:HI:K or V")
    sweep.add_argument("--budget", type=int, help="max points to evaluate")
    sweep.add_argument("--random", type=int, metavar="R", help="sample R random points instead of the grid")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--spacing", choices=("log", "linear"), default="log")
    sweep.add_argument("--tol", type=float, default=1e-8)
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
    read = cfg.read(path)
    if not read:
        parser.error(f"config file {path!r} not found")
    if method not in cfg:
        return {}
    params = {}
    for key, raw in cfg[method].items():
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
    if args.from_mm:
        mats = [read_matrix_market(path) for path in args.from_mm]
        try:
            if eq == "sylvester":
                if len(mats) != 3:
                    parser.error("sylvester --from-mm needs three files: A B C")
                return SylvesterProblem(a=mats[0], b=mats[1], c=mats[2])
            if eq == "lyapunov":
                if len(mats) != 2:
                    parser.error("lyapunov --from-mm needs two files: A Q")
                return LyapunovProblem(a=mats[0], q=mats[1])
            if len(mats) != 3:
                parser.error("care --from-mm needs three files: A N K")
            return CareProblem(a=mats[0], n_mat=mats[1], k_mat=mats[2])
        except (ValueError, MatrixOptError) as exc:
            parser.error(f"invalid problem data: {exc}")
    if not args.suite:
        parser.error("either --suite/--gen or --from-mm is required")
    if eq == "lyapunov":
        parser.error("lyapunov problems come from --from-mm files")
    return _suite_problem(args.suite, args.n, eq, parser)


_SUITE_EQUATIONS = {"sylvester": SylvesterProblem, "care": CareProblem}


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
    if not isinstance(problem, _SUITE_EQUATIONS[eq]):
        parser.error(f"suite {suite!r} is not a {eq} problem")
    return problem


def _json_safe(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _json_safe(float(value))
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            safe = _json_safe(v)
            if safe is not _DROP:
                out[str(k)] = safe
        return out
    if isinstance(value, (list, tuple)):
        items = [_json_safe(v) for v in value]
        return [v for v in items if v is not _DROP]
    return _DROP


_DROP = object()


def _report_json(args, method, params, report, include_history: bool) -> dict:
    problem_desc = {
        "equation": args.equation,
        "suite": args.suite,
        "n": args.n,
        "files": list(args.from_mm) if args.from_mm else None,
    }
    payload = {
        "method": method,
        "problem": problem_desc,
        "config": _json_safe(params),
        **report.summary(),
        "detail": _json_safe(report.detail),
    }
    if include_history:
        payload["residual_history"] = [float(v) for v in report.residual_history]
    return payload


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_solve(args, parser: _Parser) -> int:
    if args.method not in METHOD_NAMES:
        parser.error(f"unknown method {args.method!r}; expected one of {', '.join(METHOD_NAMES)}")
    params = _collect_params(args, parser)
    problem = _build_problem(args, parser)
    try:
        report = run_method(args.method, problem, params)
    except ParameterError:
        raise
    except MatrixOptError as exc:
        _emit({"method": args.method, "error": str(exc), "termination": "error"}, args.out)
        return EXIT_SOLVER_ERROR
    _emit(_report_json(args, args.method, params, report, args.history), args.out)
    if args.to_mm:
        write_matrix_market(args.to_mm, report.solution)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_bench(args, parser: _Parser) -> int:
    try:
        manifest = manifest_for_suite(args.suite)
    except MatrixOptError as exc:
        parser.error(str(exc))
    records = run_manifest(manifest, cap=args.cap, workers=args.workers)
    csv_text = write_csv(records)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json_out:
        with open(args.json_out, "w", encoding="ascii") as fh:
            json.dump(summary_json(manifest, records), fh, indent=2)
            fh.write("\n")
    if any(rec.error is not None for rec in records):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _parse_axis(spec: str, name: str, spacing: str, parser: _Parser) -> list[float]:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            value = float(parts[0])
            if not value > 0:
                raise ValueError
            return [value]
        if len(parts) == 3:
            lo, hi, k = float(parts[0]), float(parts[1]), int(parts[2])
            if k < 1 or lo <= 0 or hi < lo:
                raise ValueError
            if k == 1:
                return [lo]
            if spacing == "log":
                return list(np.geomspace(lo, hi, k))
            return list(np.linspace(lo, hi, k))
    except ValueError:
        pass
    parser.error(f"--{name} must be 'value' > 0 or 'lo:hi:count' with 0 < lo <= hi")


def _cmd_sweep(args, parser: _Parser) -> int:
    if args.budget is not None and args.budget <= 0:
        parser.error("--budget must be positive")
    if args.method == "admm" and args.gamma is None:
        parser.error("--gamma is required for admm sweeps")
    axes = [
        _parse_axis(args.alpha, "alpha", args.spacing, parser),
        _parse_axis(args.beta, "beta", args.spacing, parser),
    ]
    if args.method == "admm":
        axes.append(_parse_axis(args.gamma, "gamma", args.spacing, parser))

    if args.random:
        rng = np.random.default_rng(args.seed)
        bounds = [(min(axis), max(axis)) for axis in axes]
        points = [
            tuple(
                float(np.exp(rng.uniform(np.log(lo), np.log(hi)))) if args.spacing == "log"
                else float(rng.uniform(lo, hi))
                for lo, hi in bounds
            )
            for _ in range(args.random)
        ]
    else:
        points = [tuple(p) for p in itertools.product(*axes)]
    if args.budget is not None:
        points = points[: args.budget]
    if not points:
        parser.error("sweep grid is empty")

    problem = _suite_problem(args.suite, args.n, "care", parser)

    rows = []
    best = None
    for point in points:
        params = {"alpha": point[0], "beta": point[1], "tol": args.tol}
        if args.method == "admm":
            params["gamma"] = point[2]
        if args.max_iterations:
            params["max_iterations" if args.method == "admm" else "inner_max"] = args.max_iterations
        row = {
            "alpha": point[0],
            "beta": point[1],
            "gamma": point[2] if args.method == "admm" else "",
        }
        try:
            report = run_method(args.method, problem, params)
        except ParameterError:
            raise
        except Exception as exc:  # noqa: BLE001 - one bad point must not abort the sweep
            row.update(iterations="", final_residual="", termination=f"error: {row_error(exc)}")
        else:
            row.update(
                iterations=report.iterations,
                final_residual=report.final_residual,
                termination=report.termination,
            )
            if report.converged and (best is None or report.iterations < best["iterations"]):
                best = row
        rows.append(row)

    lines = ["alpha,beta,gamma,iterations,final_residual,termination,best"]
    for row in rows:
        mark = "*" if best is not None and row is best else ""
        lines.append(
            f"{row['alpha']},{row['beta']},{row['gamma']},{row['iterations']},"
            f"{row['final_residual']},{row['termination']},{mark}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(json.dumps({"best": _json_safe(best)}), file=sys.stderr)
    return EXIT_OK if best is not None else EXIT_NOT_CONVERGED


def _cmd_plot(args, parser: _Parser) -> int:
    with open(args.report, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    if not payload.get("residual_history"):
        parser.error("report has no residual_history; rerun solve with --history")
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = (payload.get("config") or {}).get("tol")
    emit_convergence_plot(payload, args.out, tolerance=tolerance)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        return _cmd_plot(args, parser)
    except ParameterError as exc:
        parser.exit(EXIT_USAGE, f"matrixopt: error: {exc}\n")
    except MatrixOptError as exc:
        print(f"matrixopt: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except OSError as exc:
        print(f"matrixopt: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
