"""matrixopt benchmark: paper-table workloads, certified answers, traced
per-layer timings.

    python3 perfbench/run.py --workload care-admm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; the library is imported from ``src/``.
Each workload runs in fresh processes started without the BLAS and
worker thread variables, so the library's default threading applies.

``--trace 0`` times passes over the workload's rows for ``--seconds``
(at least one pass) and reports the end-to-end metrics: ``wall_s`` (sum
over rows of the per-row median solve time), ``iterations``, ``setup_s``
(process start until imports are done and problems are built; median of
five processes) and ``peak_rss_mb``.  ``--trace 1`` runs one traced pass in
a fresh process at default threading, and one in a process whose
OpenBLAS copies run one thread (metrics prefixed ``st.``), and reports
the per-layer metrics.  Spans and the environment fingerprint are
written to ``perfbench/out/``; the fingerprint also goes to standard
error.  The kron-direct rows over the Kronecker size cap run outside
the timed pass and outside ``attempted``/``failed``; their time and
failures are the ``rows.probe_s`` and ``rows.probes_failed`` metrics.
Every answer is certified against an independent scipy reference
outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Anything that keeps the
benchmark from producing a result exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A one-workload run, children included, ends within this many seconds
# (``--workload all`` gives each workload this budget in turn).
RUN_BUDGET_S = 175.0
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "iterations": "count", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Child side: one workload in one process
# ---------------------------------------------------------------------------


def _import_library():
    src = ROOT / "src"
    if not (src / "matrixopt" / "__init__.py").is_file():
        raise BenchError(f"no library sources under {src}")
    sys.path.insert(0, str(src))
    import matrixopt

    if not Path(matrixopt.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"matrixopt imported from {matrixopt.__file__}, not {src}")


def _child(args) -> dict | None:
    _import_library()
    import workloads as wl_mod

    if args.workload not in wl_mod.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    workload = wl_mod.WORKLOADS[args.workload]
    problems = wl_mod.build_problems(workload.rows)
    print("READY", flush=True)
    if args.child == "setup":
        return None

    certifier = wl_mod.Certifier()
    first = []

    def keep(brow, problem, report):
        if not first:
            first.append((brow, problem, report.solution))

    result: dict = {}
    if args.child == "time":
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(wl_mod.run_pass(workload.rows, problems, certifier, keep=keep))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    else:
        passes, result["metrics"] = _traced(args, wl_mod, workload, problems, certifier, keep)
    result["passes"] = passes

    if not args.single_thread:
        result["probes"] = wl_mod.run_pass(workload.probes, wl_mod.build_problems(workload.probes), certifier)
    result["negative_control"] = bool(first) and wl_mod.negative_control(certifier, *first[0], args.seed)
    return _child_report(wl_mod, workload, result)


def _traced(args, wl_mod, workload, problems, certifier, keep):
    import tracing
    from fingerprint import fingerprint

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_problems = wl_mod.build_problems(workload.rows)
        traced = wl_mod.run_pass(workload.rows, traced_problems, certifier, span=tracer.span, keep=keep)
    finally:
        unrestored = tracer.restore()
    if unrestored:
        raise BenchError(f"wrapped names not restored: {unrestored}")

    agg = tracer.aggregate()
    metrics = tracing.layer_metrics(agg, tracer.observed)
    for layer, seconds in tracing.self_by_layer(agg).items():
        metrics[f"self.{layer}_s"] = (seconds, "s")
    metrics["trace.pass_s"] = (agg.get(tracing.ROOT_SPAN, (0, 0.0, 0.0))[1], "s")
    # Spans times the measured cost of one wrapped call.  The difference of
    # a traced and an untraced pass would drown this in host-speed drift.
    metrics["trace.overhead_s"] = (len(tracer.start) * tracing.wrapped_call_cost(), "s")
    certs = [r.cert for r in traced if r.cert is not None]
    metrics["care.stabilizing"] = (float(sum(bool(c.stabilizing) for c in certs)), "count")
    metrics["cert.max_rel_err"] = (max((c.rel_err for c in certs), default=0.0), "ratio")
    fp = fingerprint(ROOT)
    print("fingerprint " + json.dumps(fp), file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-{'st' if args.single_thread else 'default'}"
    tracer.save(stem.with_suffix(".spans.npz"))
    stem.with_suffix(".json").write_text(json.dumps({
        "fingerprint": fp,
        "spans": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(agg.items())},
    }, indent=1))
    return [traced], metrics


def _child_report(wl_mod, workload, result) -> dict:
    passes = result["passes"]
    probes = result.get("probes", [])
    # One result per distinct row: the last pass, then the probes.
    distinct = passes[-1] + probes
    out = {
        **wl_mod.summarize(passes),
        "passes": len(passes),
        "negative_control": result["negative_control"],
        "rows": [wl_mod.row_record(b, r) for b, r in zip(workload.rows, passes[-1])],
        "probes": [wl_mod.row_record(b, r) for b, r in zip(workload.probes, probes)],
        "failed_frac": wl_mod.failed_frac(distinct),
        "capacity_errors": sum(wl_mod.error_class(r) == "CapacityError" for r in distinct),
    }
    if "peak_rss_mb" in result:
        out["peak_rss_mb"] = result["peak_rss_mb"]
    if "metrics" in result:
        m = result["metrics"]
        m["rows.failed_frac"] = (out["failed_frac"], "ratio")
        m["rows.capacity_errors"] = (float(out["capacity_errors"]), "count")
        # The probe rows stay out of the timed pass and of attempted/failed;
        # their time and failures show here, so a fix for them is visible.
        m["rows.probe_s"] = (sum(r.seconds for r in probes), "s")
        m["rows.probes_failed"] = (float(sum(r.failed for r in probes)), "count")
        out["metrics"] = m
    return out


# ---------------------------------------------------------------------------
# Parent side: clean environment, child processes, the result line
# ---------------------------------------------------------------------------


def _clean_env(single_thread: bool = False) -> dict:
    from fingerprint import THREAD_VARS

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _spawn(args, child: str, deadline: float, env: dict, extra=()) -> tuple[float, dict | None]:
    """Run one child; return (seconds from start to READY, its result)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", child,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_line.strip() != "READY":
        raise BenchError(f"{child} process for {args.workload} failed (exit {proc.returncode})")
    if child == "setup":
        return ready, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{child} process for {args.workload} printed no result")
    return ready, json.loads(lines[-1][len("RESULT "):])


def _end_to_end(args, deadline) -> dict:
    env = _clean_env()
    setups = [_spawn(args, "setup", deadline, env)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, res = _spawn(args, "time", deadline, env)
    setups.append(ready)
    res["metrics"] = {
        "wall_s": res["wall_s"],
        "iterations": res["iterations"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res


def _per_layer(args, deadline) -> dict:
    _, res = _spawn(args, "trace", deadline, _clean_env())
    _, st = _spawn(args, "trace", deadline, _clean_env(single_thread=True), ["--single-thread"])
    metrics = res["metrics"]
    for name, (value, unit) in st["metrics"].items():
        if unit in ("s", "ms") and name not in ("trace.overhead_s", "rows.probe_s"):
            metrics["st." + name] = (value, unit)
    res["metrics"] = metrics
    res["attempted"] += st["attempted"]
    res["failed"] += st["failed"]
    res["cert_failures"] += st["cert_failures"]
    res["negative_control"] = res["negative_control"] and st["negative_control"]
    return res


def _result_line(res: dict) -> dict:
    metrics = {}
    for name, value in res["metrics"].items():
        if isinstance(value, list | tuple):
            value, unit = value
        else:
            unit = END_TO_END_UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": res["cert_failures"] == 0 and res["negative_control"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _describe(res: dict, out=sys.stderr) -> None:
    for rec in res["rows"] + res["probes"]:
        rel = "-" if rec["rel_err"] is None else f"{rec['rel_err']:.1e}"
        print(
            f"  {rec['row']:<28} {rec['seconds']:8.3f}s iters={rec['iterations']!s:<6} "
            f"paper={rec['paper_iterations']!s:<6} {rec['termination']:<10} rel_err={rel:<8} "
            f"{rec['error_class'] or ''}",
            file=out,
        )
    print(f"  passes={res['passes']} attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac(rows+probes)={res['failed_frac']:.3g} negative_control={res['negative_control']}", file=out)
    for name, m in _result_line(res)["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}", file=out)


def _run_all(args) -> dict:
    """Every workload's end-to-end run, one table, one combined result."""
    _import_library()
    from workloads import WORKLOADS

    combined = {"metrics": {}, "attempted": 0, "failed": 0, "cert_failures": 0, "negative_control": True}
    table, records = [], {}
    for name in WORKLOADS:
        wargs = argparse.Namespace(**{**vars(args), "workload": name})
        res = _end_to_end(wargs, time.monotonic() + RUN_BUDGET_S)
        print(name, file=sys.stderr)
        _describe(res)
        records[name] = res["rows"] + res["probes"]
        for key in ("attempted", "failed", "cert_failures"):
            combined[key] += res[key]
        combined["negative_control"] &= res["negative_control"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = (value, END_TO_END_UNITS[metric])
        m = res["metrics"]
        table.append(f"{name:<18} {m['wall_s']:>9.3f} {m['iterations']:>10.0f} {res['failed_frac']:>11.3f} "
                     f"{m['setup_s']:>9.3f} {m['peak_rss_mb']:>11.1f}")
    OUT.mkdir(exist_ok=True)
    (OUT / "rows.json").write_text(json.dumps(records, indent=1))
    print(f"{'workload':<18} {'wall_s[s]':>9} {'iters[n]':>10} {'failed_frac':>11} "
          f"{'setup_s[s]':>9} {'peak_rss[MB]':>11}", file=sys.stderr)
    print("\n".join(table), file=sys.stderr)
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "time", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--single-thread", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.child:
            res = _child(args)
            if res is not None:
                print("RESULT " + json.dumps(res), flush=True)
            return 0
        if not (ROOT / "src" / "matrixopt" / "__init__.py").is_file():
            raise BenchError(f"no library sources under {ROOT / 'src'}")
        # Turn SIGTERM into an exit that runs the cleanup in _spawn, so a
        # terminated run leaves no workload process behind.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        if args.workload == "all":
            res = _run_all(args)
        else:
            deadline = time.monotonic() + RUN_BUDGET_S
            res = _per_layer(args, deadline) if args.trace else _end_to_end(args, deadline)
            print(f"{args.workload} (seed {args.seed}, trace {args.trace})", file=sys.stderr)
            _describe(res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_result_line(res)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
