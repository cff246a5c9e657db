"""In-memory span tracer that wraps the library's public functions from
outside, and the per-layer metrics derived from its spans.

Each wrapper is installed in the namespace of the *calling* module (for
example ``matrixopt.care_admm.cholesky_solve``), so a kernel call is
attributed to the layer that made it.  A span is (name, parent, start,
end); a span's self time is its duration minus its children's.  Every
wrapped name is put back by :meth:`Tracer.restore`, so untraced timing
runs execute the unmodified library.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from array import array
from collections import defaultdict

import numpy as np

# (calling module, attribute, layer the callee belongs to).  ``bench``
# marks the benchmark itself as the caller.
TARGETS = (
    ("bench", "matrixopt.harness.manifest:run_method", "harness"),
    ("bench", "matrixopt.problems:ProblemSource.build", "problems"),
    ("harness", "matrixopt.harness.manifest:solve_care_admm", "care_admm"),
    ("harness", "matrixopt.harness.manifest:solve_newton_admm", "newton_admm"),
    ("harness", "matrixopt.harness.manifest:solve_lyapunov_admm", "newton_admm"),
    ("harness", "matrixopt.harness.manifest:solve_newton_care", "baselines"),
    ("harness", "matrixopt.harness.manifest:solve_cg", "baselines"),
    ("harness", "matrixopt.harness.manifest:solve_anderson_richardson", "baselines"),
    ("harness", "matrixopt.harness.manifest:solve_lyapunov_direct", "baselines"),
    ("harness", "matrixopt.harness.manifest:solve_quasi_newton", "quasi_newton"),
    ("harness", "matrixopt.harness.manifest:solve_ccom", "ccom"),
    ("harness", "matrixopt.harness.manifest:solve_kronecker_direct", "oracle"),
    ("harness", "matrixopt.harness.manifest:sylvester_residual", "oracle"),
    ("care_admm", "matrixopt.care_admm:admm_step", "care_admm"),
    ("care_admm", "matrixopt.care_admm:kkt_residuals", "care_admm"),
    ("care_admm", "matrixopt.care_admm:lagrangian_value", "care_admm"),
    ("care_admm", "matrixopt.care_admm:care_residual", "baselines"),
    ("care_admm", "matrixopt.care_admm:cholesky_solve", "linalg"),
    ("care_admm", "matrixopt.care_admm:lu_solve", "linalg"),
    ("newton_admm", "matrixopt.newton_admm:solve_lyapunov_admm", "newton_admm"),
    ("newton_admm", "matrixopt.newton_admm:lyapunov_residual", "newton_admm"),
    ("newton_admm", "matrixopt.newton_admm:care_residual", "baselines"),
    ("newton_admm", "matrixopt.newton_admm:spd_factor", "linalg"),
    ("newton_admm", "matrixopt.newton_admm:spd_solve", "linalg"),
    ("baselines", "matrixopt.baselines:solve_lyapunov_direct", "baselines"),
    ("baselines", "matrixopt.baselines:care_residual", "baselines"),
    ("baselines", "matrixopt.baselines:kron", "linalg"),
    ("baselines", "matrixopt.baselines:lu_solve", "linalg"),
    ("oracle", "matrixopt.oracle:sylvester_operator_matrix", "oracle"),
    ("oracle", "matrixopt.oracle:kron", "linalg"),
    ("oracle", "matrixopt.oracle:lu_solve", "linalg"),
    ("ccom", "matrixopt.ccom:sylvester_operator_matrix", "oracle"),
    ("ccom", "matrixopt.ccom:sylvester_residual", "oracle"),
    ("ccom", "matrixopt.ccom:ccom_step", "ccom"),
    ("ccom", "matrixopt.ccom:cholesky_solve", "linalg"),
    ("ccom", "matrixopt.ccom:lu_solve", "linalg"),
    ("quasi_newton", "matrixopt.quasi_newton:f1_gradient", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:f1_value", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:exact_step", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:armijo_search", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:wolfe_search", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:dfp_update", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:bfgs_update", "quasi_newton"),
    ("quasi_newton", "matrixopt.quasi_newton:pseudo_inverse", "linalg"),
    ("quasi_newton", "matrixopt.quasi_newton:sylvester_residual", "oracle"),
)

LAYERS = (
    "bench", "harness", "problems", "care_admm", "newton_admm",
    "baselines", "oracle", "ccom", "quasi_newton", "linalg",
)

ROOT_SPAN = "bench>bench.row"


def _resolve(target: str):
    """``module:attr`` or ``module:Class.attr`` -> (owner, attribute)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def span_name(caller: str, target: str, layer: str) -> str:
    return f"{caller}>{layer}.{target.replace(':', '.').rsplit('.', 1)[-1]}"


class Tracer:
    """Columnar span store plus the call-site wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # Per-span-name observations of returned values: counts a timer
        # cannot see (solver iterations, flops, bytes).
        self.observed: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[str, object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(float("nan"))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str = ROOT_SPAN):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = vars(owner)[attr]
        if getattr(original, "__wrapped__", None) is not None:
            raise RuntimeError(f"{name} is already wrapped")
        sid = self._id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer.observed, name, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((name, owner, attr, original))

    def install(self) -> None:
        for caller, target, layer in TARGETS:
            owner, attr = _resolve(target)
            self.wrap(owner, attr, span_name(caller, target, layer), OBSERVERS.get(attr))

    def restore(self) -> list[str]:
        """Put every wrapped name back; return the span names of any that
        did not come back."""
        installed, self._installed = self._installed, []
        for _, owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        return [name for name, owner, attr, original in installed if vars(owner)[attr] is not original]

    # -- analysis -------------------------------------------------------

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        names, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=self_t, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(selft[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        names, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names, parent=parent, start=start, end=end)


# Calls per timing, and timings of which the best is kept, when measuring
# the cost of one wrapped call.
_COST_CALLS = 20000
_COST_REPEATS = 5


def wrapped_call_cost() -> float:
    """Seconds one traced call adds to a bare call, measured in this
    process: the best of several timings of many calls each."""
    ns = types.SimpleNamespace(f=lambda: None)
    bare = ns.f
    Tracer().wrap(ns, "f", "bench>bench.noop")
    traced = ns.f

    def best(fn):
        times = []
        for _ in range(_COST_REPEATS):
            start = time.perf_counter()
            for _ in range(_COST_CALLS):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, (best(traced) - best(bare)) / _COST_CALLS)


# -- observers: counts read from arguments and returned values ----------


def _observe_report(observed, name, args, report):
    observed[name + ":iterations"] += report.iterations
    observed[name + ":capped"] += report.termination == "max_iterations"
    observed[name + ":curvature_skips"] += report.detail.get("curvature_skips", 0)


def _observe_lu(observed, name, args, result):
    n = np.shape(args[0])[0]
    observed[name + ":gflop"] += 2.0 / 3.0 * n**3 / 1e9


def _observe_kron(observed, name, args, result):
    observed[name + ":mb"] += result.nbytes / 1e6


OBSERVERS = {
    "solve_lyapunov_admm": _observe_report,
    "solve_cg": _observe_report,
    "solve_anderson_richardson": _observe_report,
    "solve_quasi_newton": _observe_report,
    "lu_solve": _observe_lu,
    "kron": _observe_kron,
}


# -- per-layer metrics ----------------------------------------------------


class _View:
    def __init__(self, agg, observed):
        self.agg = agg
        self.observed = observed

    def _match(self, func, caller=None):
        return [
            v for n, v in self.agg.items()
            if n.rsplit(".", 1)[-1] == func and (caller is None or n.split(">", 1)[0] == caller)
        ]

    def calls(self, func, caller=None) -> int:
        return sum(v[0] for v in self._match(func, caller))

    def total(self, func, caller=None) -> float:
        return sum(v[1] for v in self._match(func, caller))

    def self_time(self, func, caller=None) -> float:
        return sum(v[2] for v in self._match(func, caller))

    def obs(self, func, key, caller=None) -> float:
        return sum(
            v for k, v in self.observed.items()
            if k.endswith(":" + key)
            and k.split(":")[0].rsplit(".", 1)[-1] == func
            and (caller is None or k.split(">", 1)[0] == caller)
        )


S, MS, COUNT, GFLOP, MB = "s", "ms", "count", "GFLOP", "MB"


def layer_metrics(agg, observed) -> dict[str, tuple[float, str]]:
    """The per-layer table: timers are summed span durations, self times
    subtract child spans, counts come from call counts or reports."""
    v = _View(agg, observed)
    sweeps = v.calls("admm_step", "care_admm")
    m = {
        "harness.dispatch_self_s": (v.self_time("run_method"), S),
        "problems.build_s": (v.total("build"), S),
        "care_admm.sweeps": (sweeps, COUNT),
        "care_admm.step_s": (v.total("admm_step"), S),
        "care_admm.ms_per_sweep": (1e3 * v.total("solve_care_admm") / sweeps if sweeps else 0.0, MS),
        "care_admm.residual_s": (v.total("care_residual", "care_admm"), S),
        "care_admm.finalize_s": (v.total("kkt_residuals"), S),
        "care_admm.loop_self_s": (v.self_time("solve_care_admm"), S),
        "newton_admm.outer_steps": (v.calls("solve_lyapunov_admm", "newton_admm"), COUNT),
        "newton_admm.inner_sweeps": (v.obs("solve_lyapunov_admm", "iterations", "newton_admm"), COUNT),
        "newton_admm.inner_capped": (v.obs("solve_lyapunov_admm", "capped", "newton_admm"), COUNT),
        "newton_admm.lyap_s": (v.total("solve_lyapunov_admm", "newton_admm"), S),
        "newton_admm.outer_self_s": (v.self_time("solve_newton_admm"), S),
        "baselines.newton_steps": (v.calls("solve_lyapunov_direct", "baselines"), COUNT),
        "baselines.lyap_direct_s": (v.total("solve_lyapunov_direct"), S),
        "baselines.cg_iterations": (v.obs("solve_cg", "iterations"), COUNT),
        "baselines.cg_s": (v.total("solve_cg"), S),
        "baselines.ar_iterations": (v.obs("solve_anderson_richardson", "iterations"), COUNT),
        "baselines.ar_s": (v.total("solve_anderson_richardson"), S),
        "oracle.operator_s": (v.total("sylvester_operator_matrix"), S),
        "oracle.residual_calls": (v.calls("sylvester_residual"), COUNT),
        "oracle.residual_s": (v.total("sylvester_residual"), S),
        "ccom.sweeps": (v.calls("ccom_step"), COUNT),
        "ccom.step_s": (v.total("ccom_step"), S),
        "quasi_newton.iterations": (v.obs("solve_quasi_newton", "iterations"), COUNT),
        "quasi_newton.update_s": (v.total("dfp_update") + v.total("bfgs_update"), S),
        "quasi_newton.linesearch_s": (
            v.total("exact_step") + v.total("armijo_search") + v.total("wolfe_search"), S),
        "quasi_newton.gradient_s": (v.total("f1_gradient", "quasi_newton"), S),
        "quasi_newton.curvature_skips": (v.obs("solve_quasi_newton", "curvature_skips"), COUNT),
        "linalg.cholesky.calls": (v.calls("cholesky_solve"), COUNT),
        "linalg.cholesky.s": (v.total("cholesky_solve"), S),
        "linalg.spd_factor.calls": (v.calls("spd_factor"), COUNT),
        "linalg.spd_factor.s": (v.total("spd_factor"), S),
        "linalg.spd_solve.calls": (v.calls("spd_solve"), COUNT),
        "linalg.spd_solve.s": (v.total("spd_solve"), S),
        "linalg.lu.calls": (v.calls("lu_solve"), COUNT),
        "linalg.lu.s": (v.total("lu_solve"), S),
        "linalg.lu.gflop": (v.obs("lu_solve", "gflop"), GFLOP),
        "linalg.kron.calls": (v.calls("kron"), COUNT),
        "linalg.kron.s": (v.total("kron"), S),
        "linalg.kron.mb": (v.obs("kron", "mb"), MB),
        "linalg.pinv.calls": (v.calls("pseudo_inverse"), COUNT),
        "linalg.pinv.s": (v.total("pseudo_inverse"), S),
    }
    return {k: (float(val), unit) for k, (val, unit) in m.items()}


def self_by_layer(agg) -> dict[str, float]:
    """Self time of the traced pass by the layer whose code ran.  The
    values sum to the pass wall time (root spans are ``bench``)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, selft) in agg.items():
        if not name.startswith("bench>problems."):
            out[name.split(">", 1)[1].split(".", 1)[0]] += selft
    return out
