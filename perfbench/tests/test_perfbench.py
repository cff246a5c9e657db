"""Self-tests of the benchmark: tracing leaves the library untouched,
certification rejects wrong answers, failing rows are counted without
aborting a pass, and the seed iteration totals reproduce exactly.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing
import workloads
from workloads import BenchRow, Certifier, build_problems, run_pass, summarize


def _rows(suite, method, order):
    return workloads._select(suite, (method,), (order,))


# Small rows that reach every wrapped layer.
SMALL = (
    _rows("t8", "admm", 16)
    + _rows("t9", "newton-admm", 16)
    + _rows("t8", "newton", 16)
    + _rows("t1", "ccom", 10)
    + _rows("t6", "dfp", 128)
    + _rows("t6", "bfgs", 128)
    + _rows("t6", "cg", 128)
    + _rows("t6", "ar", 128)
)


def _targets():
    out = {}
    for _, target, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(target)
        out[target] = vars(owner)[attr]
    return out


def test_traced_pass_restores_every_wrapped_name_and_accounts_for_wall():
    before = _targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(_targets()[t] is not before[t] for t in before)
        result = run_pass(SMALL, build_problems(SMALL), Certifier(), span=tracer.span)
    finally:
        unrestored = tracer.restore()
    assert unrestored == []
    after = _targets()
    assert all(after[t] is before[t] for t in before)

    assert not any(r.failed for r in result)
    agg = tracer.aggregate()
    pass_s = agg[tracing.ROOT_SPAN][1]
    assert sum(tracing.self_by_layer(agg).values()) == pytest.approx(pass_s, rel=1e-9)
    assert pass_s == pytest.approx(sum(r.seconds for r in result), rel=0.05)
    m = tracing.layer_metrics(agg, tracer.observed)
    for name in ("care_admm.sweeps", "newton_admm.inner_sweeps", "baselines.newton_steps",
                 "ccom.sweeps", "quasi_newton.iterations", "baselines.cg_iterations",
                 "baselines.ar_iterations", "linalg.lu.gflop", "linalg.kron.mb", "linalg.pinv.calls"):
        assert m[name][0] > 0, name
    assert m["care_admm.sweeps"][0] == 563  # t8 admm n=16, as in the paper


def test_wrapped_call_cost_is_small_and_positive():
    assert 0.0 <= tracing.wrapped_call_cost() < 1e-4


def test_untraced_run_calls_the_unmodified_library():
    before = _targets()
    run_pass(_rows("t8", "newton", 16), build_problems(_rows("t8", "newton", 16)), Certifier())
    assert _targets() == before
    assert not any(hasattr(f, "__wrapped__") for f in before.values())


@pytest.mark.parametrize("rows", [_rows("t6", "cg", 128), _rows("t8", "newton", 16), _rows("t7", "admm", 9)[:1]])
def test_perturbed_answer_fails_certification(rows):
    (brow,) = rows
    certifier = Certifier()
    kept = []
    result = run_pass(rows, build_problems(rows), certifier, keep=lambda *a: kept.append(a))
    assert result[0].cert.ok
    _, problem, report = kept[0]
    assert workloads.negative_control(certifier, brow, problem, report.solution, seed=7)
    e = np.random.default_rng(0).standard_normal(report.solution.shape)
    assert not certifier.check(brow, problem, report.solution + 1e-3 * e).ok


def test_capacity_error_row_counts_as_failed_and_pass_continues():
    rows = _rows("t8", "newton", 128) + _rows("t8", "newton", 16)
    result = run_pass(rows, build_problems(rows), Certifier())
    assert [workloads.error_class(r) for r in result] == ["CapacityError", None]
    assert result[1].termination == "converged" and result[1].cert.ok
    assert workloads.failed_frac(result) == 0.5
    summary = summarize([result])
    assert (summary["attempted"], summary["failed"]) == (2, 1)


def test_kron_direct_probes_are_the_capacity_rows():
    w = workloads.WORKLOADS["kron-direct"]
    assert len(w.rows) == len(w.probes) == 8
    result = run_pass(w.probes, build_problems(w.probes), Certifier())
    assert [workloads.error_class(r) for r in result] == ["CapacityError"] * 8


# t7 41523 and t8-t10 815 sweeps; exact newton 27 steps and ccom 2 sweeps;
# dfp 2, bfgs 2, cg 10 and ar 18 iterations.
SEED_ITERATIONS = {
    "care-admm": 41523 + 815,
    "kron-direct": 29,
    "sylvester-large": 32,
}


@pytest.mark.parametrize("name", list(SEED_ITERATIONS))
def test_seed_iteration_totals_reproduce(name):
    w = workloads.WORKLOADS[name]
    result = run_pass(w.rows, build_problems(w.rows), Certifier())
    summary = summarize([result])
    assert summary["iterations"] == SEED_ITERATIONS[name]
    assert summary["failed"] == 0 and summary["cert_failures"] == 0


def test_run_without_library_exits_nonzero_without_result(tmp_path):
    shutil.copytree(workloads.__file__.rsplit("/", 1)[0], tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "care-admm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
