"""Every method's solve runs with both OpenBLAS copies, numpy's and
scipy's, at one thread, from set-up to certificate; ``run_method`` is
the one place that holds them, so a solver called directly runs at the
caller's counts.  Each copy gets its own thread count back afterwards,
whatever way the solve ends, and a desk row gives the same bits at one
and at two threads."""

import os
import sys
import threading

import numpy as np
import pytest

import matrixopt.baselines as baselines
import matrixopt.care_admm as care_admm
import matrixopt.ccom as ccom
import matrixopt.harness.manifest as manifest
import matrixopt.linalg as linalg
import matrixopt.newton_admm as newton_admm
import matrixopt.oracle as oracle
import matrixopt.quasi_newton as quasi_newton
from matrixopt.harness.manifest import (
    METHODS,
    run_manifest,
    run_method,
    summary_json,
)
from matrixopt.problems import (
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    paper_suite,
    table_source,
)

CONTROLS = linalg.find_openblas("numpy")
SCIPY_CONTROLS = linalg.find_openblas("scipy")

pytestmark = pytest.mark.skipif(CONTROLS is None, reason="numpy's bundled OpenBLAS not found")
needs_scipy_copy = pytest.mark.skipif(
    SCIPY_CONTROLS is None, reason="scipy's bundled OpenBLAS not found"
)

T8 = table_source("t8", 8).build
T8_ADMM = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014, "max_iterations": 30}
T9 = table_source("t9", 8).build
# Two dfp steps, one model update: two pseudo-inverses.
T6 = table_source("t6", 16).build


def t9_lyapunov():
    p = T9()
    return LyapunovProblem(a=p.a, q=p.k_mat)


def threads() -> int:
    return CONTROLS[0]()


def scipy_threads() -> int:
    return SCIPY_CONTROLS[0]()


def _at_two_threads(controls):
    saved = controls[0]()
    controls[1](2)
    if controls[0]() != 2:
        controls[1](saved)
        pytest.skip("OpenBLAS cannot run two threads here")
    return saved


@pytest.fixture
def two_threads():
    """numpy's copy at two threads for the test, then as it was."""
    saved = _at_two_threads(CONTROLS)
    yield
    CONTROLS[1](saved)


@pytest.fixture
def scipy_two_threads():
    """scipy's copy at two threads for the test, then as it was."""
    if SCIPY_CONTROLS is None:
        pytest.skip("scipy's bundled OpenBLAS not found")
    saved = _at_two_threads(SCIPY_CONTROLS)
    yield
    SCIPY_CONTROLS[1](saved)


class Injected(Exception):
    """An error no solver catches."""


def record(monkeypatch, module, name, count=threads, fail=False):
    """Wrap ``module.name`` so each call appends ``count()``, then raises
    :class:`Injected` when ``fail``, else calls through."""
    seen = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen.append(count())
        if fail:
            raise Injected(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return seen


def layout():
    """(numpy's, scipy's) thread counts."""
    return threads(), scipy_threads()


# (method, problem class) -> (problem, params, kernels the solve calls
# through their module globals).
CASES = {
    ("ccom", SylvesterProblem): (table_source("t1", 10).build, {}, [(ccom, "ccom_step")]),
    ("dfp", SylvesterProblem): (T6, {}, [(quasi_newton, "pseudo_inverse")]),
    ("bfgs", SylvesterProblem): (T6, {}, [(quasi_newton, "pseudo_inverse")]),
    ("cg", SylvesterProblem): (T6, {}, [(baselines, "trace_inner")]),
    ("ar", SylvesterProblem): (T6, {}, [(baselines, "frobenius_norm")]),
    ("admm", CareProblem): (T8, T8_ADMM, [(care_admm, "admm_step"), (care_admm, "kkt_residuals")]),
    ("admm", LyapunovProblem): (
        t9_lyapunov, {}, [(newton_admm, "spd_factor"), (newton_admm, "spd_solve")]
    ),
    ("newton", CareProblem): (T8, {}, [(baselines, "symmetrize")]),
    ("newton-admm", CareProblem): (T9, {}, [(newton_admm, "spd_solve")]),
    ("direct", SylvesterProblem): (T6, {}, [(oracle, "lu_solve")]),
    ("direct", LyapunovProblem): (t9_lyapunov, {}, [(baselines, "symmetrize")]),
}


def test_every_method_has_a_layout_case():
    assert CASES.keys() == METHODS.keys()


@needs_scipy_copy
@pytest.mark.parametrize("fail", [False, True], ids=["solve", "error"])
@pytest.mark.parametrize("key", CASES, ids=lambda key: f"{key[0]}-{key[1].__name__}")
def test_each_method_runs_at_its_declared_layout(
    key, fail, two_threads, scipy_two_threads, monkeypatch
):
    build, params, kernels = CASES[key]
    if key[1] is CareProblem:
        kernels = [*kernels, (manifest, "certify_care")]
    seen = [
        record(monkeypatch, module, name, layout, fail=fail and i == 0)
        for i, (module, name) in enumerate(kernels)
    ]
    problem = build()
    if fail:
        with pytest.raises(Injected):
            run_method(key[0], problem, params)
        assert seen[0] == [(1, 1)]
    else:
        run_method(key[0], problem, params)
        for calls in seen:
            assert calls and set(calls) == {(1, 1)}
    assert layout() == (2, 2)


@needs_scipy_copy
def test_a_direct_solver_call_runs_at_the_callers_counts(
    two_threads, scipy_two_threads, monkeypatch
):
    seen = record(monkeypatch, newton_admm, "spd_factor", layout)
    report = newton_admm.solve_lyapunov_admm(t9_lyapunov())
    assert report.converged
    assert seen == [(2, 2)] * 2


def test_lyapunov_admm_set_up_runs_at_one_thread(two_threads, monkeypatch):
    seen = record(monkeypatch, newton_admm, "spd_factor")
    report = run_method("admm", t9_lyapunov(), {})
    assert report.converged
    assert seen == [1, 1]
    assert threads() == 2


@needs_scipy_copy
def test_count_is_restored_after_any_exception(two_threads, scipy_two_threads):
    with pytest.raises(KeyError):
        with linalg.serial_products():
            assert layout() == (1, 1)
            raise KeyError("boom")
    assert layout() == (2, 2)


@needs_scipy_copy
def test_nested_guards_restore_only_at_the_outermost_exit(two_threads, scipy_two_threads):
    with linalg.serial_products():
        with linalg.serial_products():
            assert layout() == (1, 1)
        assert layout() == (1, 1)
    assert layout() == (2, 2)


def test_concurrent_solves_restore_the_count(two_threads, monkeypatch):
    """More threads than cores, switching often, each entering the guard
    by itself and through solves: a lost update of the shared depth
    would let a step see two threads or leave the count wrong."""
    seen = record(monkeypatch, care_admm, "admm_step")
    width = 2 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(width)
    errors = []

    def solve():
        try:
            start.wait()
            for _ in range(200):
                with linalg.serial_products():
                    seen.append(threads())
            for _ in range(2):
                run_method("admm", T8(), T8_ADMM)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve) for _ in range(width)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert len(seen) == width * (200 + 2 * 30) and set(seen) == {1}
    assert threads() == 2


@needs_scipy_copy
def test_a_count_of_one_is_never_raised(scipy_two_threads, monkeypatch):
    saved = threads()
    CONTROLS[1](1)
    try:
        seen = record(monkeypatch, care_admm, "admm_step", layout)
        run_method("admm", T8(), T8_ADMM)
        assert set(seen) == {(1, 1)}
        assert layout() == (1, 2)
    finally:
        CONTROLS[1](saved)


@needs_scipy_copy
@pytest.mark.parametrize("missing, held", [
    ({"numpy", "scipy"}, (2, 2)),
    ({"scipy"}, (1, 2)),
], ids=["both", "scipy"])
def test_guard_skips_a_copy_it_cannot_find(
    missing, held, two_threads, scipy_two_threads, monkeypatch
):
    find = linalg.find_openblas
    monkeypatch.setattr(linalg, "find_openblas", lambda copy: None if copy in missing else find(copy))
    monkeypatch.setitem(linalg._serial_state, "controls", linalg._UNSEEN)
    seen = record(monkeypatch, care_admm, "admm_step", layout)
    report = run_method("admm", T8(), T8_ADMM)
    assert report.iterations == 30
    assert set(seen) == {held}
    assert layout() == (2, 2)


@needs_scipy_copy
def test_bench_summary_records_the_environment(two_threads, scipy_two_threads):
    # The counts the solves ran at, not the process's.
    env = summary_json("t8", run_manifest(paper_suite("t8"), cap=16))["environment"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["openblas_threads"] == {"numpy": 1, "scipy": 1}
    assert layout() == (2, 2)


def test_bench_summary_names_each_blas_library():
    configs = summary_json("t8", [])["environment"]["openblas_config"]
    assert set(configs) == {"numpy", "scipy"}
    assert configs["numpy"].startswith("OpenBLAS ")
    if SCIPY_CONTROLS is not None:
        assert configs["scipy"].startswith("OpenBLAS ")


def test_bench_summary_names_no_library_it_cannot_find(monkeypatch):
    monkeypatch.setattr(linalg, "find_openblas", lambda copy: None)
    env = summary_json("t8", [])["environment"]
    assert env["openblas_config"] == env["openblas_threads"] == {"numpy": None, "scipy": None}


def test_frobenius_norm_does_not_depend_on_the_thread_count(two_threads):
    m = np.random.default_rng(512).standard_normal((512, 512))
    threaded = linalg.frobenius_norm(m)
    with linalg.serial_products():
        assert linalg.frobenius_norm(m) == threaded
    assert threaded == pytest.approx(np.sqrt(np.sum(m * m)), rel=1e-14)


def _desk_row(table, method, n, **overrides):
    row = next(r for r in paper_suite(table) if r.method == method and r.source.order == n)
    return method, row.source.build, {**row.params, **overrides}


# Desk rows whose residuals once moved with the thread count, from
# inner products (cg, bfgs) or Cholesky solves (admm, newton-admm).
DESK_ROWS = {
    "t6-cg-n128": _desk_row("t6", "cg", 128),
    "t6-bfgs-n128": _desk_row("t6", "bfgs", 128),
    "t9-newton-admm-n128": _desk_row("t9", "newton-admm", 128),
    "t8-admm-n128-cap40": _desk_row("t8", "admm", 128, max_iterations=40),
}


@needs_scipy_copy
@pytest.mark.parametrize("row", DESK_ROWS)
def test_desk_rows_do_not_depend_on_the_thread_count(row):
    # Both OpenBLAS copies at one and at two threads: one residual and
    # one solution, to the bit.
    method, build, params = DESK_ROWS[row]
    saved = layout()
    outcomes = set()
    try:
        for count in (1, 2):
            for _, set_, _ in (CONTROLS, SCIPY_CONTROLS):
                set_(count)
            if layout() != (count, count):
                pytest.skip(f"OpenBLAS cannot run {count} threads here")
            report = run_method(method, build(), params)
            outcomes.add((report.final_residual.hex(), report.solution.tobytes()))
    finally:
        for (_, set_, _), count in zip((CONTROLS, SCIPY_CONTROLS), saved):
            set_(count)
    assert len(outcomes) == 1
