"""Each method's solve runs with the OpenBLAS copy its method-table entry
names (``hold``) at one thread, set-up and diagnostics included, and the
other copy at its own count; ``run_method`` is the one place that holds
a copy, so a solver called directly runs at the caller's counts.  Each
copy gets its own thread count back afterwards, whatever way the solve
ends."""

import os
import sys
import threading

import numpy as np
import pytest

import matrixopt.baselines as baselines
import matrixopt.care_admm as care_admm
import matrixopt.ccom as ccom
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

LAYOUTS = {"numpy": (1, 2), "scipy": (2, 1), None: (2, 2)}


def test_every_method_has_a_layout_case():
    assert CASES.keys() == METHODS.keys()


@needs_scipy_copy
@pytest.mark.parametrize("fail", [False, True], ids=["solve", "error"])
@pytest.mark.parametrize("key", CASES, ids=lambda key: f"{key[0]}-{key[1].__name__}")
def test_each_method_runs_at_its_declared_layout(
    key, fail, two_threads, scipy_two_threads, monkeypatch
):
    build, params, kernels = CASES[key]
    hold = METHODS[key].hold
    seen = [
        record(monkeypatch, module, name, layout, fail=fail and i == 0)
        for i, (module, name) in enumerate(kernels)
    ]
    problem = build()
    if fail:
        with pytest.raises(Injected):
            run_method(key[0], problem, params)
        assert seen[0] == [LAYOUTS[hold]]
    else:
        run_method(key[0], problem, params)
        for calls in seen:
            assert calls and set(calls) == {LAYOUTS[hold]}
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


def test_count_is_restored_after_any_exception(two_threads):
    with pytest.raises(KeyError):
        with linalg.serial_products():
            assert threads() == 1
            raise KeyError("boom")
    assert threads() == 2


def test_nested_guards_restore_only_at_the_outermost_exit(two_threads):
    with linalg.serial_products():
        with linalg.serial_products():
            assert threads() == 1
        assert threads() == 1
    assert threads() == 2


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


def test_a_count_of_one_is_never_raised(monkeypatch):
    saved = threads()
    CONTROLS[1](1)
    try:
        seen = record(monkeypatch, care_admm, "admm_step")
        run_method("admm", T8(), T8_ADMM)
        assert set(seen) == {1}
        assert threads() == 1
    finally:
        CONTROLS[1](saved)


def test_guard_is_a_no_op_without_the_library(two_threads, monkeypatch):
    monkeypatch.setattr(linalg, "find_openblas", lambda copy: None)
    monkeypatch.setitem(linalg._serial_state["numpy"], "controls", linalg._UNSEEN)
    seen = record(monkeypatch, care_admm, "admm_step")
    report = run_method("admm", T8(), T8_ADMM)
    assert report.iterations == 30
    assert set(seen) == {2}
    assert threads() == 2


def test_bench_summary_records_the_environment():
    env = summary_json("t8", run_manifest(paper_suite("t8"), cap=16))["environment"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["openblas_threads"]["numpy"] == threads()
    assert set(env["openblas_threads"]) == {"numpy", "scipy"}


def test_bench_summary_names_each_blas_library():
    configs = summary_json("t8", [])["environment"]["openblas_config"]
    assert set(configs) == {"numpy", "scipy"}
    assert configs["numpy"].startswith("OpenBLAS ")
    if SCIPY_CONTROLS is not None:
        assert configs["scipy"].startswith("OpenBLAS ")


def test_bench_summary_names_no_library_it_cannot_find(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_symbols", lambda copy, *names: None)
    env = summary_json("t8", [])["environment"]
    assert env["openblas_config"] == env["openblas_threads"] == {"numpy": None, "scipy": None}


def test_frobenius_norm_does_not_depend_on_the_thread_count(two_threads):
    m = np.random.default_rng(512).standard_normal((512, 512))
    threaded = linalg.frobenius_norm(m)
    with linalg.serial_products():
        assert linalg.frobenius_norm(m) == threaded
    assert threaded == pytest.approx(np.sqrt(np.sum(m * m)), rel=1e-14)


@needs_scipy_copy
def test_a_scipy_count_of_one_is_never_raised(monkeypatch):
    saved = scipy_threads()
    SCIPY_CONTROLS[1](1)
    try:
        seen = record(monkeypatch, quasi_newton, "pseudo_inverse", scipy_threads)
        run_method("bfgs", T6(), {})
        assert set(seen) == {1}
        assert scipy_threads() == 1
    finally:
        SCIPY_CONTROLS[1](saved)


@needs_scipy_copy
def test_scipy_guard_is_a_no_op_without_the_library(scipy_two_threads, monkeypatch):
    monkeypatch.setattr(linalg, "find_openblas", lambda copy: None)
    monkeypatch.setitem(linalg._serial_state["scipy"], "controls", linalg._UNSEEN)
    seen = record(monkeypatch, quasi_newton, "pseudo_inverse", scipy_threads)
    report = run_method("dfp", T6(), {})
    assert report.iterations == 2
    assert seen == [2, 2]
    assert scipy_threads() == 2


def test_each_copy_keeps_its_own_depth(two_threads, scipy_two_threads):
    with linalg.serial_products("scipy"):
        assert layout() == (2, 1)
        with linalg.serial_products("numpy"):
            assert layout() == (1, 1)
        assert layout() == (2, 1)
    assert layout() == (2, 2)
