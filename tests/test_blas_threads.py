"""numpy's OpenBLAS runs one thread through every ADMM and ccom solve,
set-up and diagnostics included, and scipy's inside the quasi-Newton
loop; each copy gets its own thread count back afterwards, whatever way
the solve ends."""

import os
import sys
import threading

import numpy as np
import pytest

import matrixopt.care_admm as care_admm
import matrixopt.ccom as ccom
import matrixopt.linalg as linalg
import matrixopt.newton_admm as newton_admm
import matrixopt.quasi_newton as quasi_newton
from matrixopt.errors import AdmmBreakdownError, SingularMatrixError
from matrixopt.harness.manifest import (
    RunManifest,
    manifest_for_suite,
    run_manifest,
    run_method,
    summary_json,
)
from matrixopt.problems import LyapunovProblem, SuiteRow, table_source

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


def record_threads(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends the thread count it saw."""
    seen = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen.append(threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return seen


def test_care_admm_steps_run_at_one_thread(two_threads, monkeypatch):
    seen = record_threads(monkeypatch, care_admm, "admm_step")
    report = run_method("admm", T8(), T8_ADMM)
    assert len(seen) == report.iterations == 30
    assert set(seen) == {1}
    assert threads() == 2


def test_newton_admm_sweeps_run_at_one_thread(two_threads, monkeypatch):
    seen = record_threads(monkeypatch, newton_admm, "spd_solve")
    report = run_method("newton-admm", T9(), {})
    assert report.converged
    assert seen and set(seen) == {1}
    assert threads() == 2


def test_care_admm_diagnostics_run_at_one_thread(two_threads, monkeypatch):
    seen = record_threads(monkeypatch, care_admm, "kkt_residuals")
    run_method("admm", T8(), T8_ADMM)
    assert seen == [1]
    assert threads() == 2


def test_lyapunov_admm_set_up_runs_at_one_thread(two_threads, monkeypatch):
    p = T9()
    seen = record_threads(monkeypatch, newton_admm, "spd_factor")
    report = newton_admm.solve_lyapunov_admm(LyapunovProblem(a=p.a, q=p.k_mat))
    assert report.converged
    assert seen == [1, 1]
    assert threads() == 2


def test_ccom_steps_run_at_one_thread(two_threads, monkeypatch):
    seen = record_threads(monkeypatch, ccom, "ccom_step")
    report = run_method("ccom", table_source("t1", 10).build(), {})
    assert report.iterations == 1 and seen == [1]
    assert threads() == 2


def test_count_is_restored_after_a_breakdown(two_threads, monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(threads())
        raise AdmmBreakdownError("injected")

    monkeypatch.setattr(care_admm, "admm_step", failing)
    with pytest.raises(AdmmBreakdownError):
        run_method("admm", T8(), T8_ADMM)
    assert calls == [1]
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
    seen = record_threads(monkeypatch, care_admm, "admm_step")
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
def test_manifest_rows_run_under_their_solvers_holds_only(
    two_threads, scipy_two_threads, monkeypatch
):
    # A dfp row holds scipy's copy alone and an ADMM row numpy's alone,
    # whatever row runs beside them: the manifest adds no hold of its own.
    seen = {"dfp": [], "admm": []}
    for method, module, name in [
        ("dfp", quasi_newton, "pseudo_inverse"),
        ("admm", care_admm, "admm_step"),
    ]:
        original = getattr(module, name)

        def wrapped(*args, _seen=seen[method], _original=original, **kwargs):
            _seen.append((threads(), scipy_threads()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    rows = [
        SuiteRow(source=table_source("t6", 16), method="dfp", params={}),
        SuiteRow(source=table_source("t8", 8), method="admm", params=T8_ADMM),
    ]
    records = run_manifest(RunManifest(suite="t6+t8", rows=rows), cap=16)
    assert all(rec.error is None for rec in records)
    assert seen == {"dfp": [(2, 1)] * 2, "admm": [(1, 2)] * 30}
    assert threads() == scipy_threads() == 2


def test_a_count_of_one_is_never_raised(monkeypatch):
    saved = threads()
    CONTROLS[1](1)
    try:
        seen = record_threads(monkeypatch, care_admm, "admm_step")
        run_method("admm", T8(), T8_ADMM)
        assert set(seen) == {1}
        assert threads() == 1
    finally:
        CONTROLS[1](saved)


def test_guard_is_a_no_op_without_the_library(two_threads, monkeypatch):
    monkeypatch.setattr(linalg, "find_openblas", lambda copy: None)
    monkeypatch.setitem(linalg._serial_state["numpy"], "controls", linalg._UNSEEN)
    seen = record_threads(monkeypatch, care_admm, "admm_step")
    report = run_method("admm", T8(), T8_ADMM)
    assert report.iterations == 30
    assert set(seen) == {2}
    assert threads() == 2


def test_bench_summary_records_the_environment():
    manifest = manifest_for_suite("t8")
    env = summary_json(manifest, run_manifest(manifest, cap=16))["environment"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["openblas_threads"]["numpy"] == threads()
    assert set(env["openblas_threads"]) == {"numpy", "scipy"}


def test_bench_summary_names_each_blas_library():
    configs = summary_json(manifest_for_suite("t8"), [])["environment"]["openblas_config"]
    assert set(configs) == {"numpy", "scipy"}
    assert configs["numpy"].startswith("OpenBLAS ")
    if SCIPY_CONTROLS is not None:
        assert configs["scipy"].startswith("OpenBLAS ")


def test_bench_summary_names_no_library_it_cannot_find(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_symbols", lambda copy, *names: None)
    env = summary_json(manifest_for_suite("t8"), [])["environment"]
    assert env["openblas_config"] == env["openblas_threads"] == {"numpy": None, "scipy": None}


def test_frobenius_norm_does_not_depend_on_the_thread_count(two_threads):
    m = np.random.default_rng(512).standard_normal((512, 512))
    threaded = linalg.frobenius_norm(m)
    with linalg.serial_products():
        assert linalg.frobenius_norm(m) == threaded
    assert threaded == pytest.approx(np.sqrt(np.sum(m * m)), rel=1e-14)


def record_scipy_threads(monkeypatch):
    """Wrap quasi_newton's ``pseudo_inverse`` so each call appends
    scipy's thread count."""
    seen = []
    original = quasi_newton.pseudo_inverse

    def wrapped(*args, **kwargs):
        seen.append(scipy_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(quasi_newton, "pseudo_inverse", wrapped)
    return seen


@needs_scipy_copy
def test_quasi_newton_factors_at_one_scipy_thread(two_threads, scipy_two_threads, monkeypatch):
    seen = record_scipy_threads(monkeypatch)
    report = run_method("dfp", T6(), {})
    assert report.converged and report.iterations == 2
    assert seen == [1, 1]
    # numpy's copy keeps its count: only scipy's is held.
    assert threads() == scipy_threads() == 2


@needs_scipy_copy
def test_scipy_count_is_restored_after_an_exception(scipy_two_threads, monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(scipy_threads())
        raise SingularMatrixError("injected")

    monkeypatch.setattr(quasi_newton, "pseudo_inverse", failing)
    with pytest.raises(SingularMatrixError):
        run_method("bfgs", T6(), {})
    assert calls == [1]
    assert scipy_threads() == 2


@needs_scipy_copy
def test_a_scipy_count_of_one_is_never_raised(monkeypatch):
    saved = scipy_threads()
    SCIPY_CONTROLS[1](1)
    try:
        seen = record_scipy_threads(monkeypatch)
        run_method("bfgs", T6(), {})
        assert set(seen) == {1}
        assert scipy_threads() == 1
    finally:
        SCIPY_CONTROLS[1](saved)


@needs_scipy_copy
def test_scipy_guard_is_a_no_op_without_the_library(scipy_two_threads, monkeypatch):
    monkeypatch.setattr(linalg, "find_openblas", lambda copy: None)
    monkeypatch.setitem(linalg._serial_state["scipy"], "controls", linalg._UNSEEN)
    seen = record_scipy_threads(monkeypatch)
    report = run_method("dfp", T6(), {})
    assert report.iterations == 2
    assert seen == [2, 2]
    assert scipy_threads() == 2


def test_each_copy_keeps_its_own_depth(two_threads, scipy_two_threads):
    with linalg.serial_products("scipy"):
        assert (threads(), scipy_threads()) == (2, 1)
        with linalg.serial_products("numpy"):
            assert (threads(), scipy_threads()) == (1, 1)
        assert (threads(), scipy_threads()) == (2, 1)
    assert (threads(), scipy_threads()) == (2, 2)
