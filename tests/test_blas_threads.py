"""numpy's OpenBLAS runs one thread inside the ADMM sweep loops and gets
its own thread count back afterwards, whatever way the loop ends."""

import os
import sys
import threading

import numpy as np
import pytest

import matrixopt.care_admm as care_admm
import matrixopt.linalg as linalg
import matrixopt.newton_admm as newton_admm
from matrixopt.errors import AdmmBreakdownError
from matrixopt.harness.manifest import manifest_for_suite, run_manifest, run_method, summary_json
from matrixopt.problems import care_family

CONTROLS = linalg.find_openblas("numpy")

pytestmark = pytest.mark.skipif(CONTROLS is None, reason="numpy's bundled OpenBLAS not found")

T8 = care_family("t8", 8).build
T8_ADMM = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014, "max_iterations": 30}
T9 = care_family("t9", 8).build


def threads() -> int:
    return CONTROLS[0]()


@pytest.fixture
def two_threads():
    """numpy's copy at two threads for the test, then as it was."""
    saved = threads()
    CONTROLS[1](2)
    if threads() != 2:
        CONTROLS[1](saved)
        pytest.skip("numpy's OpenBLAS cannot run two threads here")
    yield
    CONTROLS[1](saved)


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


def test_worker_pool_runs_rows_at_one_thread(two_threads, monkeypatch):
    seen = record_threads(monkeypatch, care_admm, "admm_step")
    records = run_manifest(manifest_for_suite("t8"), cap=16, workers=2)
    assert all(rec.error is None for rec in records)
    assert seen and set(seen) == {1}
    assert threads() == 2


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
    monkeypatch.setitem(linalg._serial_state, "controls", linalg._UNSEEN)
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


def test_frobenius_norm_does_not_depend_on_the_thread_count(two_threads):
    m = np.random.default_rng(512).standard_normal((512, 512))
    threaded = linalg.frobenius_norm(m)
    with linalg.serial_products():
        assert linalg.frobenius_norm(m) == threaded
    assert threaded == pytest.approx(np.sqrt(np.sum(m * m)), rel=1e-14)
