"""A row that raises anything, not only a library error, fails alone:
the rest of the table or sweep still runs."""

import dataclasses

import numpy as np
import pytest

import matrixopt.care_admm as care_admm
import matrixopt.harness.manifest as manifest
from matrixopt.harness.cli import main
from matrixopt.harness.manifest import run_manifest, summary_json
from matrixopt.problems import paper_suite


def _raise(exc):
    def solve(*args, **kwargs):
        raise exc

    return solve


FAILURES = [
    (ValueError("block x contains non-finite entries"),
     "ValueError: block x contains non-finite entries"),
    (np.linalg.LinAlgError("Singular matrix"), "LinAlgError: Singular matrix"),
]


def _stable_fields(records):
    return [(r.row.method, r.iterations, r.final_residual, r.termination) for r in records]


@pytest.mark.parametrize("exc, text", FAILURES)
def test_one_bad_row_does_not_abort_the_table(monkeypatch, exc, text):
    monkeypatch.setattr(manifest, "solve_newton_care", _raise(exc))
    records = run_manifest(paper_suite("t8"), cap=16)
    by_method = {rec.row.method: rec for rec in records}
    assert set(by_method) == {"admm", "newton"}
    assert by_method["admm"].termination == "converged"
    assert by_method["admm"].error is None
    assert by_method["newton"].termination == "error"
    assert by_method["newton"].error == text
    assert summary_json("t8", records)["rows_failed"] == 1


@pytest.mark.parametrize("exc, text", FAILURES)
def test_a_row_failing_mid_solve_leaves_the_rows_after_it(monkeypatch, exc, text):
    # The first sweep of the first row raises inside the solver's BLAS
    # hold; every later row must give what it gives in a clean run.
    table = paper_suite("t8")
    clean = _stable_fields(run_manifest(table, cap=32))
    original = care_admm.admm_step
    calls = []

    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(care_admm, "admm_step", step)
    records = run_manifest(table, cap=32)
    assert records[0].termination == "error"
    assert records[0].error == text
    assert _stable_fields(records[1:]) == clean[1:]


def test_negative_cap_fails_its_row_alone():
    table = paper_suite("t8")
    table[0] = dataclasses.replace(table[0], params={**table[0].params, "max_iterations": -1})
    records = run_manifest(table, cap=16)
    assert records[0].termination == "error"
    assert records[0].error == "ParameterError: iteration cap must be nonnegative, got -1"
    assert all(rec.error is None for rec in records[1:])


def test_library_errors_name_their_class_too():
    records = run_manifest(paper_suite("t1"), cap=100)
    failed = [rec for rec in records if rec.error is not None]
    assert failed and all(rec.error.startswith("CapacityError: ") for rec in failed)


def test_one_bad_point_does_not_abort_a_sweep(monkeypatch, capsys):
    original = manifest.solve_care_admm

    def solve(p, cfg):
        if cfg.alpha > 0.95:
            raise ValueError("block w contains non-finite entries")
        return original(p, cfg)

    monkeypatch.setattr(manifest, "solve_care_admm", solve)
    code = main([
        "sweep", "--suite", "t8", "--n", "4", "--method", "admm",
        "--alpha", "0.91:1.0:2", "--beta", "2.8", "--gamma", "0.0014",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 3
    assert lines[1].endswith(",converged,*")
    assert lines[2].endswith(",error: ValueError: block w contains non-finite entries,")
