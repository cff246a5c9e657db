"""A row that raises anything, not only a library error, fails alone:
the rest of the table or sweep still runs."""

import numpy as np
import pytest

import matrixopt.harness.manifest as manifest
from matrixopt.harness.cli import main
from matrixopt.harness.manifest import manifest_for_suite, run_manifest, summary_json


def _raise(exc):
    def solve(*args, **kwargs):
        raise exc

    return solve


@pytest.mark.parametrize(
    "exc, text",
    [
        (ValueError("block x contains non-finite entries"),
         "ValueError: block x contains non-finite entries"),
        (np.linalg.LinAlgError("Singular matrix"), "LinAlgError: Singular matrix"),
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_one_bad_row_does_not_abort_the_table(monkeypatch, exc, text, workers):
    monkeypatch.setattr(manifest, "solve_newton_care", _raise(exc))
    table = manifest_for_suite("t8")
    records = run_manifest(table, cap=16, workers=workers)
    by_method = {rec.row.method: rec for rec in records}
    assert set(by_method) == {"admm", "newton"}
    assert by_method["admm"].termination == "converged"
    assert by_method["admm"].error is None
    assert by_method["newton"].termination == "error"
    assert by_method["newton"].error == text
    assert summary_json(table, records)["rows_failed"] == 1


def test_library_errors_name_their_class_too():
    records = run_manifest(manifest_for_suite("t1"), cap=100)
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
