import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from matrixopt.baselines import BaselineConfig, solve_newton_care
from matrixopt.errors import PreconditionError
from matrixopt.harness.manifest import (
    CSV_COLUMNS,
    RunManifest,
    effective_workers,
    manifest_for_suite,
    run_manifest,
    run_method,
    summary_json,
    write_csv,
)
from matrixopt.harness.plotting import emit_convergence_plot
from matrixopt.problems import CareProblem, SuiteRow, paper_suite, table_source


def _factoring_rows():
    """t8 admm (50 sweeps) and t9 newton-admm at n=128, where Cholesky
    rounding depends on the BLAS thread count of scipy's OpenBLAS."""
    admm, newton_admm = paper_suite("t8")[6], paper_suite("t9")[6]
    assert (admm.method, newton_admm.method, admm.source.order) == ("admm", "newton-admm", 128)
    admm = replace(admm, params={**admm.params, "max_iterations": 50})
    return RunManifest(suite="t8+t9", rows=[admm, newton_admm])


class TestRegistry:
    def test_unknown_method(self):
        with pytest.raises(PreconditionError):
            run_method("nosuch", None)

    def test_method_problem_mismatch(self):
        p = CareProblem(a=[[-1.0]], n_mat=[[1.0]], k_mat=[[1.0]])
        with pytest.raises(PreconditionError):
            run_method("ccom", p)

    def test_direct_dispatch(self):
        p = table_source("t5", 4).build()
        report = run_method("direct", p)
        assert report.converged and report.iterations == 0


class TestManifest:
    def test_rejects_unknown_method(self):
        row = paper_suite("t3")[0]
        bad = SuiteRow(source=row.source, method="mystery", params={})
        with pytest.raises(ValueError):
            RunManifest(suite="t3", rows=[bad])

    def test_cap_filters_rows(self):
        manifest = manifest_for_suite("t5")
        orders = [row.source.order for _, row in manifest.capped_rows(256)]
        assert orders and max(orders) <= 256

    def test_run_t3_small(self):
        manifest = manifest_for_suite("t3")
        records = run_manifest(manifest, cap=10)
        assert len(records) == 1
        rec = records[0]
        assert rec.termination == "converged"
        assert rec.iterations == 1
        assert rec.row.paper_iterations == 1

    def test_errors_recorded_not_raised(self):
        # the n=100 row needs a 10^8-entry flattened system, which trips
        # the capacity guard; the run must record the failure and continue
        manifest = manifest_for_suite("t1")
        records = run_manifest(manifest, cap=100)
        assert len(records) == 2
        assert records[0].termination == "converged"
        assert records[1].termination == "error"
        assert "cap" in records[1].error

    @staticmethod
    def _stable_fields(records):
        # wall time legitimately varies run to run; everything else is
        # required to be bit-for-bit reproducible
        return [(r.row.method, r.iterations, r.final_residual, r.termination)
                for r in records]

    @pytest.mark.parametrize(
        "manifest, cap, workers",
        [(manifest_for_suite("t8"), 16, 4), (_factoring_rows(), 128, 2)],
        ids=["t8-n16", "t8-t9-n128"],
    )
    def test_worker_pool_matches_serial(self, manifest, cap, workers):
        serial = self._stable_fields(run_manifest(manifest, cap=cap, workers=1))
        parallel = self._stable_fields(run_manifest(manifest, cap=cap, workers=workers))
        assert serial == parallel

    def test_deterministic_across_runs(self):
        manifest = manifest_for_suite("t8")
        first = self._stable_fields(run_manifest(manifest, cap=16))
        second = self._stable_fields(run_manifest(manifest, cap=16))
        assert first == second


class TestCsv:
    def test_golden_header(self):
        text = write_csv([])
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert text.splitlines()[0] == (
            "algorithm,n,iterations,final_residual,wall_time_seconds,"
            "paper_iterations,paper_error"
        )

    def test_row_format(self):
        manifest = manifest_for_suite("t3")
        records = run_manifest(manifest, cap=10)
        lines = write_csv(records).splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "ccom" and fields[1] == "10"
        assert fields[5] == "1"
        float(fields[3])

    def test_summary_json(self):
        manifest = manifest_for_suite("t3")
        records = run_manifest(manifest, cap=10)
        payload = summary_json(manifest, records)
        assert payload["suite"] == "t3"
        assert payload["rows_run"] == 1
        assert payload["rows_converged"] == 1
        json.dumps(payload)


class TestWorkers:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("MATRIXOPT_THREADS", "2")
        assert effective_workers(8) == 2
        monkeypatch.setenv("MATRIXOPT_THREADS", "not-a-number")
        assert effective_workers(8) == 8
        monkeypatch.delenv("MATRIXOPT_THREADS")
        assert effective_workers(None) == 1


class TestPlotting:
    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(PreconditionError):
            emit_convergence_plot({"residual_history": []}, tmp_path / "x.svg")

    def test_final_point_below_tolerance_line(self, tmp_path):
        p = CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8))
        path = tmp_path / "newton.svg"
        emit_convergence_plot(report, path, tolerance=1e-8)
        svg = path.read_text()
        cy = float(re.search(r'id="final-point"[^/]*cy="([0-9.]+)"', svg).group(1))
        ty = float(re.search(r'id="tolerance-line"[^/]*y1="([0-9.]+)"', svg).group(1))
        # svg y grows downward: smaller residuals sit below the line
        assert cy >= ty

    def test_newton_tail_superlinear(self):
        p = CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8))
        logs = [math.log10(max(v, 1e-300)) for v in report.residual_history]
        assert len(logs) >= 3
        second_diff = (logs[-1] - logs[-2]) - (logs[-2] - logs[-3])
        assert second_diff < 0

    def test_plot_handles_flat_history(self, tmp_path):
        emit_convergence_plot({"residual_history": [1.0, 1.0]}, tmp_path / "flat.svg")
        assert (tmp_path / "flat.svg").exists()
