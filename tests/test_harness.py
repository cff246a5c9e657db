import json
import math
import re
from dataclasses import replace

import pytest

from matrixopt.baselines import BaselineConfig, solve_newton_care
from matrixopt.errors import PreconditionError
from matrixopt.harness.manifest import (
    CSV_COLUMNS,
    run_manifest,
    run_method,
    summary_json,
    write_csv,
)
from matrixopt.harness.plotting import emit_convergence_plot
from matrixopt.problems import CareProblem, SuiteRow, paper_suite, table_source


def _n128_rows(*tables):
    """The n=128 row of each table's first method, a CARE-ADMM row
    capped at 50 sweeps: Cholesky and gemm rounding at this order
    follows the BLAS thread count a row runs at."""
    rows = []
    for table in tables:
        row = next(r for r in paper_suite(table) if r.source.order == 128)
        if row.method == "admm":
            row = replace(row, params={**row.params, "max_iterations": 50})
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [128, 256])
def test_t6_cg_rows_take_the_papers_steps(n):
    (row,) = [r for r in paper_suite("t6") if r.method == "cg" and r.source.order == n]
    assert row.params == {"tol": 1e-14}
    report = run_method(row.method, row.source.build(), row.params)
    assert report.converged and report.iterations == row.paper_iterations == 15
    assert report.final_residual <= 1e-14


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
    def test_unknown_method_fails_its_row_alone(self):
        row = paper_suite("t3")[0]
        bad = SuiteRow(source=row.source, method="mystery", params={})
        records = run_manifest([bad, row], cap=10)
        assert records[0].termination == "error"
        assert records[0].error.startswith("PreconditionError: unknown method 'mystery'")
        assert records[1].termination == "converged"

    def test_run_t3_small(self):
        records = run_manifest(paper_suite("t3"), cap=10)
        assert len(records) == 1
        rec = records[0]
        assert rec.termination == "converged"
        assert rec.iterations == 1
        assert rec.row.paper_iterations == 1

    def test_errors_recorded_not_raised(self):
        # the n=100 row needs a 10^8-entry flattened system, which trips
        # the capacity guard; the run must record the failure and continue
        records = run_manifest(paper_suite("t1"), cap=100)
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
        "rows, cap",
        [(paper_suite("t8"), 16), (_n128_rows("t8", "t9"), 128),
         (_n128_rows("t6", "t8"), 128)],
        ids=["t8-n16", "t8-t9-n128", "t6-t8-n128"],
    )
    def test_a_row_runs_as_it_does_alone(self, rows, cap):
        together = self._stable_fields(run_manifest(rows, cap=cap))
        alone = [
            field for row in rows for field in self._stable_fields(run_manifest([row], cap=cap))
        ]
        assert together == alone

    def test_records_follow_manifest_order(self):
        rows = paper_suite("t8")[::-1]
        records = run_manifest(rows, cap=32)
        assert [rec.row for rec in records] == [row for row in rows if row.source.order <= 32]
        assert [(rec.row.method, rec.row.source.order) for rec in records] == [
            ("newton", 32), ("admm", 32), ("newton", 16), ("admm", 16)
        ]

    def test_deterministic_across_runs(self):
        first = self._stable_fields(run_manifest(paper_suite("t8"), cap=16))
        second = self._stable_fields(run_manifest(paper_suite("t8"), cap=16))
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
        records = run_manifest(paper_suite("t3"), cap=10)
        lines = write_csv(records).splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "ccom" and fields[1] == "10"
        assert fields[5] == "1"
        float(fields[3])

    def test_summary_json(self):
        records = run_manifest(paper_suite("t3"), cap=10)
        payload = summary_json("t3", records)
        assert payload["suite"] == "t3"
        assert payload["rows_run"] == 1
        assert payload["rows_converged"] == 1
        json.dumps(payload)


class TestPlotting:
    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(PreconditionError):
            emit_convergence_plot({"residual_history": []}, tmp_path / "x.svg")

    def test_final_point_below_tolerance_line(self, tmp_path):
        p = CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])
        report = solve_newton_care(p, cfg=BaselineConfig(tol=1e-8))
        path = tmp_path / "newton.svg"
        emit_convergence_plot(
            {"residual_history": report.residual_history}, path, tolerance=1e-8
        )
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
