import json

import numpy as np
import pytest

from matrixopt.harness.cli import main
from matrixopt.mmio import read_matrix_market, write_matrix_market


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSolve:
    def test_direct_generator(self, capsys):
        code, out = run_cli(
            ["solve", "sylvester", "--method", "direct", "--gen", "t5", "--n", "4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["termination"] == "converged"
        assert payload["final_residual"] <= 1e-10

    def test_unknown_method_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "care", "--method", "nosuch"])
        assert err.value.code == 1

    def test_missing_source_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "sylvester", "--method", "direct"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "sylvester", "--method", "direct", "--suite", "t8", "--n", "4"],
        ["solve", "care", "--method", "newton", "--suite", "t9"],
        ["solve", "care", "--method", "newton", "--suite", "t9", "--n", "-3"],
        ["solve", "care", "--method", "newton", "--suite", "t11", "--n", "4"],
        ["sweep", "--suite", "t1", "--n", "4", "--alpha", "1", "--beta", "1", "--gamma", "1"],
    ])
    def test_suite_that_does_not_fit_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1

    def test_newton_admm_t9(self, capsys):
        code, out = run_cli(
            [
                "solve", "care", "--method", "newton-admm", "--suite", "t9",
                "--n", "8", "--alpha", "0.8", "--beta", "53.5",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["final_residual"] <= 1e-8
        assert payload["detail"]["outer_iterations"] >= 1

    def test_iteration_cap_exit_code(self, capsys):
        code, out = run_cli(
            [
                "solve", "care", "--method", "admm", "--suite", "t8", "--n", "4",
                "--alpha", "0.91", "--beta", "2.8", "--gamma", "0.0014",
                "--max-iterations", "2",
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["termination"] == "max_iterations"

    def test_solver_error_exit_code(self, tmp_path, capsys):
        write_matrix_market(tmp_path / "a.mtx", np.array([[1.0]]))
        write_matrix_market(tmp_path / "b.mtx", np.array([[-1.0]]))
        write_matrix_market(tmp_path / "c.mtx", np.array([[1.0]]))
        code, out = run_cli(
            [
                "solve", "sylvester", "--method", "direct", "--from-mm",
                str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx"), str(tmp_path / "c.mtx"),
            ],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["termination"] == "error"

    def test_from_mm_lyapunov(self, tmp_path, capsys):
        write_matrix_market(tmp_path / "a.mtx", np.diag([-1.0, -2.0]))
        write_matrix_market(tmp_path / "q.mtx", np.eye(2))
        code, out = run_cli(
            [
                "solve", "lyapunov", "--method", "direct", "--from-mm",
                str(tmp_path / "a.mtx"), str(tmp_path / "q.mtx"),
                "--to-mm", str(tmp_path / "x.mtx"),
            ],
            capsys,
        )
        assert code == 0
        x = read_matrix_market(tmp_path / "x.mtx")
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-10)

    def test_history_flag(self, tmp_path, capsys):
        code, out = run_cli(
            [
                "solve", "care", "--method", "newton", "--suite", "t8", "--n", "4",
                "--history", "--out", str(tmp_path / "r.json"),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert len(payload["residual_history"]) == payload["iterations"] + 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "solvers.ini"
        cfg.write_text("[admm]\nalpha = 0.91\nbeta = 2.8\ngamma = 0.0014\nmax_iterations = 3\n")
        code, out = run_cli(
            [
                "solve", "care", "--method", "admm", "--suite", "t8", "--n", "4",
                "--config", str(cfg), "--max-iterations", "5000",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["alpha"] == 0.91
        assert payload["config"]["max_iterations"] == 5000
        assert payload["termination"] == "converged"

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[admm]\nwat = 1\n")
        with pytest.raises(SystemExit) as err:
            main(["solve", "care", "--method", "admm", "--suite", "t8", "--n", "4",
                  "--config", str(cfg)])
        assert err.value.code == 1


class TestBench:
    def test_t3_cap_10(self, capsys):
        code, out = run_cli(["bench", "--suite", "t3", "--cap", "10"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("algorithm,")
        assert len(lines) == 2 and lines[1].startswith("ccom,10,1,")

    def test_outputs_to_files(self, tmp_path, capsys):
        code, _ = run_cli(
            [
                "bench", "--suite", "t8", "--cap", "16",
                "--out", str(tmp_path / "t8.csv"), "--json", str(tmp_path / "t8.json"),
            ],
            capsys,
        )
        assert code == 0
        csv_lines = (tmp_path / "t8.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + admm + newton
        payload = json.loads((tmp_path / "t8.json").read_text())
        assert payload["rows_run"] == 2 and payload["rows_failed"] == 0

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "t99"])
        assert err.value.code == 1

    def test_t7_three_parameter_rows(self, capsys):
        code, out = run_cli(["bench", "--suite", "t7"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("admm,9,") for line in lines[1:])
        # paper iteration references ride along per row
        assert lines[1].split(",")[5] == "6715"

    def test_failed_rows_exit_code(self, capsys):
        code, out = run_cli(["bench", "--suite", "t1", "--cap", "100"], capsys)
        assert code == 2
        assert "error" not in out.splitlines()[1]  # first row converged


class TestSweep:
    def test_zero_budget_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1",
                  "--gamma", "0.1", "--budget", "0"])
        assert err.value.code == 1

    def test_single_point_grid(self, capsys):
        code, out = run_cli(
            [
                "sweep", "--suite", "t8", "--n", "4", "--method", "admm",
                "--alpha", "0.91", "--beta", "2.8", "--gamma", "0.0014",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",converged,*")

    def test_grid_finds_best(self, capsys, recwarn):
        code, out = run_cli(
            [
                "sweep", "--suite", "t9", "--n", "4", "--method", "newton-admm",
                "--alpha", "0.5:1.0:2", "--beta", "20:60:2", "--tol", "1e-8",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert sum(1 for line in lines if line.endswith("*")) == 1

    def test_sweep_around_published_triple_beats_defaults(self, capsys):
        # self-comparison: a log-neighborhood of the published penalty
        # triple must contain a point at least as fast as the default
        # penalties on the same problem
        from matrixopt.care_admm import AdmmConfig, solve_care_admm
        from matrixopt.problems import care_family

        default_run = solve_care_admm(
            care_family("t8", 16).build(),
            AdmmConfig(tol=1e-8, max_iterations=20_000),
        )
        assert default_run.converged
        code, out = run_cli(
            [
                "sweep", "--suite", "t8", "--n", "16", "--method", "admm",
                "--alpha", "0.91", "--beta", "2.8:11.2:2",
                "--gamma", "0.0014:0.0056:2", "--max-iterations", "5000",
            ],
            capsys,
        )
        assert code == 0
        best_line = [l for l in out.strip().splitlines() if l.endswith("*")]
        assert len(best_line) == 1
        best_iterations = int(best_line[0].split(",")[3])
        assert best_iterations <= default_run.iterations

    def test_random_sweep_deterministic(self, capsys):
        argv = [
            "sweep", "--suite", "t8", "--n", "4", "--method", "admm",
            "--alpha", "0.5:1.5:3", "--beta", "1:5:3", "--gamma", "0.001:0.01:2",
            "--random", "3", "--seed", "7",
        ]
        code1, out1 = run_cli(argv, capsys)
        code2, out2 = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestPlot:
    def test_plot_from_report(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code, _ = run_cli(
            [
                "solve", "care", "--method", "newton", "--suite", "t8", "--n", "4",
                "--history", "--tol", "1e-8", "--out", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        out_svg = tmp_path / "r.svg"
        code = main(["plot", "--report", str(report_path), "--out", str(out_svg)])
        assert code == 0
        svg = out_svg.read_text()
        assert "<polyline" in svg and 'id="final-point"' in svg
        assert 'id="tolerance-line"' in svg

    def test_plot_without_history_is_usage_error(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code, _ = run_cli(
            ["solve", "care", "--method", "newton", "--suite", "t8", "--n", "4",
             "--out", str(report_path)],
            capsys,
        )
        assert code == 0
        with pytest.raises(SystemExit) as err:
            main(["plot", "--report", str(report_path), "--out", str(tmp_path / "x.svg")])
        assert err.value.code == 1
