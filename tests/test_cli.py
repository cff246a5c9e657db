import json
import re

import numpy as np
import pytest

from matrixopt.harness.cli import _write_json, main
from matrixopt.harness.manifest import run_manifest, summary_json
from matrixopt.mmio import read_matrix_market, write_matrix_market
from matrixopt import problems
from matrixopt.problems import paper_suite


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def usage_error(argv, capsys) -> str:
    """Run ``argv``, which must exit 1 with nothing on stdout; its stderr."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


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

    @pytest.mark.parametrize("argv, n", [
        (["--suite", "t7", "--n", "5"], 9),
        (["--suite", "t7"], 9),
        (["--suite", "t8", "--n", "4"], 4),
    ], ids=["t7-n5", "t7", "t8-n4"])
    def test_problem_order_is_the_order_built(self, capsys, argv, n):
        code, out = run_cli(["solve", "care", "--method", "newton", *argv], capsys)
        assert code == 0
        assert json.loads(out)["problem"]["n"] == n

    def test_unknown_method_is_usage_error(self, capsys):
        argv = ["solve", "care", "--method", "nosuch", "--suite", "t8", "--n", "4"]
        err = usage_error(argv, capsys)
        assert err.splitlines() == [
            "matrixopt: error: unknown method 'nosuch'; expected one of "
            "ccom, dfp, bfgs, cg, ar, admm, newton, newton-admm, direct"
        ]

    @pytest.mark.parametrize("argv, message", [
        (["solve", "sylvester", "--method", "admm", "--suite", "t1", "--n", "4"],
         "admm solves CareProblem or LyapunovProblem, not SylvesterProblem"),
        (["solve", "care", "--method", "cg", "--suite", "t8", "--n", "4"],
         "cg solves SylvesterProblem, not CareProblem"),
    ], ids=["admm-sylvester", "cg-care"])
    def test_method_that_does_not_solve_the_equation_is_usage_error(self, argv, message, capsys):
        assert usage_error(argv, capsys).splitlines() == [f"matrixopt: error: {message}"]

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

    @pytest.mark.parametrize("argv", [
        ["solve", "sylvester", "--method", "cg", "--suite", "t6", "--n", "16",
         "--max-iterations", "-3"],
        ["solve", "care", "--method", "newton-admm", "--suite", "t9", "--n", "16",
         "--inner-max", "-1"],
        ["solve", "care", "--method", "newton-admm", "--suite", "t9", "--n", "16",
         "--outer-max", "-1"],
        ["sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1",
         "--gamma", "0.1", "--max-iterations", "-1"],
    ])
    def test_negative_cap_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "iteration cap must be nonnegative" in capsys.readouterr().err

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

    def test_solver_error_names_its_class(self, capsys):
        # The failure JSON leads its error with the exception class, as
        # bench JSON and sweep CSV do.
        code, out = run_cli(
            ["solve", "sylvester", "--method", "direct", "--suite", "t1", "--n", "100"], capsys
        )
        assert code == 3
        assert json.loads(out) == {
            "method": "direct",
            "error": "CapacityError: kron output 10000x10000 exceeds cap of 16777216 entries",
            "termination": "error",
        }

    def test_non_finite_answer_is_not_written(self, tmp_path, capsys):
        # A = B = [[1e-300]], C = [[1e300]]: direct's answer overflows.
        for name, value in (("a", 1e-300), ("b", 1e-300), ("c", 1e300)):
            write_matrix_market(tmp_path / f"{name}.mtx", np.array([[value]]))
        files = [str(tmp_path / f"{name}.mtx") for name in "abc"]
        code = main(
            ["solve", "sylvester", "--method", "direct", "--from-mm", *files,
             "--to-mm", str(tmp_path / "x.mtx"), "--out", str(tmp_path / "r.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert not (tmp_path / "x.mtx").exists()
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["termination"], report["final_residual"]) == ("diverged", "inf")
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("matrixopt: ")
        assert "x.mtx not written" in lines[0] and "non-finite" in lines[0]

    def test_malformed_input_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n")
        with pytest.raises(SystemExit) as err:
            main(["solve", "care", "--method", "admm", "--from-mm", str(bad), str(bad), str(bad)])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert "invalid problem data: line 2: symmetric matrix must be square" in err_text
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("text", [
        "alpha = 0.91\n",  # no section header
        "[admm]\nalpha = 5%\n",  # a bare % is an interpolation error
    ])
    def test_unparsable_config_file_is_usage_error(self, text, tmp_path, capsys):
        ini = tmp_path / "solvers.ini"
        ini.write_text(text)
        err = usage_error(
            ["solve", "care", "--method", "admm", "--suite", "t8", "--n", "4",
             "--config", str(ini)],
            capsys,
        )
        assert f"config file {str(ini)!r} does not parse" in err

    def test_from_mm_lyapunov(self, tmp_path, capsys):
        write_matrix_market(tmp_path / "a.mtx", np.diag([-1.0, -2.0]))
        write_matrix_market(tmp_path / "q.mtx", np.eye(2))
        code, out = run_cli(
            [
                "solve", "lyapunov", "--method", "direct", "--from-mm",
                str(tmp_path / "a.mtx"), str(tmp_path / "q.mtx"), "--n", "7",
                "--to-mm", str(tmp_path / "x.mtx"),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["problem"]["n"] is None  # files set the order, not --n
        x = read_matrix_market(tmp_path / "x.mtx")
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-10)

    def test_suite_with_from_mm_is_usage_error(self, tmp_path, capsys):
        write_matrix_market(tmp_path / "a.mtx", np.diag([-1.0, -2.0]))
        write_matrix_market(tmp_path / "q.mtx", np.eye(2))
        err = usage_error(
            ["solve", "lyapunov", "--method", "direct", "--suite", "t8", "--n", "16",
             "--from-mm", str(tmp_path / "a.mtx"), str(tmp_path / "q.mtx")],
            capsys,
        )
        named = [line for line in err.splitlines() if "--suite" in line and "--from-mm" in line]
        assert len(named) == 1 and "Traceback" not in err

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

    def test_a_row_stopped_short_exits_2(self, tmp_path, capsys, monkeypatch):
        # t8's admm row capped at 5 sweeps ends max_iterations, not an error.
        rows = [
            (method, n, {**params, "max_iterations": 5} if method == "admm" else params, *rest)
            for method, n, params, *rest in problems._PAPER_ROWS["t8"]
        ]
        monkeypatch.setitem(problems._PAPER_ROWS, "t8", rows)
        path = tmp_path / "t8.json"
        code, _ = run_cli(["bench", "--suite", "t8", "--cap", "16", "--json", str(path)], capsys)
        assert code == 2
        payload = json.loads(path.read_text())
        assert payload["rows_failed"] == 0
        assert [(r["algorithm"], r["termination"]) for r in payload["records"]] == [
            ("admm", "max_iterations"), ("newton", "converged")
        ]

    def test_json_of_finite_rows_is_plain_json(self, tmp_path):
        # Finite rows, error rows among them, come out byte for byte as
        # json.dumps writes them.
        payload = summary_json("t1", run_manifest(paper_suite("t1"), cap=256))
        assert payload["rows_failed"] > 0
        _write_json(payload, str(tmp_path / "t1.json"))
        assert (tmp_path / "t1.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "t99"])
        assert err.value.code == 1

    @pytest.mark.parametrize("suite, cap", [("t7", 5), ("t1", 9)])
    def test_cap_below_every_row_is_usage_error(self, suite, cap, capsys):
        err = usage_error(["bench", "--suite", suite, "--cap", str(cap)], capsys)
        assert err.splitlines() == [
            f"matrixopt: error: --cap {cap} is below every order of suite {suite}"
        ]

    def test_workers_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "t3", "--cap", "10", "--workers", "2"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

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
    def test_retired_budget_is_usage_error(self, capsys):
        # The grid's K per axis, or --random R, sets the number of points.
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1",
                  "--gamma", "0.01:0.1:3", "--budget", "2"])
        assert err.value.code == 1
        assert "unrecognized arguments: --budget" in capsys.readouterr().err

    def test_retired_spacing_is_usage_error(self, capsys):
        # A grid is log-spaced and random draws are log-uniform.
        err = usage_error([
            "sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1",
            "--gamma", "0.01:0.1:3", "--spacing", "log"], capsys)
        assert "unrecognized arguments: --spacing log" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_random_is_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1",
                  "--gamma", "0.01:0.1:3", "--random", count])
        assert err.value.code == 1
        assert "--random must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["inf", "nan", "1:inf:3", "nan:1:3"])
    def test_non_finite_axis_is_usage_error(self, alpha, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--suite", "t8", "--n", "4", "--alpha", alpha, "--beta", "1",
                  "--gamma", "0.1"])
        assert err.value.code == 1
        assert "--alpha must be a finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method, gamma, message", [
        ("newton-admm", ["--gamma", "0.1"], "newton-admm sweeps take no --gamma"),
        ("admm", [], "--gamma is required for admm sweeps"),
    ])
    def test_penalties_are_exactly_the_methods_keys(self, method, gamma, message, capsys):
        err = usage_error(
            ["sweep", "--suite", "t9", "--n", "4", "--method", method,
             "--alpha", "0.8", "--beta", "53.5", *gamma],
            capsys,
        )
        assert message in err

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

    @pytest.mark.parametrize("method, gamma, termination", [
        ("admm", ["--gamma", "0.0014"], "max_iterations"),
        ("newton-admm", [], "stagnated"),  # inner_max 0: no sweep, twice
    ])
    def test_zero_max_iterations_is_kept(self, capsys, method, gamma, termination):
        code, out = run_cli(
            [
                "sweep", "--suite", "t8", "--n", "4", "--method", method,
                "--alpha", "0.91", "--beta", "2.8", *gamma, "--max-iterations", "0",
            ],
            capsys,
        )
        row = out.strip().splitlines()[1].split(",")
        assert code == 2
        assert (row[3], row[5]) == ("0", termination)

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
        from matrixopt.problems import table_source

        default_run = solve_care_admm(
            table_source("t8", 16).build(),
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


# Four sweeps and their CSV and stderr, byte for byte: the grid, the
# same axes drawn at random, a newton-admm grid with a fixed axis, and a
# single point.  They were recorded on the earlier point builder, which
# also offered linear spacing, so they pin that the log path kept its
# points, its draws and its output.
T8 = ["--suite", "t8", "--n", "4", "--method", "admm"]
T8_AXES = ["--alpha", "0.5:1.5:3", "--beta", "1:5:3", "--gamma", "0.001:0.01:2"]
SWEEP_HEADER = "alpha,beta,gamma,iterations,final_residual,termination,best\n"
RECORDED_SWEEPS = {
    "grid": (
        [*T8, *T8_AXES],
        SWEEP_HEADER
        + "0.5,1.0,0.001,5456,9.4709348178964e-09,converged,\n"
        "0.5,1.0,0.01,1313,4.6471709294189035e-09,converged,\n"
        "0.5,2.23606797749979,0.001,3562,9.806452398363098e-09,converged,\n"
        "0.5,2.23606797749979,0.01,669,8.493523803733085e-09,converged,\n"
        "0.5,5.0,0.001,496,8.617118948431097e-09,converged,\n"
        "0.5,5.0,0.01,309,4.650583949568021e-09,converged,*\n"
        "0.8660254037844386,1.0,0.001,1207,9.061840388128176e-09,converged,\n"
        "0.8660254037844386,1.0,0.01,1379,9.83307405275106e-09,converged,\n"
        "0.8660254037844386,2.23606797749979,0.001,610,7.084604319953633e-09,converged,\n"
        "0.8660254037844386,2.23606797749979,0.01,707,8.595909349422153e-09,converged,\n"
        "0.8660254037844386,5.0,0.001,442,9.696058861043828e-09,converged,\n"
        "0.8660254037844386,5.0,0.01,320,7.71222150747753e-09,converged,\n"
        "1.5,1.0,0.001,1450,3.6142758128013627e-09,converged,\n"
        "1.5,1.0,0.01,1567,8.214691886524304e-09,converged,\n"
        "1.5,2.23606797749979,0.001,671,6.410008717044171e-09,converged,\n"
        "1.5,2.23606797749979,0.01,661,6.1477484865149765e-09,converged,\n"
        "1.5,5.0,0.001,460,8.005361646105015e-09,converged,\n"
        "1.5,5.0,0.01,337,8.93888909646016e-09,converged,\n",
        '{"best": {"alpha": 0.5, "beta": 5.0, "gamma": 0.01, "iterations": 309, '
        '"final_residual": 4.650583949568021e-09, "termination": "converged"}}\n',
    ),
    "random": (
        [*T8, *T8_AXES, "--random", "3", "--seed", "7"],
        SWEEP_HEADER
        + "0.9936108784350896,4.237654392451018,0.00596603353566529,342,"
        "5.350661640902433e-09,converged,*\n"
        "0.6403554961285469,1.621090383347585,0.007474006055734187,830,"
        "2.3153630450114945e-09,converged,\n"
        "0.5029006454944874,3.7498511704454343,0.006267140466873406,358,"
        "4.788469979908632e-09,converged,\n",
        '{"best": {"alpha": 0.9936108784350896, "beta": 4.237654392451018, '
        '"gamma": 0.00596603353566529, "iterations": 342, '
        '"final_residual": 5.350661640902433e-09, "termination": "converged"}}\n',
    ),
    "t9-grid": (
        ["--suite", "t9", "--n", "4", "--method", "newton-admm",
         "--alpha", "0.8", "--beta", "20:60:3", "--tol", "1e-8"],
        SWEEP_HEADER
        + "0.8,20.0,,106,8.736751534201069e-09,converged,\n"
        "0.8,34.641016151377556,,77,1.0186702238562448e-09,converged,\n"
        "0.8,60.0,,57,6.156869959388884e-09,converged,*\n",
        '{"best": {"alpha": 0.8, "beta": 60.0, "iterations": 57, '
        '"final_residual": 6.156869959388884e-09, "termination": "converged"}}\n',
    ),
    "single": (
        [*T8, "--alpha", "0.91", "--beta", "2.8", "--gamma", "0.0014"],
        SWEEP_HEADER + "0.91,2.8,0.0014,451,3.817108552755578e-09,converged,*\n",
        '{"best": {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014, "iterations": 451, '
        '"final_residual": 3.817108552755578e-09, "termination": "converged"}}\n',
    ),
}


@pytest.mark.parametrize("argv, csv, err", RECORDED_SWEEPS.values(), ids=RECORDED_SWEEPS)
def test_sweep_output_is_the_recorded_output(argv, csv, err, capsys):
    assert main(["sweep", *argv]) == 0
    assert capsys.readouterr() == (csv, err)


@pytest.mark.parametrize("axes, fixed", [
    (["--alpha", "0.5:1.5:3", "--beta", "100", "--gamma", "0.001:0.01:2"], {1: "100.0"}),
    (["--alpha", "0.5:1.5:3", "--beta", "3:3:4", "--gamma", "0.001:0.01:2"], {1: "3.0"}),
], ids=["fixed-beta", "collapsed-beta"])
def test_random_sweep_keeps_a_fixed_axis_exact(axes, fixed, capsys):
    assert main(["sweep", *T8, *axes, "--random", "3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        assert {column: row[column] for column in fixed} == fixed


def test_all_fixed_random_sweep_repeats_the_single_point(capsys):
    # every axis fixed: no draw perturbs a penalty, so each row is the
    # single point's own run, to the last digit of its residual
    single = RECORDED_SWEEPS["single"]
    assert main(["sweep", *single[0], "--random", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [single[1].splitlines()[1], single[1].splitlines()[1].rstrip("*")]


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

    @pytest.mark.parametrize("text", [
        "not json\n",
        "[1.0, 0.1]\n",
        '{"residual_history": "abc"}\n',
        '{"residual_history": 5}\n',
        '{"residual_history": [1.0, "0.1"]}\n',
        '{"residual_history": [1.0, 0.1], "config": {"tol": "1e-8"}}\n',
        '{"residual_history": [1.0, 0.1], "config": {"tol": Infinity}}\n',
    ])
    def test_malformed_report_is_usage_error(self, text, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        report_path.write_text(text)
        err = usage_error(
            ["plot", "--report", str(report_path), "--out", str(tmp_path / "r.svg")], capsys
        )
        assert f"report {str(report_path)!r}" in err
        assert not (tmp_path / "r.svg").exists()

    def test_diverged_report_is_strict_json_and_plots_its_finite_points(
        self, tmp_path, capsys
    ):
        # ar's omega = 1/5.1 on a rotation: the residual grows from
        # 1.41e150 until its norm overflows at step 57.
        files = []
        for name, value in (("a", [[0.0, -5.0], [5.0, 0.0]]), ("b", [[0.1]]),
                            ("c", [[1e150], [1e150]])):
            write_matrix_market(tmp_path / f"{name}.mtx", np.array(value))
            files.append(str(tmp_path / f"{name}.mtx"))
        report_path = tmp_path / "d.json"
        code, _ = run_cli(
            [
                "solve", "sylvester", "--method", "ar", "--from-mm", *files,
                "--history", "--out", str(report_path),
            ],
            capsys,
        )
        assert code == 2
        text = report_path.read_text()
        payload = json.loads(text, parse_constant=pytest.fail)
        assert (payload["termination"], payload["iterations"]) == ("diverged", 57)
        assert payload["final_residual"] == "inf"
        history = payload["residual_history"]
        assert history[0] == pytest.approx(2**0.5 * 1e150)
        assert history[-2] == pytest.approx(1.32e154, rel=1e-2)
        assert history[-1] == "inf" and "inf" not in history[:-1]
        out_svg = tmp_path / "d.svg"
        assert main(["plot", "--report", str(report_path), "--out", str(out_svg)]) == 0
        svg = out_svg.read_text()
        assert not re.search(r'[=", ]-?(nan|inf)\b', svg)
        points = re.search(r'points="([^"]*)"', svg).group(1).split()
        assert len(points) == 57 and points[0] == "70.00,373.18"
        cx, cy = points[-1].split(",")
        assert f'<circle id="final-point" cx="{cx}" cy="{cy}"' in svg

    def test_plot_skips_a_legacy_infinity_token(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        report_path.write_text('{"residual_history": [1.0, 0.1, Infinity, "nan", 0.01, "-inf"]}')
        out_svg = tmp_path / "r.svg"
        assert main(["plot", "--report", str(report_path), "--out", str(out_svg)]) == 0
        svg = out_svg.read_text()
        points = re.search(r'points="([^"]*)"', svg).group(1).split()
        assert [float(p.split(",")[0]) for p in points] == [70.0, 180.0, 510.0]
        assert f'cx="{points[-1].split(",")[0]}"' in svg

    @pytest.mark.parametrize("history", ['["inf", "nan"]', "[Infinity, NaN]"])
    def test_history_without_a_finite_residual_is_usage_error(self, history, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        report_path.write_text(f'{{"residual_history": {history}}}')
        err = usage_error(
            ["plot", "--report", str(report_path), "--out", str(tmp_path / "r.svg")], capsys
        )
        assert "no finite residual" in err
        assert not (tmp_path / "r.svg").exists()

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


@pytest.mark.parametrize("argv, message", [
    (["bench", "--suite", "t1", "--cap", "0"], "--cap 0 is below every order of suite t1"),
    (["bench", "--suite", "t1", "--cap", "-3"], "--cap -3 is below every order of suite t1"),
    (["sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1", "--gamma", "0.1",
      "--seed", "-1", "--random", "1"], "--seed must be non-negative"),
    (["plot", "--tolerance", "nan"], "--tolerance must be finite and positive"),
    (["plot", "--tolerance", "-1"], "--tolerance must be finite and positive"),
    (["plot", "--tolerance", "inf"], "--tolerance must be finite and positive"),
])
def test_numeric_flag_out_of_range_is_one_line_usage_error(argv, message, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    report_path.write_text('{"residual_history": [1.0, 0.1]}\n')
    if argv[0] == "plot":
        argv = [*argv, "--report", str(report_path), "--out", str(tmp_path / "r.svg")]
    err = usage_error(argv, capsys)
    assert err.splitlines() == [f"matrixopt: error: {message}"]
