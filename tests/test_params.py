"""The solver-parameter vocabulary: one method table, CLI flags and INI
keys derived from it, and usage errors for keys or values a method
does not take."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from matrixopt.baselines import BaselineConfig
from matrixopt.care_admm import AdmmConfig
from matrixopt.ccom import CcomConfig
from matrixopt.errors import ParameterError, PreconditionError
from matrixopt.harness.cli import build_parser, main
from matrixopt.harness.manifest import METHODS, configure
from matrixopt.mmio import write_matrix_market
from matrixopt.newton_admm import NewtonAdmmConfig
from matrixopt.problems import (
    SUITE_IDS,
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    care_family,
    paper_suite,
    sylvester_family,
)
from matrixopt.quasi_newton import QnConfig

S, L, C = SylvesterProblem, LyapunovProblem, CareProblem

# The keys each method's hand-written adapter read before the table
# replaced them.  cg is the one deliberate change: its adapter read
# ``omega`` through a helper shared with ar, but solve_cg never used it.
ADAPTER_KEYS = {
    ("ccom", S): {"tol", "max_iterations", "group_rows"},
    ("dfp", S): {"linesearch", "sigma1", "sigma2", "tol", "max_iterations"},
    ("bfgs", S): {"linesearch", "sigma1", "sigma2", "tol", "max_iterations"},
    ("cg", S): {"tol", "max_iterations"},
    ("ar", S): {"tol", "max_iterations", "omega"},
    ("admm", C): {"alpha", "beta", "gamma", "tol", "max_iterations", "check_every"},
    ("admm", L): {"alpha", "beta", "tol", "max_iterations"},
    ("newton", C): {"tol", "max_iterations"},
    ("newton-admm", C): {
        "alpha", "beta", "tol", "outer_max", "inner_tol_mode", "inner_tol_value", "inner_max",
    },
    ("direct", S): set(),
    ("direct", L): set(),
}

# The configs the adapters built from an empty parameter dict.
ADAPTER_DEFAULTS = {
    ("ccom", S): CcomConfig(epsilon=1e-8, max_iterations=100, group_rows=1),
    ("dfp", S): QnConfig(
        method="dfp", linesearch="exact", sigma1=1e-4, sigma2=0.9,
        grad_tol=1e-8, max_iterations=500,
    ),
    ("bfgs", S): QnConfig(
        method="bfgs", linesearch="exact", sigma1=1e-4, sigma2=0.9,
        grad_tol=1e-8, max_iterations=500,
    ),
    ("cg", S): BaselineConfig(tol=1e-8, max_iterations=1000, richardson_omega="auto"),
    ("ar", S): BaselineConfig(tol=1e-8, max_iterations=1000, richardson_omega="auto"),
    ("admm", C): AdmmConfig(
        alpha=0.5, beta=10.0, gamma=0.05, tol=1e-8, max_iterations=50_000, check_every=1
    ),
    # the Lyapunov adapter passed tol=1e-8 and max_iter=5000 to the solver
    ("admm", L): NewtonAdmmConfig(alpha=0.8, beta=50.0, outer_tol=1e-8, inner_max=5000),
    ("newton", C): BaselineConfig(tol=1e-8, max_iterations=100),
    ("newton-admm", C): NewtonAdmmConfig(
        alpha=0.8, beta=50.0, outer_tol=1e-8, outer_max=50,
        inner_tol_mode="forcing", inner_tol_value=0.1, inner_max=5000,
    ),
    ("direct", S): None,
    ("direct", L): None,
}

# Every ``solve`` parameter flag: dest -> (option strings, type, choices).
SOLVE_FLAGS = {
    "tol": (["--tol"], float, None),
    "max_iterations": (["--max-iterations", "--max-iter"], int, None),
    "alpha": (["--alpha"], float, None),
    "beta": (["--beta"], float, None),
    "gamma": (["--gamma"], float, None),
    "linesearch": (["--linesearch"], str, ("exact", "armijo", "wolfe")),
    "sigma1": (["--sigma1"], float, None),
    "sigma2": (["--sigma2"], float, None),
    "inner_tol_mode": (["--inner-tol-mode"], str, ("forcing", "fixed")),
    "inner_tol_value": (["--inner-tol-value"], float, None),
    "inner_max": (["--inner-max"], int, None),
    "outer_max": (["--outer-max"], int, None),
    "omega": (["--omega"], None, None),  # a number or "auto"
    "group_rows": (["--group-rows"], int, None),
    "check_every": (["--check-every"], int, None),
}
NON_PARAM_DESTS = {
    "help", "equation", "method", "suite", "n", "from_mm", "config", "out", "to_mm", "history",
}

# A value each key accepts, as it is written on a command line.
SAMPLE = {
    "tol": "1e-6", "max_iterations": "7", "alpha": "0.7", "beta": "3", "gamma": "0.2",
    "linesearch": "wolfe", "sigma1": "0.01", "sigma2": "0.5",
    "inner_tol_mode": "fixed", "inner_tol_value": "0.001", "inner_max": "9",
    "outer_max": "4", "omega": "0.05", "group_rows": "2", "check_every": "3",
}


def _problem(kind):
    if kind is S:
        return sylvester_family("t5", 4).build()
    if kind is C:
        return care_family("t8", 4).build()
    return LyapunovProblem(a=np.diag([-1.0, -2.0]), q=np.eye(2))


def _solve_actions():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices["solve"]._actions}


def _flag_values():
    """Each key parsed from its flag, as the CLI hands it to a method."""
    argv = ["solve", "care", "--method", "admm"]
    for key, raw in SAMPLE.items():
        argv += [SOLVE_FLAGS[key][0][0], raw]
    args = build_parser().parse_args(argv)
    return {key: getattr(args, key) for key in SAMPLE}


class TestVocabulary:
    def test_solve_flags_are_pinned(self):
        actions = _solve_actions()
        params = {dest: a for dest, a in actions.items() if dest not in NON_PARAM_DESTS}
        assert set(params) == set(SOLVE_FLAGS)
        for dest, (flags, kind, choices) in SOLVE_FLAGS.items():
            action = params[dest]
            assert action.option_strings == flags
            assert (tuple(action.choices) if action.choices else None) == choices
            if kind is not None:
                assert action.type is kind

    def test_omega_flag_takes_number_or_auto(self):
        base = ["solve", "sylvester", "--method", "ar"]
        assert build_parser().parse_args(base + ["--omega", "0.25"]).omega == 0.25
        assert build_parser().parse_args(base + ["--omega", "auto"]).omega == "auto"

    def test_ini_keys_match_flags(self, tmp_path):
        from matrixopt.harness.cli import _Parser, _params_from_config

        ini = tmp_path / "all.ini"
        ini.write_text(
            "[admm]\n" + "".join(f"{key.replace('_', '-')} = {raw}\n" for key, raw in SAMPLE.items())
        )
        from_ini = _params_from_config(str(ini), "admm", _Parser())
        flags = _flag_values()
        assert from_ini == flags
        assert all(type(from_ini[key]) is type(flags[key]) for key in SAMPLE)

    def test_each_method_takes_its_adapter_keys(self):
        assert {row: set(spec.keys) for row, spec in METHODS.items()} == ADAPTER_KEYS
        flags = _flag_values()
        for (method, kind), keys in ADAPTER_KEYS.items():
            problem = _problem(kind)
            for key in keys:
                configure(method, problem, {key: flags[key]})
            for key in set(SAMPLE) - keys:
                with pytest.raises(ParameterError, match=key):
                    configure(method, problem, {key: flags[key]})

    def test_defaults_come_from_the_dataclasses(self):
        for (method, kind), expected in ADAPTER_DEFAULTS.items():
            _, cfg = configure(method, _problem(kind), {})
            assert cfg == expected, (method, kind)

    def test_every_paper_row_is_accepted(self):
        for table in SUITE_IDS:
            for row in paper_suite(table):
                source = dataclasses.replace(row.source, order=min(row.source.order, 4))
                configure(row.method, source.build(), row.params)

    def test_method_problem_mismatch_is_not_a_parameter_error(self):
        with pytest.raises(PreconditionError) as err:
            configure("ccom", _problem(C), {})
        assert not isinstance(err.value, ParameterError)

    def test_lyapunov_admm_maps_keys_onto_its_solver(self):
        p = _problem(L)
        from matrixopt.harness.manifest import run_method

        capped = run_method("admm", p, {"max_iterations": 3})
        assert capped.iterations == 3 and capped.termination == "max_iterations"
        loose = run_method("admm", p, {"tol": 1e-2})
        tight = run_method("admm", p, {"tol": 1e-10})
        assert loose.final_residual <= 1e-2 and tight.final_residual <= 1e-10
        assert loose.iterations < tight.iterations


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    return capsys.readouterr().err


class TestUsageErrors:
    def test_newton_rejects_alpha(self, capsys):
        err = _usage_error(
            ["solve", "care", "--method", "newton", "--suite", "t8", "--n", "4", "--alpha", "3"],
            capsys,
        )
        assert "alpha" in err

    def test_newton_admm_rejects_max_iterations(self, capsys):
        err = _usage_error(
            ["solve", "care", "--method", "newton-admm", "--suite", "t8", "--n", "4",
             "--max-iterations", "1"],
            capsys,
        )
        assert "max_iterations" in err

    def test_inapplicable_ini_key(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text("[newton]\nalpha = 3\n")
        err = _usage_error(
            ["solve", "care", "--method", "newton", "--suite", "t8", "--n", "4",
             "--config", str(ini)],
            capsys,
        )
        assert "alpha" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "care", "--method", "admm", "--suite", "t8", "--n", "4", "--alpha", "-1"],
            ["solve", "sylvester", "--method", "bfgs", "--suite", "t5", "--n", "4",
             "--sigma1", "0.7"],
        ],
    )
    def test_rejected_value_is_one_line(self, argv, capsys):
        err = _usage_error(argv, capsys)
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_sweep_rejects_non_positive_single_value(self, capsys):
        err = _usage_error(
            ["sweep", "--suite", "t8", "--n", "4", "--alpha", "0", "--beta", "1",
             "--gamma", "0.1"],
            capsys,
        )
        assert "--alpha" in err

    def test_sweep_rejected_tolerance_is_usage_error(self, capsys):
        _usage_error(
            ["sweep", "--suite", "t8", "--n", "4", "--alpha", "1", "--beta", "1",
             "--gamma", "0.1", "--tol", "-1"],
            capsys,
        )


class TestIniOmega:
    @pytest.mark.parametrize("raw, expected", [("auto", "auto"), ("0.05", 0.05)])
    def test_omega_from_ini(self, raw, expected, tmp_path, capsys):
        ini = tmp_path / "ar.ini"
        ini.write_text(f"[ar]\nomega = {raw}\n")
        code = main(["solve", "sylvester", "--method", "ar", "--suite", "t5", "--n", "4",
                     "--config", str(ini)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["config"]["omega"] == expected

    def test_omega_word_other_than_auto_is_rejected(self, tmp_path, capsys):
        ini = tmp_path / "ar.ini"
        ini.write_text("[ar]\nomega = fast\n")
        err = _usage_error(
            ["solve", "sylvester", "--method", "ar", "--suite", "t5", "--n", "4",
             "--config", str(ini)],
            capsys,
        )
        assert "omega" in err


def test_lyapunov_admm_from_cli(tmp_path, capsys):
    write_matrix_market(tmp_path / "a.mtx", np.diag([-1.0, -2.0]))
    write_matrix_market(tmp_path / "q.mtx", np.eye(2))
    code = main(["solve", "lyapunov", "--method", "admm", "--from-mm",
                 str(tmp_path / "a.mtx"), str(tmp_path / "q.mtx"), "--max-iter", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["iterations"] == 2


def test_ccom_group_rows_that_do_not_divide_the_unknowns(capsys):
    err = _usage_error(
        ["solve", "sylvester", "--method", "ccom", "--suite", "t1", "--n", "3",
         "--group-rows", "2"],
        capsys,
    )
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "group_rows" in err
