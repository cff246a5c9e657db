"""The solver-parameter vocabulary: one method table, CLI flags and INI
keys derived from it, and usage errors for keys or values a method
does not take."""

import argparse
import ast
import dataclasses
import itertools
import json
import math
import re
import shlex
import typing
from pathlib import Path

import numpy as np
import pytest

import matrixopt
from matrixopt.baselines import BaselineConfig, certify_care
from matrixopt.care_admm import AdmmConfig
from matrixopt.ccom import CcomConfig
from matrixopt.errors import ParameterError, PreconditionError
from matrixopt.harness.cli import build_parser, main
from matrixopt.harness.manifest import METHODS, configure, run_method
from matrixopt.mmio import write_matrix_market
from matrixopt.newton_admm import NewtonAdmmConfig
from matrixopt.problems import (
    SUITE_IDS,
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    paper_suite,
    table_source,
)
from matrixopt.quasi_newton import QnConfig

S, L, C = SylvesterProblem, LyapunovProblem, CareProblem

# The keys each method's hand-written adapter read before the table
# replaced them, less three that became constants: ar's ``omega`` and
# dfp/bfgs's ``sigma1`` and ``sigma2``.  cg's adapter also read ``omega``,
# through a helper shared with ar, but solve_cg never used it.
ADAPTER_KEYS = {
    ("ccom", S): {"tol", "max_iterations"},
    ("dfp", S): {"linesearch", "tol", "max_iterations"},
    ("bfgs", S): {"linesearch", "tol", "max_iterations"},
    ("cg", S): {"tol", "max_iterations"},
    ("ar", S): {"tol", "max_iterations"},
    ("admm", C): {"alpha", "beta", "gamma", "tol", "max_iterations"},
    ("admm", L): {"alpha", "beta", "tol", "max_iterations"},
    ("newton", C): {"tol", "max_iterations"},
    ("newton-admm", C): {"alpha", "beta", "tol", "outer_max", "inner_tol_value", "inner_max"},
    ("direct", S): set(),
    ("direct", L): set(),
}

# The configs the adapters built from an empty parameter dict.
ADAPTER_DEFAULTS = {
    ("ccom", S): CcomConfig(tol=1e-8, max_iterations=100),
    ("dfp", S): QnConfig(method="dfp", linesearch="exact", tol=1e-8, max_iterations=500),
    ("bfgs", S): QnConfig(method="bfgs", linesearch="exact", tol=1e-8, max_iterations=500),
    ("cg", S): BaselineConfig(tol=1e-8, max_iterations=1000),
    ("ar", S): BaselineConfig(tol=1e-8, max_iterations=1000),
    ("admm", C): AdmmConfig(alpha=0.5, beta=10.0, gamma=0.05, tol=1e-8, max_iterations=50_000),
    # the Lyapunov adapter passed tol=1e-8 and max_iter=5000 to the solver
    ("admm", L): NewtonAdmmConfig(alpha=0.8, beta=50.0, tol=1e-8, inner_max=5000),
    ("newton", C): BaselineConfig(tol=1e-8, max_iterations=100),
    ("newton-admm", C): NewtonAdmmConfig(
        alpha=0.8, beta=50.0, tol=1e-8, outer_max=50, inner_tol_value=0.1, inner_max=5000,
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
    "inner_tol_value": (["--inner-tol-value"], float, None),
    "inner_max": (["--inner-max"], int, None),
    "outer_max": (["--outer-max"], int, None),
}
NON_PARAM_DESTS = {
    "help", "equation", "method", "suite", "n", "from_mm", "config", "out", "to_mm", "history",
}

# A value each key accepts, as it is written on a command line.
SAMPLE = {
    "tol": "1e-6", "max_iterations": "7", "alpha": "0.7", "beta": "3", "gamma": "0.2",
    "linesearch": "wolfe", "inner_tol_value": "0.001", "inner_max": "9", "outer_max": "4",
}


def _problem(kind):
    if kind is S:
        return table_source("t5", 4).build()
    if kind is C:
        return table_source("t8", 4).build()
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
            assert action.type is kind

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

    def test_no_dead_or_renamed_knobs(self):
        """Every config field is some method's key or preset, and every key
        is its field's name but the Lyapunov admm's cap."""
        reached = {}
        for spec in METHODS.values():
            if spec.config is not None:
                reached.setdefault(spec.config, set()).update(spec.keys.values(), spec.preset)
        for config, names in reached.items():
            dead = {f.name for f in dataclasses.fields(config)} - names
            assert not dead, (config.__name__, dead)
        renamed = {
            (row, key, name) for row, spec in METHODS.items()
            for key, name in spec.keys.items() if key != name
        }
        assert renamed == {(("admm", L), "max_iterations", "inner_max")}

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
        capped = run_method("admm", p, {"max_iterations": 3})
        assert capped.iterations == 3 and capped.termination == "max_iterations"
        loose = run_method("admm", p, {"tol": 1e-2})
        tight = run_method("admm", p, {"tol": 1e-10})
        assert loose.final_residual <= 1e-2 and tight.final_residual <= 1e-10
        assert loose.iterations < tight.iterations


# Config-dataclass fields of the method table, CLI arguments of every
# subcommand, and environment variables read under ``src/``: each one is
# a value a user can set.  A new knob changes this count, so it shows in
# review.
SETTABLE_VALUES = (19, 36, 0)


def _settable_values() -> tuple[int, int, int]:
    configs = {spec.config for spec in METHODS.values() if spec.config is not None}
    fields = sum(len(dataclasses.fields(config)) for config in configs)
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    arguments = sum(
        not isinstance(action, argparse._HelpAction)
        for command in sub.choices.values()
        for action in command._actions
    )
    src = Path(matrixopt.__file__).resolve().parent
    environment = sum(
        (node.attr if isinstance(node, ast.Attribute) else node.id) in ("environ", "getenv")
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Attribute, ast.Name))
    )
    return fields, arguments, environment


def test_settable_values_are_counted():
    assert _settable_values() == SETTABLE_VALUES
    assert sum(SETTABLE_VALUES) == 55


def test_no_parameter_default_restates_a_constant():
    """A tuning value is stated once: a function reads its module
    constant and takes no parameter whose default is an UPPER_CASE name."""
    src = Path(matrixopt.__file__).resolve().parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if isinstance(default, (ast.Name, ast.Attribute)):
                    name = default.id if isinstance(default, ast.Name) else default.attr
                    if name.isupper():
                        found.append(f"{path.relative_to(src)}:{default.lineno} {name}")
    assert found == []


README = Path(__file__).resolve().parent.parent / "README.md"
README_QUALIFIERS = {"CARE": C, "Lyapunov": L, "Sylvester": S}


def _readme_table(heading: str, header: str) -> dict:
    """(method, problem class) -> the second cell of its row in the README
    table under ``heading`` whose header line is ``header``.  A qualifier
    after a method, such as ``(CARE)``, picks one problem class of it."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    lines = section.splitlines()
    body = lines[lines.index(header) + 2:]
    table = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), body):
        label, cell = (text.strip() for text in line.strip("|").split("|"))
        rows = [
            (name, kind)
            for name, qualifier in re.findall(r"`([\w-]+)`(?: \((\w+)\))?", label)
            for kind in ([README_QUALIFIERS[qualifier]] if qualifier else [S, L, C])
            if (name, kind) in METHODS
        ]
        assert rows, line
        table.update(dict.fromkeys(rows, cell))
    return table


def _readme_keys():
    """(method, problem class) -> keys, as the README's Solver parameters
    table lists them; parenthesised notes on keys are not keys."""
    return {
        row: set(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", keys)))
        for row, keys in _readme_table("### Solver parameters", "| Method | Keys |").items()
    }


def test_readme_table_lists_each_methods_keys():
    assert _readme_keys() == {row: set(spec.keys) for row, spec in METHODS.items()}


def test_readme_threading_table_lists_each_methods_hold():
    held = _readme_table("## Threading", "| Method | Copy held at one thread |")
    copies = {"numpy's": "numpy", "scipy's": "scipy", "none": None}
    assert {row: copies[cell] for row, cell in held.items()} == {
        row: spec.hold for row, spec in METHODS.items()
    }


def test_readme_command_lines_parse():
    """Every ``matrixopt`` line of the README's Command line example block,
    continuations joined, is accepted by the parser (it is not run)."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("matrixopt ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """The README's Command line example lines that read no input file run
    from an empty directory, in order, and each exits 0; the lines that
    name output files write them."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("matrixopt ")]
    runnable = [argv for argv in commands if "--from-mm" not in argv]
    assert [argv[1] for argv in runnable] == ["solve", "bench", "sweep", "solve", "plot"]
    monkeypatch.chdir(tmp_path)
    for argv in runnable:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "r.json", "r.svg", "t8.csv", "t8.json"
    ]


def test_readme_names_every_cli_argument():
    """The README names each argument of each subcommand: an option by
    one of its flags or by its parameter key in backticks, a positional
    by ``<command> <choice>`` for each of its choices."""
    text = README.read_text(encoding="utf-8")
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unnamed = []
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                named = f"`{action.dest}`" in text or any(
                    re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
                    for flag in action.option_strings
                )
            else:
                named = all(f"{command} {choice}" in text for choice in action.choices)
            if not named:
                unnamed.append(f"{command} {action.dest}")
    assert unnamed == []


def test_no_method_flag_has_a_parser_default():
    """A method key's default lives only in its config dataclass, so no
    ``solve`` or ``sweep`` flag for a method key sets one."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    keys = {key for spec in METHODS.values() for key in spec.keys}
    for command in ("solve", "sweep"):
        for action in sub.choices[command]._actions:
            if action.dest in keys:
                assert action.default is None, (command, action.option_strings)


# Every real field of each config the method table names; each must be
# finite and positive (the forcing factor also below 1).  A test written
# ``x <= 0`` lets NaN and inf through.
FINITE_FIELDS = list(dict.fromkeys(
    (spec.config, name)
    for spec in METHODS.values() if spec.config is not None
    for name, kind in typing.get_type_hints(spec.config).items() if kind is float
))


def test_finite_fields_cover_every_real_config_field():
    assert len(FINITE_FIELDS) == 11
    assert (NewtonAdmmConfig, "inner_tol_value") in FINITE_FIELDS


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("config, name", FINITE_FIELDS)
def test_config_rejects_out_of_range_value(config, name, value):
    """The message leads with the field it names."""
    with pytest.raises(ValueError, match=rf"^(forcing factor )?{name} must"):
        config(**{name: value})


def _restates_positive_range(node) -> bool:
    """Whether ``node`` is the chained comparison ``0 < x < math.inf``
    (or ``np.inf``)."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 2):
        return False
    bound = node.comparators[1]
    return (
        isinstance(node.left, ast.Constant) and node.left.value == 0
        and all(isinstance(op, ast.Lt) for op in node.ops)
        and isinstance(bound, ast.Attribute) and bound.attr == "inf"
        and isinstance(bound.value, ast.Name) and bound.value.id in ("math", "np")
    )


def test_no_post_init_restates_the_positive_check():
    """Every config reads ``linalg.require_positive``: no ``__post_init__``
    under ``src/matrixopt/`` writes ``0 < x < inf`` itself."""
    src = Path(matrixopt.__file__).resolve().parent
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
        for node in ast.walk(fn)
        if _restates_positive_range(node)
    ]
    assert found == []


def test_readme_certificate_bullet_names_the_certificate_keys():
    """The sub-bullets of the README's CARE certificate bullet, one per
    key, name exactly the keys ``certify_care`` returns."""
    text = README.read_text(encoding="utf-8")
    bullet = text.split("- Every CARE report", 1)[1].split("\n- ", 1)[0]
    named = re.findall(r"^  - `(\w+)`:", bullet, flags=re.MULTILINE)
    p = CareProblem(a=[[-1.0]], n_mat=[[1.0]], k_mat=[[1.0]])
    assert len(named) == len(set(named))
    assert set(named) == set(certify_care(p, np.zeros((1, 1)), 1.0))


def test_readme_names_the_quasi_newton_detail_keys():
    """The README's sentence on a dfp/bfgs report's ``detail`` names
    exactly the keys a run returns."""
    text = README.read_text(encoding="utf-8")
    sentence = text.split("A dfp/bfgs report's", 1)[1].split(".", 1)[0]
    named = set(re.findall(r"`(\w+)`", sentence)) - {"detail"}
    p = table_source("t6", 16).build()
    for method in ("dfp", "bfgs"):
        assert named == set(run_method(method, p).detail)


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
             "--tol", "0"],
            ["solve", "care", "--method", "newton-admm", "--suite", "t9", "--n", "4",
             "--inner-tol-value", "2"],
        ],
    )
    def test_rejected_value_is_one_line(self, argv, capsys):
        err = _usage_error(argv, capsys)
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "method, key, raw",
        [
            ("admm", "check_every", "3"),
            ("newton-admm", "inner_tol_mode", "fixed"),
            ("ccom", "group_rows", "2"),
            ("ar", "omega", "0.05"),
            ("bfgs", "sigma1", "0.01"),
            ("dfp", "sigma2", "0.5"),
        ],
    )
    def test_retired_key_is_rejected(self, method, key, raw, tmp_path, capsys):
        sylvester = method in ("ccom", "ar", "bfgs", "dfp")
        equation, suite = ("sylvester", "t1") if sylvester else ("care", "t8")
        base = ["solve", equation, "--method", method, "--suite", suite, "--n", "4"]
        flag = "--" + key.replace("_", "-")
        assert flag in _usage_error(base + [flag, raw], capsys)
        ini = tmp_path / "retired.ini"
        ini.write_text(f"[{method}]\n{key.replace('_', '-')} = {raw}\n")
        assert key in _usage_error(base + ["--config", str(ini)], capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "sylvester", "--method", "cg", "--suite", "t6", "--n", "8", "--tol", "inf"],
            ["solve", "care", "--method", "newton-admm", "--suite", "t9", "--n", "8",
             "--tol", "nan"],
            ["solve", "care", "--method", "admm", "--suite", "t8", "--n", "4", "--alpha", "nan"],
        ],
    )
    def test_non_finite_value_is_usage_error(self, argv, capsys):
        err = _usage_error(argv, capsys)
        assert "finite and positive" in err and "Traceback" not in err

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


def test_lyapunov_admm_from_cli(tmp_path, capsys):
    write_matrix_market(tmp_path / "a.mtx", np.diag([-1.0, -2.0]))
    write_matrix_market(tmp_path / "q.mtx", np.eye(2))
    code = main(["solve", "lyapunov", "--method", "admm", "--from-mm",
                 str(tmp_path / "a.mtx"), str(tmp_path / "q.mtx"), "--max-iter", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["iterations"] == 2

