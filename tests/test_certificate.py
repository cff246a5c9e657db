"""The one CARE certificate: ``run_method`` attaches
``detail["certificate"]``, made by :func:`matrixopt.baselines.certify_care`,
to every CARE report and to no other, and no solver attaches it itself.
Its ``root`` label names the root scipy's Schur solver finds."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import matrixopt
from matrixopt import baselines
from matrixopt.baselines import certify_care
from matrixopt.harness.manifest import METHODS, run_method
from matrixopt.linalg import frobenius_norm
from matrixopt.problems import CareProblem, LyapunovProblem, paper_suite, table_source

CERTIFICATE_KEYS = {"residual", "relative_residual", "asymmetry", "closed_loop_max_real_eig", "root"}
RETIRED_KEYS = {"closed_loop_max_real_eig", "symmetry_gap", "asymmetry", "outer_trace", "directions"}


def _rows():
    """(table, index) of every t7 row and every t8-t10 row at n <= 64."""
    for table in ("t7", "t8", "t9", "t10"):
        for index, row in enumerate(paper_suite(table)):
            if row.source.order <= 64:
                yield pytest.param(table, index, id=f"{table}[{index}]-{row.method}-n{row.source.order}")


@functools.cache
def _row(table, index, negate=False):
    """The row's problem (with A negated on request) and its report."""
    row = paper_suite(table)[index]
    p = row.source.build()
    if negate:
        p = CareProblem(a=-p.a, n_mat=p.n_mat, k_mat=p.k_mat)
    return p, run_method(row.method, p, row.params)


def _scipy_root(p, root):
    """X+ = care(A), or X- = -care(-A), through a factor B of N = B B^T."""
    w, v = np.linalg.eigh(p.n_mat)
    b = v * np.sqrt(np.clip(w, 0.0, None))
    eye = np.eye(p.order)
    if root == "stabilizing":
        return scipy.linalg.solve_continuous_are(p.a, b, p.k_mat, eye)
    return -scipy.linalg.solve_continuous_are(-p.a, b, p.k_mat, eye)


@pytest.mark.parametrize("method", [method for method, kind in METHODS if kind is CareProblem])
def test_every_care_solver_reports_one_certificate(method):
    table, index = next(
        (table, index) for table in ("t8", "t9", "t10")
        for index, row in enumerate(paper_suite(table)) if row.method == method
    )
    p, report = _row(table, index)
    cert = report.detail["certificate"]
    assert set(cert) == CERTIFICATE_KEYS
    assert not RETIRED_KEYS & set(report.detail)
    assert cert["residual"] == report.final_residual
    assert cert["relative_residual"] == report.final_residual / frobenius_norm(p.k_mat)
    x = report.solution
    assert cert["asymmetry"] == frobenius_norm(x - x.T)
    assert cert["closed_loop_max_real_eig"] == max(np.linalg.eigvals(p.a - p.n_mat @ x).real)


@pytest.mark.parametrize("method, kind", [key for key in METHODS if key[1] is not CareProblem])
def test_no_other_report_carries_a_certificate(method, kind):
    p = LyapunovProblem(a=[[-2.0]], q=[[3.0]]) if kind is LyapunovProblem else table_source("t6", 8).build()
    assert "certificate" not in run_method(method, p).detail


def test_run_method_alone_certifies():
    src = Path(matrixopt.__file__).resolve().parent

    def certify_calls(tree):
        # a plain ``certify_care(...)`` or a ``baselines.certify_care(...)``
        return sum(
            isinstance(node, ast.Call)
            and "certify_care" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(tree)
        )

    trees = {path.relative_to(src).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
             for path in src.rglob("*.py")}
    assert {module: n for module, tree in trees.items() if (n := certify_calls(tree))} == {
        "harness/manifest.py": 1
    }
    run = next(node for node in ast.walk(trees["harness/manifest.py"])
               if isinstance(node, ast.FunctionDef) and node.name == "run_method")
    assert certify_calls(run) == 1


def test_cg_reports_no_directions():
    report = run_method("cg", table_source("t6", 8).build(), {})
    assert report.converged and "directions" not in report.detail


def test_the_abscissa_function_is_gone():
    assert not hasattr(baselines, "closed_loop_max_real_eig")


@pytest.mark.parametrize("table, index", _rows())
def test_root_label_names_scipys_root(table, index):
    p, report = _row(table, index)
    assert report.converged
    root = report.detail["certificate"]["root"]
    assert root == ("stabilizing" if table == "t7" else "anti-stabilizing")
    want = _scipy_root(p, root)
    assert frobenius_norm(report.solution - want) <= 1e-7 * frobenius_norm(want)


@pytest.mark.parametrize("table, index, sweeps", [("t8", 0, 563), ("t9", 0, 68)],
                         ids=["t8-admm-n16", "t9-newton-admm-n16"])
def test_negating_a_negates_the_answer_to_the_bit(table, index, sweeps):
    # The CARE is invariant under (A, X) -> (-A, -X), and both ADMM runs
    # from X = 0 follow that map: the anti-stabilizing root of the table's
    # A is minus the stabilizing root of -A.
    _, report = _row(table, index)
    _, flipped = _row(table, index, negate=True)
    assert report.iterations == flipped.iterations == sweeps
    assert np.array_equal(flipped.solution, -report.solution)
    assert report.detail["certificate"]["root"] == "anti-stabilizing"
    assert flipped.detail["certificate"]["root"] == "stabilizing"


def test_labels_and_guards():
    # Closed loop diag(1, -1) at X = 0: one eigenvalue on each side.
    mixed = CareProblem(a=np.diag([1.0, -1.0]), n_mat=np.eye(2), k_mat=np.zeros((2, 2)))
    cert = certify_care(mixed, np.zeros((2, 2)), 0.0)
    assert cert["root"] == "mixed" and cert["closed_loop_max_real_eig"] == 1.0
    assert math.isnan(cert["relative_residual"])
    blown = certify_care(mixed, np.full((2, 2), np.inf), math.inf)
    assert blown["root"] is None and blown["residual"] == math.inf
    assert all(math.isnan(blown[key]) for key in ("asymmetry", "closed_loop_max_real_eig"))
