"""Converged Sylvester desk answers against their closed forms
(``tests/spectral.py``): a check of forward error that shares no code
with any solver."""

import numpy as np
import pytest

from matrixopt.errors import CapacityError
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import frobenius_norm
from matrixopt.problems import DESK_SCALE_MAX_ORDER, SylvesterProblem, paper_suite, table_source
from spectral import sylvester_solution

# Converged t1-t6 rows at the desk cap: ccom n=10 in t1-t3 (its n=100
# and 200 rows raise CapacityError) and the 16 t4-t6 rows.
CONVERGED_ROWS = 19


def test_converged_sylvester_desk_rows_meet_their_closed_forms():
    """The Sylvester operator of symmetric A and B is symmetric, so
    ||X - X*||_F <= ||R||_F / min |lambda_i + mu_j|; 1e-12 ||X*||_F
    leaves room for the rounding of X* itself."""
    checked = 0
    for table in ("t1", "t2", "t3", "t4", "t5", "t6"):
        for row in paper_suite(table):
            if row.source.order > DESK_SCALE_MAX_ORDER:
                continue
            p = row.source.build()
            try:
                report = run_method(row.method, p, row.params)
            except CapacityError:
                continue
            assert report.converged, row
            exact, gap = sylvester_solution(p)
            residual = frobenius_norm(p.residual_matrix(report.solution))
            bound = residual / gap + 1e-12 * frobenius_norm(exact)
            assert frobenius_norm(report.solution - exact) <= bound, row
            checked += 1
    assert checked == CONVERGED_ROWS


def test_closed_form_refuses_what_dst1_does_not_diagonalize():
    t6 = table_source("t6", 8).build()
    exact, _ = sylvester_solution(t6)
    assert frobenius_norm(t6.residual_matrix(exact)) <= 1e-13
    nonsymmetric = t6.a + np.diag(np.ones(7), 1)
    with pytest.raises(ValueError, match="DST-I"):
        sylvester_solution(SylvesterProblem(a=nonsymmetric, b=t6.b, c=t6.c))
