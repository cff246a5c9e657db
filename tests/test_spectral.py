"""Converged Sylvester and t10 CARE desk answers against their closed
forms (``tests/spectral.py``): a check of forward error that shares no
code with any solver."""

import numpy as np
import pytest

from matrixopt.errors import CapacityError
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import frobenius_norm
from matrixopt.problems import (
    DESK_SCALE_MAX_ORDER,
    CareProblem,
    SylvesterProblem,
    paper_suite,
    table_source,
)
from spectral import care_roots, sylvester_solution

# Converged t1-t6 rows at the desk cap: ccom n=10 in t1-t3 (its n=100
# and 200 rows raise CapacityError) and the 16 t4-t6 rows.
CONVERGED_ROWS = 19

# t10's desk rows: newton and newton-admm at n = 16 ... 256.
T10_DESK_ROWS = 10


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


def test_t10_desk_rows_land_on_the_anti_stabilizing_root():
    """Near X-, R(X- + E) = L(E) - E N E, where the Lyapunov operator L
    of A - N X- is symmetric with eigenvalues sqrt(a_i^2 + n_i) +
    sqrt(a_j^2 + n_j); so ||X - X-||_F <= ||R||_F / (2 min sqrt(a_i^2 +
    n_i)) to first order, and 1e-12 ||X-||_F leaves room for rounding."""
    checked = 0
    for row in paper_suite("t10"):
        if row.source.order > DESK_SCALE_MAX_ORDER:
            continue
        p = row.source.build()
        report = run_method(row.method, p, row.params)
        assert report.converged, row
        _, minus, gap = care_roots(p)
        bound = report.final_residual / (2.0 * gap) + 1e-12 * frobenius_norm(minus)
        assert frobenius_norm(report.solution - minus) <= bound, row
        assert report.detail["certificate"]["root"] == "anti-stabilizing", row
        checked += 1
    assert checked == T10_DESK_ROWS


def test_care_roots_solve_the_scalar_quadratics():
    p = table_source("t10", 8).build()
    plus, minus, _ = care_roots(p)
    for x, sign in ((plus, -1.0), (minus, 1.0)):
        residual = p.a.T @ x + x @ p.a - x @ p.n_mat @ x + p.k_mat
        assert frobenius_norm(residual) <= 1e-13
        assert np.all(sign * np.linalg.eigvals(p.a - p.n_mat @ x).real > 0)
    with pytest.raises(ValueError, match="K = I"):
        care_roots(CareProblem(a=p.a, n_mat=p.n_mat, k_mat=2.0 * p.k_mat))


def test_closed_form_refuses_what_dst1_does_not_diagonalize():
    t6 = table_source("t6", 8).build()
    exact, _ = sylvester_solution(t6)
    assert frobenius_norm(t6.residual_matrix(exact)) <= 1e-13
    nonsymmetric = t6.a + np.diag(np.ones(7), 1)
    with pytest.raises(ValueError, match="DST-I"):
        sylvester_solution(SylvesterProblem(a=nonsymmetric, b=t6.b, c=t6.c))
