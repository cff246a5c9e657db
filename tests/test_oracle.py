import numpy as np
import pytest

from conftest import random_sylvester
from matrixopt.errors import CapacityError, DimensionError, SingularMatrixError
from matrixopt.linalg import frobenius_norm
from matrixopt.oracle import solve_kronecker_direct, sylvester_residual
from matrixopt.problems import SylvesterProblem


class TestSylvesterResidual:
    def test_zero_iterate_gives_rhs_norm(self, rng):
        p = random_sylvester(rng, 4, 3)
        assert sylvester_residual(p, np.zeros((4, 3))) == pytest.approx(
            frobenius_norm(p.c)
        )

    def test_exact_solution(self):
        p = SylvesterProblem(a=np.eye(3), b=np.eye(3), c=2 * np.eye(3))
        assert sylvester_residual(p, np.eye(3)) == 0.0

    def test_diagonal_closed_form(self):
        p = SylvesterProblem(a=2 * np.eye(10), b=np.eye(10), c=np.eye(10))
        assert sylvester_residual(p, np.eye(10) / 3.0) <= 1e-14

    def test_shape_mismatch(self, rng):
        p = random_sylvester(rng, 4, 3)
        with pytest.raises(DimensionError):
            sylvester_residual(p, np.zeros((3, 4)))


class TestKroneckerDirect:
    def test_identity_problem(self):
        p = SylvesterProblem(a=np.eye(3), b=np.eye(3), c=2 * np.eye(3))
        np.testing.assert_allclose(solve_kronecker_direct(p), np.eye(3), atol=1e-12)

    def test_decoupled_scalars(self):
        # (2+1) x1 = 3, (3+1) x2 = 8
        p = SylvesterProblem(a=np.diag([2.0, 3.0]), b=[[1.0]], c=[[3.0], [8.0]])
        np.testing.assert_allclose(solve_kronecker_direct(p), [[1.0], [2.0]])

    def test_spectra_overlap_is_singular(self):
        p = SylvesterProblem(a=[[1.0]], b=[[-1.0]], c=[[1.0]])
        with pytest.raises(SingularMatrixError):
            solve_kronecker_direct(p)

    def test_capacity_guard(self):
        # (65 * 65)^2 entries exceed the default cap of 4096^2
        p = SylvesterProblem(a=np.eye(65), b=np.eye(65), c=np.eye(65))
        with pytest.raises(CapacityError):
            solve_kronecker_direct(p)

    def test_residual_bound_random(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            p = random_sylvester(rng, m, n)
            x = solve_kronecker_direct(p)
            assert sylvester_residual(p, x) <= 1e-10 * (1.0 + frobenius_norm(p.c))
