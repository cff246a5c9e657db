import numpy as np
import pytest

from matrixopt.errors import DimensionError, UnknownSuiteError
from matrixopt.problems import (
    CareProblem,
    LyapunovProblem,
    ProblemSource,
    SylvesterProblem,
    ammonia_reactor,
    gen_tridiagonal,
    paper_suite,
    table_source,
)


class TestGenTridiagonal:
    def test_example_one_matrix(self):
        out = gen_tridiagonal(3, 2, -4, -4)
        np.testing.assert_allclose(out, [[2, -4, 0], [-4, 2, -4], [0, -4, 2]])

    def test_order_one_drops_bands(self):
        np.testing.assert_allclose(gen_tridiagonal(1, 5, 9, 9), [[5.0]])

    def test_asymmetric_bands(self):
        np.testing.assert_allclose(gen_tridiagonal(2, 6, 2, 1), [[6, 1], [2, 6]])

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gen_tridiagonal(0, 1, 1, 1)


class TestAmmoniaReactor:
    def test_corner_entry(self):
        assert ammonia_reactor().a[0, 0] == -4.019

    def test_n_is_symmetric(self):
        p = ammonia_reactor()
        np.testing.assert_array_equal(p.n_mat, p.n_mat.T)

    def test_k_is_identity(self):
        np.testing.assert_array_equal(ammonia_reactor().k_mat, np.eye(9))

    def test_first_input_column(self):
        # first column of the 9x3 input matrix
        b_col = np.array([0.010, 0.003, 0.009, 0.024, 0.068, 0, 0, 0, 0])
        p = ammonia_reactor()
        bbt = p.n_mat
        # N = B B^T must reproduce the column's outer contribution at (0, 0):
        # 0.010^2 + (-0.011)^2 + (-0.151)^2
        assert bbt[0, 0] == pytest.approx(0.010**2 + 0.011**2 + 0.151**2)
        assert b_col[4] == 0.068

    def test_deterministic_across_calls(self):
        p1, p2 = ammonia_reactor(), ammonia_reactor()
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.n_mat, p2.n_mat)
        np.testing.assert_array_equal(p1.k_mat, p2.k_mat)


class TestProblemValidation:
    def test_sylvester_shape_check(self):
        with pytest.raises(DimensionError):
            SylvesterProblem(a=np.eye(2), b=np.eye(3), c=np.eye(2))

    def test_care_symmetry_check(self):
        n = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            CareProblem(a=np.eye(2), n_mat=n, k_mat=np.eye(2))

    def test_lyapunov_symmetry_check(self):
        q = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            LyapunovProblem(a=np.eye(2), q=q)

    def test_care_semidefinite_scan(self):
        bad = np.diag([1.0, -1.0])
        p = CareProblem(a=np.eye(2), n_mat=np.eye(2), k_mat=bad)
        with pytest.raises(ValueError):
            p.check_semidefinite()
        p_ok = CareProblem(a=np.eye(2), n_mat=np.eye(2), k_mat=np.eye(2))
        p_ok.check_semidefinite()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SylvesterProblem(a=[[np.inf]], b=[[1.0]], c=[[1.0]])


class TestProblemSource:
    def test_generator_names_validated(self):
        with pytest.raises(ValueError):
            ProblemSource(name="nope", order=4)

    def test_build_sylvester(self):
        src = ProblemSource(
            name="sylvester_tridiagonal",
            order=4,
            params={"a": (3, -2, -2), "b": (6, 2, 2)},
        )
        p = src.build()
        assert isinstance(p, SylvesterProblem)
        np.testing.assert_allclose(p.a, gen_tridiagonal(4, 3, -2, -2))
        np.testing.assert_allclose(p.c, np.eye(4))

    def test_build_care(self):
        src = ProblemSource(
            name="care_tridiagonal",
            order=3,
            params={"a": (6, 2, 1), "bt": (5, 2, 1)},
        )
        p = src.build()
        assert isinstance(p, CareProblem)
        b = gen_tridiagonal(3, 5, 2, 1).T
        np.testing.assert_allclose(p.n_mat, b @ b.T)
        np.testing.assert_allclose(p.k_mat, np.eye(3))


class TestPaperSuite:
    def test_unknown_table(self):
        with pytest.raises(UnknownSuiteError):
            paper_suite("t99")

    def test_t3_family(self):
        rows = paper_suite("t3")
        assert [r.source.order for r in rows] == [10, 100, 200]
        p = rows[0].source.build()
        np.testing.assert_allclose(p.a, 2 * np.eye(10))
        np.testing.assert_allclose(p.b, np.eye(10))
        assert rows[0].paper_iterations == 1

    def test_t8_family(self):
        rows = paper_suite("t8")
        admm_rows = [r for r in rows if r.method == "admm"]
        assert admm_rows[0].params == {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}
        p = admm_rows[0].source.build()
        np.testing.assert_allclose(p.a, gen_tridiagonal(16, 6, 2, 1))
        bt = gen_tridiagonal(16, 5, 2, 1)
        np.testing.assert_allclose(p.n_mat, bt.T @ bt)

    def test_t9_shares_t8_family(self):
        p8 = paper_suite("t8")[0].source.build()
        p9 = [r for r in paper_suite("t9") if r.source.order == 16][0].source.build()
        np.testing.assert_array_equal(p8.a, p9.a)
        np.testing.assert_array_equal(p8.n_mat, p9.n_mat)

    def test_t7_parameter_triples(self):
        rows = paper_suite("t7")
        assert len(rows) == 3
        assert rows[0].params["alpha"] == 0.0465
        assert rows[0].paper_iterations == 6715

    def test_desk_scale_marking(self):
        rows = paper_suite("t5")
        large = [r for r in rows if r.source.order > 256]
        assert large and all(not r.desk_scale for r in large)
        small = [r for r in rows if r.source.order <= 256]
        assert small and all(r.desk_scale for r in small)

    def test_table_source_finds_every_table(self):
        kinds = {"t1": SylvesterProblem, "t6": SylvesterProblem, "t7": CareProblem,
                 "t8": CareProblem, "t10": CareProblem}
        for table, kind in kinds.items():
            assert isinstance(table_source(table, 4).build(), kind)
        assert table_source("t7", 4).order == 9
        assert table_source("t8", 16) == paper_suite("t8")[0].source
        assert table_source("t7", 9) == paper_suite("t7")[0].source
        with pytest.raises(UnknownSuiteError):
            table_source("t11", 4)

    def test_every_generated_problem_validates(self):
        for table in ("t1", "t3", "t5", "t7"):
            for row in paper_suite(table):
                if row.source.order <= 32:
                    row.source.build()
