import dataclasses
import hashlib

import numpy as np
import pytest

from matrixopt.errors import DimensionError, UnknownSuiteError
from matrixopt.oracle import sylvester_residual
from matrixopt.problems import (
    _FAMILIES,
    SUITE_IDS,
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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SylvesterProblem(a=[[np.inf]], b=[[1.0]], c=[[1.0]])

    @pytest.mark.parametrize("kind, fields, error, name", [
        # every field is converted and checked for finite entries before
        # any shape is compared
        (SylvesterProblem, {"a": np.ones((2, 3)), "c": [[np.nan]]}, ValueError, "c"),
        (SylvesterProblem, {"a": np.ones((2, 3))}, DimensionError, "a"),
        (SylvesterProblem, {"b": np.ones((3, 2))}, DimensionError, "b"),
        (SylvesterProblem, {"c": np.ones((2, 3))}, DimensionError, "c"),
        (LyapunovProblem, {"a": [1.0, 2.0]}, DimensionError, "a"),
        (LyapunovProblem, {"a": np.ones((2, 3))}, DimensionError, "a"),
        (LyapunovProblem, {"q": np.eye(3)}, DimensionError, "q"),
        (LyapunovProblem, {"q": np.triu(np.ones((2, 2)))}, ValueError, "q"),
        # shapes are checked before symmetry, n_mat before k_mat
        (CareProblem, {"n_mat": np.triu(np.ones((2, 2))), "k_mat": np.eye(3)},
         DimensionError, "k_mat"),
        (CareProblem, {"n_mat": np.triu(np.ones((2, 2))), "k_mat": np.triu(np.ones((2, 2)))},
         ValueError, "n_mat"),
        (CareProblem, {"k_mat": np.triu(np.ones((2, 2)))}, ValueError, "k_mat"),
    ])
    def test_first_failing_check_names_its_field(self, kind, fields, error, name):
        valid = {"a": np.eye(2), "b": np.eye(2), "c": np.eye(2), "q": np.eye(2),
                 "n_mat": np.eye(2), "k_mat": np.eye(2)}
        given = {f: fields.get(f, valid[f]) for f in kind.__dataclass_fields__}
        with pytest.raises(ValueError) as err:
            kind(**given)
        assert type(err.value) is error
        assert str(err.value).startswith(f"{name} ")


class TestProblemSource:
    def test_unknown_table_and_order_rejected(self):
        with pytest.raises(UnknownSuiteError):
            ProblemSource("nope", 4)
        with pytest.raises(ValueError):
            ProblemSource("t5", 0)

    def test_build_sylvester(self):
        p = ProblemSource("t5", 4).build()
        assert isinstance(p, SylvesterProblem)
        np.testing.assert_allclose(p.a, gen_tridiagonal(4, 3, -2, -2))
        np.testing.assert_allclose(p.b, gen_tridiagonal(4, 6, 2, 2))
        np.testing.assert_allclose(p.c, np.eye(4))

    def test_build_care(self):
        p = ProblemSource("t8", 3).build()
        assert isinstance(p, CareProblem)
        b = gen_tridiagonal(3, 5, 2, 1).T
        np.testing.assert_allclose(p.n_mat, b @ b.T)
        np.testing.assert_allclose(p.k_mat, np.eye(3))

    def test_a_source_is_its_table_and_order(self):
        assert [f.name for f in dataclasses.fields(ProblemSource)] == ["table", "order"]
        assert hash(table_source("t8", 16)) == hash(ProblemSource("t8", 16))
        assert len({table_source("t8", 16), table_source("t9", 16), table_source("t8", 32)}) == 3


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


# Transcription audit: facts the table definitions imply, pinned so that a
# mistyped band shows here before it shows as a puzzling iteration count.
# A and B commute in t1-t6 (which is why an m x m quasi-Newton model can
# capture the operator); A + B is a multiple of I in t3-t5, so the
# solution is C / (a0 + b0) exactly; the CARE A of t8-t10 is anti-stable.
MIN_REAL_EIG_OF_A = {"t8": (3.1, 3.25), "t9": (3.1, 3.25), "t10": (1.0, 1.04)}


@pytest.mark.parametrize("table", ["t1", "t2", "t3", "t4", "t5", "t6", "t8", "t9", "t10"])
def test_transcribed_tables_have_the_structure_they_imply(table):
    if table in MIN_REAL_EIG_OF_A:
        lo, hi = MIN_REAL_EIG_OF_A[table]
        for n in (16, 64, 256):
            a = table_source(table, n).build().a
            assert lo < np.linalg.eigvals(a).real.min() < hi
        return
    for n in (10, 16, 128):
        p = table_source(table, n).build()
        np.testing.assert_array_equal(p.a @ p.b, p.b @ p.a)
        shift = p.a[0, 0] + p.b[0, 0]
        if table in ("t3", "t4", "t5"):
            np.testing.assert_array_equal(p.a + p.b, shift * np.eye(n))
            assert sylvester_residual(p, p.c / shift) == 0.0
        else:
            assert not np.array_equal(p.a + p.b, shift * np.eye(n))


# Row count and sha256 of the repr of the table's bands and each row's
# (source, method, params, paper iterations, paper error, paper seconds),
# per table.  perfbench and the BENCH_t*.json records name rows by index
# (``t8[3] newton n=32``), so a reordered or retyped row, or an edited
# band, must show here; a deliberate catalogue edit re-records its
# table's pin.
CATALOGUE_PINS = {
    "t1": (3, "4f6f737e5edf0542971dfe100ffd0276ba1b5a00dd045f3e719940ef96529654"),
    "t2": (3, "55c23193826c2735421688c063a06073017aee3f703849fe1d1ac8e6b388864d"),
    "t3": (3, "cf8fcfd558994e853fc2790a77e786d82948dfa59b0ecbdfb92cf24a76eaadbc"),
    "t4": (4, "394ac00ac1f020ef7d400db44cfe3a2210336641d6a5504006ab866868c26bc8"),
    "t5": (18, "2e3092a519e670c61227de50ada9620667c841ae6ac442c2ad68dcf71e78924d"),
    "t6": (24, "786ce18de6505a75a1afb4e8b2e0587a8f63ca4d0b152fbddb4d3f2ccca3117c"),
    "t7": (3, "e67fa8f812632799f5291035e9dd27a8ee54c2043af8d5fcf02f366e5c65462c"),
    "t8": (18, "69b027c1dc4623c4ffad4aa5afedcf697eafb6e812b305503d0079610181ba06"),
    "t9": (18, "f31d1b3ad5be34c3bf03915eba870eeb43d900d12bc744305f7b9e8ad43eb057"),
    "t10": (18, "87aa5c3d85b4e0d297cdf08603b305988e3c7ce415e9e0556b4a05e2d8fbb0b9"),
}


def test_catalogue_ids_are_pinned():
    assert SUITE_IDS == tuple(CATALOGUE_PINS)


@pytest.mark.parametrize("table", SUITE_IDS)
def test_catalogue_rows_are_pinned(table):
    rows = paper_suite(table)
    fields = [
        (r.source, r.method, r.params, r.paper_iterations, r.paper_error, r.paper_time_seconds)
        for r in rows
    ]
    digest = hashlib.sha256(repr((_FAMILIES.get(table), fields)).encode()).hexdigest()
    assert (len(rows), digest) == CATALOGUE_PINS[table], (
        f"catalogue table {table} changed; re-record its pin if the edit is deliberate"
    )
