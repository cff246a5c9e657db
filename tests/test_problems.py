import hashlib

import numpy as np
import pytest

from matrixopt.errors import DimensionError, UnknownSuiteError
from matrixopt.oracle import sylvester_residual
from matrixopt.problems import (
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


# Row count and sha256 of the repr of each row's (source, method, params,
# paper iterations, paper error, paper seconds), per table.  perfbench and
# the BENCH_t*.json records name rows by index (``t8[3] newton n=32``), so
# a reordered or retyped row must show here; a deliberate catalogue edit
# re-records its table's pin.
CATALOGUE_PINS = {
    "t1": (3, "1415dd175b5b06deae47eee71c45cac4c574cc672224be27c2db4f724c708c57"),
    "t2": (3, "5118d0235b29c76146b92172c1f66a124d92e2cba45fd2814f5c02fc42ccf00d"),
    "t3": (3, "c6883f93eafd3abddb665de617b3a32678027c3abdede81e81191a7a5d10836b"),
    "t4": (4, "5ffce20e686f7ec07453a3f24e3f61cb20ef6309c6d3ef401dad6f7c4d7050e8"),
    "t5": (18, "70f36b1e8b14d8f4cb61092f52128b2c7f070c1bfa6dcf3a5b812cef6f34a436"),
    "t6": (24, "f05068559587f827295f4a220ab93ce896bf7ba31bd0646d79130e5046f2cfe7"),
    "t7": (3, "34538b56f679a0e1f681fceaafe58f3961658fcb9377d09761755391dad8269f"),
    "t8": (18, "6f2e09c31f052195689c9bcd836fd6d65e3addb2cac84fb517b06c3b00a46a26"),
    "t9": (18, "e8e0fcbcbfc21e213c8bf2e11682d2e4e51e792bfc54d9a0f55a2b4f563ed2a5"),
    "t10": (18, "377a40a8c690ad55888793621f359e9822cce3872c59df22a60e50bd7d8bc882"),
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
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert (len(rows), digest) == CATALOGUE_PINS[table], (
        f"catalogue table {table} changed; re-record its pin if the edit is deliberate"
    )
