import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from matrixopt.errors import ParseError
from matrixopt.mmio import read_matrix_market, write_matrix_market


def test_round_trip_identity(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix_market(path, np.eye(3))
    np.testing.assert_array_equal(read_matrix_market(path), np.eye(3))


def test_round_trip_exact(tmp_path, rng):
    m = rng.standard_normal((4, 7))
    path = tmp_path / "m.mtx"
    write_matrix_market(path, m)
    np.testing.assert_array_equal(read_matrix_market(path), m)


def test_symmetric_coordinate_expansion(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 1 5.0\n"
    )
    m = read_matrix_market(path)
    assert m[1, 0] == 5.0 and m[0, 1] == 5.0 and m[0, 0] == 1.0


@pytest.mark.parametrize(
    "symmetry, entries, want",
    [
        ("general", "1 1 1\n1 1 -0.0\n", [[-0.0]]),
        ("symmetric", "2 2 1\n2 1 -0.0\n", [[0.0, -0.0], [-0.0, 0.0]]),
        ("general", "1 1 2\n1 1 -0.0\n1 1 -0.0\n", [[-0.0]]),
        ("general", "1 1 2\n1 1 1.0\n1 1 -1.0\n", [[0.0]]),
    ],
    ids=["general", "symmetric-mirrored", "duplicates", "cancelling"],
)
def test_coordinate_entries_keep_the_sign_of_zero(tmp_path, symmetry, entries, want):
    # The first entry at a position is stored and later ones are added to
    # it; an absent entry is +0.0.
    path = tmp_path / "zero.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n{entries}")
    m = read_matrix_market(path)
    assert m.tolist() == want
    assert np.signbit(m).tolist() == np.signbit(want).tolist()


def test_symmetric_coordinate_entry_above_the_diagonal_is_rejected(tmp_path):
    # Mirrored and summed, both (2,1) and (1,2) would read 10.0.
    path = tmp_path / "upper.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n"
        "1 1 1.0\n"
        "2 1 5.0\n"
        "1 2 5.0\n"
    )
    with pytest.raises(ParseError, match="above the diagonal") as err:
        read_matrix_market(path)
    assert err.value.line == 5


@pytest.mark.parametrize("fmt, size", [("coordinate", "2 3 1"), ("array", "2 3")])
def test_non_square_symmetric_is_rejected_at_the_size_line(tmp_path, fmt, size):
    path = tmp_path / "nonsquare.mtx"
    path.write_text(f"%%MatrixMarket matrix {fmt} real symmetric\n{size}\n1 3 1.0\n")
    with pytest.raises(ParseError, match="must be square") as err:
        read_matrix_market(path)
    assert err.value.line == 2


def test_symmetric_array_expansion(tmp_path):
    path = tmp_path / "syma.mtx"
    # lower triangle, column-major: (1,1) (2,1) (2,2)
    path.write_text(
        "%%MatrixMarket matrix array real symmetric\n"
        "2 2\n"
        "1.0\n2.0\n3.0\n"
    )
    np.testing.assert_allclose(read_matrix_market(path), [[1.0, 2.0], [2.0, 3.0]])


def test_complex_field_rejected(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 2.0\n")
    with pytest.raises(ParseError) as err:
        read_matrix_market(path)
    assert err.value.line == 1


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket\n1 1\n1.0\n")
    with pytest.raises(ParseError):
        read_matrix_market(path)


def test_bad_entry_reports_line(tmp_path):
    path = tmp_path / "bad2.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 not-a-number\n"
    )
    with pytest.raises(ParseError) as err:
        read_matrix_market(path)
    assert err.value.line == 3


def test_dimension_overflow_guard(tmp_path):
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n100000 100000\n")
    with pytest.raises(ParseError):
        read_matrix_market(path)


def test_out_of_bounds_index(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
    )
    with pytest.raises(ParseError) as err:
        read_matrix_market(path)
    assert err.value.line == 3


@pytest.mark.parametrize("comment", ["% a comment", "  % a comment"])
def test_comments_and_blank_lines(tmp_path, comment):
    """A line whose first non-blank character is '%' is a comment, before
    the size line as after it."""
    path = tmp_path / "comments.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        f"{comment}\n"
        "\n"
        "2 1\n"
        "1.5\n"
        f"{comment}\n"
        "2.5\n"
    )
    np.testing.assert_allclose(read_matrix_market(path), [[1.5], [2.5]])


@pytest.mark.parametrize("fmt, size", [
    ("array", "0 3"), ("array", "2 0"), ("array", "0 0"), ("coordinate", "0 0 0"),
])
def test_dimensions_below_one_are_rejected_at_the_size_line(tmp_path, fmt, size):
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
    with pytest.raises(ParseError, match="dimensions must be positive") as err:
        read_matrix_market(path)
    assert err.value.line == 2


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[5e-324, -2.2250738585072014e-308], [-0.0, 1.7976931348623157e308]]))
@settings(max_examples=60, deadline=None)
def test_array_round_trip_is_bit_exact(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    write_matrix_market(path, m)
    back = read_matrix_market(path)
    assert back.shape == m.shape and back.tobytes() == m.tobytes()


def _entry_loop_file(m, symmetric):
    """The array file of ``m`` written one entry at a time, column by
    column (the lower triangle only when ``symmetric``)."""
    rows, cols = m.shape
    lines = [f"%%MatrixMarket matrix array real {'symmetric' if symmetric else 'general'}",
             f"{rows} {cols}"]
    for j in range(cols):
        for i in range(j if symmetric else 0, rows):
            lines.append(repr(float(m[i, j])))
    return "\n".join(lines) + "\n"


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=60, deadline=None)
def test_array_layout_matches_the_entry_loop(tmp_path_factory, m):
    """Written files equal the entry-by-entry loop's bytes, and a symmetric
    file reads back as the loop mirrors it, bit for bit and C-ordered."""
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    write_matrix_market(path, m)
    assert path.read_text(encoding="ascii") == _entry_loop_file(m, symmetric=False)
    assert read_matrix_market(path).flags.c_contiguous

    n = min(m.shape)
    expected = np.empty((n, n))
    for j in range(n):
        for i in range(j, n):
            expected[i, j] = expected[j, i] = m[i, j]
    path.write_text(_entry_loop_file(m[:n, :n], symmetric=True), encoding="ascii")
    back = read_matrix_market(path)
    assert back.flags.c_contiguous and back.tobytes() == expected.tobytes()


_TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-_naif%", min_size=1, max_size=6),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=10)


@given(
    fmt=st.sampled_from(["array", "coordinate"]),
    symmetry=st.sampled_from(["general", "symmetric"]),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    nnz=st.integers(0, 6),
    lines=_LINES,
)
@example(fmt="coordinate", symmetry="general", rows=2, cols=2, nnz=1, lines=["2 1 -0.5"])
@example(fmt="array", symmetry="symmetric", rows=2, cols=2, nnz=0, lines=["1", "nan 3"])
@settings(max_examples=200, deadline=None)
def test_arbitrary_entry_lines_parse_or_raise_parse_error(
    tmp_path_factory, fmt, symmetry, rows, cols, nnz, lines
):
    size = f"{rows} {cols} {nnz}" if fmt == "coordinate" else f"{rows} {cols}"
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    path.write_text(
        "\n".join([f"%%MatrixMarket matrix {fmt} real {symmetry}", size, *lines]) + "\n",
        encoding="utf-8",
    )
    try:
        m = read_matrix_market(path)
    except ParseError:
        return
    assert m.shape == (rows, cols)
