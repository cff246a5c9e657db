"""MatrixMarket text I/O (array and coordinate, real, general/symmetric).

Dense round trips through the array format are exact: values are written
with ``repr``, which is shortest-exact for float64.  Parse failures raise
:class:`ParseError` carrying the 1-based line number.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .linalg import as_matrix

MAX_READ_ENTRIES = 50_000_000


def write_matrix_market(path, m: np.ndarray) -> None:
    """Write a dense matrix in array/real/general format."""
    m = as_matrix(m, "matrix")
    rows, cols = m.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        fh.writelines(f"{v!r}\n" for v in m.ravel(order="F").tolist())


def read_matrix_market(path) -> np.ndarray:
    """Read a MatrixMarket file into a dense matrix.

    After the header, blank lines and lines whose first non-blank
    character is ``%`` are skipped; the first line left is the size line
    and every later one is an entry.  Symmetric files hold the lower
    triangle (an entry above it is a :class:`ParseError`) and are expanded
    to full dense storage.  Coordinate indices are 1-based; duplicates add
    onto the first entry read, so a lone ``-0.0`` stays ``-0.0``.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError("malformed MatrixMarket header", line=1)
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", line=1)
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format {fmt!r}", line=1)
    if field != "real":
        raise ParseError(f"unsupported field {field!r} (only real)", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)

    # (line number, tokens) of each line that is not blank or a comment;
    # the header starts with '%' too, so it is skipped with them
    body = ((n, tokens) for n, tokens in enumerate(map(str.split, lines), start=1)
            if tokens and not tokens[0].startswith("%"))
    size_line, size = next(body, (len(lines), None))
    if size is None:
        raise ParseError("missing size line", line=size_line)
    shape = "rows cols" if fmt == "array" else "rows cols nnz"
    if len(size) != len(shape.split()):
        raise ParseError(f"{fmt} size line must be '{shape}'", line=size_line)
    try:
        rows, cols, *nnz = map(int, size)
    except ValueError:
        raise ParseError("size line values are not integers", line=size_line) from None
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", line=size_line)
    if rows * cols > MAX_READ_ENTRIES:
        raise ParseError(f"matrix of {rows}x{cols} entries exceeds read cap", line=size_line)
    if symmetry == "symmetric" and rows != cols:
        raise ParseError("symmetric matrix must be square", line=size_line)
    m = np.zeros((rows, cols))

    if fmt == "array":
        values = [_real(token, n) for n, tokens in body for token in tokens]
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        if len(values) != expected:
            raise ParseError(f"expected {expected} values, found {len(values)}", line=len(lines))
        if symmetry == "general":
            m[:] = np.reshape(values, (rows, cols), order="F")
        else:
            # (j, i) walks the lower triangle column by column
            i, j = np.triu_indices(rows)
            m[j, i] = m[i, j] = values
        return m

    seen, entries = 0, {}
    for n, tokens in body:
        if len(tokens) != 3:
            raise ParseError("coordinate entry must be 'i j value'", line=n)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("entry indices are not integers", line=n) from None
        v = _real(tokens[2], n)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"index ({i}, {j}) out of bounds", line=n)
        if symmetry == "symmetric" and i < j:
            raise ParseError(f"symmetric entry ({i}, {j}) above the diagonal", line=n)
        for at in {(i - 1, j - 1), (j - 1, i - 1)} if symmetry == "symmetric" else [(i - 1, j - 1)]:
            entries[at] = entries.get(at, -0.0) + v  # -0.0 + v is v, also for v = -0.0
        seen += 1
    if seen != nnz[0]:
        raise ParseError(f"expected {nnz[0]} entries, found {seen}", line=len(lines))
    for at, v in entries.items():
        m[at] = v
    return m


def _real(token, line):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"cannot parse value {token!r}", line=line) from None
