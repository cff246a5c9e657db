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

    Symmetric files hold the lower triangle (an entry above it is a
    :class:`ParseError`) and are expanded to full dense storage.
    Coordinate indices are 1-based; duplicate entries accumulate.
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

    # Skip comments and blank lines up to the size line.
    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise ParseError("missing size line", line=len(lines))

    size_tokens = lines[pos].split()
    size_line = pos + 1
    pos += 1

    if fmt == "array" and len(size_tokens) != 2:
        raise ParseError("array size line must be 'rows cols'", line=size_line)
    if fmt == "coordinate" and len(size_tokens) != 3:
        raise ParseError("coordinate size line must be 'rows cols nnz'", line=size_line)
    rows, cols = _parse_dims(size_tokens[:2], size_line)
    if symmetry == "symmetric" and rows != cols:
        raise ParseError("symmetric matrix must be square", line=size_line)
    m = np.zeros((rows, cols))

    if fmt == "array":
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        values = _parse_values(lines, pos, expected)
        if symmetry == "general":
            m[:] = np.reshape(values, (rows, cols), order="F")
        else:
            # (j, i) walks the lower triangle column by column
            i, j = np.triu_indices(rows)
            m[j, i] = m[i, j] = values
        return m

    try:
        nnz = int(size_tokens[2])
    except ValueError:
        raise ParseError("entry count is not an integer", line=size_line) from None
    seen = 0
    for offset, raw in enumerate(lines[pos:], start=pos + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        if len(tokens) != 3:
            raise ParseError("coordinate entry must be 'i j value'", line=offset)
        try:
            i, j = int(tokens[0]), int(tokens[1])
            v = float(tokens[2])
        except ValueError:
            raise ParseError(f"cannot parse entry {text!r}", line=offset) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"index ({i}, {j}) out of bounds", line=offset)
        if symmetry == "symmetric" and i < j:
            raise ParseError(f"symmetric entry ({i}, {j}) above the diagonal", line=offset)
        m[i - 1, j - 1] += v
        if symmetry == "symmetric" and i != j:
            m[j - 1, i - 1] += v
        seen += 1
    if seen != nnz:
        raise ParseError(f"expected {nnz} entries, found {seen}", line=len(lines))
    return m


def _parse_dims(tokens, line):
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError("dimensions are not integers", line=line) from None
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", line=line)
    if rows * cols > MAX_READ_ENTRIES:
        raise ParseError(f"matrix of {rows}x{cols} entries exceeds read cap", line=line)
    return rows, cols


def _parse_values(lines, pos, expected):
    values = []
    for offset, raw in enumerate(lines[pos:], start=pos + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        for token in text.split():
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(f"cannot parse value {token!r}", line=offset) from None
    if len(values) != expected:
        raise ParseError(
            f"expected {expected} values, found {len(values)}", line=len(lines)
        )
    return values
