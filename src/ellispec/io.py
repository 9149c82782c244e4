"""File formats: Matrix Market adjacency, label files, embedding dumps."""

from __future__ import annotations

import warnings
from functools import partial
from itertools import chain
from types import SimpleNamespace

import numpy as np
import scipy.io
import scipy.sparse as sp

from ._errors import InvalidGraphError, InvalidPartitionError
from .graph import BLOCK_ROWS, Partition, WeightedGraph

__all__ = [
    "read_graph",
    "write_graph",
    "read_labels",
    "write_labels",
    "write_embedding",
]


def read_graph(path) -> WeightedGraph:
    """Read a symmetric coordinate real Matrix Market file as a graph.

    Duplicate entries are summed (COO semantics).  ``array``, ``pattern``
    (no weights) and ``complex`` files are rejected; ``general``
    coordinate files are read and must hold a symmetric matrix.  A file
    the Matrix Market parser cannot read (no banner, a bad header, a
    missing line, an index out of range) raises InvalidGraphError naming
    the path, and so does a size line that is not square or has more rows
    than twice its stored entries, since some node would then have no
    edge.  So does a file that SciPy 1.17's parser would crash on or
    misread: a NUL byte anywhere, a line after the header that is neither
    blank nor three numbers apart from blanks (an exponent cut short, a
    stray byte, ``inf`` or ``nan``, a fourth number), or an index too
    large for its integer type.  In an ``integer`` file a value holding a
    point or an exponent is rejected too: the parser would read ``1.5`` as
    1 and ``2e3`` as 2.  A last line without a newline is checked like any
    other.  The file is read once, a checked buffer of whole lines at a time."""
    try:
        # mminfo takes the path and reads the header only: on an open file
        # it aborts the interpreter (SciPy 1.17)
        rows, cols, entries, layout, field, symmetry = scipy.io.mminfo(path)
        if layout != "coordinate" or field in ("pattern", "complex"):
            raise InvalidGraphError(
                f"{path}: unsupported Matrix Market header '{layout} {field} "
                f"{symmetry}': a graph file must be coordinate with explicit "
                "weights, which must be real")
        # checked before mmread, which allocates by the size line
        if rows != cols or rows > 2 * entries:
            raise InvalidGraphError(f"{path}: a {rows} x {cols} matrix with {entries} "
                                    "stored entries leaves some node without an edge")
        with open(path, "rb") as fh:
            # mmread asks for 1024 bytes at a time but takes any length
            chunks = _checked_chunks(fh, path, field.endswith("integer"))
            mat = scipy.io.mmread(SimpleNamespace(read=lambda size=-1: next(chunks, b"")))
    except (ValueError, OverflowError) as exc:
        raise _malformed(path, exc) from exc
    return WeightedGraph(mat)


# read_graph's read buffer, which is also the longest line it allows
_SCAN_BYTES = 1 << 20

# _first_bad reads each byte that is not a digit as one of these
_BLANK, _SIGN, _POINT, _EXP, _OTHER = range(5)
_CLASS = np.full(256, _OTHER, dtype=np.int8)
_CLASS[list(b" \t\r\n")] = _BLANK
_CLASS[list(b"+-")] = _SIGN
_CLASS[ord(".")] = _POINT
_CLASS[list(b"eE")] = _EXP
# what may lie between successive non-digits x and y (entry 5 x + y): any
# digits, none, some, or any with a digit on one side of the point; no
# other pair occurs in a number
_ANY, _NONE, _SOME, _BESIDE_POINT = 1, 2, 3, 4
_PAIRS = {
    (_BLANK, _BLANK): _ANY, (_BLANK, _SIGN): _NONE, (_BLANK, _POINT): _ANY,
    (_BLANK, _EXP): _SOME, (_SIGN, _BLANK): _SOME, (_SIGN, _POINT): _ANY,
    (_SIGN, _EXP): _SOME, (_POINT, _BLANK): _BESIDE_POINT,
    (_POINT, _EXP): _BESIDE_POINT, (_EXP, _BLANK): _SOME, (_EXP, _SIGN): _NONE,
}
_BETWEEN = np.zeros(25, dtype=np.int8)
_BETWEEN[[5 * x + y for x, y in _PAIRS]] = list(_PAIRS.values())


def _malformed(path, what):
    return InvalidGraphError(f"{path}: malformed Matrix Market file: {what}")


def _checked_chunks(fh, path, integer):
    """The open file ``fh``, a buffer of whole lines at a time, each yielded
    once it holds none of the damage that read_graph lists (SciPy 1.17's parser
    reads the longest number at the start of a field and drops the rest of its
    line, so ``1.0E`` and ``1.0 7`` read as 1.0) and no line longer than
    _SCAN_BYTES; with ``integer``, no point or exponent either.  The header,
    the lines up to the first that does not start with ``%``, is not checked.
    A newline follows the last buffer, as the parser may crash without it."""
    numbers = "integers" if integer else "numbers"
    offset = 0  # of the first byte not yet checked
    rest = b""  # the line that the last buffer cut short
    header = True
    for chunk in chain(iter(partial(fh.read, _SCAN_BYTES), b""), [b"\n"]):
        at = chunk.find(b"\0")
        if at >= 0:
            raise _malformed(path, f"NUL byte at offset {offset + len(rest) + at}")
        data = rest + chunk
        # only the first line can have begun in an earlier buffer
        first = data.find(b"\n")
        if (first if first >= 0 else len(data)) > _SCAN_BYTES:
            raise _malformed(path, f"the line at offset {offset} is longer "
                                   f"than {_SCAN_BYTES} bytes")
        end = data.rfind(b"\n") + 1
        start = 0
        while header and start < end and data.startswith(b"%", start):
            start = data.index(b"\n", start) + 1
        header = header and start == end
        bad = _first_bad(memoryview(data)[start:end], integer)
        if bad >= 0:
            first = data.rfind(b"\n", 0, start + bad) + 1
            line = data[first:data.index(b"\n", start + bad)]
            raise _malformed(path, f"the line {line[:40]!r} at offset {offset + first} "
                                   f"is not {numbers} and blanks, three to a line")
        if end:
            yield data[:end]
        offset += end
        rest = data[end:]


def _first_bad(lines, integer=False):
    """The offset of the first byte of ``lines`` (whole lines, the last
    ending in a newline) whose line is neither blank nor three numbers of
    the form [-+]d[.d][(e|E)[-+]d] apart from blanks, with digits d on at
    least one side of the point; -1 if there is none.  With ``integer``,
    a point or an exponent is bad as well.  Looks only at the bytes that
    are not digits, and at whether a digit precedes each: one vectorized
    pass.  inf and nan fail it."""
    b = np.frombuffer(lines, dtype=np.uint8)
    at = np.flatnonzero(b - np.uint8(48) > 9)
    c = b.take(at)
    y = _CLASS.take(c)
    # at[0] - 1 may be -1, which wraps to the closing newline
    after_digit = b.take(at - 1) - np.uint8(48) <= 9
    x = np.roll(y, 1)
    x[:1] = _BLANK
    rule = _BETWEEN.take(5 * x + y)
    ok = ((rule == _ANY) | (rule == _NONE) & ~after_digit
          | (rule == _SOME) & after_digit
          | (rule == _BESIDE_POINT) & (after_digit | np.roll(after_digit, 1)))
    # only the sign that starts a number may precede its point or exponent
    before_x = np.roll(x, 1)
    before_x[:1] = _BLANK
    bad = ~ok | (x == _SIGN) & (y != _BLANK) & (before_x != _BLANK)
    if integer:
        bad |= (y == _POINT) | (y == _EXP)
    # a blank after a byte that is not one ends a number: three a line, or none
    ends = np.cumsum((y == _BLANK) & (after_digit | (x != _BLANK)), dtype=np.int32)
    newlines = np.flatnonzero(c == 10)
    count = np.diff(ends.take(newlines), prepend=0)
    bad[newlines] |= (count != 0) & (count != 3)
    return int(at[bad.argmax()]) if bad.any() else -1


def write_graph(graph: WeightedGraph, path):
    """Write the adjacency as Matrix Market coordinate real symmetric."""
    a = graph.adjacency
    if isinstance(a, np.ndarray):
        # a block of rows at a time: sp.tril would first list all n^2 entries
        lower = sp.vstack([sp.coo_matrix(np.tril(a[lo:lo + BLOCK_ROWS], lo))
                           for lo in range(0, graph.n, BLOCK_ROWS)], format="coo")
    else:
        lower = sp.tril(a).tocoo()
    scipy.io.mmwrite(path, lower, symmetry="symmetric")


def read_labels(path) -> Partition:
    """Read a partition: one 1-based integer label per line, line i = node i-1."""
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidPartitionError(f"{path}: not a text file: {exc}") from exc
    try:
        with warnings.catch_warnings():
            # a file of blank or '#' lines only is rejected as empty
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raw = np.loadtxt(lines, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise InvalidPartitionError(f"{path}: labels must be integers: {exc}") from exc
    if not raw.size:
        raise InvalidPartitionError(f"{path}: empty label file")
    if raw.min() < 1:
        raise InvalidPartitionError(f"{path}: labels in files are 1-based")
    try:
        return Partition(raw - 1)
    except InvalidPartitionError as exc:
        raise InvalidPartitionError(f"{path}: {exc}") from exc


def write_labels(partition: Partition, path):
    """Write 1-based labels, one per line."""
    np.savetxt(path, partition.labels + 1, fmt="%d")


def write_embedding(embedding, path):
    """Dump eigenvalues (first line) and the k x n coordinate matrix as text."""
    with open(path, "w") as fh:
        vals = list(embedding.eigenvalues) + [embedding.lambda_next]
        fh.write(" ".join(format(v, ".17g") for v in vals) + "\n")
        for row in embedding.P:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
