"""File formats: Matrix Market adjacency, label files, embedding dumps."""

from __future__ import annotations

import re
import warnings

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

    Duplicate entries are summed (COO semantics).  ``array`` files and
    ``pattern`` files (no weights) are rejected; ``general`` coordinate
    files are read and must hold a symmetric matrix.  A file the Matrix
    Market parser cannot read (no banner, a bad header, a missing line,
    an index out of range) raises InvalidGraphError naming the path, and
    so does a size line that is not square or has more rows than twice
    its stored entries, since some node would then have no edge.  So does
    a file that would crash SciPy 1.17's parser or that it would misread:
    a NUL byte anywhere, an entry line that is not numbers and blanks (an
    exponent cut short, a stray byte after a value), a last line without
    a newline that is not a complete ``i j value`` entry, or an index too
    large for its integer type.
    """
    _check_bytes(path)
    try:
        # mminfo takes the path: on an open file it aborts the interpreter
        # (SciPy 1.17)
        rows, cols, entries, layout, field, symmetry = scipy.io.mminfo(path)
        if layout != "coordinate" or field == "pattern":
            raise InvalidGraphError(
                f"{path}: unsupported Matrix Market header "
                f"'{layout} {field} {symmetry}': a graph file must be "
                f"coordinate with explicit weights"
            )
        # checked before mmread, which allocates by the size line
        if rows != cols or rows > 2 * entries:
            raise InvalidGraphError(
                f"{path}: a {rows} x {cols} matrix with {entries} stored "
                f"entries leaves some node without an edge"
            )
        with open(path, "rb") as fh:
            mat = scipy.io.mmread(fh)
    except (ValueError, OverflowError) as exc:
        raise InvalidGraphError(
            f"{path}: malformed Matrix Market file: {exc}") from exc
    return WeightedGraph(mat)


# read_graph's byte checks: the buffer the file is read in, which is also
# the longest line allowed, and the pattern a last line without a newline
# must match
_SCAN_BYTES = 1 << 20
_ENTRY = re.compile(rb"[ \t]*\d+[ \t]+\d+[ \t]+[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
# an entry line: numbers apart from blanks, inf and nan included
_NUMBER = rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?i:inf(?:inity)?|nan))"
_NUMBERS = re.compile(rb"[ \t\r]*(?:%s(?:[ \t\r]+%s)*)?[ \t\r]*" % (_NUMBER, _NUMBER))

# _plain_numbers reads each byte that is not a digit as one of these
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


def _check_bytes(path):
    """InvalidGraphError for the bytes that SciPy 1.17's Matrix Market
    parser crashes on or misreads: a NUL byte; an entry line that is not
    numbers apart from blanks (the parser reads the longest number at the
    start of a field and drops the rest of its line, so ``1.0E`` reads as
    1.0 and ``2.5\\xea`` as 2.5); a line longer than _SCAN_BYTES; or a
    last line that has no newline and is not a whole entry (the parser
    reads past its buffer).  The header, the lines up to the first that
    does not start with ``%``, may hold anything.  Reads the file once, a
    buffer at a time."""
    offset = 0  # of the first byte not yet checked
    rest = b""  # the line that the last buffer cut short
    header = True
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            at = chunk.find(b"\0")
            if at >= 0:
                raise _malformed(path, f"NUL byte at offset {offset + len(rest) + at}")
            data = rest + chunk
            end = data.rfind(b"\n") + 1
            start = 0
            while header and start < end and data.startswith(b"%", start):
                start = data.index(b"\n", start) + 1
            header = header and start == end
            if start < end and not _plain_numbers(data[start:end]):
                _check_lines(path, data, start, end, offset)
            offset += end
            rest = data[end:]
            if len(rest) > _SCAN_BYTES:
                raise _malformed(path, f"the line at offset {offset} is longer "
                                       f"than {_SCAN_BYTES} bytes")
    if rest.strip() and not _ENTRY.fullmatch(rest):
        raise _malformed(path, f"the last line {rest[-40:]!r} has no newline "
                               f"and is not a whole entry")


def _check_lines(path, data, start, end, offset):
    """InvalidGraphError naming the first line of data[start:end] that is
    not numbers apart from blanks; the lines start at file offset
    ``offset`` + ``start``."""
    for line in data[start:end - 1].split(b"\n"):
        if not _NUMBERS.fullmatch(line):
            raise _malformed(path, f"the entry line {line[:40]!r} at offset "
                                   f"{offset + start} is not numbers and blanks")
        start += len(line) + 1


def _plain_numbers(lines):
    """Whether every line of ``lines`` (whole lines, the last ending in a
    newline) is numbers of the form [-+]d[.d][(e|E)[-+]d] apart from
    blanks, with digits d on at least one side of the point.  Looks only
    at the bytes that are not digits, and at whether a digit precedes
    each: one vectorized pass, where matching _NUMBERS takes about twenty
    times longer.  inf and nan, which _NUMBERS accepts, fail it."""
    b = np.frombuffer(lines, dtype=np.uint8)
    at = np.flatnonzero(b - np.uint8(48) > 9)
    y = _CLASS.take(b.take(at))
    # at[0] - 1 may be -1, which wraps to the closing newline
    after_digit = b.take(at - 1) - np.uint8(48) <= 9
    x = np.roll(y, 1)
    x[0] = _BLANK
    rule = _BETWEEN.take(5 * x + y)
    ok = ((rule == _ANY) | (rule == _NONE) & ~after_digit
          | (rule == _SOME) & after_digit
          | (rule == _BESIDE_POINT) & (after_digit | np.roll(after_digit, 1)))
    # only the sign that starts a number may precede its point or exponent
    before_x = np.roll(x, 1)
    before_x[0] = _BLANK
    return bool(ok.all()) and not ((x == _SIGN) & (y != _BLANK)
                                   & (before_x != _BLANK)).any()


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
