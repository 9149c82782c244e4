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
    a file that would crash SciPy 1.17's parser: a NUL byte anywhere, a
    last line without a newline that is not a complete ``i j value``
    entry (an exponent cut short, a stray byte in place of the newline),
    or an index too large for its integer type.
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
    return WeightedGraph(sp.csr_matrix(mat))


# read_graph's byte checks: the NUL scan's buffer, and how far back from
# the end of the file the last line is looked for
_SCAN_BYTES = 1 << 20
_LAST_LINE_BYTES = 256
_ENTRY = re.compile(rb"[ \t]*\d+[ \t]+\d+[ \t]+[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _check_bytes(path):
    """InvalidGraphError for the bytes that crash SciPy 1.17's Matrix
    Market parser (it reads past its buffer): a NUL byte, or a last line
    that has no newline and does not end right after a number.  Reads the
    file once, a buffer at a time."""
    buffer = bytearray(_SCAN_BYTES)
    offset = 0
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            at = buffer.find(b"\0", 0, size)
            if at >= 0:
                raise InvalidGraphError(
                    f"{path}: malformed Matrix Market file: NUL byte at "
                    f"offset {offset + at}")
            offset += size
        fh.seek(max(0, offset - _LAST_LINE_BYTES))
        tail = fh.read()
    last = tail[tail.rfind(b"\n") + 1:]
    # one that fills the whole tail is too long to be an entry
    if last.strip() and (len(last) == _LAST_LINE_BYTES or not _ENTRY.fullmatch(last)):
        raise InvalidGraphError(
            f"{path}: malformed Matrix Market file: the last line "
            f"{last[-40:]!r} has no newline and is not a whole entry")


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
