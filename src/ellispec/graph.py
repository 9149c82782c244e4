"""Weighted graphs, partitions, and conductance.

A ``WeightedGraph`` decides once, from the share of nonzero entries,
whether its adjacency is held dense or as CSR; every later pass reads
that one matrix.  The spectral embedding in ``eigen`` reads all of it;
the scoring here reads a CSR adjacency's stored entries once, O(nnz),
and a dense one only in the diagonal blocks of the partition's clusters,
sum |S_c|^2 entries.  Nodes are 0-based everywhere in the API; file
formats (Matrix Market, label files) are 1-based.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ._errors import InvalidGraphError, InvalidPartitionError

__all__ = ["WeightedGraph", "Partition", "partition_profile"]


# A CSR matrix-vector product costs as much as a dense one at 40-50 % density
# (n = 2500 and 4000, one OpenBLAS thread on a 2-vCPU Xeon VM); an adjacency
# at least this dense is stored dense.
DENSE_STORAGE_DENSITY = 0.5

# rows of a dense n x n array handled at once by the passes over it that
# would otherwise need an n x n temporary (symmetry check, component search,
# the generator's mirror copy, Matrix Market output)
BLOCK_ROWS = 256

# entries of a dense W gathered at once when it is scored from its diagonal
# blocks
GATHER_BLOCK = 1 << 16


class WeightedGraph:
    """Undirected graph with nonnegative edge weights; a zero weight is no edge.

    ``adjacency`` is the symmetric adjacency matrix (both triangles): a
    read-only float64 ndarray when at least DENSE_STORAGE_DENSITY of its
    entries are nonzero, whatever the input (ndarray, CSR or any SciPy
    sparse format), and CSR otherwise.  A sparse input storing at least that
    share of entries is made dense before it is checked, so it is never
    copied to CSR on the way.  ``degrees`` holds d_i = sum_j w(i, j), in a
    read-only array too.  Self-loops are allowed and count toward the degree
    but never toward any cut.  Every node must have positive degree.  A
    dense ndarray is copied unless ``copy=False``, which hands the array
    over: it is then made read-only and must not be written by the caller.
    Sparse input is always copied, like dense input, and the CSR arrays are
    read-only.  Instances
    are immutable after construction; they keep the spectral embeddings
    solved for them (``elli.graph_embedding``).
    """

    def __init__(self, adjacency, copy=True):
        # stored entries, duplicates and explicit zeros included, bound the
        # nonzero ones: the ndarray test below makes the one decision
        if (sp.issparse(adjacency) and adjacency.nnz
                >= DENSE_STORAGE_DENSITY * np.prod(adjacency.shape)):
            adjacency, copy = adjacency.toarray(), False
        if (isinstance(adjacency, np.ndarray) and adjacency.ndim == 2
                and adjacency.shape[0] == adjacency.shape[1] and adjacency.size
                and np.count_nonzero(adjacency)
                >= DENSE_STORAGE_DENSITY * adjacency.size):
            a = _checked_dense(adjacency, copy)
            degrees = a.sum(axis=1)
        else:
            a = _checked_csr(adjacency)
            degrees = np.asarray(a.sum(axis=1)).ravel()
        if a.shape[0] and degrees.min() <= 0.0:
            node = int(np.argmin(degrees))
            raise InvalidGraphError(f"node {node} has zero degree")
        degrees.flags.writeable = False
        self._adj = a
        self._degrees = degrees
        self._embeddings = {}  # k -> Embedding

    @property
    def n(self):
        return self._adj.shape[0]

    @property
    def adjacency(self):
        return self._adj

    @property
    def degrees(self):
        return self._degrees


def _real(a):
    if np.iscomplexobj(a):
        raise InvalidGraphError(f"weights must be real, got dtype {a.dtype}")


def _bad_weight(values):
    """InvalidGraphError naming the first weight that is negative, NaN or inf."""
    bad = values[~((values == 0.0) | ((values > 0.0) & (values < np.inf)))]
    return InvalidGraphError(
        f"all stored weights must be finite and positive; found {bad[0]}"
    )


def _checked_csr(adjacency):
    # a copy: a CSR input would otherwise share its arrays with the caller
    a = sp.csr_matrix(adjacency, copy=True)
    _real(a.data)
    a = a.astype(np.float64, copy=False)
    a.sum_duplicates()
    a.eliminate_zeros()  # an explicitly stored zero is simply no edge
    if a.shape[0] != a.shape[1]:
        raise InvalidGraphError(f"adjacency must be square, got {a.shape}")
    # NaN fails both comparisons, inf the second
    if not np.all((a.data > 0.0) & (a.data < np.inf)):
        raise _bad_weight(a.data)
    if (a != a.T).nnz != 0:
        raise InvalidGraphError("adjacency matrix must be symmetric")
    for array in (a.data, a.indices, a.indptr):
        array.flags.writeable = False
    return a


def _symmetric(a):
    """Whether a == a.T, comparing one block of rows with its block of
    columns at a time."""
    for lo in range(0, a.shape[0], BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        if not np.array_equal(a[lo:hi, lo:], a[lo:, lo:hi].T):
            return False
    return True


def _checked_dense(adjacency, copy):
    """The same checks as _checked_csr on a square ndarray, with no n x n
    temporary."""
    _real(adjacency)
    if copy:
        a = np.array(adjacency, dtype=np.float64, order="C")
    else:
        a = np.ascontiguousarray(adjacency, dtype=np.float64)
    # a NaN anywhere makes min() NaN, which fails the comparison
    if not (a.min() >= 0.0 and a.max() < np.inf):
        raise _bad_weight(a.ravel())
    if not _symmetric(a):
        raise InvalidGraphError("adjacency matrix must be symmetric")
    a.flags.writeable = False
    return a


class Partition:
    """A k-way partition of {0, ..., n-1} as a label vector.

    Labels are cluster ids 0..k-1; every id must occur at least once.
    Float labels must be whole numbers that fit int64, such as 1.0.
    """

    def __init__(self, labels, k=None):
        labels = np.asarray(labels)
        # only float input is scanned: integer labels take no extra pass;
        # the bound also fails for NaN and inf
        if labels.dtype.kind == "f" and not ((np.abs(labels) < 2.0**63).all()
                                             and (labels == np.trunc(labels)).all()):
            raise InvalidPartitionError("labels must be whole numbers that fit int64")
        labels = labels.astype(np.int64, copy=False)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidPartitionError("labels must be a nonempty 1-d vector")
        if k is None:
            k = int(labels.max()) + 1
        if k > labels.size:
            # checked before counting: a huge label would size the count
            raise InvalidPartitionError(
                f"{k} nonempty clusters need at least {k} labels, "
                f"got {labels.size}"
            )
        present = np.bincount(labels[(labels >= 0) & (labels < k)], minlength=k)
        if labels.min() < 0 or labels.max() >= k:
            raise InvalidPartitionError(
                f"labels must lie in [0, {k}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        if (present == 0).any():
            empty = int(np.argmin(present))
            raise InvalidPartitionError(f"cluster {empty} is empty")
        self.labels = labels
        self.k = k

    @property
    def n(self):
        return self.labels.size

    def clusters(self):
        """List of node-index arrays, one per cluster id in order."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(self.k + 1))
        return [order[bounds[i]:bounds[i + 1]] for i in range(self.k)]

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.k == other.k
            and np.array_equal(self.labels, other.labels)
        )


def _components(a):
    """(count, labels) of the connected components of a symmetric adjacency
    held dense or as CSR, numbered from the smallest node up.

    CSR goes to ``connected_components``: on a symmetric adjacency strong
    and weak components coincide, and the strong search is about three
    times faster than directed=False.  It would first copy a dense array
    into CSR, so a dense one is searched breadth-first: each level reads
    the rows of its frontier, a block at a time and only in the columns of
    nodes not reached yet, so every row is read at most once and no n x n
    temporary is made.
    """
    if not isinstance(a, np.ndarray):
        return connected_components(a, directed=True, connection="strong")
    n = a.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    while (unseen := np.flatnonzero(labels < 0)).size:
        frontier = unseen[:1]
        while frontier.size:
            labels[frontier] = count
            unseen = unseen[labels[unseen] < 0]
            reached = np.zeros(unseen.size, dtype=bool)
            for lo in range(0, frontier.size, BLOCK_ROWS):
                rows = frontier[lo:lo + BLOCK_ROWS]
                reached |= a[np.ix_(rows, unseen)].any(axis=0)
            frontier = unseen[reached]
        count += 1
    return count, labels


def _block_sum(flat, n, rows, cols):
    """Sum of W[rows][:, cols] for the flat view of a dense n x n W, gathered
    by ``take`` for GATHER_BLOCK entries' worth of rows at a time."""
    step = max(1, GATHER_BLOCK // max(cols.size, 1))
    total = 0.0
    for lo in range(0, rows.size, step):
        total += flat.take(rows[lo:lo + step, None] * n + cols).sum()
    return total


def _conductances(graph: WeightedGraph, partition: Partition):
    """Cut/volume of each cluster of a partition of the graph's nodes.

    A dense W is read only in its diagonal blocks: cut_c = vol_c -
    sum W[S_c, S_c].  A cluster whose cut comes out within the rounding of
    that difference has it summed instead from the nonnegative entries of
    its rows that leave it.  A CSR W is read in its stored entries: each
    row's entries in columns of another cluster are summed, and the row
    sums are added up by cluster.  Either way a cluster with no leaving
    edge scores exactly 0.0, and self-loops never enter a cut.
    """
    n, a = graph.n, graph.adjacency
    labels, k = partition.labels, partition.k
    vol = np.bincount(labels, weights=graph.degrees, minlength=k)
    if isinstance(a, np.ndarray):
        flat = a.reshape(-1)
        members = partition.clusters()
        cut = vol - [_block_sum(flat, n, m, m) for m in members]
        # vol and the block sums each carry rounding of up to about n eps vol
        for c in np.flatnonzero(cut <= n * np.finfo(np.float64).eps * vol):
            cut[c] = _block_sum(flat, n, members[c], np.flatnonzero(labels != c))
    else:
        rows = np.repeat(labels, np.diff(a.indptr))
        # take: indexing by the int32 column indices is slower
        leaving = np.where(labels.take(a.indices) != rows, a.data, 0.0)
        # every degree is positive, so every row stores an entry and no
        # segment of reduceat is empty
        cut = np.bincount(labels, minlength=k,
                          weights=np.add.reduceat(leaving, a.indptr[:-1]))
    return cut / vol


def partition_profile(graph: WeightedGraph, partition: Partition):
    """Per-cluster conductance together with its max (MCC) and sum.

    The sum is the normalized-cut objective value of the given partition.
    All clusters are scored together: a CSR adjacency is read once in its
    stored entries, O(nnz); a dense one only in the clusters' diagonal
    blocks, sum |S_c|^2 entries (plus the rows of any cluster whose cut is
    within rounding of zero).  Volumes come from ``degrees``.  Self-loops
    count toward a cluster's volume but never its cut.  The conductance of
    one cluster S is the first entry of the profile of the two-way
    partition {S, rest}.
    """
    if partition.n != graph.n:
        raise InvalidPartitionError(
            f"partition covers {partition.n} nodes but the graph has {graph.n}"
        )
    phis = _conductances(graph, partition).tolist()
    return {"per_cluster": phis, "mcc": max(phis), "sum": sum(phis)}
