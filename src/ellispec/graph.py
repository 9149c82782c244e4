"""Weighted graphs, the normalized Laplacian, and conductance.

Nodes are 0-based everywhere in the API; file formats (Matrix Market,
label files) are 1-based.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ._errors import InvalidGraphError, InvalidPartitionError

__all__ = [
    "WeightedGraph",
    "Partition",
    "NormalizedLaplacian",
    "normalized_laplacian",
    "conductance",
    "partition_profile",
]


class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    Stores a symmetric sparse adjacency matrix (both triangles) and the
    degree vector d_i = sum_j w(i, j).  Self-loops are allowed and count
    toward the degree but never toward any cut.  Every node must have
    positive degree.  Instances are immutable after construction; they
    keep the spectral embeddings solved for them (``elli.graph_embedding``).
    """

    def __init__(self, adjacency):
        a = sp.csr_matrix(adjacency)
        if np.iscomplexobj(a.data):
            raise InvalidGraphError(f"weights must be real, got dtype {a.dtype}")
        a = a.astype(np.float64, copy=False)
        a.sum_duplicates()
        a.eliminate_zeros()  # an explicitly stored zero is simply no edge
        if a.shape[0] != a.shape[1]:
            raise InvalidGraphError(f"adjacency must be square, got {a.shape}")
        # NaN fails both comparisons, inf the second
        bad = np.flatnonzero(~((a.data > 0.0) & (a.data < np.inf)))
        if bad.size:
            raise InvalidGraphError(
                f"all stored weights must be finite and positive; "
                f"found {a.data[bad[0]]}"
            )
        if (a != a.T).nnz != 0:
            raise InvalidGraphError("adjacency matrix must be symmetric")
        degrees = np.asarray(a.sum(axis=1)).ravel()
        if a.shape[0] and degrees.min() <= 0.0:
            node = int(np.argmin(degrees))
            raise InvalidGraphError(f"node {node} has zero degree")
        self._adj = a
        self._degrees = degrees
        self._embeddings = {}  # k -> Embedding

    @classmethod
    def from_entries(cls, n, entries):
        """Build from (i, j, w) triples, one per unordered pair.

        Duplicate pairs are summed.  Each off-diagonal triple is mirrored.
        """
        rows, cols, vals = [], [], []
        for i, j, w in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidGraphError(f"entry ({i}, {j}) out of range for n={n}")
            if w <= 0:
                raise InvalidGraphError(f"weight for pair ({i}, {j}) must be positive, got {w}")
            rows.append(i)
            cols.append(j)
            vals.append(w)
            if i != j:
                rows.append(j)
                cols.append(i)
                vals.append(w)
        a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
        return cls(a)

    @property
    def n(self):
        return self._adj.shape[0]

    @property
    def adjacency(self):
        return self._adj

    @property
    def degrees(self):
        return self._degrees


class Partition:
    """A k-way partition of {0, ..., n-1} as a label vector.

    Labels are cluster ids 0..k-1; every id must occur at least once.
    """

    def __init__(self, labels, k=None):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidPartitionError("labels must be a nonempty 1-d vector")
        if k is None:
            k = int(labels.max()) + 1
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

    @classmethod
    def from_clusters(cls, n, clusters):
        labels = np.full(n, -1, dtype=np.int64)
        for cid, members in enumerate(clusters):
            labels[np.asarray(list(members), dtype=np.int64)] = cid
        if (labels < 0).any():
            missing = int(np.argmin(labels))
            raise InvalidPartitionError(f"node {missing} not covered by any cluster")
        return cls(labels, k=len(clusters))

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.k == other.k
            and np.array_equal(self.labels, other.labels)
        )


# A CSR matrix-vector product costs as much as a dense one at 40-50 % density
# (n = 2500 and 4000, one OpenBLAS thread on a 2-vCPU Xeon VM); an operator at
# least this dense is stored dense.
DENSE_STORAGE_DENSITY = 0.5


class NormalizedLaplacian:
    """Symmetric operator L = I - S with S = D^{-1/2} W D^{-1/2}.

    ``adjacency`` holds S, as a dense array when at least half of its
    entries are nonzero and as CSR otherwise.  ``kernel`` is the n x c
    sparse orthonormal basis of the null space of L: column i is sqrt(d)
    on the nodes of connected component i and zero elsewhere.
    """

    def __init__(self, graph: WeightedGraph):
        a = graph.adjacency
        n = graph.n
        dinv = 1.0 / np.sqrt(graph.degrees)
        if a.nnz >= DENSE_STORAGE_DENSITY * n * n:
            s = a.toarray()
            s *= dinv[:, None]
            s *= dinv[None, :]
        else:
            data = a.data * np.repeat(dinv, np.diff(a.indptr))
            data *= dinv[a.indices]
            s = sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
        self.adjacency = s
        self.n = n

        # on a symmetric adjacency strong and weak components coincide, and
        # the strong search is about three times faster than directed=False
        count, labels = connected_components(a, directed=True, connection="strong")
        sqrt_d = np.sqrt(graph.degrees)
        norms = np.sqrt(np.bincount(labels, weights=graph.degrees, minlength=count))
        self.kernel = sp.csr_matrix(
            (sqrt_d / norms[labels], (np.arange(n), labels)), shape=(n, count)
        )

    def dot(self, x):
        return x - self.adjacency @ x

    def toarray(self):
        s = self.adjacency
        return np.eye(self.n) - (s if isinstance(s, np.ndarray) else s.toarray())


def normalized_laplacian(graph: WeightedGraph) -> NormalizedLaplacian:
    """Normalized Laplacian of a graph with positive degrees."""
    return NormalizedLaplacian(graph)


def _conductances(graph: WeightedGraph, labels, k):
    """Cut/volume of each cluster of a label vector with ids 0..k-1, all used.

    Row c of H @ A (H the k x n cluster indicator) is the weight flowing
    from cluster c into each node; the part landing outside c is its cut,
    so a cluster with no leaving edge scores exactly 0.0.
    """
    n = graph.n
    indicator = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    flow = indicator @ graph.adjacency
    source = np.repeat(np.arange(k), np.diff(flow.indptr))
    leaving = labels[flow.indices] != source
    cut = np.bincount(source[leaving], weights=flow.data[leaving], minlength=k)
    return cut / np.bincount(labels, weights=graph.degrees, minlength=k)


def conductance(graph: WeightedGraph, cluster) -> float:
    """Cut weight between the cluster and its complement over its volume.

    The cluster must be a nonempty proper subset of the nodes.  Self-loops
    count toward the volume but not the cut, so the value lies in [0, 1].
    This is the two-way profile {cluster, rest}: it costs one pass over the
    whole adjacency, O(nnz), however small the cluster.
    """
    idx = np.asarray(sorted(cluster), dtype=np.int64)
    if idx.size == 0:
        raise InvalidPartitionError("conductance of an empty cluster is undefined")
    if idx[0] < 0 or idx[-1] >= graph.n:
        raise InvalidPartitionError(f"cluster indices out of range for n={graph.n}")
    if np.unique(idx).size != idx.size:
        raise InvalidPartitionError("cluster contains duplicate nodes")
    if idx.size == graph.n:
        raise InvalidPartitionError(
            "conductance of the whole node set is undefined"
        )
    labels = np.ones(graph.n, dtype=np.int64)
    labels[idx] = 0
    return float(_conductances(graph, labels, 2)[0])


def partition_profile(graph: WeightedGraph, partition: Partition):
    """Per-cluster conductance together with its max (MCC) and sum.

    The sum is the normalized-cut objective value of the given partition.
    All clusters are scored in one pass over the adjacency.
    """
    if partition.n != graph.n:
        raise InvalidPartitionError(
            f"partition covers {partition.n} nodes but the graph has {graph.n}"
        )
    phis = _conductances(graph, partition.labels, partition.k).tolist()
    return {"per_cluster": phis, "mcc": max(phis), "sum": sum(phis)}
