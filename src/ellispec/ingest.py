"""Cosine-similarity p-nearest-neighbor graphs from nonnegative vectors."""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._errors import InvalidGraphError
from .graph import WeightedGraph

__all__ = ["VectorDataset", "load_csv", "load_vds", "cosine_knn_graph"]

_VDS_MAGIC = b"VDS1"

# Rows of the similarity matrix held at once by cosine_knn_graph, and the
# width of the column chunks whose maxima screen each row's neighbor
# candidates.  At n=5000, d=64, p=10 on one BLAS thread, median of nine
# builds of three datasets: 0.127-0.141 s for 64-512 rows by 64-256
# columns (0.132 s at 128 by 128), 0.146-0.158 s at 32 rows, and 0.34 s
# when whole rows were ranked.  128 columns leave 11.4 candidates per row,
# 64 leave 10.6 and 256 leave 13.4.
KNN_BLOCK_ROWS = 128
KNN_SCREEN_COLS = 128
# A BLAS product can round exactly equal cosines up to this many ulps apart.
KNN_TIE_ULPS = 4


@dataclass
class VectorDataset:
    """Row-major matrix of nonnegative feature vectors."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("expected a 2-d data matrix")
        if not self.X.size:
            raise ValueError(f"no features: the data matrix is {self.X.shape}")
        finite = np.isfinite(self.X).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"row {row} contains a non-finite feature")
        if (self.X < 0).any():
            row = int(np.argwhere((self.X < 0).any(axis=1))[0][0])
            raise ValueError(f"row {row} contains a negative feature")
        # a nonnegative row is zero exactly when its largest entry is; its
        # norm can underflow to 0 first
        peaks = self.X.max(axis=1)
        if peaks.min() == 0.0:
            row = int(np.argmin(peaks))
            raise ValueError(f"row {row} is a zero vector")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def _dataset(path, read) -> VectorDataset:
    """A VectorDataset of what ``read()`` returns; a parse, shape or
    content error raises InvalidGraphError naming the path."""
    try:
        return VectorDataset(read())
    except ValueError as exc:
        raise InvalidGraphError(f"{path}: {exc}") from exc


def load_csv(path) -> VectorDataset:
    """One vector per row, comma-separated."""
    with warnings.catch_warnings():
        # an empty file is rejected as such, naming the path
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return _dataset(path, lambda: np.loadtxt(path, delimiter=",", ndmin=2))


def load_vds(path) -> VectorDataset:
    """Packed little-endian binary: 16-byte header {magic 'VDS1', u32 n,
    u32 d, 4 pad bytes}, then n*d float64 values row-major.  The payload
    size is checked against the header before anything is allocated."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != _VDS_MAGIC:
            raise InvalidGraphError(f"{path}: not a VDS1 file")
        n, d = struct.unpack_from("<II", header, 4)
        values = (os.fstat(fh.fileno()).st_size - 16) // 8
        if values < n * d:
            raise InvalidGraphError(
                f"{path}: truncated payload ({values} of {n * d} values)")
        data = np.fromfile(fh, dtype="<f8", count=n * d)
    return _dataset(path, lambda: data.reshape(n, d))


def cosine_knn_graph(dataset: VectorDataset, p: int) -> WeightedGraph:
    """Sparsified cosine-similarity graph under the OR neighbor rule.

    w_ij = cos(a_i, a_j) whenever i is among the p most similar vectors
    to j or vice versa; a vector is never its own neighbor.  Ties at the
    p-th rank are all included, so neighbor sets may exceed p; values up
    to ``KNN_TIE_ULPS`` ulps below the p-th largest count as ties (the
    product can round equal cosines apart).  Zero similarities carry no
    edge; a node left with no edges is rejected.

    Similarities are computed ``KNN_BLOCK_ROWS`` rows at a time, so the
    working memory is O(B·n + nnz) for block size B, never n×n.  Each row
    is screened before it is ranked: the p-th largest of its maxima over
    chunks of ``KNN_SCREEN_COLS`` columns is at most its p-th largest
    similarity, so one compare against that bound, lowered by twice the
    tie window, keeps every neighbor among a few candidates.  The p-th
    largest of those candidates is the row's, and the neighbors are the
    candidates that pass the tie test against it.
    """
    n = dataset.n
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    # each row scaled by a power of two, which is exact, to a largest entry
    # in [0.5, 1) before its norm, so the norm neither overflows nor underflows
    unit = dataset.X * np.ldexp(1.0, -np.frexp(dataset.X.max(axis=1))[1])[:, None]
    unit /= np.linalg.norm(unit, axis=1)[:, None]

    # at least p screening chunks of columns, each holding a similarity off
    # the diagonal: chunks at least two wide, or else the n single columns
    width = min(KNN_SCREEN_COLS, (n - 1) // p)
    starts = np.arange(0, n - 1, width) if width > 1 else np.arange(n)
    chunks = starts.size
    out = np.empty((min(KNN_BLOCK_ROWS, n), n))

    rows, cols, sims = [], [], []
    for lo in range(0, n, KNN_BLOCK_ROWS):
        hi = min(lo + KNN_BLOCK_ROWS, n)
        block = np.matmul(unit[lo:hi], unit.T, out=out[:hi - lo])
        local = np.arange(hi - lo)
        block[local, local + lo] = -np.inf
        # the p-th largest chunk maximum is at most the p-th largest
        # similarity (>= 0); twice the tie window below it, it is below the
        # tie threshold too, so every neighbor is a candidate
        bound = np.partition(np.maximum.reduceat(block, starts, axis=1),
                             chunks - p, axis=1)[:, chunks - p]
        bound -= 2 * KNN_TIE_ULPS * np.spacing(bound)
        flat = np.flatnonzero(block >= bound[:, None])
        r, c = np.divmod(flat, n)
        v = block.ravel()[flat]
        # p-th largest per row, from the candidates sorted by row then value;
        # ties with it and above are neighbors
        ends = np.cumsum(np.bincount(r, minlength=hi - lo))
        kth = v[np.lexsort((v, r))[ends - p]]
        kth -= KNN_TIE_ULPS * np.spacing(kth)
        keep = v >= kth[r]
        rows.append(r[keep] + lo)
        cols.append(c[keep])
        sims.append(v[keep])
    rows, cols, sims = (np.concatenate(v) for v in (rows, cols, sims))

    # OR rule: one weight per unordered pair, so the matrix is bitwise
    # symmetric even where the blocks computed (i, j) and (j, i) apart
    pairs, first = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols),
                             return_index=True)
    w = sims[first]
    positive = w > 0.0  # zero similarities, or numerical dust below them
    i, j = np.divmod(pairs[positive], n)
    w = w[positive]

    edges = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    if edges.min() == 0:
        node = int(np.argmin(edges))
        raise InvalidGraphError(
            f"node {node} has no positively-weighted neighbors"
        )
    adjacency = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    return WeightedGraph(adjacency)
