"""Synthetic benchmark adjacency matrices with known cluster structure.

A symmetric matrix M with zero diagonal and uniform(0,1) off-diagonal
entries is split into its block-diagonal part B (blocks = ground-truth
clusters, contiguous index ranges) and the halved remainder
R = (M - B) / 2.  The adjacency is W = B + delta * R for an intensity
delta in [0, 2]: delta = 0 gives k disconnected blocks, delta = 2
restores M.  The conductance of truth cluster i is exactly
delta / (c_i + delta) with c_i = b_i / r_i, where b_i is the within-block
mass of M and r_i half the off-block mass incident to the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Partition, WeightedGraph

__all__ = [
    "SynthInstance",
    "synth_adjacency",
    "delta_sweep",
    "conductance_bound",
    "standard_suites",
    "DEFAULT_DELTAS",
]

DEFAULT_DELTAS = tuple(round(0.1 * i, 1) for i in range(21))


@dataclass
class SynthInstance:
    graph: WeightedGraph
    truth: Partition
    delta: float
    c: np.ndarray
    c_min: float


def _sample_m(n, rng):
    m = rng.uniform(0.0, 1.0, size=(n, n))
    m = np.triu(m, 1)
    return m + m.T


def _block_labels(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def _cluster_constants(m, labels, k):
    """c_i = within-block mass / half the off-block mass, per block."""
    c = np.empty(k)
    for i in range(k):
        inside = labels == i
        b_i = m[np.ix_(inside, inside)].sum()
        r_i = 0.5 * m[np.ix_(inside, ~inside)].sum()
        c[i] = b_i / r_i
    return c


def _assemble(m, labels, k, delta, permutation=None):
    same = labels[:, None] == labels[None, :]
    w = np.where(same, m, 0.5 * delta * m)
    out_labels = labels
    if permutation is not None:
        w = w[np.ix_(permutation, permutation)]
        out_labels = labels[permutation]
    graph = WeightedGraph(sp.csr_matrix(w))
    return graph, Partition(out_labels, k=k)


def synth_adjacency(sizes, delta, rng, permute=False) -> SynthInstance:
    """Generate one instance with the given cluster sizes and intensity.

    ``rng`` is a seeded numpy Generator or an integer seed.  With
    ``permute`` the node ids are shuffled (ground truth follows), which
    stresses label-invariance; by default clusters are contiguous ranges.
    The instance is the one-point ``delta_sweep`` with the same arguments.
    """
    return next(delta_sweep(sizes, [delta], rng, permute))


def delta_sweep(sizes, deltas=DEFAULT_DELTAS, seed=0, permute=False):
    """Yield instances for each delta, all built from one shared M.

    Reusing a single M per seed isolates the effect of delta, so curves
    over the sweep are smooth.  ``seed`` is anything ``default_rng``
    accepts, a Generator included.  Sizes and deltas are checked before
    M is drawn.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("every cluster size must be at least 1")
    deltas = [float(d) for d in deltas]
    for delta in deltas:
        if not 0.0 <= delta <= 2.0:
            raise ValueError(f"delta must lie in [0, 2], got {delta}")
    rng = np.random.default_rng(seed)
    n, k = sum(sizes), len(sizes)
    m = _sample_m(n, rng)
    labels = _block_labels(sizes)
    perm = rng.permutation(n) if permute else None
    c = _cluster_constants(m, labels, k)
    c_min = float(c.min())
    for delta in deltas:
        graph, truth = _assemble(m, labels, k, delta, perm)
        yield SynthInstance(graph=graph, truth=truth, delta=delta,
                            c=c, c_min=c_min)


def conductance_bound(c_min: float, delta: float) -> float:
    """delta / (c_min + delta): the truth partition's max cluster conductance.

    Serves as an upper bound on the graph conductance of the instance.
    """
    if c_min <= 0:
        raise ValueError("c_min must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return 0.0
    return delta / (c_min + delta)


def standard_suites():
    """Named cluster-size configurations: full-scale and desk-scale."""
    return {
        "balanced": [200] * 50,
        "unbalanced": [1000] * 3 + [50] * 140,
        "balanced-desk": [100] * 10,
        "unbalanced-desk": [200] * 2 + [25] * 8,
    }
