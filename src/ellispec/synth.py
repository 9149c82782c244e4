"""Synthetic benchmark adjacency matrices with known cluster structure.

A symmetric matrix M with zero diagonal and uniform(0,1) off-diagonal
entries is split into its block-diagonal part B (blocks = ground-truth
clusters, contiguous index ranges) and the halved remainder
R = (M - B) / 2.  The adjacency is W = B + delta * R for an intensity
delta in [0, 2]: delta = 0 gives k disconnected blocks, delta = 2
restores M.  The conductance of truth cluster i is exactly
delta / (c_i + delta) with c_i = b_i / r_i, where b_i is the within-block
mass of M and r_i half the off-block mass incident to the block.

Each instance's W is built once as an ndarray and handed to its
``WeightedGraph`` with ``copy=False``, so the graph stores that array
(read-only) whenever at least half its entries are nonzero, as for every
delta > 0, and a CSR copy of it otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BLOCK_ROWS, Partition, WeightedGraph

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
    """Uniform draws mirrored from the strict upper triangle, in place: the
    same matrix as triu(U, 1) + triu(U, 1).T without two n x n copies."""
    m = rng.uniform(0.0, 1.0, size=(n, n))
    for lo in range(0, n, BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        m[lo:hi, :lo] = m[:lo, lo:hi].T
        upper = np.triu(m[lo:hi, lo:hi], 1)
        m[lo:hi, lo:hi] = upper + upper.T
    return m


def _block_labels(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def _cluster_constants(m, blocks):
    """c_i = within-block mass / half the off-block mass, per block; inf for
    a single block, which has no off-block mass."""
    if len(blocks) == 1:
        return np.array([np.inf])
    rows = m.sum(axis=1)
    c = np.empty(len(blocks))
    for i, (lo, hi) in enumerate(blocks):
        b_i = m[lo:hi, lo:hi].sum()
        c[i] = b_i / (0.5 * (rows[lo:hi].sum() - b_i))
    return c


def _assemble(m, blocks, labels, delta, permutation=None):
    """W = B + delta * R, built in a fresh array that the graph takes over."""
    w = m * (0.5 * delta)
    for lo, hi in blocks:
        w[lo:hi, lo:hi] = m[lo:hi, lo:hi]
    out_labels = labels
    if permutation is not None:
        w = w[np.ix_(permutation, permutation)]
        out_labels = labels[permutation]
    graph = WeightedGraph(w, copy=False)
    return graph, Partition(out_labels, k=len(blocks))


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
    n = sum(sizes)
    m = _sample_m(n, rng)
    labels = _block_labels(sizes)
    bounds = np.cumsum([0] + sizes)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    perm = rng.permutation(n) if permute else None
    c = _cluster_constants(m, blocks)
    c_min = float(c.min())
    for delta in deltas:
        # no local keeps the graph, so once the consumer drops an instance
        # nothing holds its W while the next one is built
        yield SynthInstance(*_assemble(m, blocks, labels, delta, perm),
                            delta=delta, c=c, c_min=c_min)


def conductance_bound(c_min: float, delta: float) -> float:
    """delta / (c_min + delta): the truth partition's max cluster conductance.

    Serves as an upper bound on the graph conductance of the instance.
    A singleton cluster has c = 0 and conductance 1 for any delta > 0; a
    single cluster has c = inf and conductance 0.
    """
    # NaN fails every comparison
    if not c_min >= 0:
        raise ValueError(f"c_min must be nonnegative, got {c_min}")
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
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
