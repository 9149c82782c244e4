"""k-means based spectral clustering baseline.

Normalized spectral clustering in the Shi-Malik style: embed, scale the
embedded column of node i by 1/sqrt(d_i), then run k-means++ seeding and
Lloyd iterations.  Empty clusters are repaired by the singleton rule (the
point farthest from its assigned centroid, among those that are not the
last member of their cluster, becomes a new one-point cluster).  All
randomness flows through a seeded PCG64 generator; trial t of seed s
uses the stream seeded by (s, t), so runs are reproducible.

The trials of one call are seeded together and then run their Lloyd
iterations together.  Each k-means++ step forms every trial's squared
distances to its new center with one product of the points against the T
new centers (n x T), and each trial then draws from its own stream.  Each
Lloyd step assigns the points for all A trials not yet at their fixpoint
with one product of the points against all of those trials' centers
(n x A*k), takes each trial's argmin over its own k columns, and sums
every trial's new centroids with one sparse one-hot product; a trial
retires once its assignment repeats.  Both products are formed over row
blocks of the points, so a block and its temporaries hold at most
BLOCK_BYTES whatever n, k and T; beyond that a call keeps O(n T) for the
labels, distances and seeding weights of its T trials.  Only the
rounding of the products and the order of the centroid sums differ from
one trial at a time, so costs agree with separate runs to rounding, and
centers, labels and iteration counts agree unless a draw or a point lies
within rounding of a boundary or a tie.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elli import graph_embedding
from .graph import Partition, WeightedGraph

__all__ = ["KscRun", "kmeanspp_seed", "lloyd", "ksc_cluster"]

MAX_ITER = 1000
# bytes of a row block of squared distances plus its temporaries
BLOCK_BYTES = 2 << 20


@dataclass
class KscRun:
    """One k-means trial.

    ``elapsed_s`` is the time from the start of the ``lloyd`` call that ran
    the trial until the trial retired, at its fixpoint or at the max_iter
    cut.  Trials run together share that start, so a trial that converges
    early reports less than one that runs on, and none counts its seeding.
    ``empty_repairs`` counts how many times the singleton rule filled an
    empty cluster, over all iterations.
    """

    partition: Partition
    cost: float
    iterations: int
    seed: object
    elapsed_s: float = 0.0
    lambda_next: float | None = None
    cost_history: list = None
    empty_repairs: int = 0


def kmeanspp_seed(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """D^2-weighted seeding over the columns of a d x n matrix for T
    trials, one per generator in ``rngs``; returns the T x d x k stack of
    centers that ``lloyd`` takes.

    A trial's first center is uniform over the points (one
    ``integers(n)`` call); each later one is drawn with probability
    proportional to the squared distance to the trial's nearest chosen
    center (one ``random()`` call), or uniformly (one more
    ``integers(n)``) once every such distance is zero.  Each trial draws
    from its own generator only, so its centers do not depend on the
    other trials.

    The trials step together: one product of the points against the T
    new centers gives every trial's squared distances as
    |p|^2 + |c|^2 - 2 p.c, formed over row blocks that with their
    temporaries hold at most BLOCK_BYTES.  A distance at or below the
    rounding of that form, 2 (d + 2) eps (|p|^2 + |c|^2), counts as zero,
    so a point on a chosen center weighs nothing, as it does in exact
    arithmetic.
    """
    d, n = points.shape
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    trials = len(rngs)
    p2 = np.einsum("ij,ij->j", points, points)
    rounding = 2 * (d + 2) * np.finfo(np.float64).eps
    # two float64 arrays and one boolean mask per block entry
    step = max(1, BLOCK_BYTES // (17 * max(trials, 1)))
    centers = np.empty((trials, d, k))
    best = np.empty((trials, n))
    cumulative = np.empty((trials, n))
    idx = np.array([int(rng.integers(n)) for rng in rngs], dtype=np.int64)
    for i in range(k):
        chosen = points[:, idx]
        centers[:, :, i] = chosen.T
        if i == k - 1:
            break
        c2 = p2[idx, None]
        minus_twice = -2.0 * chosen.T
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            d2 = minus_twice @ points[:, block]
            scale = c2 + p2[block]
            d2 += scale
            scale *= rounding
            d2 *= d2 > scale  # rounding noise and negatives to zero
            if i:
                np.minimum(best[:, block], d2, out=best[:, block])
            else:
                best[:, block] = d2
        np.cumsum(best, axis=1, out=cumulative)
        totals = cumulative[:, -1]
        weighted = (totals > 0).tolist()
        # the one uniform draw of Generator.choice(n, p=best / total);
        # u < 1 makes u * total < total, so the index is below n
        draws = np.array([rng.random() if w else 0.0
                          for rng, w in zip(rngs, weighted)]) * totals
        # entries <= the draw: searchsorted(side="right") on each row
        idx = np.count_nonzero(cumulative <= draws[:, None], axis=1)
        for t, w in enumerate(weighted):
            if not w:
                idx[t] = rngs[t].integers(n)
    return centers


def _assign(points, p2, centers, k):
    """Labels and squared distances, each A x n, of every point for the A
    trials whose centers are the k-column blocks of ``centers``; argmin
    breaks ties toward the lowest cluster."""
    n = points.shape[1]
    width = centers.shape[1]
    c2 = np.einsum("ij,ij->j", centers, centers)
    labels = np.empty((width // k, n), dtype=np.int64)
    dists = np.empty((width // k, n))
    step = max(1, BLOCK_BYTES // (16 * width))
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        twice = points[:, block].T @ centers
        twice *= 2.0
        d2 = p2[block, None] + c2
        d2 -= twice
        d2 = d2.reshape(d2.shape[0], -1, k)
        own = d2.argmin(axis=2)
        labels[:, block] = own.T
        dists[:, block] = np.take_along_axis(d2, own[:, :, None], axis=2)[:, :, 0].T
    np.maximum(dists, 0.0, out=dists)
    return labels, dists


def _repair(labels, dists, k):
    """The singleton rule on one trial, in place: each empty cluster, in
    ascending order, takes the point farthest from its centroid (ties to
    the lowest index) among those whose cluster keeps another member.  A
    point so moved is the last member of its new cluster, so no point is
    taken twice, and with n >= k every cluster ends nonempty.  Returns how
    many clusters it filled."""
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    for cid in empty:
        # distances are >= 0, so -1 rules a point out
        far = int(np.argmax(np.where(counts[labels] > 1, dists, -1.0)))
        counts[labels[far]] -= 1
        counts[cid] = 1
        labels[far] = cid
        dists[far] = 0.0
    return int(empty.size)


def _centroids(points, labels, k):
    """Cluster means of A trials from their A x n labels, as the k-column
    blocks of a d x A*k matrix: one sparse one-hot product sums them all."""
    trials, n = labels.shape
    cluster = (labels + k * np.arange(trials)[:, None]).T.ravel()
    onehot = sp.csc_matrix(
        (np.ones(cluster.size), cluster, np.arange(0, cluster.size + 1, trials)),
        shape=(trials * k, n),
    )
    sums = onehot @ points.T
    return (sums / np.bincount(cluster, minlength=trials * k)[:, None]).T


def lloyd(points: np.ndarray, k: int, centers: np.ndarray,
          max_iter: int = MAX_ITER, seed=None):
    """Lloyd iterations for T trials run together, from the T x d x k
    stack ``centers``; returns a list of T KscRuns, with ``seed`` a
    sequence of T seeds (or None).

    The cost is non-increasing in exact arithmetic.  In floating point the
    expanded distance |p|^2 + |c|^2 - 2 p.c can round it upward near zero
    cost (e.g. 3.85e-18 then 5.20e-18 when the points sit on their centers).

    Each trial stops at an assignment fixpoint or after max_iter
    iterations.  Empty clusters are processed in ascending cluster-index
    order: each receives as a singleton the point currently farthest from
    its assigned centroid that is not the last member of its cluster.
    """
    t0 = time.perf_counter()
    stack = np.asarray(centers, dtype=np.float64)
    seeds = [None] * len(stack) if seed is None else list(seed)
    trials, d, _ = stack.shape
    p2 = np.einsum("ij,ij->j", points, points)
    centers = stack.transpose(1, 0, 2).reshape(d, trials * k)
    histories = [[] for _ in range(trials)]
    repairs = [0] * trials
    runs = [None] * trials

    def retire(t, labels, cost, iterations):
        runs[t] = KscRun(
            partition=Partition(labels.copy(), k=k),
            cost=cost,
            iterations=iterations,
            seed=seeds[t],
            elapsed_s=time.perf_counter() - t0,
            cost_history=histories[t],
            empty_repairs=repairs[t],
        )

    live = np.arange(trials)
    labels = None
    for it in range(max_iter):
        new_labels, dists = _assign(points, p2, centers, k)
        offsets = k * np.arange(live.size)[:, None]
        counts = np.bincount((new_labels + offsets).ravel(), minlength=live.size * k)
        for a in np.flatnonzero((counts.reshape(-1, k) == 0).any(axis=1)):
            repairs[live[a]] += _repair(new_labels[a], dists[a], k)
        costs = dists.sum(axis=1)
        for t, cost in zip(live, costs.tolist()):
            histories[t].append(cost)
        if labels is not None:
            done = (new_labels == labels).all(axis=1)
            for a in np.flatnonzero(done):
                retire(live[a], labels[a], float(costs[a]), it)
            keep = ~done
            live, new_labels, costs = live[keep], new_labels[keep], costs[keep]
            if not live.size:
                break
        labels = new_labels
        centers = _centroids(points, labels, k)
    else:  # the max_iter cut
        for a, t in enumerate(live):
            retire(t, labels[a], float(costs[a]), max_iter)
    return runs


def ksc_cluster(graph: WeightedGraph, k: int, trials: int = 1,
                seed: int = 0) -> list[KscRun]:
    """Scale column i of the graph's shared embedding by 1/sqrt(d_i), seed
    each trial by k-means++ from its own stream, then run all the trials'
    Lloyd iterations together in one ``lloyd`` call."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got trials={trials}")
    emb = graph_embedding(graph, k)
    points = emb.P / np.sqrt(graph.degrees)[None, :]
    centers = kmeanspp_seed(points, k, [np.random.default_rng([seed, t])
                                        for t in range(trials)])
    runs = lloyd(points, k, centers, seed=[(seed, t) for t in range(trials)])
    for run in runs:
        run.lambda_next = emb.lambda_next
    return runs
