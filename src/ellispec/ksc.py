"""k-means based spectral clustering baseline.

Normalized spectral clustering in the Shi-Malik style: embed, scale the
embedded column of node i by 1/sqrt(d_i), then run k-means++ seeding and
Lloyd iterations.  Empty clusters are repaired by the singleton rule (the
point farthest from its assigned centroid becomes a new one-point
cluster).  All randomness flows through a seeded PCG64 generator; trial t
of seed s uses the stream seeded by (s, t), so runs are reproducible.

The trials of one call are seeded one at a time, then run their Lloyd
iterations in lockstep.  Each step assigns the points for all A trials not
yet at their fixpoint with one product of the points against all of those
trials' centers (n x A*k), takes each trial's argmin over its own k
columns, and sums every trial's new centroids with one sparse one-hot
product; a trial retires once its assignment repeats.  The distances are
formed over row blocks of the points, so that block and its one temporary
hold at most BLOCK_BYTES whatever n, k and A; beyond that a call keeps
O(n T) for the labels and distances of its T trials.  Only the centroid
sums accumulate in another order than one trial at a time would, so
costs agree with separate runs to rounding, and labels and iteration
counts agree unless a point lies within rounding of a tie.
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
# bytes of a row block of squared distances plus its one temporary
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


def _sq_dists_to(points, center):
    diff = points - center[:, None]
    return np.einsum("ij,ij->j", diff, diff)


def kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator):
    """D^2-weighted seeding over the columns of a d x n matrix.

    The first center is uniform over the points; each subsequent center is
    drawn with probability proportional to the squared distance to the
    nearest chosen center.  If every remaining distance is zero (all
    points already covered), the draw falls back to uniform.
    """
    d, n = points.shape
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    centers = np.empty((d, k))
    first = int(rng.integers(n))
    centers[:, 0] = points[:, first]
    best = _sq_dists_to(points, centers[:, 0])
    for i in range(1, k):
        cumulative = np.cumsum(best)
        total = cumulative[-1]
        if total > 0:
            # the one uniform draw of Generator.choice(n, p=best / total);
            # u < 1 makes u * total < total, so the index is below n
            idx = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
        else:
            idx = int(rng.integers(n))
        centers[:, i] = points[:, idx]
        np.minimum(best, _sq_dists_to(points, centers[:, i]), out=best)
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
    ascending order, takes the point farthest from its centroid.  Returns
    how many clusters it filled."""
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    for cid in empty:
        far = int(np.argmax(dists))
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
    """Lloyd iterations from given centers.

    ``centers`` is d x k for one trial, and the result one KscRun; or a
    T x d x k stack of T trials run together, and the result a list of T
    runs, with ``seed`` a sequence of T seeds (or None).

    The cost is non-increasing in exact arithmetic.  In floating point the
    expanded distance |p|^2 + |c|^2 - 2 p.c can round it upward near zero
    cost (e.g. 3.85e-18 then 5.20e-18 when the points sit on their centers).

    Each trial stops at an assignment fixpoint or after max_iter
    iterations.  Empty clusters are processed in ascending cluster-index
    order: each receives the point currently farthest from its assigned
    centroid as a singleton.
    """
    t0 = time.perf_counter()
    single = np.ndim(centers) == 2
    stack = np.asarray(centers, dtype=np.float64)
    if single:
        stack, seeds = stack[None], [seed]
    else:
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
    return runs[0] if single else runs


def ksc_cluster(graph: WeightedGraph, k: int, trials: int = 1, seed: int = 0,
                max_iter: int = MAX_ITER) -> list[KscRun]:
    """Scale column i of the graph's shared embedding by 1/sqrt(d_i), seed
    each trial by k-means++ from its own stream, then run all the trials'
    Lloyd iterations together in one ``lloyd`` call."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got trials={trials}")
    emb = graph_embedding(graph, k)
    points = emb.P / np.sqrt(graph.degrees)[None, :]
    centers = np.stack([kmeanspp_seed(points, k, np.random.default_rng([seed, t]))
                        for t in range(trials)])
    runs = lloyd(points, k, centers, max_iter=max_iter,
                 seed=[(seed, t) for t in range(trials)])
    for run in runs:
        run.lambda_next = emb.lambda_next
    return runs
