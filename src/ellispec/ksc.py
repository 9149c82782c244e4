"""k-means based spectral clustering baseline.

Normalized spectral clustering in the Shi-Malik style: embed, scale the
embedded column of node i by 1/sqrt(d_i), then run k-means++ seeding and
Lloyd iterations.  Empty clusters are repaired by the singleton rule (the
point farthest from its assigned centroid becomes a new one-point
cluster).  All randomness flows through a seeded PCG64 generator; trial t
of seed s uses the stream seeded by (s, t), so runs are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .elli import graph_embedding
from .graph import Partition, WeightedGraph

__all__ = ["KscRun", "kmeanspp_seed", "lloyd", "ksc_cluster"]

MAX_ITER = 1000


@dataclass
class KscRun:
    partition: Partition
    cost: float
    iterations: int
    seed: object
    elapsed_s: float = 0.0
    lambda_next: float | None = None
    cost_history: list = None


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
        total = best.sum()
        if total > 0:
            probs = best / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))
        centers[:, i] = points[:, idx]
        np.minimum(best, _sq_dists_to(points, centers[:, i]), out=best)
    return centers


def _assign(points, centers):
    # squared distances, n x k; argmin breaks ties toward the lowest cluster
    p2 = np.einsum("ij,ij->j", points, points)[:, None]
    c2 = np.einsum("ij,ij->j", centers, centers)[None, :]
    d2 = p2 + c2 - 2.0 * (points.T @ centers)
    labels = np.argmin(d2, axis=1)
    return labels, np.maximum(d2[np.arange(points.shape[1]), labels], 0.0)


def lloyd(points: np.ndarray, k: int, centers: np.ndarray,
          max_iter: int = MAX_ITER, seed=None) -> KscRun:
    """Lloyd iterations from given centers.

    The cost is non-increasing in exact arithmetic.  In floating point the
    expanded distance |p|^2 + |c|^2 - 2 p.c can round it upward near zero
    cost (e.g. 3.85e-18 then 5.20e-18 when the points sit on their centers).

    Stops at an assignment fixpoint or after max_iter iterations.  Empty
    clusters are processed in ascending cluster-index order: each receives
    the point currently farthest from its assigned centroid as a
    singleton.
    """
    t0 = time.perf_counter()
    d, n = points.shape
    centers = centers.copy()
    labels = None
    cost = np.inf
    iterations = 0
    history = []
    for _ in range(max_iter):
        new_labels, dists = _assign(points, centers)

        counts = np.bincount(new_labels, minlength=k)
        for cid in np.flatnonzero(counts == 0):
            far = int(np.argmax(dists))
            new_labels[far] = cid
            dists[far] = 0.0
            counts = np.bincount(new_labels, minlength=k)

        cost = float(dists.sum())
        history.append(cost)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        iterations += 1
        labels = new_labels
        for cid in range(k):
            members = labels == cid
            centers[:, cid] = points[:, members].mean(axis=1)
    return KscRun(
        partition=Partition(labels, k=k),
        cost=cost,
        iterations=iterations,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
        cost_history=history,
    )


def ksc_cluster(graph: WeightedGraph, k: int, trials: int = 1, seed: int = 0,
                max_iter: int = MAX_ITER) -> list[KscRun]:
    """Scale column i of the graph's shared embedding by 1/sqrt(d_i), then
    run independently seeded k-means++/Lloyd trials."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got trials={trials}")
    emb = graph_embedding(graph, k)
    points = emb.P / np.sqrt(graph.degrees)[None, :]
    runs = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        centers = kmeanspp_seed(points, k, rng)
        run = lloyd(points, k, centers, max_iter=max_iter, seed=(seed, t))
        run.lambda_next = emb.lambda_next
        runs.append(run)
    return runs
