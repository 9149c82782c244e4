"""Ellipsoid-based grouping and the full clustering pipeline.

The grouping stage draws the origin-centered minimum-volume enclosing
ellipsoid of the embedded columns, takes its boundary columns as cluster
representatives (thinned to exactly k by successive projection when
needed), and assigns every node to the representative with the largest
normalized inner product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._errors import InvalidGraphError
from .eigen import Embedding, bottom_k_eigs
from .graph import Partition, WeightedGraph
from .mvee import DEFAULT_EPS, DEFAULT_TAU_ACTIVE, solve_mvee
from .spa import spa_select

__all__ = ["ElliResult", "group_columns", "graph_embedding", "elli_cluster",
           "alpha_theta_profile"]


@dataclass
class ElliResult:
    """Partition plus the selected representative columns, stage timings
    and the MVEE solver's counters (``Ellipsoid.stats``)."""

    partition: Partition
    representatives: list[int]
    active_count: int
    spa_fallback: bool = False
    timings: dict = field(default_factory=dict)
    lambda_next: float | None = None
    stats: dict = field(default_factory=dict)


def group_columns(P, mvee_eps: float = DEFAULT_EPS,
                  tau_active: float = DEFAULT_TAU_ACTIVE) -> ElliResult:
    """Group the columns of a k x n matrix into k clusters.

    ``P`` may be an Embedding or a plain array; k is its row count.
    Deterministic: all ties break toward the lowest index.
    """
    if isinstance(P, Embedding):
        P = P.P
    P = np.asarray(P, dtype=np.float64)
    k, n = P.shape

    norms = np.linalg.norm(P, axis=0)
    if norms.min() < 1e-12:
        node = int(np.argmin(norms))
        raise InvalidGraphError(
            f"embedded column for node {node} is numerically zero"
        )

    t0 = time.perf_counter()
    ellipsoid = solve_mvee(P, eps=mvee_eps, tau_active=tau_active)
    active = ellipsoid.active
    t1 = time.perf_counter()

    fallback = False
    if len(active) > k:
        reps = spa_select(P, active, k)
    elif len(active) == k:
        reps = [int(i) for i in active]
    else:
        # floating point or duplicated extreme columns can under-fill the
        # active set; select from all columns instead, deterministically
        fallback = True
        reps = spa_select(P, range(n), k)
    t2 = time.perf_counter()

    Pbar = P / norms[None, :]
    scores = Pbar[:, reps].T @ Pbar          # k x n
    labels = np.argmax(scores, axis=0)       # lowest index wins ties
    t3 = time.perf_counter()

    partition = Partition(labels, k=k)
    for u, rep in enumerate(reps):
        if labels[rep] != u:
            raise InvalidGraphError(
                f"representative column {rep} was not assigned to its own "
                f"cluster (degenerate parallel representatives)"
            )
    return ElliResult(
        partition=partition,
        representatives=reps,
        active_count=len(active),
        spa_fallback=fallback,
        timings={"mvee_s": t1 - t0, "select_s": t2 - t1, "assign_s": t3 - t2},
        stats=ellipsoid.stats,
    )


def graph_embedding(graph: WeightedGraph, k: int) -> Embedding:
    """The graph's bottom-k embedding, solved on the first call for this k.

    The result is kept on the graph, keyed by k, with read-only arrays, so
    both algorithms and the CLI share one solve.  Two threads making the
    first call at once may both solve; either result is kept.
    """
    emb = graph._embeddings.get(k)
    if emb is None:
        emb = bottom_k_eigs(graph, k)
        emb.P.flags.writeable = False
        emb.eigenvalues.flags.writeable = False
        graph._embeddings[k] = emb
    return emb


def elli_cluster(graph: WeightedGraph, k: int,
                 mvee_eps: float = DEFAULT_EPS,
                 tau_active: float = DEFAULT_TAU_ACTIVE) -> ElliResult:
    """Full pipeline: the graph's bottom-k embedding, then the grouping."""
    t0 = time.perf_counter()
    emb = graph_embedding(graph, k)
    t1 = time.perf_counter()
    result = group_columns(emb, mvee_eps=mvee_eps, tau_active=tau_active)
    result.timings["embed_s"] = t1 - t0
    result.lambda_next = emb.lambda_next
    return result


def alpha_theta_profile(graph: WeightedGraph, partition: Partition):
    """Degree-ratio constants of a partition, used to build test instances.

    For node j of cluster i: alpha_{i,j} = sqrt(d_{i,j} / mu(S_i)) with
    degrees sorted ascending within the cluster, and
    theta_{i,j} = alpha_{i,j} / alpha_i^*.  Returns the extremes plus the
    spectral-gap threshold 4k / (theta * alpha)^2 with
    theta = min(0.5 * (1 - theta_max), (17 - 12*sqrt(2)) * theta_min).
    Diagnostic only; the clustering algorithm never consumes these.
    """
    d = graph.degrees
    alpha_star = []
    alpha_min = np.inf
    theta_min, theta_max = np.inf, -np.inf
    representatives = []
    for members in partition.clusters():
        deg = np.sort(d[members])
        mu = deg.sum()
        alphas = np.sqrt(deg / mu)
        alpha_star.append(alphas[-1])
        alpha_min = min(alpha_min, alphas[0])
        if deg.size > 1:
            thetas = alphas[:-1] / alphas[-1]
            theta_min = min(theta_min, thetas[0])
            theta_max = max(theta_max, thetas[-1])
        order = members[np.argsort(d[members], kind="stable")]
        representatives.append(int(order[-1]))
    alpha_star_min = float(min(alpha_star))
    theta = min(0.5 * (1.0 - theta_max), (17.0 - 12.0 * np.sqrt(2.0)) * theta_min)
    return {
        "alpha_min": float(alpha_min),
        "alpha_star_min": alpha_star_min,
        "theta_min": float(theta_min),
        "theta_max": float(theta_max),
        "theta": float(theta),
        "gap_threshold": float(4.0 * partition.k / (theta * alpha_star_min) ** 2)
        if theta > 0 else np.inf,
        "representatives": representatives,
    }
