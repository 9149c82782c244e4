"""Ellipsoid-based grouping and the full clustering pipeline.

The grouping stage draws the origin-centered minimum-volume enclosing
ellipsoid of the embedded columns, takes its boundary columns as cluster
representatives (thinned to exactly k by successive projection when
there are more), and assigns every node to the representative with the
largest normalized inner product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._errors import InvalidGraphError, RankError
from .eigen import Embedding, bottom_k_eigs
from .graph import Partition, WeightedGraph
from .mvee import solve_mvee
from .spa import spa_select

__all__ = ["ElliResult", "group_columns", "graph_embedding", "elli_cluster"]


@dataclass
class ElliResult:
    """Partition plus the selected representative columns, stage timings
    and the MVEE solver's counters (``Ellipsoid.stats``); ``elli_cluster``
    adds the eigensolver's (``Embedding.stats``) under ``stats["embed"]``."""

    partition: Partition
    representatives: list[int]
    active_count: int
    timings: dict = field(default_factory=dict)
    lambda_next: float | None = None
    stats: dict = field(default_factory=dict)


def group_columns(P) -> ElliResult:
    """Group the columns of a k x n array into k clusters.

    The representatives come from the boundary columns of ``solve_mvee``,
    at its fixed tolerances ``mvee.EPS`` and ``mvee.TAU_ACTIVE``.
    Deterministic.  A node scoring equally against two representatives
    goes to the lower cluster id; the thinning breaks exact ties as
    ``spa_select`` does.  Raises RankError when fewer than k columns lie
    on the ellipsoid boundary.
    """
    P = np.asarray(P, dtype=np.float64)
    k = P.shape[0]

    norms = np.linalg.norm(P, axis=0)
    if norms.min() < 1e-12:
        node = int(np.argmin(norms))
        raise InvalidGraphError(
            f"embedded column for node {node} is numerically zero"
        )

    t0 = time.perf_counter()
    ellipsoid = solve_mvee(P)
    active = ellipsoid.active
    t1 = time.perf_counter()

    if len(active) < k:
        raise RankError(
            f"only {len(active)} columns lie on the ellipsoid boundary, "
            f"fewer than k={k}"
        )
    # ascending when there are exactly k: the cluster ids follow it
    reps = [int(i) for i in active] if len(active) == k else spa_select(P, active, k)
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


def elli_cluster(graph: WeightedGraph, k: int) -> ElliResult:
    """Full pipeline: the graph's bottom-k embedding, then ``group_columns``.

    ``stats["embed"]`` describes the solve that made the embedding, which
    may have run in an earlier call on the same graph.
    """
    t0 = time.perf_counter()
    emb = graph_embedding(graph, k)
    t1 = time.perf_counter()
    result = group_columns(emb.P)
    result.timings["embed_s"] = t1 - t0
    result.stats["embed"] = dict(emb.stats)
    result.lambda_next = emb.lambda_next
    return result
