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
every trial's new centroids, and each cluster's sum of |p|^2 that gives
its cost, with one sparse one-hot product; a trial retires once its
assignment repeats.  For k >= BOUNDED_MIN_K, the steps after the first
FULL_PASSES carry a Hamerly upper and lower distance bound per point and
trial instead, and form the distances of only the points whose label the
bounds leave in doubt (see ``lloyd``).

Both products are formed over row blocks of the points, so a block and
its temporaries hold at most BLOCK_BYTES, except that a Lloyd block takes
at least 64 rows (16 bytes for each of 64 x A*k distances, 14 MiB at
k = 143 with A = 100); beyond that a call keeps O(n T) for the labels,
distance bounds and seeding weights of its T trials.  Only the rounding
of the products and the order of the sums differ from one trial at a
time, so costs agree with separate runs to rounding, and centers, labels
and iteration counts agree unless a draw or a point lies within rounding
of a boundary or a tie.
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
# bytes of a row block of squared distances plus its temporaries; Lloyd's
# blocks take at least 64 rows, so that no product gets too thin to be fast
BLOCK_BYTES = 2 << 20
# Lloyd carries distance bounds for k >= BOUNDED_MIN_K, after FULL_PASSES
# iterations that form every distance: below it, at k = 10 with 100 trials,
# the bounded step's per-trial work costs more than the full product saves
BOUNDED_MIN_K = 20
FULL_PASSES = 3
# factors that round a bound up or down past the rounding of one or two
# floating-point operations, and a center's move up past that of its norm
_UP = 1.0 + 4 * np.finfo(np.float64).eps
_DOWN = 1.0 - 4 * np.finfo(np.float64).eps


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


def _assign(points, p2, centers, k, distances=False):
    """Labels, A x n, of every point for the A trials whose centers are the
    k-column blocks of ``centers``; argmin breaks ties toward the lowest
    cluster.  With ``distances``, also each point's smallest squared
    distance, at least zero, and its second-smallest, each A x n."""
    n = points.shape[1]
    width = centers.shape[1]
    c2 = np.einsum("ij,ij->j", centers, centers)
    labels = np.empty((width // k, n), dtype=np.int64)
    if distances:
        dists = np.empty((width // k, n))
        seconds = np.empty((width // k, n))
    step = max(64, BLOCK_BYTES // (16 * width))
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        twice = points[:, block].T @ centers
        twice *= 2.0
        d2 = p2[block, None] + c2
        d2 -= twice
        d2 = d2.reshape(d2.shape[0], -1, k)
        own = d2.argmin(axis=2)
        labels[:, block] = own.T
        if distances:
            own = own[:, :, None]
            dists[:, block] = np.take_along_axis(d2, own, axis=2)[:, :, 0].T
            np.put_along_axis(d2, own, np.inf, axis=2)
            seconds[:, block] = d2.min(axis=2).T
    if not distances:
        return labels
    np.maximum(dists, 0.0, out=dists)
    return labels, dists, seconds


def _repair(labels, dists, k):
    """The singleton rule on one trial, in place: each empty cluster, in
    ascending order, takes the point farthest from its centroid (ties to
    the lowest index) among those whose cluster keeps another member.  A
    point so moved is the last member of its new cluster, so no point is
    taken twice, and with n >= k every cluster ends nonempty.  Returns the
    clusters it filled."""
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    for cid in empty:
        # distances are >= 0, so -1 rules a point out
        far = int(np.argmax(np.where(counts[labels] > 1, dists, -1.0)))
        counts[labels[far]] -= 1
        counts[cid] = 1
        labels[far] = cid
        dists[far] = 0.0
    return empty


def _cluster_sums(rows, labels, k):
    """Sums of ``rows`` (n x m) over every cluster of A trials, from their
    A x n labels, as an A*k x m array, and the A*k cluster sizes: one
    sparse one-hot product sums them all, each in the order of the
    points."""
    trials, n = labels.shape
    cluster = (labels + k * np.arange(trials)[:, None]).T.ravel()
    onehot = sp.csc_matrix(
        (np.ones(cluster.size), cluster, np.arange(0, cluster.size + 1, trials)),
        shape=(trials * k, n),
    )
    return onehot @ rows, np.bincount(cluster, minlength=trials * k)


def _costs(sums, counts, centers, filled):
    """Each trial's cost from its cluster sums of (p, |p|^2) and the
    centers its points were assigned to: per cluster
    sum |p|^2 + n |c|^2 - 2 c.sum p, at least zero, zero for a cluster the
    singleton rule ``filled``, and the k terms summed in ascending order,
    so that one partition under any cluster ids costs the same bits."""
    d = centers.shape[0]
    c2 = np.einsum("ij,ij->j", centers, centers)
    terms = sums[:, d] + counts * c2
    terms -= 2.0 * np.einsum("ji,ij->i", centers, sums[:, :d])
    np.maximum(terms, 0.0, out=terms)
    terms[filled.ravel()] = 0.0
    terms = terms.reshape(filled.shape)
    terms.sort(axis=1)
    return terms.sum(axis=1)


def _start_bounds(p2, centers, k, dists, seconds, rounding):
    """Upper and lower bounds, A x n, in place of ``dists`` and
    ``seconds``: on each point's distance to its own center and to every
    other center of its trial, from the squared distances of a full pass
    widened by the rounding of the expanded form."""
    c2max = np.einsum("ij,ij->j", centers, centers).reshape(-1, k).max(axis=1)
    widen = rounding * (p2 + c2max[:, None])
    upper = np.sqrt(np.add(dists, widen, out=dists), out=dists)
    upper *= _UP
    lower = np.subtract(seconds, widen, out=seconds)
    np.sqrt(np.maximum(lower, 0.0, out=lower), out=lower)
    lower *= _DOWN
    return upper, lower


def _bounded_assign(points, p2, centers, moved, labels, upper, lower, rounding):
    """One bounded Lloyd assignment of one trial, in place on its rows
    ``labels``, ``upper`` and ``lower``, for its d x k ``centers``, which
    have moved by ``moved`` (d x k) since the bounds were last valid.

    The bounds follow the centers by the triangle inequality, and half
    the distance from a point's center to the nearest other center bounds
    the others from below as well.  A point keeps its label when the
    bounds put every other squared distance above its own by more than
    twice the rounding of |p|^2 + |c|^2 - 2 p.c, so that the expanded form
    cannot pick another label; every other point is recomputed by that
    form, as in ``_assign``.  Returns how many points were recomputed."""
    k = centers.shape[1]
    # how far each center moved, rounded up
    shift = np.sqrt(np.einsum("ij,ij->j", moved, moved)) * (1.0 + rounding)
    top = int(np.argmax(shift))
    others = np.full(k, shift[top])  # the largest move among other centers
    others[top] = np.max(shift, initial=0.0, where=np.arange(k) != top)
    c2 = np.einsum("ij,ij->j", centers, centers)
    between = (c2[:, None] + c2) * (1.0 - rounding)
    between -= 2.0 * (centers.T @ centers)
    np.fill_diagonal(between, np.inf)
    # the distance from each center to its nearest other, rounded down
    nearest = np.sqrt(np.maximum(between.min(axis=1), 0.0)) * _DOWN

    upper += shift[labels]
    upper *= _UP
    lower -= others[labels]
    lower *= _DOWN
    np.maximum(lower, 0.0, out=lower)
    # d(p, c_j) >= d(c_own, c_j) - d(p, c_own) for every other c_j
    below = nearest[labels]
    below -= upper
    below *= _DOWN
    np.maximum(below, lower, out=below)
    widen = rounding * (p2 + c2.max())
    # the squared margin (below - upper)(below + upper), to within 2 eps
    margin = below - upper
    below += upper
    margin *= below
    need = np.flatnonzero(~(margin > 3.0 * widen))
    if need.size:
        own, dists, seconds = _assign(points[:, need], p2[need], centers, k,
                                      distances=True)
        labels[need] = own[0]
        up, low = _start_bounds(p2[need], centers, k, dists, seconds, rounding)
        upper[need] = up[0]
        lower[need] = low[0]
    return need.size


def lloyd(points: np.ndarray, k: int, centers: np.ndarray,
          max_iter: int = MAX_ITER, seed=None):
    """Lloyd iterations for T trials run together, from the T x d x k
    stack ``centers``; returns a list of T KscRuns, with ``seed`` a
    sequence of T seeds (or None).

    Each trial stops at an assignment fixpoint or after max_iter
    iterations; max_iter < 1, an empty stack, a stack that is not T x d x k
    for the d x n points, or a non-finite center raises ValueError.  Empty
    clusters are processed in ascending cluster-index order: each receives
    as a singleton the point currently farthest from its assigned centroid
    that is not the last member of its cluster.

    For k >= BOUNDED_MIN_K, the first FULL_PASSES iterations form every
    distance; from then on each trial carries an upper bound on each
    point's distance to its own center and a lower bound on its distance
    to every other, and recomputes only the points whose bounds leave
    their label in doubt (``_bounded_assign``).  A trial whose cluster
    empties takes a full pass for the singleton rule, and its bounds start
    again.  Labels are those of full passes, so partitions and iteration
    counts do not depend on the path.

    A trial's cost is formed from the cluster sums that give its next
    centers: with |p|^2 summed alongside p, a cluster costs
    sum |p|^2 + n |c|^2 - 2 c.sum p against the center c its points were
    assigned to.  The cost is non-increasing in exact arithmetic; in
    floating point it agrees with summing the expanded distances to a
    small multiple of eps times sum |p|^2, and may rise by as much near
    zero cost.
    """
    t0 = time.perf_counter()
    stack = np.asarray(centers, dtype=np.float64)
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got max_iter={max_iter}")
    d, n = points.shape
    if stack.ndim != 3 or stack.shape[1:] != (d, k):
        raise ValueError(f"need a T x {d} x {k} stack of centers for {d} x {n} "
                         f"points and k={k}, got shape {stack.shape}")
    if not len(stack):
        raise ValueError("need at least one trial's centers, got none")
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"trial {int(np.argmin(finite))} has a non-finite center")
    seeds = [None] * len(stack) if seed is None else list(seed)
    trials = len(stack)
    p2 = np.einsum("ij,ij->j", points, points)
    rows = np.column_stack([points.T, p2])  # cluster sums of p and |p|^2
    rounding = 2 * (d + 2) * np.finfo(np.float64).eps
    # the iteration whose full pass starts the bounds
    bounds_at = FULL_PASSES - 1 if k >= BOUNDED_MIN_K else -1
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

    def fill(a):
        # a full pass and the singleton rule for live trial a, whose bounds,
        # if it has them, start again
        cols = slice(a * k, (a + 1) * k)
        own, dists, seconds = _assign(points, p2, centers[:, cols], k, distances=True)
        new_labels[a] = own[0]
        empty = _repair(new_labels[a], dists[0], k)
        repairs[live[a]] += empty.size
        filled[a, empty] = True
        if upper is not None:
            # a point moved is not at its nearest center: no upper bound
            dists[0, np.isin(new_labels[a], empty)] = np.inf
            up, low = _start_bounds(p2, centers[:, cols], k, dists, seconds, rounding)
            upper[a], lower[a] = up[0], low[0]

    live = np.arange(trials)
    labels = upper = lower = None
    for it in range(max_iter):
        if upper is not None:
            new_labels = labels.copy()
            moved = centers - previous
            for a in range(live.size):
                cols = slice(a * k, (a + 1) * k)
                _bounded_assign(points, p2, centers[:, cols], moved[:, cols],
                                new_labels[a], upper[a], lower[a], rounding)
        elif it == bounds_at:
            new_labels, dists, seconds = _assign(points, p2, centers, k,
                                                 distances=True)
            upper, lower = _start_bounds(p2, centers, k, dists, seconds, rounding)
            del dists, seconds
        else:
            new_labels = _assign(points, p2, centers, k)
        offsets = k * np.arange(live.size)[:, None]
        counts = np.bincount((new_labels + offsets).ravel(), minlength=live.size * k)
        filled = np.zeros((live.size, k), dtype=bool)
        for a in np.flatnonzero((counts.reshape(-1, k) == 0).any(axis=1)):
            fill(a)
        sums, counts = _cluster_sums(rows, new_labels, k)
        costs = _costs(sums, counts, centers, filled)
        for t, cost in zip(live, costs.tolist()):
            histories[t].append(cost)
        if labels is not None:
            done = (new_labels == labels).all(axis=1)
            for a in np.flatnonzero(done):
                retire(live[a], labels[a], float(costs[a]), it)
            if done.all():
                break
            if done.any():
                keep = ~done
                live, new_labels, costs = live[keep], new_labels[keep], costs[keep]
                kept = np.repeat(keep, k)
                sums, counts, centers = sums[kept], counts[kept], centers[:, kept]
                if upper is not None:
                    upper, lower = upper[keep], lower[keep]
        labels = new_labels
        previous = centers
        centers = (sums[:, :d] / counts[:, None]).T
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
