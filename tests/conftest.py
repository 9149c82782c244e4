"""Shared builders and brute-force oracles for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from ellispec import (
    Ellipsoid,
    InvalidGraphError,
    Partition,
    RankError,
    WeightedGraph,
    ingest,
)

THETA_CONST = 17.0 - 12.0 * np.sqrt(2.0)


def random_graph(rng, n, density=0.3):
    """Connected random weighted graph: a random cycle plus extra edges."""
    w = np.zeros((n, n))
    perm = rng.permutation(n)
    for a, b in zip(perm, np.roll(perm, 1)):
        w[a, b] = w[b, a] = rng.uniform(0.1, 1.0)
    mask = np.triu(rng.uniform(size=(n, n)) < density, 1)
    vals = rng.uniform(0.1, 1.0, size=(n, n))
    w = np.maximum(w, np.where(mask | mask.T, np.triu(vals, 1) + np.triu(vals, 1).T, 0.0))
    return WeightedGraph(sp.csr_matrix(w))


def dense(adjacency):
    """A graph's adjacency as an ndarray, whichever storage it has."""
    return adjacency if isinstance(adjacency, np.ndarray) else adjacency.toarray()


def laplacian(graph):
    """The normalized Laplacian I - D^{-1/2} W D^{-1/2} as an ndarray."""
    dinv = 1.0 / np.sqrt(graph.degrees)
    return np.eye(graph.n) - dense(graph.adjacency) * np.outer(dinv, dinv)


def random_partition(rng, n, k):
    """Random k-way labels with every cluster guaranteed nonempty."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    labels = np.concatenate([np.arange(k), rng.integers(k, size=n - k)])
    rng.shuffle(labels)
    return Partition(labels, k=k)


def brute_conductance(w_dense, degrees, cluster):
    """Double-loop cut/volume straight from the definition."""
    inside = set(int(i) for i in cluster)
    n = w_dense.shape[0]
    cut = 0.0
    for i in inside:
        for j in range(n):
            if j not in inside:
                cut += w_dense[i, j]
    vol = sum(degrees[i] for i in inside)
    return cut / vol


def reference_conductances(graph, labels, k):
    """Cut/volume of every cluster from one pass over the whole adjacency:
    row c of H @ W (H the k x n cluster indicator) is the weight flowing
    from cluster c into each node, and the part landing outside c is its
    cut.  The independent oracle that partition_profile's reads of dense
    graphs (diagonal blocks) and CSR ones (stored entries) are checked
    against."""
    n = graph.n
    indicator = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    flow = dense(indicator @ graph.adjacency)
    flow[labels, np.arange(n)] = 0.0
    return flow.sum(axis=1) / np.bincount(labels, weights=graph.degrees, minlength=k)


def random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))[None, :]


def planted_columns(rng, sizes, distinct_top=True):
    """Noise-free embedded columns for a planted partition.

    Draws per-node degree surrogates, builds the column matrix whose node
    columns are alpha_{i,j} * u_i for a random orthogonal U, and returns
    (P0, labels, stats).  ``stats`` carries the degree-ratio extremes and
    the representative (max-degree) node per cluster, computed directly
    from the drawn degrees with explicit loops.
    """
    k = len(sizes)
    n = sum(sizes)
    U = random_orthogonal(rng, k)
    labels = np.repeat(np.arange(k), sizes)
    degrees = rng.uniform(0.5, 2.0, size=n)
    if distinct_top:
        # make the per-cluster max degree clearly unique
        for i in range(k):
            members = np.flatnonzero(labels == i)
            top = members[int(np.argmax(degrees[members]))]
            degrees[top] *= 1.5
    P0 = np.zeros((k, n))
    alpha = np.zeros(n)
    reps = []
    alpha_min = np.inf
    alpha_star_min = np.inf
    theta_min, theta_max = np.inf, -np.inf
    for i in range(k):
        members = np.flatnonzero(labels == i)
        mu = degrees[members].sum()
        a = np.sqrt(degrees[members] / mu)
        alpha[members] = a
        star = a.max()
        reps.append(int(members[int(np.argmax(a))]))
        alpha_min = min(alpha_min, a.min())
        alpha_star_min = min(alpha_star_min, star)
        for v in a:
            if v < star:
                theta_min = min(theta_min, v / star)
                theta_max = max(theta_max, v / star)
        P0[:, members] = np.outer(U[:, i], a)
    stats = {
        "alpha_min": alpha_min,
        "alpha_star_min": alpha_star_min,
        "theta_min": theta_min,
        "theta_max": theta_max,
        "representatives": reps,
    }
    return P0, labels, stats


def scaled_noise(rng, shape, spectral_norm=None, column_norm=None):
    r = rng.standard_normal(shape)
    if column_norm is not None:
        r *= column_norm / np.linalg.norm(r, axis=0)[None, :]
    if spectral_norm is not None:
        s = np.linalg.norm(r, 2)
        if s > spectral_norm:
            r *= spectral_norm / s
    return r


def reference_spa_select(P, candidates, k):
    """Successive projection as its own Gram-Schmidt loop: pick the
    candidate of largest residual norm, lowest index first on exact ties,
    then project it out of every residual.  An independent, slower
    selection to check spa_select against.  Raises RankError when every
    residual norm is at most 1e-12 before k picks are made."""
    P = np.asarray(P, dtype=np.float64)
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.size < k:
        raise ValueError(f"need at least {k} candidates, got {cand.size}")
    residual = P[:, cand].copy()
    basis = np.zeros((P.shape[0], 0))
    selected = []
    for _ in range(k):
        norms = np.einsum("ij,ij->j", residual, residual)
        j = int(np.argmax(norms))
        if norms[j] <= 1e-12**2:
            raise RankError(
                f"candidate columns collapsed after {len(selected)} of {k} "
                "selections",
                numerical_rank=len(selected),
            )
        selected.append(int(cand[j]))
        q = residual[:, j].copy()
        # Gram-Schmidt against the previously picked directions, with one
        # reorthogonalization pass for stability
        q -= basis @ (basis.T @ q)
        q -= basis @ (basis.T @ q)
        q /= np.sqrt(q @ q)
        basis = np.column_stack([basis, q])
        residual -= np.outer(q, q @ residual)
    return selected


def reference_mvee(P, eps=1e-10, tau_active=1e-5, max_iter=10**6):
    """Frank-Wolfe over all n columns with Khachiyan's step size and away
    steps, refactorizing M(u) every iteration: an independent, slower MVEE
    solver to check solve_mvee against.  Raises AssertionError if it misses
    eps within max_iter.
    """
    P = np.asarray(P, dtype=np.float64)
    k, n = P.shape
    u = np.zeros(n)
    u[reference_spa_select(P, range(n), k)] = 1.0 / k
    for _ in range(max_iter):
        Minv = np.linalg.inv((P * u[None, :]) @ P.T)
        g = np.einsum("ij,ji->i", P.T @ Minv, P)
        j_add = int(np.argmax(g))
        if g[j_add] / k - 1.0 <= eps:
            break
        sup = np.flatnonzero(u > 0)
        j_away = int(sup[np.argmin(g[sup])])
        j = j_add
        beta = (g[j] - k) / (k * (g[j] - 1.0))
        if g[j_add] - k < k - g[j_away]:
            # away step, cut where u[j_away] reaches zero
            away = max((g[j_away] - k) / (k * (g[j_away] - 1.0)),
                       -u[j_away] / (1.0 - u[j_away]))
            if away != 0.0:
                j, beta = j_away, away
        u *= 1.0 - beta
        u[j] += beta
        u[u < 0] = 0.0
    gap = float(g.max() / k - 1.0)
    assert gap <= eps, f"reference MVEE missed eps: gap {gap:.3e}"
    X = Minv / k
    X = 0.5 * (X + X.T)
    active = np.flatnonzero(np.einsum("ij,ji->i", P.T @ X, P) >= 1 - tau_active)
    return Ellipsoid(X=X, u=u, epsilon_achieved=gap, active=active)


def reference_kmeanspp_seed(points, k, rng):
    """One trial's k-means++ seeding in its own loop, each step's squared
    distances formed from the d x n differences to the new center: an
    independent, slower seeding to check the lockstep one against.  Draws
    integers(n) for the first center, then per step one random() located
    by searchsorted(side="right") in the running sum of the weights, or
    integers(n) when every weight is zero.  Returns the d x k centers."""
    d, n = points.shape
    centers = np.empty((d, k))
    centers[:, 0] = points[:, int(rng.integers(n))]
    diff = points - centers[:, :1]
    best = np.einsum("ij,ij->j", diff, diff)
    for i in range(1, k):
        cumulative = np.cumsum(best)
        total = cumulative[-1]
        if total > 0:
            idx = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
        else:
            idx = int(rng.integers(n))
        centers[:, i] = points[:, idx]
        diff = points - centers[:, i:i + 1]
        np.minimum(best, np.einsum("ij,ij->j", diff, diff), out=best)
    return centers


def reference_lloyd(points, k, centers, max_iter=1000):
    """One k-means trial in its own loop, with one boolean mask per cluster
    for the centroid update and |p|^2 recomputed every iteration: an
    independent, slower Lloyd to check the batched one against.  Returns
    (labels, cost, iterations, cost_history, empty_repairs)."""
    centers = np.array(centers, dtype=np.float64)
    labels = None
    cost = np.inf
    iterations = repairs = 0
    history = []
    for _ in range(max_iter):
        p2 = np.einsum("ij,ij->j", points, points)[:, None]
        c2 = np.einsum("ij,ij->j", centers, centers)[None, :]
        d2 = p2 + c2 - 2.0 * (points.T @ centers)
        new_labels = np.argmin(d2, axis=1)
        dists = np.maximum(d2[np.arange(points.shape[1]), new_labels], 0.0)
        for cid in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            # the farthest point, lowest index first, that leaves a member
            # behind in its cluster
            for far in sorted(range(len(dists)), key=lambda i: (-dists[i], i)):
                if np.count_nonzero(new_labels == new_labels[far]) > 1:
                    break
            new_labels[far] = cid
            dists[far] = 0.0
            repairs += 1
        cost = float(dists.sum())
        history.append(cost)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        iterations += 1
        labels = new_labels
        for cid in range(k):
            centers[:, cid] = points[:, labels == cid].mean(axis=1)
    return labels, cost, iterations, history, repairs


def reference_cosine_knn_graph(dataset, p):
    """The p-nearest cosine graph with each row's p-th largest similarity
    taken by a full-row np.partition and its neighbors by a 2-d np.nonzero
    over the block: an independent, slower selection to check
    cosine_knn_graph against.  Reads ingest.KNN_BLOCK_ROWS and
    ingest.KNN_TIE_ULPS at call time, so it forms the same block products."""
    n = dataset.n
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    unit = dataset.X / np.linalg.norm(dataset.X, axis=1)[:, None]

    rows, cols, sims = [], [], []
    for lo in range(0, n, ingest.KNN_BLOCK_ROWS):
        hi = min(lo + ingest.KNN_BLOCK_ROWS, n)
        block = unit[lo:hi] @ unit.T
        local = np.arange(hi - lo)
        block[local, local + lo] = -np.inf
        kth = np.partition(block, n - p, axis=1)[:, n - p]
        kth -= ingest.KNN_TIE_ULPS * np.spacing(kth)
        r, c = np.nonzero(block >= kth[:, None])
        rows.append(r + lo)
        cols.append(c)
        sims.append(block[r, c])
    rows, cols, sims = (np.concatenate(v) for v in (rows, cols, sims))

    pairs, first = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols),
                             return_index=True)
    w = sims[first]
    positive = w > 0.0
    i, j = np.divmod(pairs[positive], n)
    w = w[positive]

    edges = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    if edges.min() == 0:
        node = int(np.argmin(edges))
        raise InvalidGraphError(f"node {node} has no positively-weighted neighbors")
    adjacency = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    return WeightedGraph(adjacency)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
