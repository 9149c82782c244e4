"""Output checks computed apart from the program.

Every checker takes plain arrays (or a graph's adjacency) and returns a
list of problems, empty when the output is right.  None of them calls
into ellispec: conductances come from a sparse one-hot indicator matrix,
eigenvalues from SciPy, neighbour sets from ``argsort``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

EXACT_TOL = 1e-10       # conductances, profile MCC and sum
LAMBDA_TOL = 1e-8       # lambda_{k+1} against an independent solve
ROUND_TRIP_TOL = 1e-12  # Matrix Market write + read, relative
DENSE_EIGH_MAX_N = 2000


def conductances(adjacency, labels, k):
    """Per-cluster conductance cut/volume in one pass over the graph."""
    a = sp.csr_matrix(adjacency)
    n = a.shape[0]
    h = sp.csr_matrix((np.ones(n), (np.arange(n), labels)), shape=(n, k))
    volume = np.asarray(h.T @ a.sum(axis=1)).ravel()
    internal = (h.T @ (a @ h)).diagonal()
    return (volume - internal) / volume


def valid_partition(labels, n, k):
    """(i) A label vector of length n using every cluster id 0..k-1."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"labels have shape {labels.shape}, expected ({n},)"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"labels have dtype {labels.dtype}"]
    if labels.min() < 0 or labels.max() >= k:
        return [f"labels outside [0, {k})"]
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if empty.size:
        return [f"clusters {empty.tolist()} are empty"]
    return []


def truth_conductance(adjacency, truth, delta, c):
    """(a) Truth-cluster conductance equals delta / (c_i + delta)."""
    c = np.asarray(c, dtype=np.float64)
    phi = conductances(adjacency, truth, c.size)
    expected = delta / (c + delta)
    worst = float(np.abs(phi - expected).max())
    if not worst <= EXACT_TOL:
        return [f"truth conductance off its closed form by {worst:.3e}"]
    return []


def profile(adjacency, labels, k, reported):
    """(b) The reported MCC and sum match a one-pass recomputation."""
    phi = conductances(adjacency, labels, k)
    problems = []
    for key, value in (("mcc", phi.max()), ("sum", phi.sum())):
        err = abs(float(reported[key]) - float(value))
        if not err <= EXACT_TOL:
            problems.append(f"profile {key} off by {err:.3e}")
    return problems


def next_eigenvalue(adjacency, k):
    """lambda_{k+1} of I - D^{-1/2} W D^{-1/2}, solved by SciPy."""
    a = sp.csr_matrix(adjacency)
    n = a.shape[0]
    dinv = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    if a.nnz > n * n // 4:
        s = a.toarray()
        s *= dinv[:, None]
        s *= dinv[None, :]
    else:
        s = sp.diags(dinv) @ a @ sp.diags(dinv)
    if n <= DENSE_EIGH_MAX_N:
        s = s if isinstance(s, np.ndarray) else s.toarray()
        mu = scipy.linalg.eigh(s, eigvals_only=True,
                               subset_by_index=[n - k - 1, n - 1])
    else:
        # ARPACK's relative accuracy 1e-10 is well inside LAMBDA_TOL
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, size=n)
        mu = spla.eigsh(s, k=k + 1, which="LA", tol=1e-10, v0=v0,
                        return_eigenvectors=False)
    return 1.0 - float(np.sort(mu)[0])


def lambda_next(adjacency, k, reported):
    """(c) The program's lambda_{k+1} matches an independent solve."""
    expected = next_eigenvalue(adjacency, k)
    err = abs(float(reported) - expected)
    if not err <= LAMBDA_TOL:
        return [f"lambda_next {reported!r} off SciPy's {expected!r} by {err:.3e}"]
    return []


def exact_recovery(ac, mcc):
    """(d) At delta = 0 the truth is recovered exactly."""
    if ac != 1.0 or mcc != 0.0:
        return [f"delta = 0 gave AC {ac!r} and MCC {mcc!r}, expected 1 and 0"]
    return []


def mcc_within_bound(mcc, bound, slack=0.05):
    """(e) For small delta the found MCC stays near the truth's."""
    if not mcc <= bound + slack:
        return [f"MCC {mcc:.6f} exceeds bound {bound:.6f} + {slack}"]
    return []


def cost_tolerance(adjacency):
    """Rounding level of a k-means cost on degree-scaled embedding columns.

    Columns of an orthonormal-row embedding have norm at most 1, so after
    scaling by 1/sqrt(d_i) the points' total squared norm is at most
    sum(1/d_i); the cost is computed from expanded squared distances, whose
    rounding error is a small multiple of machine epsilon times that.
    """
    degrees = np.asarray(sp.csr_matrix(adjacency).sum(axis=1)).ravel()
    return 1e-12 * float(np.sum(1.0 / degrees))


def non_increasing(history, tol):
    """(f) A Lloyd cost history never goes up by more than ``tol``."""
    h = np.asarray(history, dtype=np.float64)
    rises = np.flatnonzero(np.diff(h) > tol)
    if rises.size:
        i = int(rises[0])
        return [f"Lloyd cost rose from {h[i]:.17g} to {h[i + 1]:.17g} "
                f"at step {i + 1}"]
    return []


def knn_graph(adjacency, X, p, sample):
    """(g) Sampled rows match an argsort recomputation of the p-nearest
    cosine neighbours (OR rule, ties at rank p kept), and the graph is
    symmetric and connected."""
    a = sp.csr_matrix(adjacency)
    problems = []
    if abs(a - a.T).max() != 0.0:
        problems.append("adjacency is not symmetric")
    ncomp, _ = csgraph.connected_components(a, directed=False)
    if ncomp != 1:
        problems.append(f"graph has {ncomp} connected components")

    unit = X / np.linalg.norm(X, axis=1)[:, None]
    sims = unit @ unit.T
    n = sims.shape[0]
    for i in sample:
        row = sims[i].copy()
        row[i] = -np.inf
        order = np.argsort(-row, kind="stable")
        kth = row[order[p - 1]]
        forward = row >= kth
        # i is among j's p nearest when fewer than p others beat it in row j
        col = sims[:, i]
        beats = (sims > col[:, None]).sum(axis=1) - (np.diag(sims) > col)
        backward = beats < p
        expected = (forward | backward) & (row > 0)
        expected[i] = False
        got = np.zeros(n, dtype=bool)
        lo, hi = a.indptr[i], a.indptr[i + 1]
        got[a.indices[lo:hi]] = True
        if not np.array_equal(got, expected):
            diff = np.flatnonzero(got != expected)[:5].tolist()
            problems.append(f"node {i}: neighbour set differs at {diff}")
            continue
        err = np.abs(a.data[lo:hi] - sims[i, a.indices[lo:hi]]).max()
        if not err <= 1e-12:
            problems.append(f"node {i}: edge weights off cosine by {err:.3e}")
    return problems


def round_trip(original, reread):
    """(h) A written and re-read graph reproduces the adjacency."""
    a, b = sp.csr_matrix(original), sp.csr_matrix(reread)
    if a.shape != b.shape:
        return [f"round trip changed the shape {a.shape} -> {b.shape}"]
    err = abs(a - b).max() / abs(a).max()
    if not err <= ROUND_TRIP_TOL:
        return [f"round trip changed the adjacency by {err:.3e} relative"]
    return []
