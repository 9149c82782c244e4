"""Each output check passes a correct input and flags a corrupted one.

    python3 -m pytest benchmarks/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def two_triangles():
    """Two triangles joined by one light edge; clusters {0,1,2} and {3,4,5}."""
    w = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[i, j] = w[j, i] = 1.0
    w[2, 3] = w[3, 2] = 0.5
    return sp.csr_matrix(w), np.array([0, 0, 0, 1, 1, 1])


def mixed_blocks(sizes, delta, seed=0):
    """W = B + delta * R built here, with c_i = b_i / r_i taken from M."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    m = np.triu(rng.uniform(size=(n, n)), 1)
    m = m + m.T
    labels = np.repeat(np.arange(len(sizes)), sizes)
    same = labels[:, None] == labels[None, :]
    w = np.where(same, m, 0.5 * delta * m)
    c = np.array([m[np.ix_(labels == i, labels == i)].sum()
                  / (0.5 * m[np.ix_(labels == i, labels != i)].sum())
                  for i in range(len(sizes))])
    return sp.csr_matrix(w), labels, c


def test_conductances_by_hand():
    a, labels = two_triangles()
    # each side has volume 6.5 and cut 0.5
    assert np.allclose(checks.conductances(a, labels, 2), [0.5 / 6.5] * 2)


def test_valid_partition():
    assert checks.valid_partition(np.array([0, 1, 1, 2]), 4, 3) == []
    assert checks.valid_partition(np.array([0, 1, 1, 1]), 4, 3)   # empty cluster
    assert checks.valid_partition(np.array([0, 1, 3, 2]), 4, 3)   # out of range
    assert checks.valid_partition(np.array([0, 1, 2]), 4, 3)      # wrong length
    assert checks.valid_partition(np.array([0.0, 1, 2, 2]), 4, 3)  # not integers


def test_truth_conductance():
    a, labels, c = mixed_blocks([5, 7, 6], 0.4)
    assert checks.truth_conductance(a, labels, 0.4, c) == []
    assert checks.truth_conductance(a, labels, 0.4, c * (1 + 1e-6))
    assert checks.truth_conductance(a, labels, 0.5, c)


def test_profile():
    a, labels = two_triangles()
    good = {"mcc": 0.5 / 6.5, "sum": 1.0 / 6.5}
    assert checks.profile(a, labels, 2, good) == []
    assert checks.profile(a, labels, 2, {**good, "mcc": good["mcc"] + 1e-9})
    assert checks.profile(a, labels, 2, {**good, "sum": good["sum"] - 1e-9})


@pytest.mark.parametrize("dense_max_n", [checks.DENSE_EIGH_MAX_N, 10])
def test_lambda_next(monkeypatch, dense_max_n):
    # the second case sends a small graph down the eigsh path
    monkeypatch.setattr(checks, "DENSE_EIGH_MAX_N", dense_max_n)
    a, _, _ = mixed_blocks([12, 15, 20], 0.3, seed=1)
    d = np.asarray(a.sum(axis=1)).ravel()
    lap = np.eye(a.shape[0]) - a.toarray() / np.sqrt(np.outer(d, d))
    lam = np.linalg.eigvalsh(lap)[3]
    assert checks.lambda_next(a, 3, lam) == []
    assert checks.lambda_next(a, 3, lam + 1e-7)


def test_exact_recovery():
    assert checks.exact_recovery(1.0, 0.0) == []
    assert checks.exact_recovery(0.999, 0.0)
    assert checks.exact_recovery(1.0, 1e-17)


def test_mcc_within_bound():
    assert checks.mcc_within_bound(0.30, 0.28) == []
    assert checks.mcc_within_bound(0.34, 0.28)


def test_non_increasing():
    assert checks.non_increasing([3.0, 2.0, 2.0, 1.0], 0.0) == []
    assert checks.non_increasing([3.0, 2.0, 2.5], 0.0)
    assert checks.non_increasing([1e-17, 2e-17], 1e-12) == []
    assert checks.cost_tolerance(two_triangles()[0]) > 0.0


def brute_knn(X, p):
    """OR-rule p-nearest cosine graph by explicit loops, ties kept."""
    n = X.shape[0]
    unit = X / np.linalg.norm(X, axis=1)[:, None]
    sims = unit @ unit.T
    keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        others = sorted((sims[i, j] for j in range(n) if j != i), reverse=True)
        for j in range(n):
            if j != i and sims[i, j] >= others[p - 1]:
                keep[i, j] = keep[j, i] = True
    return sp.csr_matrix(np.where(keep & (sims > 0), sims, 0.0))


def test_knn_graph():
    X = np.random.default_rng(3).uniform(size=(30, 5))
    a = brute_knn(X, 3)
    rows = range(30)
    assert checks.knn_graph(a, X, 3, rows) == []

    dropped = a.tolil()
    i, j = 0, int(a[0].indices[0])
    dropped[i, j] = dropped[j, i] = 0.0
    assert checks.knn_graph(dropped.tocsr(), X, 3, [0])

    reweighted = a.copy()
    reweighted.data = reweighted.data * (1 + 1e-9)
    assert checks.knn_graph(reweighted, X, 3, [0])

    lopsided = a.tolil()
    lopsided[i, j] = 0.0
    assert checks.knn_graph(lopsided.tocsr(), X, 3, [])  # asymmetric

    far = np.vstack([np.c_[X[:15], np.zeros((15, 5))],
                     np.c_[np.zeros((15, 5)), X[15:]]])
    assert checks.knn_graph(brute_knn(far, 3), far, 3, [])  # two components


def test_round_trip():
    a, _ = two_triangles()
    assert checks.round_trip(a, a.copy()) == []
    b = a.copy()
    b.data[0] *= 1 + 1e-9
    assert checks.round_trip(a, b)
    assert checks.round_trip(a, sp.csr_matrix((7, 7)))
