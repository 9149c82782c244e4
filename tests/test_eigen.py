import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from ellispec import (
    ConvergenceError,
    InvalidGraphError,
    Partition,
    WeightedGraph,
    accuracy,
    bottom_k_eigs,
    elli_cluster,
    gap_diagnostics,
    partition_profile,
    synth_adjacency,
)
import ellispec.eigen
from ellispec.eigen import DENSE_THRESHOLD
from ellispec.elli import graph_embedding

from conftest import laplacian, random_graph


def test_two_node_path():
    g = WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    emb = bottom_k_eigs(g, 1)
    assert emb.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert emb.lambda_next == pytest.approx(2.0)
    expected = np.sqrt(g.degrees)
    expected /= np.linalg.norm(expected)
    assert abs(abs(emb.P[0] @ expected) - 1.0) < 1e-12


def test_disjoint_cliques():
    k, size = 3, 8
    w = sp.csr_matrix(sp.block_diag([np.ones((size, size)) - np.eye(size)] * k))
    w.eliminate_zeros()
    emb = bottom_k_eigs(WeightedGraph(w), k)
    assert np.all(np.abs(emb.eigenvalues) < 1e-10)
    assert emb.lambda_next > 1e-6


def test_k_out_of_range(rng):
    g = random_graph(rng, 6)
    with pytest.raises(ValueError):
        bottom_k_eigs(g, 6)
    with pytest.raises(ValueError):
        bottom_k_eigs(g, 0)


def test_embedding_invariants(rng):
    for _ in range(5):
        n = int(rng.integers(10, 80))
        k = int(rng.integers(1, 6))
        g = random_graph(rng, n)
        emb = bottom_k_eigs(g, k)
        assert np.abs(emb.P @ emb.P.T - np.eye(k)).max() < 1e-8
        resid = laplacian(g) @ emb.P.T - emb.P.T * emb.eigenvalues[None, :]
        assert np.linalg.norm(resid, axis=0).max() < 1e-8
        assert np.all(np.diff(emb.eigenvalues) >= -1e-12)
        assert emb.eigenvalues[0] >= -1e-10
        assert emb.lambda_next <= 2 + 1e-10
        assert emb.lambda_next >= emb.eigenvalues[-1] - 1e-12


def eigs_with_threshold(monkeypatch, threshold, graph, k):
    """bottom_k_eigs with the dense/ARPACK size cutoff set to ``threshold``."""
    with monkeypatch.context() as m:
        m.setattr(ellispec.eigen, "DENSE_THRESHOLD", threshold)
        return bottom_k_eigs(graph, k)


def test_arpack_matches_dense(rng, monkeypatch):
    for _ in range(5):
        n = int(rng.integers(40, 120))
        k = int(rng.integers(2, 6))
        g = random_graph(rng, n, density=0.1)
        assert sp.issparse(g.adjacency)
        dense = bottom_k_eigs(g, k)
        arpack = eigs_with_threshold(monkeypatch, 1, g, k)
        assert np.abs(dense.eigenvalues - arpack.eigenvalues).max() < 1e-8
        assert abs(dense.lambda_next - arpack.lambda_next) < 1e-8
        angles = scipy.linalg.subspace_angles(dense.P.T, arpack.P.T)
        assert angles.max() < 1e-6


def test_arpack_matches_dense_on_dense_storage(rng, monkeypatch):
    # above half density the adjacency is held as a dense array
    n, k = 60, 4
    g = random_graph(rng, n, density=0.9)
    assert isinstance(g.adjacency, np.ndarray)
    dense = bottom_k_eigs(g, k)
    arpack = eigs_with_threshold(monkeypatch, 1, g, k)
    assert abs(dense.lambda_next - arpack.lambda_next) < 1e-8
    angles = scipy.linalg.subspace_angles(dense.P.T, arpack.P.T)
    assert angles.max() < 1e-6


def test_arpack_matches_dense_on_dense_storage_with_components(rng, monkeypatch):
    # full blocks of 60 and 10 nodes with random weights: 74 % nonzero, so
    # held dense, and two null vectors for the operator to deflate
    w = sp.block_diag([np.triu(rng.uniform(0.1, 1.0, (m, m)), 1)
                       for m in (60, 10)]).toarray()
    g = WeightedGraph(w + w.T)
    assert isinstance(g.adjacency, np.ndarray)
    for k in (2, 3, 5):
        dense = bottom_k_eigs(g, k)
        arpack = eigs_with_threshold(monkeypatch, 1, g, k)
        assert arpack.stats["method"] == "arpack"
        assert np.abs(dense.eigenvalues - arpack.eigenvalues).max() < 1e-8
        assert abs(dense.lambda_next - arpack.lambda_next) < 1e-8
        angles = scipy.linalg.subspace_angles(dense.P.T, arpack.P.T)
        assert angles.max() < 1e-6


def test_arpack_eigenpairs_on_dense_synthetic_graph():
    g = synth_adjacency([120] * 10, 0.5, 0).graph
    assert g.n > DENSE_THRESHOLD and isinstance(g.adjacency, np.ndarray)
    stats = elli_cluster(g, 10).stats["embed"]
    emb = graph_embedding(g, 10)
    assert stats == emb.stats
    assert stats["method"] == "arpack" and stats["matvecs"] > 0
    x = emb.P.T
    resid = laplacian(g) @ x - x * emb.eigenvalues[None, :]
    assert np.linalg.norm(resid, axis=0).max() < 1e-10
    assert np.abs(emb.P @ emb.P.T - np.eye(10)).max() < 1e-10


def test_stats_count_the_solve(rng, monkeypatch):
    g = random_graph(rng, 80, density=0.1)
    dense = bottom_k_eigs(g, 3)
    arpack = eigs_with_threshold(monkeypatch, 1, g, 3)
    assert dense.stats["method"] == "eigh" and dense.stats["matvecs"] == 0
    assert arpack.stats["method"] == "arpack" and arpack.stats["matvecs"] > 0
    for emb in (dense, arpack):
        x = emb.P.T
        resid = laplacian(g) @ x - x * emb.eigenvalues[None, :]
        assert emb.stats["worst_residual"] == pytest.approx(
            np.linalg.norm(resid, axis=0).max(), rel=1e-3, abs=1e-14)
        assert emb.stats["lambda_k"] == emb.eigenvalues[-1]
        assert emb.stats["lambda_next"] == emb.lambda_next


@pytest.mark.parametrize("converged", [2, 0])
def test_arpack_failure_reports_converged_residual(rng, monkeypatch, converged):
    # eigsh gives up with `converged` pairs, perturbed so that their
    # residual is far from zero and can be recomputed here
    g = random_graph(rng, 50, density=0.2)
    real = scipy.sparse.linalg.eigsh
    given = []

    def giving_up(op, **kw):
        theta, vecs = real(op, **kw)
        theta = theta[:converged]
        vecs = vecs[:, :converged] + 1e-3 * rng.standard_normal((g.n, converged))
        given.append((theta, vecs))
        raise scipy.sparse.linalg.ArpackNoConvergence("budget", theta, vecs)

    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", 1)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", giving_up)
    with pytest.raises(ConvergenceError, match=f"converged {converged} of 3") as info:
        bottom_k_eigs(g, 3)
    if not converged:
        assert info.value.achieved is None
        return
    # the operator ARPACK sees: I - L with its null vector moved to -2
    theta, vecs = given[0]
    z = np.sqrt(g.degrees) / np.linalg.norm(np.sqrt(g.degrees))
    op = np.eye(g.n) - laplacian(g) - 3.0 * np.outer(z, z)
    expected = np.linalg.norm(op @ vecs - vecs * theta, axis=0).max()
    assert expected > 1e-4
    assert info.value.achieved == pytest.approx(expected, rel=1e-10)
    assert f"worst residual of those: {expected:.3e}" in str(info.value)


def test_arpack_on_disconnected_graph(monkeypatch):
    # 20 components: the eigenvalue 0 has multiplicity 20, which a
    # single-vector Krylov method cannot resolve without deflation
    inst = synth_adjacency([110] * 20, 0.0, 0)
    g = inst.graph
    assert g.n > DENSE_THRESHOLD
    arpack = bottom_k_eigs(g, 20)
    dense = eigs_with_threshold(monkeypatch, g.n, g, 20)
    assert np.all(np.abs(arpack.eigenvalues) < 1e-10)
    assert abs(arpack.lambda_next - dense.lambda_next) < 1e-8
    assert accuracy(elli_cluster(inst.graph, 20).partition, inst.truth) == 1.0


def test_arpack_embedding_peak_memory():
    # the solve reads W itself and holds no scaled n x n copy of it, which
    # alone would take 8n^2 bytes
    g = synth_adjacency([120] * 10, 0.5, 0).graph
    n = g.n
    assert n > DENSE_THRESHOLD and isinstance(g.adjacency, np.ndarray)
    tracemalloc.start()
    try:
        graph_embedding(g, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


@pytest.mark.parametrize("dense_threshold", [DENSE_THRESHOLD, 1])
def test_more_components_than_k(dense_threshold, monkeypatch):
    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", dense_threshold)
    triangle = np.ones((3, 3)) - np.eye(3)
    g = WeightedGraph(sp.block_diag([triangle] * 4))
    with pytest.raises(InvalidGraphError, match="4 connected components"):
        bottom_k_eigs(g, 2)
    emb = bottom_k_eigs(g, 4)
    assert np.all(np.abs(emb.eigenvalues) < 1e-10)
    assert emb.lambda_next == pytest.approx(1.5)


def test_permutation_invariance_as_subspace(rng):
    n, k = 40, 3
    g = random_graph(rng, n)
    perm = rng.permutation(n)
    permuted = WeightedGraph(g.adjacency[np.ix_(perm, perm)])
    emb = bottom_k_eigs(g, k)
    emb_p = bottom_k_eigs(permuted, k)
    angles = scipy.linalg.subspace_angles(emb.P[:, perm].T, emb_p.P.T)
    assert angles.max() < 1e-6


def test_gap_diagnostics_four_cycle():
    w = np.zeros((4, 4))
    for i in range(4):
        w[i, (i + 1) % 4] = w[(i + 1) % 4, i] = 1.0
    g = WeightedGraph(w)
    emb = bottom_k_eigs(g, 2)
    profile = partition_profile(g, Partition([0, 0, 1, 1]))
    diag = gap_diagnostics(emb, profile)
    lambda3 = np.sort(np.linalg.eigvalsh(laplacian(g)))[2]
    assert diag["ratio"] == pytest.approx(lambda3 / 0.5)


def test_gap_diagnostics_zero_mcc():
    from ellispec import synth_adjacency

    inst = synth_adjacency([10, 12], 0.0, 1)
    emb = bottom_k_eigs(inst.graph, 2)
    profile = partition_profile(inst.graph, inst.truth)
    assert gap_diagnostics(emb, profile)["ratio"] == np.inf
