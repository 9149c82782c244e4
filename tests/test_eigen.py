import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from ellispec import (
    ConvergenceError,
    InvalidGraphError,
    VectorDataset,
    WeightedGraph,
    accuracy,
    bottom_k_eigs,
    cosine_knn_graph,
    elli_cluster,
    synth_adjacency,
)
import ellispec.eigen
from ellispec.eigen import DENSE_THRESHOLD
from ellispec.elli import graph_embedding

from conftest import dense, laplacian, random_graph


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
    # held dense; with the cutoff at 1 both components go through ARPACK,
    # each with its null vector deflated
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
    assert stats["residual_next"] <= 1e-8


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
        assert 0.0 <= emb.stats["residual_next"] <= 1e-8


@pytest.mark.parametrize("threshold, storage, sizes", [
    (DENSE_THRESHOLD, "csr", (80,)),
    (1, "dense", (60,)),
    (1, "csr", (80,)),
    (10, "csr", (30, 20, 2, 2)),
    (10, "dense", (40, 2)),
], ids=["eigh", "dense-arpack", "csr-arpack", "csr-components", "dense-components"])
def test_next_pair_certified(rng, monkeypatch, threshold, storage, sizes):
    # the (k+1)th pair is validated with the k it bounds, on every path,
    # and its residual is the one reported
    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", threshold)
    density = 0.9 if storage == "dense" else 0.15
    g = (random_graph(rng, sizes[0], density) if len(sizes) == 1
         else disconnected_graph(rng, sizes, density))
    assert isinstance(g.adjacency, np.ndarray) == (storage == "dense")
    real, seen = ellispec.eigen._validate, []

    def recording(P, vals, *args, **kwargs):
        seen.append((P.copy(), vals.copy()))
        return real(P, vals, *args, **kwargs)

    monkeypatch.setattr(ellispec.eigen, "_validate", recording)
    k = len(sizes) + 2
    emb = bottom_k_eigs(g, k)
    (P, vals), = seen
    assert P.shape == (k + 1, g.n) and np.array_equal(P[:k], emb.P)
    assert vals[k] == emb.lambda_next
    s = emb.stats
    assert s["method"] == ("arpack" if max(sizes) > threshold else "eigh")
    resid = np.linalg.norm(laplacian(g) @ P[k] - vals[k] * P[k])
    assert s["residual_next"] == pytest.approx(resid, rel=1e-3, abs=1e-14)
    assert s["residual_next"] <= 1e-8
    exact = scipy.linalg.eigh(laplacian(g), subset_by_index=[k, k])[1][:, 0]
    assert abs(abs(exact @ P[k]) - 1.0) < 1e-10


def test_next_pair_residual_refused(rng, monkeypatch):
    # eigsh returns the (k+1)th vector turned by 1e-6 towards a unit vector
    # orthogonal to every returned vector and to the null vector, so the k+1
    # rows stay orthonormal and only that pair's residual grows
    g = random_graph(rng, 50, density=0.2)
    z = np.sqrt(g.degrees) / np.linalg.norm(np.sqrt(g.degrees))
    real = scipy.sparse.linalg.eigsh
    given = []

    def turned(op, **kw):
        theta, vecs = real(op, **kw)
        basis = np.column_stack([z, vecs])
        u = rng.standard_normal(g.n)
        for _ in range(2):
            u -= basis @ (basis.T @ u)
        j = np.argmin(theta)  # the largest eigenvalue of L asked for
        v = vecs[:, j] + 1e-6 * u / np.linalg.norm(u)
        vecs[:, j] = v / np.linalg.norm(v)
        given.append((2.0 - theta[j], vecs[:, j].copy()))
        return theta, vecs

    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", 1)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", turned)
    with pytest.raises(ConvergenceError, match="eigen-residual") as err:
        bottom_k_eigs(g, 3)
    (lam, v), = given
    expected = np.linalg.norm(laplacian(g) @ v - lam * v)
    assert 1e-7 < expected < 1e-5
    assert err.value.achieved == pytest.approx(expected, rel=1e-6)


def test_subspace_bound_on_a_known_gap():
    # the complete graph K_5: L has eigenvalue 0 once and 5/4 four times,
    # so at k = 1 the gap is 5/4
    emb = bottom_k_eigs(WeightedGraph(np.ones((5, 5)) - np.eye(5)), 1)
    s = emb.stats
    assert s["lambda_k"] == pytest.approx(0.0, abs=1e-14)
    assert s["lambda_next"] == pytest.approx(1.25, rel=1e-14)
    assert s["subspace_bound"] == s["worst_residual"] / (s["lambda_next"] - s["lambda_k"])
    assert s["subspace_bound"] == pytest.approx(s["worst_residual"] / 1.25, rel=1e-12)


def test_solve_without_a_gap_is_refused(rng, monkeypatch):
    # a solve that reports lambda_{k+1} equal to lambda_k has no gap to bound
    # by; the (k+1)th pair is certified, so the tie is refused by its
    # residual, which is the true gap lambda_{k+1} - lambda_k
    g = random_graph(rng, 30, density=0.3)
    real = scipy.linalg.eigh
    exact = real(laplacian(g), eigvals_only=True, subset_by_index=[2, 3])

    def tied(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vals[-1] = vals[-2]
        return vals, vecs

    monkeypatch.setattr(scipy.linalg, "eigh", tied)
    with pytest.raises(ConvergenceError, match="eigen-residual") as err:
        bottom_k_eigs(g, 3)
    assert err.value.achieved == pytest.approx(exact[1] - exact[0], rel=1e-9)


def test_gap_within_the_next_residual_is_refused(monkeypatch):
    # two 4-cliques joined by weights of 1e-12: lambda_2 = 2.08e-12, which
    # eigh is made to report 1.5e-12 lower.  That pair's residual, 1.5e-12,
    # passes the 1e-8 check, but it exceeds the gap left, 5.8e-13, so the
    # eigenspace is not determined
    g = synth_adjacency([4, 4], 1e-12, 0).graph
    real = scipy.linalg.eigh
    lambda_2 = real(laplacian(g), eigvals_only=True, subset_by_index=[1, 1])[0]
    assert 2e-12 < lambda_2 < 2.2e-12

    def lowered(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vals[1] -= 1.5e-12
        return vals, vecs

    monkeypatch.setattr(scipy.linalg, "eigh", lowered)
    with pytest.raises(ConvergenceError, match="eigengap") as err:
        bottom_k_eigs(g, 1)
    assert err.value.achieved == pytest.approx(lambda_2 - 1.5e-12, abs=1e-15)


def test_k_splitting_a_repeated_eigenvalue_is_refused():
    # K_6: L has eigenvalue 0 once and 6/5 five times, so k = 2 takes one
    # of five equal eigenvalues; the computed gap is rounding, 1.1e-15
    with pytest.raises(ConvergenceError, match="bottom-2 eigenspace is not determined"):
        bottom_k_eigs(WeightedGraph(np.ones((6, 6)) - np.eye(6)), 2)
    # K_5 at k = 1 stops below the repeated eigenvalue
    assert bottom_k_eigs(WeightedGraph(np.ones((5, 5)) - np.eye(5)), 1).stats[
        "subspace_bound"] < 1e-12


@pytest.mark.parametrize("fault, message, achieved", [
    ("scaled", "eigenvector rows are not orthonormal", 3.0),
    ("shifted", "eigen-residual 1.000e-03 exceeds 1.0e-08", 1e-3),
])
def test_dense_solve_checked_before_use(rng, monkeypatch, fault, message, achieved):
    # vectors of norm 2 are 3 off orthonormal; eigenvalues off by 1e-3
    # leave a residual of 1e-3 on every unit vector
    real = scipy.linalg.eigh

    def faulty(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        return (vals, 2.0 * vecs) if fault == "scaled" else (vals + 1e-3, vecs)

    monkeypatch.setattr(scipy.linalg, "eigh", faulty)
    with pytest.raises(ConvergenceError, match=message) as err:
        bottom_k_eigs(random_graph(rng, 30, density=0.3), 3)
    assert err.value.achieved == pytest.approx(achieved, rel=1e-9)


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
    # the operator ARPACK sees: I + S = 2I - L with its null vector moved
    # to -1
    theta, vecs = given[0]
    z = np.sqrt(g.degrees) / np.linalg.norm(np.sqrt(g.degrees))
    op = 2.0 * np.eye(g.n) - laplacian(g) - 3.0 * np.outer(z, z)
    expected = np.linalg.norm(op @ vecs - vecs * theta, axis=0).max()
    assert expected > 1e-4
    assert info.value.achieved == pytest.approx(expected, rel=1e-10)
    assert f"worst residual of those: {expected:.3e}" in str(info.value)


def test_arpack_on_disconnected_graph(monkeypatch):
    # 20 components of 110 nodes, each above a cutoff of 100 and so solved
    # by ARPACK with its one null vector deflated; the default cutoff
    # solves each by eigh
    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", 100)
    inst = synth_adjacency([110] * 20, 0.0, 0)
    g = inst.graph
    arpack = bottom_k_eigs(g, 20)
    dense = eigs_with_threshold(monkeypatch, g.n, g, 20)
    assert arpack.stats["method"] == "arpack" and arpack.stats["components"] == 20
    assert dense.stats["method"] == "eigh" and dense.stats["components"] == 20
    assert np.all(arpack.eigenvalues == 0.0)
    assert abs(arpack.lambda_next - dense.lambda_next) < 1e-8
    assert accuracy(elli_cluster(inst.graph, 20).partition, inst.truth) == 1.0


def disconnected_graph(rng, sizes, density):
    """A random weighted graph with one connected component per size, its
    nodes shuffled together."""
    w = scipy.linalg.block_diag(*[dense(random_graph(rng, m, density).adjacency)
                                  for m in sizes])
    perm = rng.permutation(w.shape[0])
    return WeightedGraph(w[np.ix_(perm, perm)])


@pytest.mark.parametrize("threshold", [DENSE_THRESHOLD, 10, 1])
@pytest.mark.parametrize("storage, sizes, density", [
    ("dense", (40, 2), 0.9),
    ("csr", (30, 20, 2, 2), 0.2),
])
def test_components_solved_apart_match_the_whole_matrix(
        rng, monkeypatch, threshold, storage, sizes, density):
    # each component of more than `threshold` nodes goes through ARPACK
    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", threshold)
    g = disconnected_graph(rng, sizes, density)
    assert isinstance(g.adjacency, np.ndarray) == (storage == "dense")
    c = len(sizes)
    arpack = max(sizes) > threshold
    for k in (c, c + 1, c + 3):
        emb = bottom_k_eigs(g, k)
        vals, vecs = scipy.linalg.eigh(laplacian(g), subset_by_index=[0, k])
        np.testing.assert_allclose(np.r_[emb.eigenvalues, emb.lambda_next], vals,
                                   rtol=0, atol=1e-8)
        assert np.all(emb.eigenvalues[:c] == 0.0)
        assert scipy.linalg.subspace_angles(emb.P.T, vecs[:, :k]).max() < 1e-6
        s = emb.stats
        assert s["components"] == c
        assert s["method"] == ("arpack" if arpack else "eigh")
        assert (s["matvecs"] > 0) == arpack
        resid = laplacian(g) @ emb.P.T - emb.P.T * emb.eigenvalues[None, :]
        assert s["worst_residual"] == pytest.approx(
            np.linalg.norm(resid, axis=0).max(), rel=1e-3, abs=1e-14)
        assert s["lambda_k"] == emb.eigenvalues[-1]
        assert s["lambda_next"] == emb.lambda_next
    with pytest.raises(InvalidGraphError, match=f"{c} connected components"):
        bottom_k_eigs(g, c - 1)


@pytest.mark.parametrize("threshold", [DENSE_THRESHOLD, 1])
def test_k_splitting_twin_components_is_refused(monkeypatch, threshold):
    # two copies of the path on 5 nodes: L has eigenvalues 0, 0, a, a, ...
    # with a = lambda_2 of the path, so k = 3 takes one of the two a's
    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", threshold)
    path = np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
    g = WeightedGraph(scipy.linalg.block_diag(path, path))
    with pytest.raises(ConvergenceError, match="bottom-3 eigenspace is not determined"):
        bottom_k_eigs(g, 3)
    assert bottom_k_eigs(g, 4).stats["components"] == 2


@pytest.mark.parametrize("threshold", [DENSE_THRESHOLD, 1])
def test_nearly_split_component_keeps_its_own_null_pair(monkeypatch, threshold):
    # two components: two 4-node clusters joined by weights of 1e-12, whose
    # lambda_2 is 2.08e-12, and a triangle.  eigh's lambda_2 vector of the
    # first is orthogonal to eigh's own null vector, which differs from the
    # exact sqrt(d) one by about eps / lambda_2 = 1e-4, so both must come
    # from the same solve: the lambda_2 vector next to the exact null
    # vector leaves rows of P that are not orthonormal
    monkeypatch.setattr(ellispec.eigen, "DENSE_THRESHOLD", threshold)
    a = np.array(synth_adjacency([4, 4], 1e-12, 0).graph.adjacency)
    g = WeightedGraph(scipy.linalg.block_diag(a, np.ones((3, 3)) - np.eye(3)))
    emb = bottom_k_eigs(g, 3)
    vals, vecs = scipy.linalg.eigh(laplacian(g), subset_by_index=[0, 3])
    assert emb.eigenvalues[0] == emb.eigenvalues[1] == 0.0
    np.testing.assert_allclose(np.r_[emb.eigenvalues, emb.lambda_next], vals,
                               rtol=0, atol=1e-14)
    assert emb.eigenvalues[2] > 1e-12
    assert np.abs(emb.P @ emb.P.T - np.eye(3)).max() < 1e-14
    assert scipy.linalg.subspace_angles(emb.P.T, vecs[:, :3]).max() < 1e-10
    assert emb.stats["worst_residual"] < 1e-14
    assert emb.stats["components"] == 2
    assert emb.stats["method"] == ("eigh" if threshold > 1 else "arpack")


def whole_graph_solve(g, k):
    """(P, eigenvalues, lambda_next, matvecs) of the solve on all of W at
    once: eigh on I - S up to DENSE_THRESHOLD nodes; above, ARPACK on I + S
    at the solver's tolerance, with the unit sqrt(d) vector z moved to
    eigenvalue -1, and z put first at eigenvalue 0."""
    w, n = g.adjacency, g.n
    dinv = 1.0 / np.sqrt(g.degrees)
    if n <= DENSE_THRESHOLD:
        s = (w if isinstance(w, np.ndarray) else w.toarray()) * dinv[:, None]
        s *= -dinv[None, :]
        s.flat[::n + 1] += 1.0
        vals, vecs = scipy.linalg.eigh(s, subset_by_index=[0, k], overwrite_a=True)
        matvecs = 0
    else:
        # both sums run one term at a time in node order, as in the solver
        z = np.sqrt(g.degrees) / np.sqrt(np.cumsum(g.degrees)[-1])
        product = (partial(dsymv, 1.0, w.T) if isinstance(w, np.ndarray)
                   else w.__matmul__)
        count = []

        def matvec(x):
            count.append(1)
            x = x.ravel()
            return x + dinv * product(dinv * x) - 3.0 * (z * np.cumsum(z * x)[-1])

        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec,
                                                dtype=np.float64)
        theta, found = scipy.sparse.linalg.eigsh(
            op, k=k, which="LA", tol=ellispec.eigen.RESIDUAL_TOL,
            v0=np.random.default_rng(0x5EED).standard_normal(n))
        vals, vecs = np.r_[0.0, 2.0 - theta], np.column_stack([z, found])
        matvecs = len(count)
    order = np.argsort(vals)
    return vecs[:, order[:k]].T, vals[order[:k]], vals[order[k]], matvecs


def knn_graph(rng, n, topics):
    """A connected cosine 10-nearest-neighbour graph, stored CSR, of noisy
    vectors drawn around ``topics`` random profiles."""
    profiles = rng.exponential(size=(topics, 16))
    X = profiles[rng.integers(topics, size=n)] + rng.exponential(size=(n, 16))
    return cosine_knn_graph(VectorDataset(X), 10)


@pytest.mark.parametrize("make, k", [
    (lambda rng: synth_adjacency([200] * 15, 0.3, 0).graph, 15),
    (lambda rng: knn_graph(rng, 2000, 10), 10),
    (lambda rng: synth_adjacency([100] * 10, 1.0, 0).graph, 10),
], ids=["dense-arpack", "csr-arpack", "dense-eigh"])
def test_connected_graph_solved_whole(rng, make, k):
    g = make(rng)
    emb = bottom_k_eigs(g, k)
    assert emb.stats["components"] == 1
    P, vals, lambda_next, matvecs = whole_graph_solve(g, k)
    assert np.array_equal(emb.P, P)
    assert emb.eigenvalues[0] == 0.0
    assert np.array_equal(emb.eigenvalues[1:], vals[1:])
    assert emb.lambda_next == lambda_next
    assert emb.stats["matvecs"] == matvecs
    assert emb.stats["method"] == ("eigh" if g.n <= DENSE_THRESHOLD else "arpack")


def cycle_adjacency(n):
    i = np.arange(n)
    j = (i + 1) % n
    return sp.csr_matrix((np.ones(2 * n), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ARPACK can miss copies of a repeated eigenvalue, and the pairs it does "
    "return pass _validate: on the 35 x 36 torus it finds three of the four "
    "copies of 0.015631 and reports lambda_11 = 0.031883 for 0.030154; on "
    "the 1,200-node cycle it skips the twin of lambda_2"))
@pytest.mark.parametrize("w, k", [
    (sp.csr_matrix(sp.kronsum(cycle_adjacency(35), cycle_adjacency(36))), 10),
    (cycle_adjacency(1200), 3),
], ids=["torus-35x36-k10", "cycle-1200-k3"])
def test_arpack_finds_every_copy_of_a_repeated_eigenvalue(w, k):
    g = WeightedGraph(w)
    assert g.n > DENSE_THRESHOLD
    emb = bottom_k_eigs(g, k)
    exact = scipy.linalg.eigh(laplacian(g), eigvals_only=True,
                              subset_by_index=[0, k])
    np.testing.assert_allclose(np.r_[emb.eigenvalues, emb.lambda_next], exact,
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("size, k", [(600, 6), (600, 10), (700, 6)])
def test_twin_cycles_against_the_dense_reference(size, k):
    # two disjoint cycles of `size` nodes: solved as one graph of more than
    # DENSE_THRESHOLD nodes, ARPACK missed copies of the cycles' doubled
    # eigenvalues and was off by up to 1.2e-3; each cycle is solved alone
    g = WeightedGraph(sp.block_diag([cycle_adjacency(size)] * 2, format="csr"))
    assert g.n > DENSE_THRESHOLD
    emb = bottom_k_eigs(g, k)
    exact = scipy.linalg.eigh(laplacian(g), eigvals_only=True,
                              subset_by_index=[0, k])
    np.testing.assert_allclose(np.r_[emb.eigenvalues, emb.lambda_next], exact,
                               rtol=0, atol=1e-8)
    assert emb.stats["components"] == 2


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


def test_dense_embedding_peak_memory():
    # I - S is formed in place in one n x n array; LAPACK's copy of it in
    # column order is the other, and no identity or difference is held
    g = synth_adjacency([100] * 10, 0.5, 0).graph
    n = g.n
    assert n == DENSE_THRESHOLD and isinstance(g.adjacency, np.ndarray)
    tracemalloc.start()
    try:
        bottom_k_eigs(g, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


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
