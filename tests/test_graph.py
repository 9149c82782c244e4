import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellispec import (
    InvalidGraphError,
    InvalidPartitionError,
    Partition,
    WeightedGraph,
    bottom_k_eigs,
    partition_profile,
    synth_adjacency,
)
from ellispec import graph as graph_module

from conftest import (brute_conductance, dense, laplacian, random_graph,
                      random_partition, reference_conductances)


def path2():
    return WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def conductance(graph, cluster):
    """The conductance of one cluster: the first entry of the profile of
    the two-way partition {cluster, rest}, which rejects an empty or full
    cluster."""
    inside = np.zeros(graph.n, dtype=bool)
    inside[list(cluster)] = True
    two_way = Partition(np.where(inside, 0, 1), k=2)
    return partition_profile(graph, two_way)["per_cluster"][0]


def four_cycle():
    w = np.zeros((4, 4))
    for i in range(4):
        w[i, (i + 1) % 4] = w[(i + 1) % 4, i] = 1.0
    return WeightedGraph(w)


class TestWeightedGraph:
    def test_symmetry_enforced(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(InvalidGraphError):
            WeightedGraph(m)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidGraphError):
            WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_weight_rejected_and_named(self, weight):
        m = np.array([[0.0, 1.0, weight], [1.0, 0.0, 1.0], [weight, 1.0, 0.0]])
        with pytest.raises(InvalidGraphError, match=f"finite.*found {weight}"):
            WeightedGraph(sp.csr_matrix(m))

    def test_complex_weights_rejected(self):
        m = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
        with pytest.raises(InvalidGraphError, match="must be real.*complex"):
            WeightedGraph(sp.csr_matrix(m))

    def test_zero_degree_rejected_and_named(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1.0
        with pytest.raises(InvalidGraphError, match="node 2"):
            WeightedGraph(sp.csr_matrix(m))

    def test_duplicate_entries_summed(self):
        g = WeightedGraph(sp.coo_matrix(([1.0, 2.0, 1.0, 2.0],
                                         ([0, 0, 1, 1], [1, 1, 0, 0])),
                                        shape=(2, 2)))
        assert g.adjacency[0, 1] == 3.0

    def test_storage_follows_density(self):
        full = np.ones((3, 3))
        g = WeightedGraph(full)
        assert isinstance(g.adjacency, np.ndarray)
        assert not g.adjacency.flags.writeable
        full[0, 0] = 5.0  # the constructor copied the caller's array
        assert g.adjacency[0, 0] == 1.0
        assert sp.issparse(WeightedGraph(np.eye(3)).adjacency)  # 1/3 nonzero
        # sparse input follows the same rule
        g = WeightedGraph(sp.csr_matrix(full))
        assert isinstance(g.adjacency, np.ndarray)
        assert not g.adjacency.flags.writeable
        assert np.array_equal(g.adjacency, full)
        assert sp.issparse(WeightedGraph(sp.csr_matrix(np.eye(3))).adjacency)

    def test_dense_coo_with_summed_duplicates_stored_dense(self, rng):
        w = np.triu(rng.uniform(0.1, 1.0, (8, 8)))
        w += np.triu(w, 1).T
        i, j = np.nonzero(w)
        # every entry stored twice, as two halves that sum to it
        coo = sp.coo_matrix((np.r_[w[i, j] / 4, 3 * w[i, j] / 4],
                             (np.r_[i, i], np.r_[j, j])), shape=w.shape)
        g = WeightedGraph(coo)
        assert isinstance(g.adjacency, np.ndarray)
        assert not g.adjacency.flags.writeable
        np.testing.assert_allclose(g.adjacency, w, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(g.adjacency, WeightedGraph(coo.toarray()).adjacency)
        np.testing.assert_array_equal(g.degrees, g.adjacency.sum(axis=1))

    def test_stored_zeros_do_not_count_toward_density(self):
        # 6 of 9 entries stored, but 3 of them explicit zeros
        w = np.eye(3)
        i, j = np.r_[0:3, 0, 1, 2], np.r_[0:3, 1, 2, 0]
        m = sp.csr_matrix((w[i, j], (i, j)), shape=(3, 3))
        assert m.nnz == 6
        g = WeightedGraph(m)
        assert sp.issparse(g.adjacency) and g.adjacency.format == "csr"
        assert g.adjacency.nnz == 3
        np.testing.assert_array_equal(g.adjacency.toarray(), w)

    def test_csr_input_copied_and_read_only(self):
        n = 40
        i = np.arange(n)
        a = sp.csr_matrix((np.ones(2 * n), (np.r_[i, (i + 1) % n], np.r_[(i + 1) % n, i])),
                          shape=(n, n))
        g = WeightedGraph(a)
        before = g.adjacency.toarray()
        a.data[:] = 5.0  # the caller edits its own matrix
        assert np.array_equal(g.adjacency.toarray(), before)
        assert np.array_equal(g.degrees, np.full(n, 2.0))
        for array in (g.adjacency.data, g.adjacency.indices, g.adjacency.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_dense_array_handed_over_without_copy(self):
        w = np.ones((3, 3))
        g = WeightedGraph(w, copy=False)
        assert g.adjacency is w
        assert not w.flags.writeable

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_degrees_read_only(self, storage):
        # a weighted triangle is stored dense, a 20-node ring CSR
        g = WeightedGraph(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
                          if storage == "dense" else _ring_with(1.0))
        assert isinstance(g.adjacency, np.ndarray) == (storage == "dense")
        before = g.degrees.copy()
        with pytest.raises(ValueError, match="read-only"):
            g.degrees[0] = 9.0
        assert np.array_equal(g.degrees, before)

    def test_degrees_include_self_loops(self):
        g = WeightedGraph(np.array([[2.0, 1.0], [1.0, 0.0]]))
        assert g.degrees[0] == 3.0
        assert g.degrees[1] == 1.0


def _full_with(entries, dtype=np.float64):
    """3 x 3 all-ones adjacency (self-loops included) with some entries set."""
    m = np.ones((3, 3), dtype=dtype)
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


def _isolated_fourth_node():
    m = np.zeros((4, 4))
    m[:3, :3] = 1.0  # 9 of 16 entries: stored dense
    return m


def _ring_with(value, n=20):
    """An n-node ring with the weight of edge (0, 1) set to value: stored
    sparse, so the weight check is made on the CSR copy's entries."""
    m = np.zeros((n, n))
    i = np.arange(n)
    m[i, (i + 1) % n] = m[(i + 1) % n, i] = 1.0
    m[0, 1] = m[1, 0] = value
    return m


REJECTED = {
    "nan": (_full_with({(0, 2): np.nan, (2, 0): np.nan}), "finite.*found nan"),
    "inf": (_full_with({(0, 2): np.inf, (2, 0): np.inf}), "finite.*found inf"),
    "-inf": (_full_with({(1, 2): -np.inf, (2, 1): -np.inf}), "finite.*found -inf"),
    "negative": (_full_with({(0, 1): -1.0, (1, 0): -1.0}), "finite.*found -1.0"),
    "complex": (_full_with({(0, 1): 1 + 0.5j, (1, 0): 1 - 0.5j}, complex),
                "must be real.*complex"),
    "asymmetric": (_full_with({(0, 1): 2.0}), "must be symmetric"),
    "non-square": (np.ones((2, 3)), "must be square"),
    "zero-degree": (_isolated_fourth_node(), "node 3 has zero degree"),
    "nan-sparse": (_ring_with(np.nan), "finite.*found nan"),
    "inf-sparse": (_ring_with(np.inf), "finite.*found inf"),
    "-inf-sparse": (_ring_with(-np.inf), "finite.*found -inf"),
    "negative-sparse": (_ring_with(-1.0), "finite.*found -1.0"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_ndarray_and_csr_rejected_alike(case):
    m, match = REJECTED[case]
    if case.endswith("-sparse"):
        assert np.count_nonzero(m) < graph_module.DENSE_STORAGE_DENSITY * m.size
    messages = []
    for adjacency in (m, sp.csr_matrix(m)):
        with pytest.raises(InvalidGraphError, match=match) as info:
            WeightedGraph(adjacency)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


class TestNormalizedLaplacian:
    """The normalized Laplacian L = I - D^{-1/2} W D^{-1/2} of a graph and
    its null space, one sqrt(d) vector per connected component."""

    def test_two_node_path(self):
        assert np.allclose(laplacian(path2()), [[1.0, -1.0], [-1.0, 1.0]])

    def test_kernel_vector(self, rng):
        for n in (5, 20, 60):
            g = random_graph(rng, n)
            v = np.sqrt(g.degrees)
            assert np.linalg.norm(laplacian(g) @ v) <= 1e-10 * np.linalg.norm(v)
            count, comp = graph_module._components(g.adjacency)
            assert count == 1 and not comp.any()
            emb = bottom_k_eigs(g, 1)
            assert emb.stats["components"] == 1 and emb.eigenvalues[0] == 0.0
            p = emb.P[0] * np.sign(emb.P[0].sum())
            np.testing.assert_allclose(p, v / np.linalg.norm(v),
                                       rtol=0, atol=1e-14)

    def test_disjoint_cliques_null_space(self, rng):
        k, size = 4, 6
        blocks = [np.ones((size, size)) - np.eye(size)] * k
        w = sp.block_diag(blocks)
        g = WeightedGraph(w)
        vals = np.linalg.eigvalsh(laplacian(g))
        assert np.sum(np.abs(vals) < 1e-10) == k
        count, comp = graph_module._components(g.adjacency)
        assert count == k
        assert np.array_equal(comp, np.repeat(np.arange(k), size))
        emb = bottom_k_eigs(g, k)
        assert emb.stats["components"] == k
        assert np.all(emb.eigenvalues == 0.0)
        # one sqrt(d) vector per clique: 1 / sqrt(size) on its nodes
        z = np.repeat(np.eye(k), size, axis=0) / np.sqrt(size)
        assert scipy.linalg.subspace_angles(emb.P.T, z).max() < 1e-14

    def test_two_dense_components(self):
        # two complete blocks with self-loops fill exactly half the entries
        g = WeightedGraph(sp.block_diag([np.ones((4, 4))] * 2).toarray())
        assert isinstance(g.adjacency, np.ndarray)
        assert graph_module._components(g.adjacency)[0] == 2
        assert bottom_k_eigs(g, 2).stats["components"] == 2
        with pytest.raises(InvalidGraphError, match="2 connected components"):
            bottom_k_eigs(g, 1)

    @pytest.mark.parametrize("block_rows", [2, 256])
    def test_dense_components_match_csr(self, rng, monkeypatch, block_rows):
        monkeypatch.setattr(graph_module, "BLOCK_ROWS", block_rows)
        w = sp.block_diag([np.ones((16, 16)), np.zeros((3, 3)),
                           np.ones((3, 3)), np.ones((1, 1))]).toarray()
        for i in (15, 16, 17):  # a path hanging off the clique: 4 BFS levels
            w[i, i + 1] = w[i + 1, i] = 1.0
        perm = rng.permutation(len(w))
        w = w[np.ix_(perm, perm)]
        g = WeightedGraph(w)
        assert isinstance(g.adjacency, np.ndarray)
        count, labels = graph_module._components(g.adjacency)
        csr_count, csr_labels = graph_module._components(sp.csr_matrix(w))
        assert count == csr_count == 3
        assert np.array_equal(labels, csr_labels)

    def test_spectrum_in_range(self, rng):
        g = random_graph(rng, 30)
        vals = np.linalg.eigvalsh(laplacian(g))
        assert vals.min() >= -1e-10
        assert vals.max() <= 2 + 1e-10


class TestConductance:
    """One cluster's conductance, read from the two-way partition_profile."""

    def test_four_cycle_adjacent_pair(self):
        assert conductance(four_cycle(), {0, 1}) == pytest.approx(0.5)

    def test_block_diagonal_zero(self):
        w = sp.block_diag([np.ones((3, 3)) - np.eye(3)] * 2)
        g = WeightedGraph(w)
        assert conductance(g, {0, 1, 2}) == 0.0

    def test_singleton_no_self_loop(self, rng):
        g = random_graph(rng, 10)
        assert conductance(g, {3}) == pytest.approx(1.0)

    def test_singleton_with_self_loop(self):
        g = WeightedGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))
        # degree 2, cut 1: the self-loop stays inside
        assert conductance(g, {0}) == pytest.approx(0.5)

    def test_empty_and_full_rejected(self, rng):
        g = random_graph(rng, 5)
        with pytest.raises(InvalidPartitionError):
            conductance(g, set())
        with pytest.raises(InvalidPartitionError):
            conductance(g, set(range(5)))

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 50))
            g = random_graph(rng, n)
            size = int(rng.integers(1, n))
            cluster = rng.choice(n, size=size, replace=False)
            assert conductance(g, cluster) == pytest.approx(
                brute_conductance(dense(g.adjacency), g.degrees, cluster), abs=1e-12
            )

    def test_weight_scaling_invariance(self, rng):
        g = random_graph(rng, 15)
        scaled = WeightedGraph(g.adjacency * 7.5)
        cluster = {0, 3, 7}
        assert conductance(g, cluster) == pytest.approx(
            conductance(scaled, cluster), abs=1e-12
        )

    def test_rayleigh_quotient_identity(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 40))
            g = random_graph(rng, n)
            size = int(rng.integers(1, n))
            cluster = rng.choice(n, size=size, replace=False)
            ind = np.zeros(n)
            ind[cluster] = 1.0
            gbar = np.sqrt(g.degrees) * ind
            gbar /= np.linalg.norm(gbar)
            assert conductance(g, cluster) == pytest.approx(
                float(gbar @ laplacian(g) @ gbar), abs=1e-8
            )


class TestPartition:
    def test_empty_cluster_rejected(self):
        with pytest.raises(InvalidPartitionError):
            Partition([0, 0, 2], k=3)

    @pytest.mark.parametrize("labels, k, message", [
        ([[0, 1], [1, 0]], None, "nonempty 1-d vector"),
        ([0, -1, 1], None, r"must lie in \[0, 2\), got range \[-1, 1\]"),
        ([0, 1, 3_000_000_000], None, "3000000001 nonempty clusters need at "
                                      "least 3000000001 labels, got 3"),
        ([0, 1, 1], 4, "4 nonempty clusters need at least 4 labels, got 3"),
    ], ids=["2-d", "negative", "huge-label", "k-above-n"])
    def test_invalid_labels_rejected(self, labels, k, message):
        with pytest.raises(InvalidPartitionError, match=message):
            Partition(labels, k=k)

    @pytest.mark.parametrize("labels", [
        [0, 1.5, 1], np.array([0.0, 1.7, 1.0]), [0.0, np.nan, 1.0],
        [0.0, np.inf, 1.0], [0.0, 1.0, 1e300],
    ], ids=["list", "array", "nan", "inf", "beyond-int64"])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels):
        with pytest.raises(InvalidPartitionError, match="whole numbers"):
            Partition(labels)

    def test_whole_float_labels_accepted(self):
        p = Partition(np.array([0.0, 1.0, 1.0]))
        assert p.labels.dtype == np.int64 and list(p.labels) == [0, 1, 1]

    def test_int64_labels_kept_without_a_copy(self):
        labels = np.array([0, 1, 1])
        assert Partition(labels).labels is labels

    def test_clusters_roundtrip(self, rng):
        p = random_partition(rng, 30, 4)
        labels = np.full(30, -1)
        for cid, members in enumerate(p.clusters()):
            labels[members] = cid
        assert Partition(labels, k=4) == p


class TestPartitionProfile:
    def test_four_cycle_split(self):
        profile = partition_profile(four_cycle(), Partition([0, 0, 1, 1]))
        assert profile["mcc"] == pytest.approx(0.5)
        assert profile["sum"] == pytest.approx(1.0)

    def test_zero_delta_truth_profile(self):
        inst = synth_adjacency([10, 15, 12], 0.0, 5)
        profile = partition_profile(inst.graph, inst.truth)
        assert profile["mcc"] == 0.0
        assert profile["sum"] == 0.0

    def test_max_sum_inequality(self, rng):
        for _ in range(5):
            g = random_graph(rng, 25)
            p = random_partition(rng, 25, 4)
            profile = partition_profile(g, p)
            assert profile["mcc"] <= profile["sum"] + 1e-12
            assert profile["sum"] <= p.k * profile["mcc"] + 1e-12

    def test_size_mismatch_rejected(self, rng):
        g = random_graph(rng, 10)
        with pytest.raises(InvalidPartitionError):
            partition_profile(g, Partition([0, 1, 0]))


@st.composite
def graphs_with_labels(draw):
    """A random weighted graph with self-loops and a label vector using
    every id.  Some draws cut every cross-cluster edge, so each cluster
    has no leaving weight; a node left with no edge gets a self-loop."""
    n = draw(st.integers(2, 12))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))
    labels = np.unique(labels, return_inverse=True)[1]
    as_array = draw(st.booleans())
    w = draw(arrays(np.float64, (n, n), elements=st.floats(0.1, 1.0)))
    if not as_array:  # ndarray draws keep every edge, so most are stored dense
        w = w * draw(arrays(np.bool_, (n, n)))
    w = np.triu(w)
    if draw(st.booleans()):
        w[labels[:, None] != labels[None, :]] = 0.0
    w += np.triu(w, 1).T
    lonely = w.sum(axis=1) == 0.0
    w[lonely, lonely] = 1.0
    return WeightedGraph(w if as_array else sp.csr_matrix(w)), labels


@settings(max_examples=200, deadline=None)
@given(graphs_with_labels())
def test_profile_matches_brute_force(case):
    g, labels = case
    dense_w = dense(g.adjacency)
    phis = partition_profile(g, Partition(labels))["per_cluster"]
    for c, phi in enumerate(phis):
        inside = labels == c
        assert abs(phi - brute_conductance(dense_w, g.degrees, np.flatnonzero(inside))) <= 1e-12
        if not dense_w[np.ix_(inside, ~inside)].any():
            assert phi == 0.0


@st.composite
def dense_graphs_with_labels(draw):
    """A graph of at most 80 nodes stored dense, and labels with 1 to 12
    ids, so that the diagonal blocks hold shares of W from a few
    hundredths up to all of it.  Some draws cut every edge leaving one
    cluster."""
    n = draw(st.integers(5, 80))
    k = draw(st.integers(1, min(n, 12)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    labels = np.unique(labels, return_inverse=True)[1]
    w = np.triu(draw(arrays(np.float64, (n, n), elements=st.floats(1e-3, 1e3))))
    w += np.triu(w, 1).T
    if draw(st.booleans()):
        inside = labels == draw(st.integers(0, labels.max()))
        w[np.ix_(inside, ~inside)] = w[np.ix_(~inside, inside)] = 0.0
    g = WeightedGraph(w)
    assume(isinstance(g.adjacency, np.ndarray))
    return g, labels


@settings(max_examples=200, deadline=None)
@given(dense_graphs_with_labels())
def test_dense_profile_matches_one_pass_reference(case):
    g, labels = case
    k = int(labels.max()) + 1
    phis = np.array(partition_profile(g, Partition(labels))["per_cluster"])
    np.testing.assert_allclose(phis, reference_conductances(g, labels, k),
                               rtol=0, atol=1e-12)
    for c, phi in enumerate(phis):
        inside = labels == c
        if not g.adjacency[np.ix_(inside, ~inside)].any():
            assert phi == 0.0


class TestDiagonalBlocks:
    """Dense graphs scored from their diagonal blocks: ten clusters of six
    nodes, whose blocks hold 0.1 of the entries."""

    labels = np.repeat(np.arange(10), 6)

    def graph(self, rng, leaving=None):
        """A dense graph on 60 nodes; with ``leaving``, cluster 0's only
        edge out weighs that much."""
        w = np.triu(rng.uniform(0.1, 1.0, (60, 60)))
        w += np.triu(w, 1).T
        if leaving is not None:
            w[:6, 6:] = w[6:, :6] = 0.0
            if leaving:
                w[0, 59] = w[59, 0] = leaving
        g = WeightedGraph(w)
        assert isinstance(g.adjacency, np.ndarray)
        return g

    def test_cluster_with_no_leaving_edge_scores_exactly_zero(self, rng):
        for _ in range(10):
            phis = partition_profile(self.graph(rng, 0.0), Partition(self.labels))
            assert phis["per_cluster"][0] == 0.0
            assert min(phis["per_cluster"][1:]) > 0.0

    def test_tiny_leaving_edge_is_not_lost_to_rounding(self, rng):
        # vol - sum W[S, S] would round the cut to a multiple of ulp(vol),
        # about 3.6e-15 here
        for _ in range(10):
            g = self.graph(rng, 1e-14)
            phi = partition_profile(g, Partition(self.labels))["per_cluster"][0]
            assert phi == pytest.approx(
                brute_conductance(g.adjacency, g.degrees, range(6)), rel=1e-12,
                abs=0.0)

    @pytest.mark.parametrize("leaving", [None, 0.0, 1e-14])
    def test_clusters_spanning_several_gather_blocks(self, leaving, rng,
                                                     monkeypatch):
        # seven entries per gather: a block of one row, so each cluster's
        # six rows take six gathers, for its own columns and for the others
        monkeypatch.setattr(graph_module, "GATHER_BLOCK", 7)
        g = self.graph(rng, leaving)
        phis = partition_profile(g, Partition(self.labels))["per_cluster"]
        np.testing.assert_allclose(
            phis, reference_conductances(g, self.labels, 10), rtol=0, atol=1e-12)
        if leaving is not None:
            assert phis[0] == pytest.approx(
                brute_conductance(g.adjacency, g.degrees, range(6)), rel=1e-12,
                abs=0.0)
