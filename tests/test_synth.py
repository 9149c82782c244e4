import tracemalloc
import weakref

import numpy as np
import pytest

from ellispec import synth
from ellispec import (
    accuracy,
    conductance_bound,
    delta_sweep,
    partition_profile,
    synth_adjacency,
)

from conftest import dense


class TestStructure:
    def test_zero_delta_disconnects_blocks(self):
        inst = synth_adjacency([4, 6, 5], 0.0, 3)
        w = dense(inst.graph.adjacency)
        labels = inst.truth.labels
        off = labels[:, None] != labels[None, :]
        assert np.all(w[off] == 0.0)
        assert partition_profile(inst.graph, inst.truth)["mcc"] == 0.0

    def test_delta_two_restores_dense_matrix(self):
        inst = synth_adjacency([4, 4], 2.0, 7)
        w = dense(inst.graph.adjacency)
        assert np.all(w[~np.eye(8, dtype=bool)] > 0.0)
        assert np.all(w <= 1.0)

    def test_symmetric_zero_diagonal(self, rng):
        inst = synth_adjacency([5, 7, 6], 0.8, 11)
        w = dense(inst.graph.adjacency)
        assert np.allclose(w, w.T)
        assert np.all(np.diag(w) == 0.0)

    def test_truth_blocks_are_contiguous(self):
        inst = synth_adjacency([3, 2, 4], 0.5, 0)
        assert np.array_equal(inst.truth.labels,
                              [0, 0, 0, 1, 1, 2, 2, 2, 2])

    def test_off_block_entries_scaled_by_half_delta(self):
        delta = 0.6
        a = synth_adjacency([4, 5], 2.0, 9)   # delta=2 recovers M off-block
        b = synth_adjacency([4, 5], delta, 9)
        wa = dense(a.graph.adjacency)
        wb = dense(b.graph.adjacency)
        off = a.truth.labels[:, None] != a.truth.labels[None, :]
        assert np.allclose(wb[off], 0.5 * delta * wa[off])
        assert np.allclose(wb[~off], wa[~off])


class TestConductanceIdentity:
    def test_closed_form_matches_direct(self, rng):
        # cluster conductance must be exactly delta / (c_i + delta)
        for _ in range(8):
            k = int(rng.integers(2, 5))
            sizes = [int(s) for s in rng.integers(3, 12, size=k)]
            delta = float(rng.uniform(0.05, 2.0))
            inst = synth_adjacency(sizes, delta, int(rng.integers(10_000)))
            profile = partition_profile(inst.graph, inst.truth)
            for i, direct in enumerate(profile["per_cluster"]):
                assert direct == pytest.approx(
                    delta / (inst.c[i] + delta), abs=1e-12
                )

    def test_bound_equals_truth_mcc(self):
        inst = synth_adjacency([10, 15, 12], 0.7, 5)
        mcc = partition_profile(inst.graph, inst.truth)["mcc"]
        assert conductance_bound(inst.c_min, 0.7) == pytest.approx(mcc, abs=1e-12)

    def test_bound_edge_cases(self):
        assert conductance_bound(3.0, 0.0) == 0.0
        assert conductance_bound(1.0, 1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            conductance_bound(-1.0, 0.5)
        with pytest.raises(ValueError):
            conductance_bound(1.0, -0.1)

    @pytest.mark.parametrize("c_min, delta", [(np.nan, 0.5), (1.0, np.nan),
                                              (np.nan, 0.0)])
    def test_bound_rejects_nan(self, c_min, delta):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            conductance_bound(c_min, delta)

    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.0])
    def test_singleton_cluster_has_conductance_one(self, delta):
        inst = synth_adjacency([1, 5, 4], delta, 2)
        assert inst.c[0] == 0.0 and inst.c_min == 0.0
        mcc = partition_profile(inst.graph, inst.truth)["mcc"]
        assert conductance_bound(inst.c_min, delta) == mcc == 1.0

    def test_single_cluster_has_conductance_zero(self, recwarn):
        inst = synth_adjacency([6], 0.5, 1)
        assert not recwarn.list
        assert inst.c.tolist() == [np.inf] and inst.c_min == np.inf
        assert conductance_bound(inst.c_min, 0.5) == 0.0
        assert partition_profile(inst.graph, inst.truth)["mcc"] == 0.0

    def test_bound_monotone_in_delta(self):
        vals = [conductance_bound(2.0, d) for d in np.linspace(0, 2, 21)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSweep:
    def test_shared_base_matrix(self):
        insts = list(delta_sweep([5, 6], deltas=[0.4, 0.8, 2.0], seed=13))
        assert [i.delta for i in insts] == [0.4, 0.8, 2.0]
        full = dense(insts[-1].graph.adjacency)
        on = insts[0].truth.labels[:, None] == insts[0].truth.labels[None, :]
        for inst in insts[:-1]:
            w = dense(inst.graph.adjacency)
            mask = ~np.eye(11, dtype=bool) & on
            assert np.allclose(w[mask], full[mask])
            assert np.allclose(w[~on], 0.5 * inst.delta * full[~on])
        assert all(i.c_min == insts[0].c_min for i in insts)

    def test_default_grid(self):
        insts = list(delta_sweep([3, 3], seed=1))
        assert len(insts) == 21
        assert insts[0].delta == 0.0
        assert insts[-1].delta == 2.0

    def test_dropped_graph_is_gone_before_the_next_build(self, monkeypatch):
        # the generator keeps no earlier graph while it builds the next W
        real_assemble = synth._assemble
        refs, alive = [], []

        def counting_assemble(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return real_assemble(*args)

        monkeypatch.setattr(synth, "_assemble", counting_assemble)
        for inst in delta_sweep([5, 6], deltas=[0.2, 0.6, 1.0], seed=3):
            refs.append(weakref.ref(inst.graph))
            del inst
        assert alive == [0, 0, 0]

    def test_permuted_truth_follows_nodes(self):
        inst = synth_adjacency([6, 8, 5], 0.2, 21, permute=True)
        base = synth_adjacency([6, 8, 5], 0.2, 21, permute=False)
        # same weighted degree multiset, and truth clusters keep their sizes
        assert sorted(np.bincount(inst.truth.labels)) == [5, 6, 8]
        assert np.allclose(sorted(inst.graph.degrees), sorted(base.graph.degrees))
        for members in inst.truth.clusters():
            sub = dense(inst.graph.adjacency)[np.ix_(members, members)]
            assert np.all(sub[~np.eye(len(members), dtype=bool)] > 0.0)


@pytest.mark.parametrize("permute", [False, True])
def test_single_instance_is_one_point_sweep(permute):
    sizes = [6, 8, 5]
    one = synth_adjacency(sizes, 0.3, np.random.default_rng(17), permute=permute)
    swept = next(delta_sweep(sizes, [0.3], seed=17, permute=permute))
    a, b = dense(one.graph.adjacency), dense(swept.graph.adjacency)
    assert np.array_equal(a, b)
    assert np.array_equal(one.truth.labels, swept.truth.labels)
    assert np.array_equal(one.c, swept.c)
    assert one.c_min == swept.c_min and one.delta == swept.delta


class TestValidation:
    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            synth_adjacency([4, 4], 2.5, 0)
        with pytest.raises(ValueError):
            synth_adjacency([4, 4], -0.1, 0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            synth_adjacency([4, 0], 0.5, 0)

    def test_sweep_checks_sizes_before_sampling(self):
        with pytest.raises(ValueError, match="at least 1"):
            next(delta_sweep([0, 5], [0.5], seed=0))

    def test_sweep_checks_every_delta_before_sampling(self):
        with pytest.raises(ValueError, match="2.5"):
            next(delta_sweep([4, 4], [0.5, 2.5], seed=0))

    def test_seed_reproducibility(self):
        a = synth_adjacency([5, 5], 0.9, 123)
        b = synth_adjacency([5, 5], 0.9, 123)
        assert np.allclose(dense(a.graph.adjacency),
                           dense(b.graph.adjacency))
        assert accuracy(a.truth, b.truth) == 1.0


def test_dense_build_peak_memory():
    # M and W are the two n x n arrays the generator needs; with a CSR copy
    # of W and n x n temporaries the peak was 6.4 x 8n^2 bytes
    n = 2000
    tracemalloc.start()
    try:
        synth_adjacency([500] * 4, 0.5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n
