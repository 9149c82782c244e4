import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_kmeanspp_seed, reference_lloyd
from ellispec import (
    accuracy,
    kmeanspp_seed,
    ksc_cluster,
    lloyd,
    synth_adjacency,
)
from ellispec import ksc
from ellispec.elli import graph_embedding
from ellispec.ksc import BLOCK_BYTES, MAX_ITER

TOP_UNIFORM = 1.0 - 2.0 ** -53  # the largest value Generator.random() returns


class StubGenerator:
    """Records the calls kmeanspp_seed makes; integers() returns ``first``,
    random() returns ``draw``."""

    def __init__(self, first, draw=TOP_UNIFORM):
        self.first = first
        self.draw = draw
        self.calls = []

    def integers(self, n):
        self.calls.append(("integers", n))
        return self.first

    def random(self):
        self.calls.append(("random",))
        return self.draw


def scaled_points(graph, k):
    """The points ksc_cluster clusters: embedded columns over sqrt(degree)."""
    return graph_embedding(graph, k).P / np.sqrt(graph.degrees)[None, :]


def assert_matches_reference(points, k, centers, runs, max_iter=MAX_ITER):
    """Run t equals reference_lloyd from centers[t]: labels, iterations and
    repairs exactly; costs to 1e-12 relative, or to 1e-12 of sum |p|^2
    (the scale of any cost) where a cost is rounding noise near zero."""
    scale = float(np.sum(points ** 2))
    for c, run in zip(centers, runs, strict=True):
        labels, cost, iterations, history, repairs = reference_lloyd(
            points, k, c, max_iter)
        assert np.array_equal(run.partition.labels, labels)
        assert run.iterations == iterations
        assert run.empty_repairs == repairs
        np.testing.assert_allclose(run.cost_history, history,
                                   rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(run.cost, cost, rtol=1e-12, atol=1e-12 * scale)


class TestSeeding:
    def test_k1_uniform(self, rng):
        points = rng.standard_normal((2, 50))
        centers = kmeanspp_seed(points, 1, [np.random.default_rng(s) for s in range(2000)])
        diff = points[:, None, :] - centers[:, :, 0].T[:, :, None]
        idx = np.argmin(np.linalg.norm(diff, axis=0), axis=1)
        counts = np.bincount(idx, minlength=50)
        # uniform over 50 points: expect 40 hits each, loose band
        assert counts.min() > 10
        assert counts.max() < 90

    def test_outlier_frequency_matches_d2_distribution(self):
        # 9 bulk points at the origin region, one far outlier; the exact
        # probability that the second center is the outlier follows by
        # enumerating the first uniform pick and the D^2 weights
        bulk = np.linspace(0.0, 1.0, 9)
        points = np.concatenate([bulk, [100.0]])[None, :]
        # conditional on the first pick landing in the bulk
        exact = 0.0
        for first in range(9):
            d2 = (points[0] - points[0, first]) ** 2
            exact += (1.0 / 9.0) * d2[9] / d2.sum()
        centers = kmeanspp_seed(points, 2, [np.random.default_rng(s) for s in range(10_000)])
        outlier = np.abs(centers[:, 0] - 100.0) < 1e-9
        kept = ~outlier[:, 0]
        freq = outlier[kept, 1].mean()
        sigma = np.sqrt(exact * (1 - exact) / kept.sum())
        assert abs(freq - exact) < 5 * sigma
        assert freq >= exact - 5 * sigma  # at least its D^2 share

    def test_identical_points_fall_back_to_uniform(self, rng):
        points = np.ones((3, 8))
        centers = kmeanspp_seed(points, 3, [rng])
        assert centers.shape == (1, 3, 3)
        assert np.allclose(centers, 1.0)

    def test_top_uniform_draw_picks_last_weighted_point(self):
        # trial 0 starts at point 0: weights 0, 1, 4, 9, 0, 0; a draw at the
        # top of [0, 1) lands on the last point with nonzero weight, never
        # past the end; then weights 0, 1, 1, 0, 0, 0 give point 2.  Trial 1
        # starts at point 3: weights 9, 4, 1, 0, 9, 9 give point 5, then
        # 0, 1, 1, 0, 0, 0 give point 2
        points = np.array([[0.0, 1.0, 2.0, 3.0, 0.0, 0.0]])
        stubs = [StubGenerator(first=0), StubGenerator(first=3)]
        centers = kmeanspp_seed(points, 3, stubs)
        assert centers.tolist() == [[[0.0, 3.0, 2.0]], [[3.0, 0.0, 2.0]]]
        for stub in stubs:
            assert stub.calls == [("integers", 6), ("random",), ("random",)]

    def test_draw_on_a_boundary_takes_the_next_point(self):
        # weights 0, 0, 1, 1, 1, 1 from point 0 (running sums 0, 0, 1, 2, 3,
        # 4): a draw of 0 skips the zero weights to point 2, and a draw of
        # 1/4 (1 of 4) lands on the boundary after point 2 and takes point 3
        points = np.array([[0.0, 0.0, 1.0, -1.0, 1.0, -1.0]])
        stubs = [StubGenerator(first=0, draw=0.0), StubGenerator(first=0, draw=0.25)]
        centers = kmeanspp_seed(points, 2, stubs)
        assert centers.tolist() == [[[0.0, 1.0]], [[0.0, -1.0]]]

    def test_all_zero_weights_draw_uniform_in_order(self):
        # every distance is zero: each center after the first is one more
        # integers(n) call, and random() is never called
        stubs = [StubGenerator(first=f) for f in (4, 0, 6)]
        centers = kmeanspp_seed(np.ones((2, 7)), 4, stubs)
        assert np.array_equal(centers, np.ones((3, 2, 4)))
        for stub in stubs:
            assert stub.calls == [("integers", 7)] * 4

    def test_zero_and_weighted_branches_in_one_step(self):
        # In exact arithmetic every trial finds all its weights zero at the
        # same step, once its centers cover every distinct point; the two
        # branches meet in one step only through distances that count as
        # zero.  Points 1, 1 + 2^-25, 1 - 2^-25: the squared distances 2^-50
        # from point 0 lie below the rounding of the expanded form, about
        # 12 * 2^-52 here, while 2^-48 between points 1 and 2 does not.
        e = 2.0 ** -25
        points = np.array([[1.0, 1.0 + e, 1.0 - e]])
        zero, weighted = StubGenerator(first=0), StubGenerator(first=1)
        centers = kmeanspp_seed(points, 2, [zero, weighted])
        assert centers.tolist() == [[[1.0, 1.0]], [[1.0 + e, 1.0 - e]]]
        assert zero.calls == [("integers", 3), ("integers", 3)]
        assert weighted.calls == [("integers", 3), ("random",)]

    def test_scaling_invariance(self):
        points = np.random.default_rng(3).standard_normal((2, 40))
        a = kmeanspp_seed(points, 4, [np.random.default_rng(17)])
        b = kmeanspp_seed(3.5 * points, 4, [np.random.default_rng(17)])
        assert np.allclose(3.5 * a, b)

    def test_fewer_points_than_k_rejected(self):
        with pytest.raises(ValueError, match="need at least k=4 points, got 3"):
            kmeanspp_seed(np.ones((2, 3)), 4, [np.random.default_rng(0)])


def resolved(points, picks):
    """The columns of ``picks``, in order, that lie farther than 1e-5
    relative from every earlier one kept.  Closer columns (the nodes of one
    block at delta = 0 agree to about 1e-16) weigh zero against each other
    in kmeanspp_seed, within the rounding of |p|^2 + |c|^2 - 2 p.c, but
    not in the difference form of the reference, so that the two seedings
    can take different branches once every other point is covered."""
    p2 = np.einsum("ij,ij->j", points, points)
    kept = []
    for j in picks:
        d2 = np.sum((points[:, kept] - points[:, [j]]) ** 2, axis=0)
        if np.all(d2 > 1e-10 * (p2[kept] + p2[j])):
            kept.append(j)
    return kept


@st.composite
def seeding_inputs(draw):
    """The points ksc_cluster clusters for a small synthetic graph, or
    mostly copies of a few of their columns, so that many trials cover
    every distinct point before their k-th center."""
    sizes = draw(st.lists(st.integers(4, 12), min_size=2, max_size=6))
    graph = synth_adjacency(sizes, draw(st.floats(0.0, 2.0)),
                            draw(st.integers(0, 2 ** 16))).graph
    k = len(sizes)
    points = scaled_points(graph, k)
    if draw(st.integers(0, 3)):
        picks = draw(st.lists(st.integers(0, graph.n - 1), min_size=1,
                              max_size=k, unique=True))
        cols = draw(st.lists(st.sampled_from(resolved(points, picks)),
                             min_size=k, max_size=4 * k))
        points = points[:, cols]
    return points, k


class TestLockstepSeeding:
    @settings(max_examples=200, deadline=None)
    @given(seeding_inputs(), st.integers(1, 6), st.integers(0, 2 ** 16))
    def test_each_trial_equals_the_reference(self, inputs, trials, seed):
        points, k = inputs
        centers = kmeanspp_seed(points, k, [np.random.default_rng([seed, t])
                                            for t in range(trials)])
        assert centers.shape == (trials, points.shape[0], k)
        for t in range(trials):
            expected = reference_kmeanspp_seed(points, k, np.random.default_rng([seed, t]))
            assert np.array_equal(centers[t], expected)

    def test_distances_formed_over_row_blocks(self, monkeypatch):
        # 300 trials at a 64 KiB block: 12 rows per block, so the 500
        # points take 42 blocks, the last one short
        monkeypatch.setattr(ksc, "BLOCK_BYTES", 64 << 10)
        points = np.random.default_rng(5).standard_normal((3, 500))
        centers = kmeanspp_seed(points, 6, [np.random.default_rng([9, t])
                                            for t in range(300)])
        for t in (0, 157, 299):
            expected = reference_kmeanspp_seed(points, 6, np.random.default_rng([9, t]))
            assert np.array_equal(centers[t], expected)


class TestLloyd:
    def test_points_already_separated(self):
        points = np.array([[0.0, 5.0, 10.0]])
        run = lloyd(points, 3, np.array([[[0.0, 5.0, 10.0]]]))[0]
        assert run.cost == 0.0
        assert run.iterations == 1

    def test_hand_iteration_1d(self):
        points = np.array([[0.0, 1.0, 10.0]])
        run = lloyd(points, 2, np.array([[[0.0, 10.0]]]))[0]
        assert np.array_equal(run.partition.labels, [0, 0, 1])
        assert run.cost == pytest.approx(0.5)

    def test_cost_history_non_increasing(self, rng):
        for s in range(20):
            local = np.random.default_rng(s)
            points = local.standard_normal((3, 60))
            centers = kmeanspp_seed(points, 4, [local])
            run = lloyd(points, 4, centers)[0]
            assert all(a >= b - 1e-12 for a, b in
                       zip(run.cost_history, run.cost_history[1:]))

    def test_fixpoint_of_assignment(self, rng):
        points = rng.standard_normal((2, 50))
        centers = kmeanspp_seed(points, 3, [rng])
        run = lloyd(points, 3, centers)[0]
        final_centers = np.column_stack([
            points[:, run.partition.labels == c].mean(axis=1) for c in range(3)
        ])
        d2 = ((points[:, :, None] - final_centers[:, None, :]) ** 2).sum(axis=0)
        assert np.array_equal(np.argmin(d2, axis=1), run.partition.labels)

    def test_singleton_rule_fills_empty_clusters(self):
        # both seeded centers sit on the same location; k=3 but only two
        # distinct points exist, so repair must still produce 3 clusters
        points = np.array([[0.0, 0.0, 0.0, 9.0, 9.0]])
        centers = np.array([[[0.0, 0.0, 9.0]]])
        run = lloyd(points, 3, centers)[0]
        assert run.partition.k == 3
        assert np.unique(run.partition.labels).size == 3

    @pytest.mark.parametrize("n, k, max_iter", [(109, 4, MAX_ITER), (3, 3, 1)])
    def test_identical_points_repaired_with_distinct_points(self, n, k, max_iter):
        # every distance is zero: each empty cluster takes a different
        # point, lowest index first, never the last member of its cluster
        points = np.ones((3, n))
        run = lloyd(points, k, np.ones((1, 3, k)), max_iter=max_iter)[0]
        assert run.cost == 0.0
        assert np.array_equal(run.partition.labels[:k], [*range(1, k), 0])
        assert np.bincount(run.partition.labels).tolist() == [n - k + 1] + [1] * (k - 1)
        assert run.iterations == 1
        assert_matches_reference(points, k, np.ones((1, 3, k)), [run], max_iter)


@st.composite
def lloyd_batches(draw):
    """Dyadic points (exact centroid sums in any order) and T trials whose
    centers are drawn from the points with repeats, so some trials need
    the singleton repair and ties are common."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, min(n, 5)))
    cells = draw(st.lists(st.integers(-8, 8), min_size=d * n, max_size=d * n))
    points = np.array(cells, dtype=np.float64).reshape(d, n) / 4.0
    picks = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                          min_size=1, max_size=4))
    max_iter = draw(st.sampled_from([1, 2, 3, 50]))
    return points, k, np.stack([points[:, p] for p in picks]), max_iter


class TestBatchedLloyd:
    @settings(max_examples=200, deadline=None)
    @given(lloyd_batches())
    def test_stack_matches_reference_and_single_calls(self, batch):
        points, k, centers, max_iter = batch
        runs = lloyd(points, k, centers, max_iter=max_iter)
        assert_matches_reference(points, k, centers, runs, max_iter)
        single = lloyd(points, k, centers[:1], max_iter=max_iter)[0]
        assert np.array_equal(single.partition.labels, runs[0].partition.labels)
        assert single.iterations == runs[0].iterations

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(4, 12), min_size=2, max_size=5),
           delta=st.floats(0.0, 2.0), graph_seed=st.integers(0, 2 ** 16),
           trials=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    def test_ksc_cluster_matches_reference_trial_by_trial(
            self, sizes, delta, graph_seed, trials, seed):
        graph = synth_adjacency(sizes, delta, graph_seed).graph
        k = len(sizes)
        runs = ksc_cluster(graph, k, trials=trials, seed=seed)
        assert [r.seed for r in runs] == [(seed, t) for t in range(trials)]
        points = scaled_points(graph, k)
        centers = [reference_kmeanspp_seed(points, k, np.random.default_rng([seed, t]))
                   for t in range(trials)]
        assert_matches_reference(points, k, centers, runs)

    def test_one_trial_repaired_among_others(self):
        # trial 0 seeds two centers on point 0, so cluster 1 starts empty
        points = np.array([[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]])
        centers = np.array([[[0.0, 0.0, 12.0]], [[1.0, 11.0, 12.0]],
                            [[0.0, 2.0, 11.0]]])
        runs = lloyd(points, 3, centers)
        assert [r.empty_repairs for r in runs] == [1, 0, 0]
        assert_matches_reference(points, 3, centers, runs)

    def test_trials_converging_at_different_iterations(self):
        graph = synth_adjacency([20, 25, 18, 15], 1.2, 1).graph
        runs = ksc_cluster(graph, 4, trials=6, seed=3)
        assert len({r.iterations for r in runs}) >= 4
        centers = [reference_kmeanspp_seed(scaled_points(graph, 4), 4,
                                           np.random.default_rng([3, t]))
                   for t in range(6)]
        assert_matches_reference(scaled_points(graph, 4), 4, centers, runs)
        # a trial's elapsed time runs until it retires
        order = np.argsort([r.iterations for r in runs], kind="stable")
        assert np.all(np.diff([runs[i].elapsed_s for i in order]) >= 0)

    def test_cut_at_max_iter_two(self):
        graph = synth_adjacency([20, 25, 18, 15], 1.2, 1).graph
        uncut = ksc_cluster(graph, 4, trials=6, seed=3)
        points = scaled_points(graph, 4)
        centers = np.stack([reference_kmeanspp_seed(points, 4, np.random.default_rng([3, t]))
                            for t in range(6)])
        runs = lloyd(points, 4, centers, max_iter=2)
        assert [r.iterations for r in runs] == [min(r.iterations, 2) for r in uncut]
        assert any(r.iterations > 2 for r in uncut)
        assert_matches_reference(points, 4, centers, runs, max_iter=2)

    def test_peak_memory_bounded_by_the_distance_block(self):
        # n = 3000, k = 20, 100 trials: one unbounded distance block would be
        # n x 100k doubles = 48 MB; the labels and distances are 8nT bytes
        n, k, trials = 3000, 20, 100
        graph = synth_adjacency([n // k] * k, 1.0, 0).graph
        graph_embedding(graph, k)  # cached on the graph, outside the measure
        tracemalloc.start()
        try:
            runs = ksc_cluster(graph, k, trials=trials, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(runs) == trials
        assert peak <= BLOCK_BYTES + 8 * (8 * n * trials)


class TestKscCluster:
    def test_reproducible_given_seed(self):
        inst = synth_adjacency([20, 25, 18], 0.3, 6)
        a = ksc_cluster(inst.graph, 3, trials=3, seed=42)
        b = ksc_cluster(inst.graph, 3, trials=3, seed=42)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.partition.labels, rb.partition.labels)
            assert ra.cost == rb.cost
            assert ra.iterations == rb.iterations

    def test_trials_differ_across_streams(self):
        inst = synth_adjacency([20, 25, 18], 1.8, 6)
        runs = ksc_cluster(inst.graph, 3, trials=5, seed=1)
        assert len(runs) == 5
        assert len({tuple(r.partition.labels) for r in runs}) >= 1

    def test_zero_delta_high_accuracy(self):
        inst = synth_adjacency([30, 30, 30], 0.0, 5)
        runs = ksc_cluster(inst.graph, 3, trials=10, seed=0)
        acs = [accuracy(r.partition, inst.truth) for r in runs]
        assert np.mean(acs) >= 0.9

    def test_trials_below_one_rejected(self):
        graph = synth_adjacency([5, 5], 0.5, 2).graph
        for trials in (0, -1):
            with pytest.raises(ValueError, match=f"trials={trials}"):
                ksc_cluster(graph, 2, trials=trials)

    def test_k_out_of_range(self):
        graph = synth_adjacency([5, 5], 0.5, 2).graph
        for k in (0, graph.n):
            with pytest.raises(ValueError, match="1 <= k < n"):
                ksc_cluster(graph, k)
