import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_lloyd
from ellispec import (
    InvalidPartitionError,
    accuracy,
    kmeanspp_seed,
    ksc_cluster,
    lloyd,
    synth_adjacency,
)
from ellispec.elli import graph_embedding
from ellispec.ksc import BLOCK_BYTES, MAX_ITER

TOP_UNIFORM = 1.0 - 2.0 ** -53  # the largest value Generator.random() returns


class StubGenerator:
    """Records the calls kmeanspp_seed makes; integers() returns ``first``,
    random() returns TOP_UNIFORM."""

    def __init__(self, first):
        self.first = first
        self.calls = []

    def integers(self, n):
        self.calls.append(("integers", n))
        return self.first

    def random(self):
        self.calls.append(("random",))
        return TOP_UNIFORM


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
        counts = np.zeros(50)
        for s in range(2000):
            centers = kmeanspp_seed(points, 1, np.random.default_rng(s))
            idx = int(np.argmin(np.linalg.norm(points - centers, axis=0)))
            counts[idx] += 1
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
        draws = 10_000
        hits = kept = 0
        for s in range(draws):
            centers = kmeanspp_seed(points, 2, np.random.default_rng(s))
            if abs(centers[0, 0] - 100.0) < 1e-9:
                continue
            kept += 1
            if abs(centers[0, 1] - 100.0) < 1e-9:
                hits += 1
        freq = hits / kept
        sigma = np.sqrt(exact * (1 - exact) / kept)
        assert abs(freq - exact) < 5 * sigma
        assert freq >= exact - 5 * sigma  # at least its D^2 share

    def test_identical_points_fall_back_to_uniform(self, rng):
        points = np.ones((3, 8))
        centers = kmeanspp_seed(points, 3, rng)
        assert np.allclose(centers, 1.0)

    def test_top_uniform_draw_picks_last_weighted_point(self):
        # weights after the first center (point 0): 0, 1, 4, 9, 0, 0; a draw
        # at the top of [0, 1) lands on the last point with nonzero weight,
        # never past the end; then weights 0, 1, 1, 0, 0, 0 give point 2
        points = np.array([[0.0, 1.0, 2.0, 3.0, 0.0, 0.0]])
        stub = StubGenerator(first=0)
        centers = kmeanspp_seed(points, 3, stub)
        assert centers.tolist() == [[0.0, 3.0, 2.0]]
        assert stub.calls == [("integers", 6), ("random",), ("random",)]

    def test_all_zero_weights_draw_uniform_in_order(self):
        # every distance is zero: each center after the first is one more
        # integers(n) call, and random() is never called
        stub = StubGenerator(first=4)
        centers = kmeanspp_seed(np.ones((2, 7)), 4, stub)
        assert np.array_equal(centers, np.ones((2, 4)))
        assert stub.calls == [("integers", 7)] * 4

    def test_scaling_invariance(self):
        points = np.random.default_rng(3).standard_normal((2, 40))
        a = kmeanspp_seed(points, 4, np.random.default_rng(17))
        b = kmeanspp_seed(3.5 * points, 4, np.random.default_rng(17))
        assert np.allclose(3.5 * a, b)


class TestLloyd:
    def test_points_already_separated(self):
        points = np.array([[0.0, 5.0, 10.0]])
        run = lloyd(points, 3, np.array([[0.0, 5.0, 10.0]]))
        assert run.cost == 0.0
        assert run.iterations == 1

    def test_hand_iteration_1d(self):
        points = np.array([[0.0, 1.0, 10.0]])
        run = lloyd(points, 2, np.array([[0.0, 10.0]]))
        assert np.array_equal(run.partition.labels, [0, 0, 1])
        assert run.cost == pytest.approx(0.5)

    def test_cost_history_non_increasing(self, rng):
        for s in range(20):
            local = np.random.default_rng(s)
            points = local.standard_normal((3, 60))
            centers = kmeanspp_seed(points, 4, local)
            run = lloyd(points, 4, centers)
            assert all(a >= b - 1e-12 for a, b in
                       zip(run.cost_history, run.cost_history[1:]))

    def test_fixpoint_of_assignment(self, rng):
        points = rng.standard_normal((2, 50))
        centers = kmeanspp_seed(points, 3, rng)
        run = lloyd(points, 3, centers)
        final_centers = np.column_stack([
            points[:, run.partition.labels == c].mean(axis=1) for c in range(3)
        ])
        d2 = ((points[:, :, None] - final_centers[:, None, :]) ** 2).sum(axis=0)
        assert np.array_equal(np.argmin(d2, axis=1), run.partition.labels)

    def test_singleton_rule_fills_empty_clusters(self):
        # both seeded centers sit on the same location; k=3 but only two
        # distinct points exist, so repair must still produce 3 clusters
        points = np.array([[0.0, 0.0, 0.0, 9.0, 9.0]])
        centers = np.array([[0.0, 0.0, 9.0]])
        run = lloyd(points, 3, centers)
        assert run.partition.k == 3
        assert np.unique(run.partition.labels).size == 3


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
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a repair can empty a cluster
    @settings(max_examples=200, deadline=None)
    @given(lloyd_batches())
    def test_stack_matches_reference_and_single_calls(self, batch):
        points, k, centers, max_iter = batch
        ends = [reference_lloyd(points, k, c, max_iter)[0] for c in centers]
        if any(np.bincount(labels, minlength=k).min() == 0 for labels in ends):
            # the singleton rule can re-pick a point and leave a cluster
            # empty (all distances zero); one such trial fails the call
            with pytest.raises(InvalidPartitionError, match="is empty"):
                lloyd(points, k, centers, max_iter=max_iter)
            return
        runs = lloyd(points, k, centers, max_iter=max_iter)
        assert_matches_reference(points, k, centers, runs, max_iter)
        single = lloyd(points, k, centers[0], max_iter=max_iter)
        assert np.array_equal(single.partition.labels, runs[0].partition.labels)
        assert single.iterations == runs[0].iterations

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(4, 12), min_size=2, max_size=5),
           delta=st.floats(0.0, 2.0), graph_seed=st.integers(0, 2 ** 16),
           trials=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
           max_iter=st.sampled_from([1, 2, 3, MAX_ITER]))
    def test_ksc_cluster_matches_reference_trial_by_trial(
            self, sizes, delta, graph_seed, trials, seed, max_iter):
        graph = synth_adjacency(sizes, delta, graph_seed).graph
        k = len(sizes)
        runs = ksc_cluster(graph, k, trials=trials, seed=seed, max_iter=max_iter)
        assert [r.seed for r in runs] == [(seed, t) for t in range(trials)]
        points = scaled_points(graph, k)
        centers = [kmeanspp_seed(points, k, np.random.default_rng([seed, t]))
                   for t in range(trials)]
        assert_matches_reference(points, k, centers, runs, max_iter)

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
        centers = [kmeanspp_seed(scaled_points(graph, 4), 4, np.random.default_rng([3, t]))
                   for t in range(6)]
        assert_matches_reference(scaled_points(graph, 4), 4, centers, runs)
        # a trial's elapsed time runs until it retires
        order = np.argsort([r.iterations for r in runs], kind="stable")
        assert np.all(np.diff([runs[i].elapsed_s for i in order]) >= 0)

    def test_cut_at_max_iter_two(self):
        graph = synth_adjacency([20, 25, 18, 15], 1.2, 1).graph
        uncut = ksc_cluster(graph, 4, trials=6, seed=3)
        runs = ksc_cluster(graph, 4, trials=6, seed=3, max_iter=2)
        assert [r.iterations for r in runs] == [min(r.iterations, 2) for r in uncut]
        assert any(r.iterations > 2 for r in uncut)
        centers = [kmeanspp_seed(scaled_points(graph, 4), 4, np.random.default_rng([3, t]))
                   for t in range(6)]
        assert_matches_reference(scaled_points(graph, 4), 4, centers, runs, max_iter=2)

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
