import numpy as np
import pytest

from ellispec import accuracy, kmeanspp_seed, ksc_cluster, lloyd, synth_adjacency


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
