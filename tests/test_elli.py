import numpy as np
import pytest

from ellispec import (
    Ellipsoid,
    InvalidGraphError,
    Partition,
    RankError,
    accuracy,
    delta_sweep,
    elli_cluster,
    group_columns,
    partition_profile,
    standard_suites,
    synth_adjacency,
)
from ellispec import elli as elli_module

from conftest import (
    THETA_CONST,
    planted_columns,
    random_orthogonal,
    scaled_noise,
)


def as_partition(labels, k):
    return Partition(labels, k=k)


class TestGroupColumns:
    def test_exact_recovery_no_residual(self, rng):
        for _ in range(5):
            sizes = rng.integers(3, 9, size=int(rng.integers(2, 5)))
            P0, labels, stats = planted_columns(rng, list(sizes))
            result = group_columns(P0)
            assert accuracy(result.partition, as_partition(labels, len(sizes))) == 1.0
            assert sorted(result.representatives) == sorted(stats["representatives"])

    def test_representative_threshold_construction(self, rng):
        # noise at half the spectral-norm threshold keeps the boundary
        # columns equal to the max-degree node of every cluster
        for _ in range(10):
            sizes = [5, 7, 6]
            P0, labels, stats = planted_columns(rng, sizes)
            bound = 0.5 * (1 - stats["theta_max"]) * stats["alpha_star_min"]
            R = scaled_noise(rng, P0.shape, spectral_norm=0.5 * bound)
            result = group_columns(P0 + R)
            assert result.active_count == len(sizes)
            assert sorted(result.representatives) == sorted(stats["representatives"])

    def test_assignment_threshold_construction(self, rng):
        for _ in range(10):
            sizes = [6, 5, 8]
            P0, labels, stats = planted_columns(rng, sizes)
            col_bound = THETA_CONST * stats["alpha_min"]
            spec_bound = 0.5 * (1 - stats["theta_max"]) * stats["alpha_star_min"]
            R = scaled_noise(rng, P0.shape, column_norm=0.5 * col_bound,
                             spectral_norm=0.5 * spec_bound)
            result = group_columns(P0 + R)
            assert accuracy(result.partition, as_partition(labels, 3)) == 1.0

    def test_rotation_invariance(self, rng):
        for _ in range(5):
            P0, labels, _ = planted_columns(rng, [4, 6, 5])
            P = P0 + scaled_noise(rng, P0.shape, spectral_norm=0.01)
            base = group_columns(P)
            for _ in range(3):
                q = random_orthogonal(rng, 3)
                rotated = group_columns(q @ P)
                assert rotated.representatives == base.representatives
                assert np.array_equal(rotated.partition.labels,
                                      base.partition.labels)

    def test_determinism(self, rng):
        P = rng.standard_normal((3, 40))
        a = group_columns(P)
        b = group_columns(P)
        assert a.representatives == b.representatives
        assert np.array_equal(a.partition.labels, b.partition.labels)

    def test_zero_column_rejected(self, rng):
        P = rng.standard_normal((2, 10))
        P[:, 4] = 0.0
        with pytest.raises(InvalidGraphError, match="node 4"):
            group_columns(P)

    def test_underfull_active_set_is_rank_error(self, rng, monkeypatch):
        P0, _, _ = planted_columns(rng, [5, 6, 4])
        ellipsoid = elli_module.solve_mvee(P0)

        def two_active(P):
            return Ellipsoid(X=ellipsoid.X, u=ellipsoid.u, epsilon_achieved=0.0,
                             active=ellipsoid.active[:2])

        monkeypatch.setattr(elli_module, "solve_mvee", two_active)
        with pytest.raises(RankError, match="only 2 columns .* fewer than k=3"):
            group_columns(P0)

    def test_representatives_in_own_cluster(self, rng):
        P = rng.standard_normal((4, 50))
        result = group_columns(P)
        for u, rep in enumerate(result.representatives):
            assert result.partition.labels[rep] == u


class TestElliCluster:
    def test_zero_delta_exact_recovery(self):
        inst = synth_adjacency([30, 25, 40], 0.0, 11)
        result = elli_cluster(inst.graph, 3)
        assert accuracy(result.partition, inst.truth) == 1.0
        assert partition_profile(inst.graph, result.partition)["mcc"] == 0.0

    def test_small_delta_matches_truth_mcc(self):
        inst = synth_adjacency([100] * 5, 0.1, 23)
        result = elli_cluster(inst.graph, 5)
        truth_mcc = partition_profile(inst.graph, inst.truth)["mcc"]
        found_mcc = partition_profile(inst.graph, result.partition)["mcc"]
        assert found_mcc == pytest.approx(truth_mcc, abs=1e-6)

    def test_k_equals_n_rejected(self):
        inst = synth_adjacency([5, 5], 0.5, 2)
        with pytest.raises(ValueError):
            elli_cluster(inst.graph, 10)

    def test_k_zero_rejected(self):
        inst = synth_adjacency([5, 5], 0.5, 2)
        with pytest.raises(ValueError, match="1 <= k < n"):
            elli_cluster(inst.graph, 0)

    def test_lambda_next_attached(self):
        inst = synth_adjacency([20, 20], 0.3, 4)
        result = elli_cluster(inst.graph, 2)
        assert result.lambda_next is not None
        assert 0 < result.lambda_next <= 2 + 1e-10


class TestMveeBudgetRegressions:
    """Instances on which the all-column Frank-Wolfe MVEE ran out of its
    100 k ln n iteration budget; each must now meet the certificate."""

    def test_n3000_k15(self):
        inst = synth_adjacency([200] * 15, 0.3, 0)
        result = elli_cluster(inst.graph, 15)
        assert accuracy(result.partition, inst.truth) == 1.0
        assert result.stats["gap"] <= 1e-7

    def test_n4000_k40_seed3(self):
        inst = synth_adjacency([100] * 40, 0.6, 3)
        result = elli_cluster(inst.graph, 40)
        assert result.stats["gap"] <= 1e-7

    def test_desk_seed14(self):
        for inst in delta_sweep([100] * 10, (0.0, 0.4, 0.8, 1.2), seed=14):
            assert elli_cluster(inst.graph, 10).stats["gap"] <= 1e-7

    @pytest.mark.parametrize("suite", ["balanced-desk", "unbalanced-desk"])
    def test_desk_grid(self, suite):
        sizes = standard_suites()[suite]
        for seed in range(10):
            for inst in delta_sweep(sizes, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), seed=seed):
                assert elli_cluster(inst.graph, len(sizes)).stats["gap"] <= 1e-7
