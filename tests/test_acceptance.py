"""End-to-end acceptance checks for the whole toolkit.

Each test covers one numbered guarantee and prints a single PASS/FAIL
line; tolerances here are contractual and must not be loosened.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from ellispec import (
    Partition,
    accuracy,
    bottom_k_eigs,
    conductance_bound,
    delta_sweep,
    elli_cluster,
    group_columns,
    kmeanspp_seed,
    ksc_cluster,
    lloyd,
    nmi,
    partition_profile,
    solve_mvee,
    synth_adjacency,
)

from conftest import (
    THETA_CONST,
    brute_conductance,
    dense,
    laplacian,
    planted_columns,
    random_graph,
    random_orthogonal,
    random_partition,
    scaled_noise,
)
from test_metrics import brute_accuracy, brute_nmi

BALANCED_DESK = [100] * 10


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line per criterion, bypassing output capture."""
    def _report(number, ok, description):
        with capfd.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - "
                  f"{description}")
        assert ok, f"criterion {number} failed: {description}"
    return _report


def test_criterion_1_exact_recovery_at_zero_delta(report):
    ok = True
    for seed in range(5):
        inst = synth_adjacency(BALANCED_DESK, 0.0, seed)
        t0 = time.perf_counter()
        result = elli_cluster(inst.graph, 10)
        elapsed = time.perf_counter() - t0
        ac = accuracy(result.partition, inst.truth)
        mcc = partition_profile(inst.graph, result.partition)["mcc"]
        ok &= ac == 1.0 and mcc == 0.0 and elapsed < 10.0
    report(1, ok, "delta=0 balanced desk suite: AC exactly 1, MCC exactly 0, "
                  "under 10 s per instance (5 seeds)")


def test_criterion_2_synthetic_conductance_identity(report):
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(20):
        k = int(rng.integers(2, 6))
        sizes = [int(s) for s in rng.integers(3, 15, size=k)]
        delta = float(rng.uniform(0.05, 2.0))
        inst = synth_adjacency(sizes, delta, int(rng.integers(1_000_000)))
        w_dense = dense(inst.graph.adjacency)
        profile = partition_profile(inst.graph, inst.truth)
        for i, members in enumerate(inst.truth.clusters()):
            closed = delta / (inst.c[i] + delta)
            ok &= abs(profile["per_cluster"][i] - closed) <= 1e-10
            ok &= abs(brute_conductance(w_dense, inst.graph.degrees, members)
                      - closed) <= 1e-10
    report(2, ok, "truth-cluster conductance equals delta/(c_i+delta) within "
                  "1e-10 against the direct cut/volume oracle (20 triples)")


def test_criterion_3_desk_scale_baseline_comparison(report):
    deltas = [round(0.1 * i, 1) for i in range(1, 11)]
    t0 = time.perf_counter()
    wins = 0
    bound_ok = True
    for inst in delta_sweep(BALANCED_DESK, deltas, seed=0):
        elli_mcc = partition_profile(
            inst.graph, elli_cluster(inst.graph, 10).partition)["mcc"]
        runs = ksc_cluster(inst.graph, 10, trials=100, seed=0)
        ksc_mean = float(np.mean([
            partition_profile(inst.graph, r.partition)["mcc"] for r in runs
        ]))
        if elli_mcc <= ksc_mean:
            wins += 1
        if inst.delta <= 0.5:
            bound = conductance_bound(inst.c_min, inst.delta)
            bound_ok &= elli_mcc <= bound + 0.05
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and bound_ok and elapsed < 600.0
    report(3, ok, "balanced desk sweep: grouped MCC beats the 100-trial "
                  "k-means mean at >= 80% of delta points and stays within "
                  "+0.05 of the closed-form bound for delta <= 0.5, "
                  "under 10 min total")


def test_criterion_4_mvee_certificate_and_planted_actives(report):
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(k + 1, 501))
        P = rng.standard_normal((k, n))
        e = solve_mvee(P)
        minv = np.linalg.inv((P * e.u[None, :]) @ P.T)
        g = np.einsum("ij,ji->i", P.T @ minv, P)
        ok &= g.max() <= (1 + 1e-7) * k
    for _ in range(10):
        k = int(rng.integers(2, 8))
        m = rng.standard_normal((k, k))
        while np.linalg.cond(m) > 100:
            m = rng.standard_normal((k, k))
        c = rng.standard_normal((k, 50))
        c *= (rng.uniform(0.1, 0.9, 50) / np.linalg.norm(c, axis=0))[None, :]
        e = solve_mvee(np.column_stack([m, m @ c]))
        ok &= list(e.active) == list(range(k))
    report(4, ok, "ellipsoid certificate max p'M(u)^-1 p <= (1+1e-7)k on 100 "
                  "random instances; planted boundary columns recovered "
                  "exactly on interior-point constructions")


def test_criterion_5_noise_threshold_constructions(report):
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(50):
        k = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(4, 10, size=k)]
        P0, labels, stats = planted_columns(rng, sizes)
        bound = 0.5 * (1 - stats["theta_max"]) * stats["alpha_star_min"]
        R = scaled_noise(rng, P0.shape, spectral_norm=0.5 * bound)
        result = group_columns(P0 + R)
        ok &= result.active_count == k
        ok &= sorted(result.representatives) == sorted(stats["representatives"])
    for _ in range(50):
        k = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(4, 10, size=k)]
        P0, labels, stats = planted_columns(rng, sizes)
        col_bound = THETA_CONST * stats["alpha_min"]
        spec_bound = 0.5 * (1 - stats["theta_max"]) * stats["alpha_star_min"]
        R = scaled_noise(rng, P0.shape, column_norm=0.5 * col_bound,
                         spectral_norm=0.5 * spec_bound)
        result = group_columns(P0 + R)
        ok &= accuracy(result.partition, Partition(labels, k=k)) == 1.0
    report(5, ok, "half-threshold perturbations: boundary set equals the "
                  "representative set (50 trials) and the planted partition "
                  "is recovered exactly (50 trials)")


def test_criterion_6_rotation_invariance(report):
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(20):
        k = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(4, 9, size=k)]
        P0, _, _ = planted_columns(rng, sizes)
        P = P0 + scaled_noise(rng, P0.shape, spectral_norm=0.02)
        base = group_columns(P)
        for _ in range(5):
            q = random_orthogonal(rng, k)
            rotated = group_columns(q @ P)
            ok &= rotated.representatives == base.representatives
            ok &= np.array_equal(rotated.partition.labels,
                                 base.partition.labels)
    report(6, ok, "grouping is invariant under orthogonal rotation of the "
                  "embedding (20 embeddings x 5 rotations)")


def test_criterion_7_metric_oracles(report):
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(200):
        n = int(rng.integers(5, 31))
        k = int(rng.integers(2, 6))
        found = random_partition(rng, n, k)
        truth = random_partition(rng, n, k)
        ok &= abs(accuracy(found, truth) - brute_accuracy(found, truth)) <= 1e-12
        ok &= abs(nmi(found, truth) - brute_nmi(found, truth)) <= 1e-12
    quartet_found = Partition([0, 0, 1, 1])
    quartet_truth = Partition([0, 1, 0, 1])
    ok &= accuracy(quartet_found, quartet_truth) == 0.5
    ok &= nmi(quartet_found, quartet_truth) == 0.0
    report(7, ok, "accuracy and NMI match exhaustive-permutation / "
                  "raw-definition brute force to 1e-12 on 200 pairs, plus "
                  "the 0.5-AC / 0-NMI hand case")


def test_criterion_8_eigen_against_dense_reference(report):
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(50):
        n = int(rng.integers(8, 201))
        k = int(rng.integers(1, 6))
        g = random_graph(rng, n, density=float(rng.uniform(0.05, 0.3)))
        emb = bottom_k_eigs(g, k)
        lap = laplacian(g)
        # independent reference: numpy's symmetric dense driver
        ref_vals, ref_vecs = np.linalg.eigh(lap)
        resid = lap @ emb.P.T - emb.P.T * emb.eigenvalues[None, :]
        ok &= np.linalg.norm(resid, axis=0).max() <= 1e-8
        ok &= np.abs(emb.eigenvalues - ref_vals[:k]).max() <= 1e-8
        angles = scipy.linalg.subspace_angles(emb.P.T, ref_vecs[:, :k])
        ok &= angles.max() <= 1e-6
        # connected by construction: lambda_1 = 0 with the known eigenvector
        stationary = np.sqrt(g.degrees)
        stationary /= np.linalg.norm(stationary)
        ok &= abs(emb.eigenvalues[0]) <= 1e-10
        ok &= abs(abs(emb.P[0] @ stationary) - 1.0) <= 1e-8
    report(8, ok, "bottom-k eigenpairs match an independent dense solver to "
                  "residual 1e-8 / principal angle 1e-6 on 50 graphs; "
                  "lambda_1 = 0 with eigenvector along sqrt-degrees")


def test_criterion_9_lloyd_monotone_and_deterministic(report):
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((int(rng.integers(2, 5)),
                                      int(rng.integers(20, 80))))
        k = int(rng.integers(2, 6))
        centers = kmeanspp_seed(points, k, [rng])[0]
        run = lloyd(points, k, centers[None])[0]
        ok &= all(a >= b - 1e-12 for a, b in
                  zip(run.cost_history, run.cost_history[1:]))
    inst = synth_adjacency([25, 30, 20], 0.6, 14)
    first = ksc_cluster(inst.graph, 3, trials=5, seed=99)
    second = ksc_cluster(inst.graph, 3, trials=5, seed=99)
    for a, b in zip(first, second):
        ok &= a.partition.labels.tobytes() == b.partition.labels.tobytes()
        ok &= a.cost == b.cost and a.iterations == b.iterations
    report(9, ok, "k-means objective never increases across 100 seeded runs; "
                  "identical input and seed give byte-identical labels")
