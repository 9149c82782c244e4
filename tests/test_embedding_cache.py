"""One spectral embedding per graph and k, shared by both algorithms."""

import numpy as np
import pytest

import ellispec.elli
from ellispec import (
    WeightedGraph,
    elli_cluster,
    ksc_cluster,
    synth_adjacency,
)
from ellispec.cli import main


@pytest.fixture
def solves(monkeypatch):
    """Counts eigensolves; both algorithms solve through elli's name."""
    calls = []

    def counting(original):
        def solve(lap, k, *args, **kwargs):
            calls.append(k)
            return original(lap, k, *args, **kwargs)
        return solve

    monkeypatch.setattr(ellispec.elli, "bottom_k_eigs",
                        counting(ellispec.elli.bottom_k_eigs))
    return calls


def test_elli_then_ksc_solves_once(solves):
    graph = synth_adjacency([30, 40, 35], 0.3, 0).graph
    elli_cluster(graph, 3)
    ksc_cluster(graph, 3, trials=3, seed=1)
    assert solves == [3]


def test_shared_embedding_gives_same_ksc_result():
    graph = synth_adjacency([30, 40, 35], 0.5, 1).graph
    elli_cluster(graph, 3)
    shared = ksc_cluster(graph, 3, trials=5, seed=2)
    fresh = ksc_cluster(WeightedGraph(graph.adjacency), 3, trials=5, seed=2)
    for a, b in zip(shared, fresh):
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.cost == b.cost
        assert a.lambda_next == b.lambda_next


def test_new_k_solves_again(solves):
    graph = synth_adjacency([30, 40, 35], 0.3, 0).graph
    ksc_cluster(graph, 3)
    ksc_cluster(graph, 2)
    elli_cluster(graph, 2)
    assert solves == [3, 2]


def test_cached_arrays_are_read_only():
    graph = synth_adjacency([20, 25], 0.3, 0).graph
    emb = ellispec.elli.graph_embedding(graph, 2)
    assert ellispec.elli.graph_embedding(graph, 2) is emb
    with pytest.raises(ValueError):
        emb.P[0, 0] = 1.0
    with pytest.raises(ValueError):
        emb.eigenvalues[0] = 1.0


def test_cli_dump_embedding_solves_once(solves, tmp_path):
    g = tmp_path / "g.mtx"
    main(["synth", "--sizes", "10x3", "--delta", "0.5", "--out", str(g),
          "--json", str(tmp_path / "s.json")])
    assert main(["cluster", "--algo", "ksc", "--graph", str(g), "--k", "3",
                 "--dump-embedding", str(tmp_path / "emb.txt"),
                 "--json", str(tmp_path / "c.json")]) == 0
    assert solves == [3]
