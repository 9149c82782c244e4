import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellispec import RankError, group_columns, spa_select, synth_adjacency
from ellispec import elli as elli_module

from conftest import planted_columns, random_orthogonal, reference_spa_select


def test_candidate_set_of_size_k_returned_whole():
    P = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]])
    assert set(spa_select(P, [0, 1], 2)) == {0, 1}


def test_hand_trace_projection():
    # columns 3e1, 2e2, e1: pick 3e1 first, then e1's residual vanishes
    P = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
    assert spa_select(P, [0, 1, 2], 2) == [0, 1]


def test_full_scale_columns_beat_their_halves(rng):
    k = 4
    d = np.diag(rng.uniform(1.0, 3.0, k))
    P = np.column_stack([d, 0.5 * d])
    assert sorted(spa_select(P, range(2 * k), k)) == list(range(k))


def test_output_distinct_and_contained(rng):
    P = rng.standard_normal((3, 20))
    cand = [2, 5, 7, 11, 13, 17]
    sel = spa_select(P, cand, 3)
    assert len(set(sel)) == 3
    assert set(sel) <= set(cand)


def test_rotation_invariance(rng):
    P = rng.standard_normal((4, 30))
    q = random_orthogonal(rng, 4)
    assert spa_select(P, range(30), 4) == spa_select(q @ P, range(30), 4)


def test_separable_recovery(rng):
    # clean separable input: selection lands exactly on the basis columns
    for _ in range(10):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k + 2, 30))
        s = rng.standard_normal((k, k))
        while np.linalg.cond(s) > 50:
            s = rng.standard_normal((k, k))
        h = rng.uniform(size=(k, n - k))
        h *= (rng.uniform(0.1, 0.95, n - k) / h.sum(axis=0))[None, :]
        perm = rng.permutation(n)
        P = np.column_stack([s, s @ h])[:, perm]
        basis = sorted(int(np.flatnonzero(perm == i)[0]) for i in range(k))
        assert sorted(spa_select(P, range(n), k)) == basis


def test_rank_collapse_reported():
    P = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(RankError) as err:
        spa_select(P, [0, 1, 2], 2)
    assert err.value.numerical_rank == 1


def test_too_few_candidates():
    P = np.eye(3)
    with pytest.raises(ValueError):
        spa_select(P, [0], 2)


@st.composite
def gaussian_inputs(draw):
    """A k x m Gaussian P from a seeded generator, and a candidate list."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(k, 60))
    P = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((k, m))
    return P, draw(st.lists(st.integers(0, m - 1), min_size=k, unique=True)), k


@st.composite
def embedding_inputs(draw):
    """A synthetic graph's bottom-k embedding, and a candidate list."""
    sizes = draw(st.lists(st.integers(3, 12), min_size=2, max_size=5))
    delta = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    k = len(sizes)
    graph = synth_adjacency(sizes, delta, draw(st.integers(0, 2**32 - 1))).graph
    P = elli_module.graph_embedding(graph, k).P
    return P, draw(st.lists(st.integers(0, graph.n - 1), min_size=k, unique=True)), k


@settings(max_examples=200, deadline=None)
@given(st.one_of(gaussian_inputs(), embedding_inputs()))
def test_matches_reference_selection(case):
    # entries come from a generator, not hypothesis floats, so no two
    # candidates tie exactly and the pick order is unique
    P, cand, k = case
    assert spa_select(P, cand, k) == reference_spa_select(P, cand, k)


def test_twin_columns_give_the_reference_partition(rng, monkeypatch):
    # a duplicated representative puts k + 1 columns on the boundary, and
    # the two twins tie exactly in the thinning
    P0, _, stats = planted_columns(rng, [5, 7, 6])
    P = np.column_stack([P0, P0[:, stats["representatives"][1]]])
    result = group_columns(P)
    assert result.active_count == 4
    monkeypatch.setattr(elli_module, "spa_select", reference_spa_select)
    assert group_columns(P).partition == result.partition


def test_non_finite_column_rejected(rng):
    P = rng.standard_normal((3, 10))
    P[:, 4] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        spa_select(P, range(10), 3)
