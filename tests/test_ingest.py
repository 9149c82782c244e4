import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellispec import InvalidGraphError, VectorDataset, cosine_knn_graph, load_csv, load_vds
from ellispec import ingest
from ellispec.ingest import save_vds

from conftest import dense, reference_cosine_knn_graph


def brute_cosine_knn(X, p):
    """Straightforward per-row neighbor scan for the OR rule."""
    n = X.shape[0]
    unit = X / np.linalg.norm(X, axis=1)[:, None]
    sims = unit @ unit.T
    w = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        ranked = sorted(others, key=lambda j: -sims[i, j])
        cutoff = sims[i, ranked[p - 1]]
        for j in others:
            if sims[i, j] >= cutoff:
                w[i, j] = w[j, i] = sims[i, j]
    w[w <= 0] = 0.0
    return w


class TestDataset:
    def test_negative_feature_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            VectorDataset(np.array([[1.0, 2.0], [3.0, -1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        X = np.ones((3, 2))
        X[2, 0] = value
        with pytest.raises(ValueError, match="row 2 contains a non-finite"):
            VectorDataset(X)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            VectorDataset(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_shape_accessors(self):
        ds = VectorDataset(np.ones((4, 7)))
        assert ds.n == 4 and ds.d == 7


class TestFileFormats:
    def test_csv_round_trip(self, tmp_path):
        X = np.abs(np.random.default_rng(0).standard_normal((5, 3))) + 0.1
        path = tmp_path / "data.csv"
        np.savetxt(path, X, delimiter=",")
        ds = load_csv(path)
        assert np.allclose(ds.X, X)

    def test_vds_round_trip(self, tmp_path):
        X = np.abs(np.random.default_rng(1).standard_normal((6, 4))) + 0.1
        path = tmp_path / "data.vds"
        save_vds(VectorDataset(X), path)
        assert path.stat().st_size == 16 + 6 * 4 * 8
        ds = load_vds(path)
        assert np.array_equal(ds.X, X)

    def test_vds_header_layout(self, tmp_path):
        path = tmp_path / "tiny.vds"
        save_vds(VectorDataset(np.array([[1.5, 2.5]])), path)
        raw = path.read_bytes()
        assert raw[:4] == b"VDS1"
        assert np.frombuffer(raw[4:12], dtype="<u4").tolist() == [1, 2]
        assert raw[12:16] == b"\x00" * 4
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.5, 2.5]

    def test_vds_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vds"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(InvalidGraphError, match=f"{path}: not a VDS1"):
            load_vds(path)

    def test_vds_truncated(self, tmp_path):
        path = tmp_path / "cut.vds"
        save_vds(VectorDataset(np.ones((3, 3))), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidGraphError, match=f"{path}: truncated"):
            load_vds(path)


def assert_matches_brute_force(X, p):
    w = dense(cosine_knn_graph(VectorDataset(X), p).adjacency)
    assert np.array_equal(w, w.T)  # bitwise symmetric
    np.testing.assert_allclose(w, brute_cosine_knn(X, p),
                               rtol=0, atol=1e-12)


class TestKnnGraph:
    def test_matches_brute_force(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 25))
            X = rng.uniform(0.05, 1.0, size=(n, int(rng.integers(3, 8))))
            assert_matches_brute_force(X, int(rng.integers(1, n - 1)))

    def test_or_rule_keeps_one_sided_neighbors(self):
        # with p=1: node 1 names node 2 but node 2 names node 0, so the
        # edge (1,2) survives only through the one-sided OR rule
        X = np.array([[1.0, 0.0], [0.96, 0.28], [0.999, 0.045]])
        graph = cosine_knn_graph(VectorDataset(X), 1)
        w = dense(graph.adjacency)
        assert w[1, 2] > 0 and w[0, 2] > 0 and w[0, 1] == 0
        assert np.allclose(w, w.T)

    def test_ties_at_rank_p_all_kept(self):
        # rows 1 and 2 are equally similar to row 0; a rank-1 tie keeps both
        X = np.array([[1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0],
                      [1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0]])
        graph = cosine_knn_graph(VectorDataset(X), 1)
        w = dense(graph.adjacency)
        assert w[0, 1] == pytest.approx(np.sqrt(0.5))
        assert w[0, 2] == pytest.approx(np.sqrt(0.5))
        assert w[0, 3] == 0.0

    @pytest.mark.parametrize("block_rows", [1, 128])
    def test_duplicate_vectors_tie_in_any_block(self, block_rows, monkeypatch):
        # the 11 copies are equally similar to row 0, but a block product
        # can round their cosines a few ulps apart; all 11 stay neighbors
        monkeypatch.setattr(ingest, "KNN_BLOCK_ROWS", block_rows)
        X = np.array([[0.5, 1.0, 1.0]] + [[1.0, 1.0, 1.0]] * 11)
        graph = cosine_knn_graph(VectorDataset(X), 1)
        assert np.count_nonzero(dense(graph.adjacency)[0]) == 11

    def test_no_self_loops(self, rng):
        X = rng.uniform(0.1, 1.0, size=(10, 4))
        graph = cosine_knn_graph(VectorDataset(X), 3)
        assert np.all(graph.adjacency.diagonal() == 0.0)

    def test_weights_are_cosines(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        graph = cosine_knn_graph(VectorDataset(X), 2)
        w = dense(graph.adjacency)
        assert w[0, 1] == pytest.approx(np.sqrt(0.5))
        assert w[0, 2] == 0.0  # orthogonal vectors carry no edge weight

    def test_orthogonal_isolate_rejected(self):
        X = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 1.0, 1e-3]])
        with pytest.raises(InvalidGraphError, match="node 0"):
            cosine_knn_graph(VectorDataset(X), 1)

    def test_p_out_of_range(self):
        ds = VectorDataset(np.ones((4, 2)))
        with pytest.raises(ValueError):
            cosine_knn_graph(ds, 0)
        with pytest.raises(ValueError):
            cosine_knn_graph(ds, 4)

    def test_full_p_gives_complete_graph(self, rng):
        X = rng.uniform(0.1, 1.0, size=(8, 3))
        graph = cosine_knn_graph(VectorDataset(X), 7)
        w = dense(graph.adjacency)
        assert np.all(w[~np.eye(8, dtype=bool)] > 0.0)


class TestKnnBlocks:
    """Similarities are built three rows at a time, so that edges, ties and
    the last, short block all fall across block edges."""

    @pytest.fixture(autouse=True)
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "KNN_BLOCK_ROWS", 3)

    def test_matches_brute_force(self, rng):
        for n in (6, 7, 8, 13):
            X = rng.uniform(0.05, 1.0, size=(n, int(rng.integers(3, 8))))
            assert_matches_brute_force(X, int(rng.integers(1, n - 1)))

    def test_or_edge_across_blocks(self):
        # p=1: node 6 (block 2) names node 1 (block 0), which names node 0,
        # so the edge (1, 6) exists only through the OR rule
        angles = np.array([0.0, 0.05, 1.2, 1.25, 1.5, 1.45, 0.3])
        X = np.column_stack([np.cos(angles), np.sin(angles)])
        w = dense(cosine_knn_graph(VectorDataset(X), 1).adjacency)
        assert w[1, 6] > 0 and w[0, 6] == 0
        assert_matches_brute_force(X, 1)

    def test_tie_across_blocks(self):
        # rows 2 (block 0) and 3 (block 1) tie exactly as row 0's nearest
        X = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0],
                      [1.0, 0.0, 1.0]])
        w = dense(cosine_knn_graph(VectorDataset(X), 1).adjacency)
        assert w[0, 2] == w[0, 3] == pytest.approx(np.sqrt(0.5))
        assert w[0, 1] == 0.0
        assert_matches_brute_force(X, 1)

    def test_full_p_gives_complete_graph(self, rng):
        X = rng.uniform(0.1, 1.0, size=(8, 3))
        w = dense(cosine_knn_graph(VectorDataset(X), 7).adjacency)
        assert np.all(w[~np.eye(8, dtype=bool)] > 0.0)
        assert_matches_brute_force(X, 7)


@st.composite
def knn_inputs(draw):
    n = draw(st.integers(3, 16))
    X = draw(arrays(np.float64, (n, draw(st.integers(2, 5))),
                    elements=st.floats(0.05, 1.0)))
    return X, draw(st.integers(1, n - 1)), draw(st.integers(1, n + 1))


def rank_p_is_separated(X, p):
    """Whether every row's p-th and (p+1)-th largest similarities differ by
    more than rounding.  Otherwise a tie in exact arithmetic (duplicate
    vectors, say) can round apart one way in a product of a block of rows
    and another way in the full product, and the neighbor sets differ."""
    unit = X / np.linalg.norm(X, axis=1)[:, None]
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    ranked = -np.sort(-sims, axis=1)
    return p == X.shape[0] - 1 or bool(np.all(ranked[:, p - 1] - ranked[:, p] > 1e-9))


@settings(max_examples=200, deadline=None)
@given(knn_inputs())
def test_blocked_build_matches_brute_force(case):
    X, p, block_rows = case
    assume(rank_p_is_separated(X, p))
    with mock.patch.object(ingest, "KNN_BLOCK_ROWS", block_rows):
        assert_matches_brute_force(X, p)


@st.composite
def knn_tie_inputs(draw):
    """Vectors drawn as copies of a few distinct rows, many entries zero, so
    that duplicate rows tie exactly and some rows' p-th similarity is 0;
    p = n - 1 half the time; block and screening-chunk sizes drawn too."""
    d = draw(st.integers(2, 5))
    base = draw(arrays(np.float64, (draw(st.integers(1, 8)), d),
                       elements=st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0])
                       | st.floats(0.01, 1.0)))
    base[~base.any(axis=1), 0] = 1.0
    n = draw(st.integers(2, 24))
    X = base[draw(arrays(np.int64, n, elements=st.integers(0, len(base) - 1)))]
    p = draw(st.just(n - 1) | st.integers(1, n - 1))
    return X, p, draw(st.integers(1, n + 1)), draw(st.integers(1, 8))


def build_or_error(build, dataset, p):
    try:
        return build(dataset, p)
    except InvalidGraphError as exc:
        return str(exc)


# duplicate rows at a tie; every p-th similarity 0 (orthogonal pairs);
# n = p + 1; one-row blocks
@example((np.array([[0.5, 1.0, 1.0]] + [[1.0, 1.0, 1.0]] * 11), 1, 16, 2))
@example((np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), 2, 3, 1))
@example((np.array([[1.0, 0.2], [0.3, 1.0], [1.0, 1.0]]), 2, 1, 1))
@settings(max_examples=300, deadline=None)
@given(knn_tie_inputs())
def test_screened_selection_matches_reference_bit_for_bit(case):
    X, p, block_rows, screen_cols = case
    dataset = VectorDataset(X)
    with mock.patch.object(ingest, "KNN_BLOCK_ROWS", block_rows), \
            mock.patch.object(ingest, "KNN_SCREEN_COLS", screen_cols):
        got = build_or_error(cosine_knn_graph, dataset, p)
        want = build_or_error(reference_cosine_knn_graph, dataset, p)
    if isinstance(want, str):
        assert got == want
        return
    a, b = got.adjacency, want.adjacency
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):  # a graph at least half full is kept dense
        assert np.array_equal(a, b)
        return
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(b, part)), part


def test_memory_stays_below_one_similarity_matrix():
    # a quarter of one 4000 x 4000 float64 array; building the whole
    # similarity matrix peaked at 417 MB here
    X = np.random.default_rng(0).uniform(0.05, 1.0, size=(4000, 16))
    dataset = VectorDataset(X)
    tracemalloc.start()
    try:
        cosine_knn_graph(dataset, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 4000 * 8 / 4
