import csv
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import ellispec.io
from ellispec import (
    ConvergenceError,
    InvalidGraphError,
    InvalidPartitionError,
    Partition,
    RankError,
    bottom_k_eigs,
    read_graph,
    read_labels,
    synth_adjacency,
    write_graph,
    write_labels,
)
from ellispec import cli
from ellispec.cli import main
from ellispec.io import write_embedding

from conftest import dense, random_graph


# the 16-byte header of a VDS1 file holding 3 vectors of 2 features
VDS_HEADER_3x2 = b"VDS1" + (3).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(4)


def read_json_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestGraphFiles:
    def test_round_trip(self, rng, tmp_path):
        g = random_graph(rng, 15, density=0.3)
        path = tmp_path / "g.mtx"
        write_graph(g, path)
        back = read_graph(path)
        assert np.allclose(back.adjacency.toarray(), g.adjacency.toarray())

    def test_round_trip_dense_storage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ellispec.io, "BLOCK_ROWS", 4)  # 4 row blocks
        g = synth_adjacency([6, 7], 0.4, 3).graph
        assert isinstance(g.adjacency, np.ndarray)
        path, csr_path = tmp_path / "g.mtx", tmp_path / "csr.mtx"
        write_graph(g, path)
        # what write_graph writes for a CSR adjacency
        scipy.io.mmwrite(csr_path, sp.tril(sp.csr_matrix(g.adjacency)).tocoo(),
                         symmetry="symmetric")
        assert path.read_bytes() == csr_path.read_bytes()
        back = read_graph(path)
        np.testing.assert_allclose(dense(back.adjacency), g.adjacency,
                                   rtol=1e-12, atol=0)

    def test_dense_file_read_as_dense(self, tmp_path):
        g = synth_adjacency([30, 40], 0.5, 2).graph
        path = tmp_path / "g.mtx"
        write_graph(g, path)
        back = read_graph(path)
        assert isinstance(back.adjacency, np.ndarray)
        assert not back.adjacency.flags.writeable
        np.testing.assert_allclose(back.adjacency, g.adjacency,
                                   rtol=1e-12, atol=0)

    def test_dense_file_read_peak(self, tmp_path):
        # the parsed entries, both triangles, and the dense n x n array;
        # no CSR copy on the way
        n = 1000
        path = tmp_path / "g.mtx"
        write_graph(synth_adjacency([250] * 4, 0.5, 0).graph, path)
        tracemalloc.start()
        try:
            g = read_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(g.adjacency, np.ndarray) and g.n == n
        assert peak <= 4 * 8 * n * n

    def test_general_coordinate_file_read(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 2 1.5\n2 1 1.5\n")
        assert np.array_equal(dense(read_graph(path).adjacency),
                              [[0.0, 1.5], [1.5, 0.0]])

    def test_symmetric_header(self, rng, tmp_path):
        path = tmp_path / "g.mtx"
        write_graph(random_graph(rng, 8), path)
        header = path.read_text().splitlines()[0]
        assert "coordinate" in header
        assert "symmetric" in header

    def test_duplicate_coordinate_entries_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "2 1 1.0\n"
            "2 1 0.5\n"
            "3 1 2.0\n"
            "3 2 1.0\n"
        )
        g = read_graph(path)
        assert g.adjacency[1, 0] == 1.5
        assert g.adjacency[0, 1] == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_graph(tmp_path / "absent.mtx")

    @pytest.mark.parametrize("value", [b".5", b"5.", b"1e5", b"2.5E-1", b"1E+2",
                                       b"2.5\r", b"\t2.5 "])
    def test_number_forms_read(self, value, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                         b"% the header may hold anything: 1.0E \xea\n"
                         b"3 3 2\n2 1 " + value + b"\n3 2 2.0\n")
        assert read_graph(path).adjacency[1, 0] == float(value)

    def test_lines_cut_by_the_read_buffer(self, rng, tmp_path, monkeypatch):
        g = random_graph(rng, 12)
        path = tmp_path / "g.mtx"
        write_graph(g, path)
        lines = path.read_bytes().split(b"\n")
        # the 49-byte banner fits a buffer, and most lines straddle two
        monkeypatch.setattr(ellispec.io, "_SCAN_BYTES", 64)
        assert np.array_equal(dense(read_graph(path).adjacency), dense(g.adjacency))
        assert lines[2].split() == [b"12", b"12", str(len(lines) - 4).encode()]
        for i in range(3, len(lines) - 1):  # each entry line in turn
            path.write_bytes(b"\n".join(lines[:i] + [lines[i] + b"E"] + lines[i + 1:]))
            with pytest.raises(InvalidGraphError, match="is not numbers and blanks"):
                read_graph(path)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        p = Partition([2, 0, 1, 1, 0])
        path = tmp_path / "labels.txt"
        write_labels(p, path)
        assert read_labels(path) == p

    def test_one_based_on_disk(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(Partition([0, 1, 0]), path)
        assert path.read_text().split() == ["1", "2", "1"]

    def test_zero_label_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\n")
        with pytest.raises(InvalidPartitionError):
            read_labels(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n1.5\n2\n")
        with pytest.raises(InvalidPartitionError, match="must be integers"):
            read_labels(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(InvalidPartitionError):
            read_labels(path)


class TestEmbeddingDump:
    def test_layout(self, rng, tmp_path):
        g = random_graph(rng, 12)
        emb = bottom_k_eigs(g, 3)
        path = tmp_path / "emb.txt"
        write_embedding(emb, path)
        lines = path.read_text().splitlines()
        head = [float(v) for v in lines[0].split()]
        assert head[:3] == pytest.approx(list(emb.eigenvalues))
        assert head[3] == pytest.approx(emb.lambda_next)
        rows = np.array([[float(v) for v in line.split()] for line in lines[1:]])
        assert np.array_equal(rows, emb.P)


class TestCliPipeline:
    def test_sizes_with_and_without_a_count(self, tmp_path):
        truth = tmp_path / "truth.txt"
        assert main(["synth", "--sizes", "30,40,5x2", "--delta", "0.5",
                     "--out", str(tmp_path / "g.mtx"), "--truth", str(truth),
                     "--json", str(tmp_path / "rec.json")]) == 0
        assert np.bincount(read_labels(truth).labels).tolist() == [30, 40, 5, 5]

    def test_synth_cluster_eval_chain(self, tmp_path):
        g = tmp_path / "g.mtx"
        truth = tmp_path / "truth.txt"
        labels = tmp_path / "found.txt"
        rec = tmp_path / "rec.json"
        assert main(["synth", "--sizes", "20x4", "--delta", "0.0",
                     "--seed", "3", "--out", str(g), "--truth", str(truth),
                     "--json", str(rec)]) == 0
        synth_rec = read_json_lines(rec)[0]
        assert synth_rec["n"] == 80 and synth_rec["bound"] == 0.0

        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "4", "--truth", str(truth), "--out", str(labels),
                     "--json", str(rec)]) == 0
        cluster_rec = read_json_lines(rec)[0]
        assert cluster_rec["ac"] == 1.0
        assert cluster_rec["mcc"] == 0.0
        assert cluster_rec["elapsed_s"] > 0

        assert main(["eval", "--labels", str(labels), "--truth", str(truth),
                     "--graph", str(g), "--json", str(rec)]) == 0
        eval_rec = read_json_lines(rec)[0]
        assert eval_rec["ac"] == 1.0
        assert eval_rec["nmi"] == 1.0
        assert eval_rec["mcc"] == 0.0

    def test_elli_record_carries_solver_stats_and_timings(self, tmp_path):
        g = tmp_path / "g.mtx"
        rec = tmp_path / "rec.json"
        main(["synth", "--sizes", "15x3", "--delta", "0.4", "--out", str(g),
              "--json", str(rec)])
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "3", "--json", str(rec)]) == 0
        record = read_json_lines(rec)[0]
        assert set(record["timings"]) == {"embed_s", "mvee_s", "select_s", "assign_s"}
        stats = record["stats"]
        assert set(stats) == {"pricing_rounds", "iterations", "khachiyan_steps",
                              "newton_steps", "drop_steps", "working_set",
                              "support", "gap", "embed"}
        assert stats["embed"]["method"] == "eigh"
        assert stats["embed"]["matvecs"] == 0
        assert stats["embed"]["worst_residual"] <= 1e-8
        assert stats["embed"]["lambda_next"] == record["lambda_next"]
        embed = stats["embed"]
        assert embed["subspace_bound"] == (
            embed["worst_residual"] / (embed["lambda_next"] - embed["lambda_k"]))
        assert stats["gap"] <= record["mvee_eps"]
        assert record["active_count"] >= 3 and record["elapsed_s"] > 0

    def test_sweep_past_the_old_mvee_budget_failure(self, tmp_path):
        # seed 14 at delta 0.4 once ran out of MVEE iterations (exit 4)
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--suite", "balanced-desk", "--deltas",
                     "0,0.4,0.8,1.2", "--seed", "14", "--algos", "elli",
                     "--json", str(out)]) == 0
        assert [r["delta"] for r in read_json_lines(out)] == [0.0, 0.4, 0.8, 1.2]

    def test_ksc_records_deterministic_up_to_timing(self, tmp_path):
        g = tmp_path / "g.mtx"
        truth = tmp_path / "t.txt"
        main(["synth", "--sizes", "15x3", "--delta", "0.4", "--seed", "7",
              "--out", str(g), "--truth", str(truth), "--json",
              str(tmp_path / "s.json")])
        recs = []
        for name in ("a.json", "b.json"):
            main(["cluster", "--algo", "ksc", "--graph", str(g), "--k", "3",
                  "--trials", "4", "--seed", "11", "--truth", str(truth),
                  "--json", str(tmp_path / name)])
            batch = read_json_lines(tmp_path / name)
            for r in batch:
                r.pop("elapsed_s")
            recs.append(batch)
        assert recs[0] == recs[1]
        assert len(recs[0]) == 4
        assert [r["trial"] for r in recs[0]] == [0, 1, 2, 3]
        assert all(r["empty_repairs"] == 0 for r in recs[0])

    def test_knn_graph_command(self, tmp_path):
        X = np.abs(np.random.default_rng(2).standard_normal((12, 5))) + 0.1
        data = tmp_path / "data.csv"
        np.savetxt(data, X, delimiter=",")
        out = tmp_path / "knn.mtx"
        assert main(["knn-graph", "--data", str(data), "--p", "3",
                     "--out", str(out), "--json",
                     str(tmp_path / "r.json")]) == 0
        g = read_graph(out)
        assert g.n == 12
        assert read_json_lines(tmp_path / "r.json")[0]["p"] == 3

    def test_dump_embedding_option(self, tmp_path):
        g = tmp_path / "g.mtx"
        main(["synth", "--sizes", "10x2", "--delta", "0.5", "--out", str(g),
              "--json", str(tmp_path / "s.json")])
        dump = tmp_path / "emb.txt"
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "2", "--dump-embedding", str(dump),
                     "--json", str(tmp_path / "c.json")]) == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 3  # eigenvalue line + 2 coordinate rows
        assert len(lines[1].split()) == 20

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sizes", "12x3", "--deltas", "0.0,0.5",
                     "--trials", "3", "--seed", "1",
                     "--csv", str(out), "--json",
                     str(tmp_path / "sweep.json")]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["delta"] for r in rows] == ["0.0", "0.5"]
        assert list(rows[0]) == ["delta", "bound", "elli_mcc", "ksc_mcc_mean",
                                 "ksc_mcc_min", "ksc_mcc_max", "elli_ac",
                                 "ksc_ac_mean"]
        assert float(rows[0]["elli_mcc"]) == 0.0
        recs = read_json_lines(tmp_path / "sweep.json")
        assert len(recs) == 2
        assert {r["delta"] for r in recs} == {0.0, 0.5}

    def test_singleton_truth_cluster_bound_is_one(self, tmp_path):
        rec = tmp_path / "rec.json"
        assert main(["synth", "--sizes", "1,5", "--delta", "0.5",
                     "--out", str(tmp_path / "g.mtx"), "--json", str(rec)]) == 0
        record = read_json_lines(rec)[0]
        assert record["c_min"] == 0.0 and record["bound"] == 1.0
        assert main(["sweep", "--sizes", "1,5,5", "--deltas", "0.5",
                     "--trials", "2", "--json", str(rec)]) == 0
        assert [r["bound"] for r in read_json_lines(rec)] == [1.0]

    def test_sweep_records_are_reproducible(self, tmp_path):
        timing = {"elli_elapsed_s", "ksc_elapsed_s"}
        batches = []
        for run in ("1", "2"):
            out = tmp_path / f"sweep{run}.json"
            assert main(["sweep", "--sizes", "12x3", "--deltas", "0.0,0.3,0.6",
                         "--trials", "4", "--seed", "5", "--json", str(out)]) == 0
            batches.append([{key: v for key, v in r.items() if key not in timing}
                            for r in read_json_lines(out)])
        assert len(batches[0]) == 3
        assert batches[0] == batches[1]
        for r in batches[0]:
            assert r["ksc_iterations"] >= 4  # every trial takes a step
            assert r["elli_stats"]["embed"]["method"] == "eigh"

    @pytest.mark.parametrize("delta", [0.1, 1.0])
    def test_sweep_scores_each_partition_once(self, delta, monkeypatch):
        # the row equals, byte for byte, the row that scores every trial
        inst = next(cli.delta_sweep([15] * 4, [delta], seed=2))
        scored = []
        real_scores = cli._scores

        def counting_scores(*args):
            scored.append(args[0])
            return real_scores(*args)

        def row(**patches):
            for name, value in patches.items():
                monkeypatch.setattr(cli, name, value)
            scored.clear()
            out = cli._sweep_point(inst, ["ksc"], 20, 2)
            out.pop("ksc_elapsed_s")
            return json.dumps(out, sort_keys=True), len(scored)

        once, calls_once = row(_scores=counting_scores)
        every, calls_every = row(_canonical_bytes=lambda labels: object())
        assert once == every
        assert calls_every == 20
        # here the 20 trials give 13 distinct label vectors, and 1 (delta
        # 0.1) or 4 (delta 1.0) distinct partitions
        assert calls_once == {0.1: 1, 1.0: 4}[delta]

    @pytest.mark.parametrize("trials", [1, 2])
    def test_sweep_streams_instances(self, trials, tmp_path, monkeypatch):
        # a point's instance is dropped once its row exists, so the graph
        # just drawn is the only one alive, however many trials ksc runs
        real_sweep = cli.delta_sweep
        refs, alive = [], []

        def counting_sweep(*args, **kwargs):
            for inst in real_sweep(*args, **kwargs):
                refs.append(weakref.ref(inst.graph))
                alive.append(sum(ref() is not None for ref in refs))
                yield inst

        monkeypatch.setattr(cli, "delta_sweep", counting_sweep)
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--sizes", "12x3", "--deltas", "0.0,0.2,0.4,0.6,0.8,1.0",
                     "--algos", "elli,ksc", "--trials", str(trials),
                     "--json", str(out)]) == 0
        assert alive == [1] * 6
        assert [r["delta"] for r in read_json_lines(out)] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


class TestCliExitCodes:
    def test_missing_required_argument_is_usage(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--algo", "elli", "--graph", "g.mtx"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_bad_value_is_usage(self, tmp_path):
        g = tmp_path / "g.mtx"
        main(["synth", "--sizes", "8x2", "--delta", "0.2", "--out", str(g),
              "--json", str(tmp_path / "s.json")])
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "99", "--json", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("flag, value", [("--mvee-eps", "nan"),
                                             ("--tau-active", "nan"),
                                             ("--tau-active", "-0.001"),
                                             ("--tau-active", "0")],
                             ids=["--mvee-eps", "--tau-active", "--tau-active=-0.001",
                                  "--tau-active=0"])
    def test_non_finite_mvee_tolerance_is_usage(self, flag, value, tmp_path, capsys):
        g = tmp_path / "g.mtx"
        main(["synth", "--sizes", "8x2", "--delta", "0.2", "--out", str(g),
              "--json", str(tmp_path / "s.json")])
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "2", flag, value,
                     "--json", str(tmp_path / "c.json")]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("algos", ["elli,kmeans", "", "ksc,"])
    def test_unknown_sweep_algo_is_usage(self, algos, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(cli, "delta_sweep", no_draw)
        assert main(["sweep", "--sizes", "20x3", "--deltas", "0.3",
                     "--algos", algos]) == 2
        bad = "kmeans" if "kmeans" in algos else ""
        assert f"bad --algos value {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        ConvergenceError("ARPACK converged 0 of 3 eigenpairs", achieved=None),
        RankError("candidate columns collapsed after 1 of 2 selections",
                  numerical_rank=1),
    ], ids=["convergence", "rank"])
    def test_numerical_failure_is_exit_4(self, error, tmp_path, monkeypatch, capsys):
        g = tmp_path / "g.mtx"
        main(["synth", "--sizes", "8x2", "--delta", "0.2", "--out", str(g),
              "--json", str(tmp_path / "s.json")])

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "elli_cluster", failing)
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "2"]) == 4
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("args, message", [
        (["--sizes", "30,0"], "bad --sizes value: '30,0'"),
        (["--sizes", "30,10x-1"], "bad --sizes value: '30,10x-1'"),
        (["--sizes", "30,10x0"], "bad --sizes value: '30,10x0'"),
        ([], "sweep needs --suite or --sizes"),
    ], ids=["bad-size", "negative-count", "zero-count", "no-sizes"])
    def test_bad_sweep_sizes_are_usage(self, args, message, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(cli, "delta_sweep", no_draw)
        assert main(["sweep", "--deltas", "0.3", *args]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_huge_label_is_partition_error(self, tmp_path, capsys):
        # rejected before a count array is sized by the largest label
        labels, truth = tmp_path / "labels.txt", tmp_path / "truth.txt"
        labels.write_text("1\n2\n3000000000\n")
        truth.write_text("1\n2\n2\n")
        assert main(["eval", "--labels", str(labels), "--truth", str(truth)]) == 5
        assert "3000000000 nonempty clusters" in capsys.readouterr().err

    def test_missing_file_is_io(self, tmp_path):
        assert main(["cluster", "--algo", "elli", "--k", "2",
                     "--graph", str(tmp_path / "missing.mtx")]) == 3

    def test_invalid_labels_is_partition_error(self, tmp_path):
        g = tmp_path / "g.mtx"
        main(["synth", "--sizes", "8x2", "--delta", "0.2", "--out", str(g),
              "--json", str(tmp_path / "s.json")])
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n" * 16)
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "2", "--truth", str(bad),
                     "--json", str(tmp_path / "c.json")]) == 5

    def test_non_integer_labels_are_partition_error(self, tmp_path):
        g = tmp_path / "g.mtx"
        main(["synth", "--sizes", "8x2", "--delta", "0.2", "--out", str(g),
              "--json", str(tmp_path / "s.json")])
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n1.5\n" + "2\n" * 14)
        assert main(["cluster", "--algo", "elli", "--graph", str(g),
                     "--k", "2", "--truth", str(bad),
                     "--json", str(tmp_path / "c.json")]) == 5

    @pytest.mark.parametrize("header, body", [
        ("array real symmetric", "3 3\n0\n1\n1\n0\n1\n0\n"),
        ("coordinate pattern symmetric", "3 3 3\n2 1\n3 1\n3 2\n"),
    ])
    def test_array_and_pattern_files_are_invalid_graph(self, header, body,
                                                       tmp_path, capsys):
        path = tmp_path / "g.mtx"
        path.write_text(f"%%MatrixMarket matrix {header}\n{body}")
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
        assert header in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        # truncated: the size line promises three entries
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1.0\n",
        "%%MatrixMarket matrix coordinate real bogus\n2 2 1\n2 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 1 1.0\n",
        "2 2 1\n2 1 1.0\n",  # no banner
        "",
    ], ids=["truncated", "bad-header", "index-out-of-range", "no-banner",
            "empty"])
    def test_malformed_files_are_invalid_graph(self, text, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
        assert f"{path}: malformed Matrix Market file" in capsys.readouterr().err

    @pytest.mark.parametrize("last", [
        b"2 1 1.0E", b"2 1 1.0e", b"2 1 1.0E+", b"2 1 1.0E-", b"2 1 1e",
        b"2 1 1.0\xea",
        b"2 1 1.0\x00\n",
        b"99999999999999999999 1 1.0\n",
    ], ids=["exponent-E", "exponent-e", "exponent-E+", "exponent-E-",
            "exponent-1e", "stray-byte-at-end", "nul-byte", "huge-index"])
    def test_files_that_crash_the_parser_exit_5(self, last, tmp_path):
        # in a child process: SciPy 1.17's mmread dies with SIGSEGV on the
        # first three kinds and raises OverflowError on the last
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                         b"2 2 1\n" + last)
        src = Path(ellispec.io.__file__).parents[1]
        child = subprocess.run(
            [sys.executable, "-m", "ellispec.cli", "cluster", "--algo", "elli",
             "--graph", str(path), "--k", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert child.returncode == 5, child.stderr
        assert f"{path}: malformed Matrix Market file" in child.stderr

    @pytest.mark.parametrize("line", [
        b"2 1 1.0E", b"3 2 2.5\xea", b"2 1 1..0", b"2 1 1.5.", b"2 1 1e5.5",
        b"2 1 0x1p3", b"2 1 1.0 x", b"2 1 1,5",
    ], ids=["exponent-cut-short", "stray-byte", "two-points", "trailing-point",
            "point-in-exponent", "hex", "extra-field", "comma"])
    def test_damaged_values_exit_5(self, line, tmp_path, capsys):
        # SciPy 1.17's mmread reads each of these newline-ended lines as the
        # longest number at the start of the value, dropping the rest
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                         b"3 3 2\n" + line + b"\n3 1 1.0\n")
        with pytest.raises(InvalidGraphError, match="is not numbers and blanks"):
            read_graph(path)
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
        assert f"{path}: malformed Matrix Market file" in capsys.readouterr().err

    @pytest.mark.parametrize("size, message", [
        ("3000000000 3000000000 1", "a 3000000000 x 3000000000 matrix with 1 "
                                    "stored entries"),
        ("3 2 2", "a 3 x 2 matrix with 2 stored entries"),
    ], ids=["huge", "non-square"])
    def test_size_line_without_edges_for_every_node_is_invalid_graph(
            self, size, message, tmp_path, capsys):
        # rejected before mmread allocates by the size line
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{size}\n2 1 1.0\n")
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight_is_invalid_graph(self, weight, tmp_path, capsys):
        path = tmp_path / "nonfinite.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            f"2 1 {weight}\n"
            "3 1 1.0\n"
            "3 2 1.0\n"
        )
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
        assert f"found {weight}" in capsys.readouterr().err

    def test_complex_weights_are_invalid_graph(self, tmp_path, capsys):
        path = tmp_path / "complex.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex symmetric\n"
            "3 3 3\n"
            "2 1 1.0 0.5\n"
            "3 1 1.0 0.0\n"
            "3 2 1.0 0.0\n"
        )
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
        assert "must be real" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_is_invalid_vector_file(self, value, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(f"1,2\n3,{value}\n2,1\n")
        assert main(["knn-graph", "--data", str(data), "--p", "1",
                     "--out", str(tmp_path / "knn.mtx")]) == 5
        assert f"{data}: row 1 contains a non-finite feature" in capsys.readouterr().err

    @pytest.mark.parametrize("name, payload, message", [
        ("cut.vds", VDS_HEADER_3x2 + b"\x00" * 40, "truncated payload (5 of 6 values)"),
        ("empty.vds", b"", "not a VDS1 file"),
        ("magic.vds", b"VDS2" + VDS_HEADER_3x2[4:] + b"\x00" * 48, "not a VDS1 file"),
        ("empty.csv", b"", "no features: the data matrix is (0, 1)"),
        ("text.csv", b"1,2\n3,x\n", "could not convert string 'x'"),
        ("ragged.csv", b"1,2\n3,4,5\n", "the number of columns changed from 2 to 3"),
        ("negative.csv", b"1,2\n3,-4\n2,1\n", "row 1 contains a negative feature"),
        ("zero.vds", VDS_HEADER_3x2 + np.array([1.0, 2, 0, 0, 2, 1]).astype("<f8").tobytes(),
         "row 1 is a zero vector"),
    ], ids=["truncated", "empty", "wrong-magic", "empty-csv", "non-numeric",
            "ragged", "negative", "zero-row"])
    def test_malformed_vector_file_is_invalid(self, name, payload, message,
                                              tmp_path, capsys):
        data = tmp_path / name
        data.write_bytes(payload)
        out = tmp_path / "knn.mtx"
        assert main(["knn-graph", "--data", str(data), "--p", "1",
                     "--out", str(out)]) == 5
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_asymmetric_matrix_is_invalid_graph(self, tmp_path):
        path = tmp_path / "asym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "1 2 1.0\n"
            "2 3 1.0\n"
        )
        assert main(["cluster", "--algo", "elli", "--graph", str(path),
                     "--k", "2"]) == 5
