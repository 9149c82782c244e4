"""Command-line surface: synth, knn-graph, cluster, eval, sweep.

Output is machine-readable JSON lines (one record per trial or sweep
point); sweeps can additionally emit CSV.  Exit codes: 0 success,
1 unexpected internal error (a Python traceback), 2 usage, 3 I/O,
4 numerical failure, 5 invalid graph or partition (a malformed graph
file included).
"""

from __future__ import annotations

import argparse
import csv as csvmod
import json
import sys
from functools import partial

import numpy as np

from . import __version__
from ._errors import ConvergenceError, InvalidGraphError, InvalidPartitionError, RankError
from .elli import elli_cluster, graph_embedding
from .graph import partition_profile
from .ingest import cosine_knn_graph, load_csv, load_vds
from .io import read_graph, read_labels, write_embedding, write_graph, write_labels
from .ksc import ksc_cluster
from .metrics import accuracy, nmi, timed
from .mvee import DEFAULT_EPS, DEFAULT_TAU_ACTIVE
from .synth import (
    DEFAULT_DELTAS,
    conductance_bound,
    delta_sweep,
    standard_suites,
    synth_adjacency,
)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_INVALID_GRAPH = 5
SWEEP_ALGOS = ("elli", "ksc")


def _parse_sizes(text):
    """'100x10' -> ten clusters of 100 nodes; terms separated by commas.
    A size or a count below 1 is rejected."""
    terms = [term.split("x") if "x" in term else (term, 1) for term in text.split(",")]
    terms = [(int(size), int(count)) for size, count in terms]
    if any(size < 1 or count < 1 for size, count in terms):
        raise ValueError(f"bad --sizes value: {text!r}")
    return [size for size, count in terms for _ in range(count)]


def _emit(records, json_path):
    lines = [json.dumps(r, sort_keys=True) for r in records]
    if json_path:
        with open(json_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)


def _base_record(args, algo, k):
    return {
        "algo": algo,
        "k": k,
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }


def _cmd_synth(args):
    sizes = _parse_sizes(args.sizes)
    inst = synth_adjacency(sizes, args.delta, np.random.default_rng(args.seed),
                           permute=args.permute)
    write_graph(inst.graph, args.out)
    if args.truth:
        write_labels(inst.truth, args.truth)
    record = _base_record(args, "synth", len(sizes))
    record.update({
        "delta": args.delta,
        "n": inst.graph.n,
        "c_min": inst.c_min,
        "bound": conductance_bound(inst.c_min, args.delta),
        "sizes": args.sizes,
        "permute": args.permute,
    })
    _emit([record], args.json)
    return 0


def _cmd_knn_graph(args):
    data = (load_vds if args.data.endswith(".vds") else load_csv)(args.data)
    graph = cosine_knn_graph(data, args.p)
    write_graph(graph, args.out)
    record = {"algo": "knn-graph", "n": graph.n, "p": args.p,
              "version": __version__}
    _emit([record], args.json)
    return 0


def _scores(partition, graph=None, truth=None):
    """mcc and sum_conductance on the graph, ac and nmi against the truth;
    each pair only when its reference is given."""
    scores = {}
    if graph is not None:
        profile = partition_profile(graph, partition)
        scores.update(mcc=profile["mcc"], sum_conductance=profile["sum"])
    if truth is not None:
        scores.update(ac=accuracy(partition, truth), nmi=nmi(partition, truth))
    return scores


def _cmd_cluster(args):
    graph = read_graph(args.graph)
    truth = read_labels(args.truth) if args.truth else None
    if args.dump_embedding:
        # the graph keeps this embedding, so the clustering below reuses it
        write_embedding(graph_embedding(graph, args.k), args.dump_embedding)

    records = []
    if args.algo == "elli":
        result, elapsed = timed(
            elli_cluster, graph, args.k,
            mvee_eps=args.mvee_eps, tau_active=args.tau_active,
        )
        record = _base_record(args, "elli", args.k)
        record.update(_scores(result.partition, graph, truth))
        record.update({
            "lambda_next": result.lambda_next,
            "elapsed_s": elapsed,
            "active_count": result.active_count,
            "tau_active": args.tau_active,
            "mvee_eps": args.mvee_eps,
            "stats": result.stats,
            "timings": result.timings,
        })
        records.append(record)
        best = result.partition
    else:
        runs = ksc_cluster(graph, args.k, trials=args.trials, seed=args.seed)
        for t, run in enumerate(runs):
            record = _base_record(args, "ksc", args.k)
            record.update(_scores(run.partition, graph, truth))
            record.update({
                "trial": t,
                "lambda_next": run.lambda_next,
                "cost": run.cost,
                "iterations": run.iterations,
                "empty_repairs": run.empty_repairs,
                "elapsed_s": run.elapsed_s,
            })
            records.append(record)
        # labels on disk = the lowest-cost trial (first on ties)
        best = min(runs, key=lambda r: r.cost).partition
    if args.out:
        write_labels(best, args.out)
    _emit(records, args.json)
    return 0


def _cmd_eval(args):
    labels = read_labels(args.labels)
    truth = read_labels(args.truth)
    graph = read_graph(args.graph) if args.graph else None
    record = {"algo": "eval", "k": labels.k, "version": __version__}
    record.update(_scores(labels, graph, truth))
    _emit([record], args.json)
    return 0


def _canonical_bytes(labels):
    """Label bytes with clusters renumbered by first occurrence, so equal
    partitions give equal bytes whatever their cluster ids."""
    first = np.unique(labels, return_index=True)[1]
    return np.argsort(np.argsort(first))[labels].tobytes()


def _sweep_point(inst, algos, trials, seed):
    row = {
        "delta": inst.delta,
        "bound": conductance_bound(inst.c_min, inst.delta),
    }
    if "elli" in algos:
        result, elapsed = timed(elli_cluster, inst.graph, inst.truth.k)
        scores = _scores(result.partition, inst.graph, inst.truth)
        row["elli_mcc"] = scores["mcc"]
        row["elli_ac"] = scores["ac"]
        row["elli_elapsed_s"] = elapsed
        row["elli_stats"] = result.stats
    if "ksc" in algos:
        runs, elapsed = timed(
            ksc_cluster, inst.graph, inst.truth.k, trials=trials, seed=seed,
        )
        # mcc and ac do not depend on cluster ids: score each distinct
        # partition once
        by_partition = {}
        scores = []
        for r in runs:
            key = _canonical_bytes(r.partition.labels)
            if key not in by_partition:
                by_partition[key] = _scores(r.partition, inst.graph, inst.truth)
            scores.append(by_partition[key])
        mccs = [s["mcc"] for s in scores]
        acs = [s["ac"] for s in scores]
        row["ksc_mcc_mean"] = float(np.mean(mccs))
        row["ksc_mcc_min"] = float(np.min(mccs))
        row["ksc_mcc_max"] = float(np.max(mccs))
        row["ksc_ac_mean"] = float(np.mean(acs))
        row["ksc_iterations"] = sum(r.iterations for r in runs)
        row["ksc_elapsed_s"] = elapsed
    return row


def _cmd_sweep(args):
    if args.suite:
        sizes = standard_suites()[args.suite]
    elif args.sizes:
        sizes = _parse_sizes(args.sizes)
    else:
        raise ValueError("sweep needs --suite or --sizes")
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in SWEEP_ALGOS:
            raise ValueError(f"bad --algos value {algo!r}: each name must be "
                             f"one of {', '.join(SWEEP_ALGOS)}")
    deltas = [float(v) for v in args.deltas.split(",")] if args.deltas else DEFAULT_DELTAS
    # one point at a time, in order: BLAS already runs each point's products
    # on every core, and each instance, with its adjacency and embedding, is
    # dropped once its row exists, before the next W is built
    point = partial(_sweep_point, algos=algos, trials=args.trials, seed=args.seed)
    rows = list(map(point, delta_sweep(sizes, deltas, seed=args.seed)))
    records = [{"algo": "sweep", "k": len(sizes), "seed": args.seed,
                "trials": args.trials, "version": __version__, **row} for row in rows]
    _emit(records, args.json)
    if args.csv:
        fields = ["delta", "bound", "elli_mcc", "ksc_mcc_mean", "ksc_mcc_min",
                  "ksc_mcc_max", "elli_ac", "ksc_ac_mean"]
        fields = [f for f in fields if any(f in r for r in rows)]
        with open(args.csv, "w", newline="") as fh:
            writer = csvmod.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellispec",
        description="Graph clustering via an ellipsoid-based grouping stage, "
                    "with a k-means spectral baseline and conductance metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark graph")
    p.add_argument("--sizes", required=True,
                   help="cluster sizes, e.g. 100x10 or 1000x3,50x140")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--permute", action="store_true",
                   help="shuffle node ids (truth follows)")
    p.add_argument("--out", required=True, help="adjacency output (.mtx)")
    p.add_argument("--truth", help="ground-truth label output")
    p.add_argument("--json", help="write the run record here instead of stdout")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("knn-graph",
                       help="cosine-similarity p-nearest-neighbor graph")
    p.add_argument("--data", required=True, help="CSV or .vds feature vectors")
    p.add_argument("--p", type=int, required=True, help="neighbor size")
    p.add_argument("--out", required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_knn_graph)

    p = sub.add_parser("cluster", help="cluster a graph")
    p.add_argument("--algo", choices=["elli", "ksc"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau-active", type=float, default=DEFAULT_TAU_ACTIVE)
    p.add_argument("--mvee-eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", help="if given, records include ac and nmi")
    p.add_argument("--out", help="label output file")
    p.add_argument("--json")
    p.add_argument("--dump-embedding", help="debug dump of P and eigenvalues")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("eval", help="score labels against ground truth")
    p.add_argument("--labels", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--graph", help="if given, records include mcc")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="delta sweep over a synthetic suite")
    p.add_argument("--suite", choices=sorted(standard_suites()))
    p.add_argument("--sizes")
    p.add_argument("--algos", default="elli,ksc",
                   help="comma-separated names from: elli, ksc")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deltas", help="comma-separated values, default 0..2 step 0.1")
    p.add_argument("--csv")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidGraphError, InvalidPartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_GRAPH
    except (ConvergenceError, RankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
