"""Span tracing around the package's layer boundaries.

The tracer replaces public functions by wrappers under the names their
callers use (``ellispec.elli.bottom_k_eigs`` is the name ``elli_cluster``
calls, ``ellispec.ksc.bottom_k_eigs`` the one ``ksc_cluster`` calls), so
no source file of the package changes.  Each wrapped call records a span
(name, start, end, parent) in memory; ``restore`` puts the originals back.
A name that no longer exists is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import weakref
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # layer counters recorded at the boundaries
        self.values = defaultdict(list)
        self.failed = Counter()
        self.absent = []
        self._stack = []
        self._undo = []
        self._graphs = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self, error=None):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        if error is not None:
            self.failed[(span[0], type(error).__name__)] += 1

    def _wrap_function(self, fn, name, on_call, on_result):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # the work of a generator happens in next(): one span per item
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        # the last next() made no item: not an instance
                        tracer.spans[tracer._stack[-1]][0] = f"{name}.exhausted"
                        tracer._close()
                        return
                    except BaseException as exc:
                        tracer._close(exc)
                        raise
                    tracer._close()
                    if on_result is not None:
                        on_result(tracer, args, kwargs, item)
                    yield item
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            tracer._open(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(error)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result
        return wrapper

    def _lookup(self, module, attr):
        """(owner, leaf name, function), or None if the name is gone."""
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, leaf, getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return None

    def _replace(self, owner, leaf, fn, wrapper):
        setattr(owner, leaf, wrapper)
        self._undo.append((owner, leaf, fn))

    def wrap(self, module, attr, name, on_call=None, on_result=None):
        """Replace ``module.attr`` (``attr`` may be ``Class.method``)."""
        found = self._lookup(module, attr)
        if found:
            owner, leaf, fn = found
            self._replace(owner, leaf, fn,
                          self._wrap_function(fn, name, on_call, on_result))

    def count(self, module, attr, counter):
        """Count calls of ``module.attr`` without opening a span."""
        found = self._lookup(module, attr)
        if not found:
            return
        owner, leaf, fn = found
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        self._replace(owner, leaf, fn, wrapper)

    def note_graph(self, graph):
        if graph not in self._graphs:
            self._graphs.add(graph)
            self.counts["graphs_clustered"] += 1

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per span name: (call count, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, dict(self_s)

    def covered_s(self):
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        calls, self_s = self.self_times()
        with open(path, "w") as fh:
            json.dump({
                "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                "self_s": self_s,
                "calls": dict(calls),
                "counts": dict(self.counts),
                "absent": self.absent,
            }, fh)


# -- the layer boundaries of ellispec -----------------------------------------

def _canonical(labels):
    # relabel clusters by first occurrence, so equal partitions compare equal
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse].astype(np.int64).tobytes()


def _on_graph_call(tracer, args, kwargs):
    tracer.note_graph(args[0] if args else kwargs.get("graph"))


def _on_mvee(tracer, args, kwargs, ell):
    tracer.values["mvee.active_count"].append(len(ell.active))
    tracer.values["mvee.epsilon_achieved"].append(ell.epsilon_achieved)


def _on_spa(tracer, args, kwargs, selected):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    tracer.values["spa.candidates"].append(len(candidates))


def _on_elli(tracer, args, kwargs, result):
    for key, seconds in getattr(result, "timings", {}).items():
        tracer.values[f"elli.reported_{key}"].append(seconds)


def _on_ksc(tracer, args, kwargs, runs):
    tracer.counts["ksc.trials"] += len(runs)
    tracer.counts["ksc.lloyd_iterations"] += sum(r.iterations for r in runs)
    tracer.counts["ksc.distinct"] += len({_canonical(r.partition.labels)
                                          for r in runs})


def _on_write(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["io.graph_file_bytes"] += os.path.getsize(path)


def install(tracer):
    """Wrap every layer boundary the benchmark reports on."""
    w = tracer.wrap
    # calls the benchmark makes, by the names it uses (``ellispec.<name>``)
    w("ellispec", "synth_adjacency", "synth")
    w("ellispec", "delta_sweep", "synth")
    w("ellispec", "elli_cluster", "elli_cluster", _on_graph_call, _on_elli)
    w("ellispec", "ksc_cluster", "ksc_cluster", _on_graph_call, _on_ksc)
    w("ellispec", "partition_profile", "graph.profile")
    w("ellispec", "accuracy", "metrics.accuracy")
    w("ellispec", "nmi", "metrics.nmi")
    w("ellispec", "load_vds", "ingest.load_vds")
    w("ellispec", "load_csv", "ingest.load_csv")
    w("ellispec", "cosine_knn_graph", "ingest.knn_graph")
    w("ellispec", "write_graph", "io.write_graph", None, _on_write)
    w("ellispec", "read_graph", "io.read_graph")
    # calls inside the package, by the names the calling modules import
    for module in ("ellispec.elli", "ellispec.ksc"):
        w(module, "normalized_laplacian", "graph.laplacian")
        w(module, "bottom_k_eigs", "eigen.embed")
    w("ellispec.elli", "group_columns", "elli.group")
    w("ellispec.elli", "solve_mvee", "mvee.solve", None, _on_mvee)
    w("ellispec.elli", "spa_select", "spa.select", None, _on_spa)
    w("ellispec.ksc", "kmeanspp_seed", "ksc.seed")
    w("ellispec.ksc", "lloyd", "ksc.lloyd")
    w("ellispec.graph", "WeightedGraph.__init__", "graph.validate")
    tracer.count("ellispec.graph", "conductance", "graph.conductance_calls")


def layer_metrics(tracer, rounds, traced_wall_s, untraced_wall_s):
    """Per-layer metrics per round, from the spans and counters."""
    calls, self_s = tracer.self_times()
    counts, values = tracer.counts, tracer.values

    def per_round(x):
        return x / rounds

    def mean(key):
        v = values.get(key)
        return float(np.mean(v)) if v else 0.0

    def t(name):
        return per_round(self_s.get(name, 0.0))

    def n(name):
        return per_round(calls.get(name, 0))

    embed_calls = calls.get("eigen.embed", 0)
    graphs = counts.get("graphs_clustered", 0)
    trials = counts.get("ksc.trials", 0)
    failures = sum(c for (name, _), c in tracer.failed.items()
                   if name == "mvee.solve")
    out = {
        "synth.generate_s": t("synth"),
        "synth.instances": n("synth"),
        "graph.validate_s": t("graph.validate"),
        "graph.laplacian_s": t("graph.laplacian"),
        "graph.laplacian_calls": n("graph.laplacian"),
        "graph.profile_s": t("graph.profile"),
        "graph.profile_calls": n("graph.profile"),
        "graph.conductance_calls": per_round(counts.get("graph.conductance_calls", 0)),
        "eigen.embed_s": t("eigen.embed"),
        "eigen.embed_calls": n("eigen.embed"),
        "eigen.embeds_per_graph": embed_calls / graphs if graphs else 0.0,
        "mvee.solve_s": t("mvee.solve"),
        "mvee.calls": n("mvee.solve"),
        "mvee.failures": per_round(failures),
        "mvee.active_count": mean("mvee.active_count"),
        "mvee.epsilon_achieved": max(values.get("mvee.epsilon_achieved", [0.0])),
        "spa.select_s": t("spa.select"),
        "spa.calls": n("spa.select"),
        "spa.candidates": mean("spa.candidates"),
        "elli.assign_s": t("elli.group"),
        "ksc.seed_s": t("ksc.seed"),
        "ksc.lloyd_s": t("ksc.lloyd"),
        "ksc.trials": per_round(trials),
        "ksc.lloyd_iterations": per_round(counts.get("ksc.lloyd_iterations", 0)),
        "ksc.distinct_partitions": counts.get("ksc.distinct", 0) / trials if trials else 0.0,
        "metrics.accuracy_s": t("metrics.accuracy"),
        "metrics.nmi_s": t("metrics.nmi"),
        "metrics.calls": n("metrics.accuracy") + n("metrics.nmi"),
        "ingest.load_vds_s": t("ingest.load_vds"),
        "ingest.load_csv_s": t("ingest.load_csv"),
        "ingest.knn_graph_s": t("ingest.knn_graph"),
        "io.write_graph_s": t("io.write_graph"),
        "io.read_graph_s": t("io.read_graph"),
        "io.graph_file_bytes": per_round(counts.get("io.graph_file_bytes", 0)),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.uncovered_s": traced_wall_s - per_round(tracer.covered_s()),
    }
    for stage in ("embed", "mvee", "select", "assign"):
        out[f"elli.reported_{stage}_s"] = per_round(
            sum(values.get(f"elli.reported_{stage}_s", [])))
    return out
