"""Benchmark of ellispec through its public library functions.

    python3 benchmarks/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's fixed work until ``--seconds`` have
passed, checks the outputs apart from the program, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).  Run it from the repository root; it
imports the package from ``src/`` and needs no install.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# fixed before numpy loads OpenBLAS: one BLAS thread keeps runs steady on a
# shared two-core machine and k-means labels bit-for-bit repeatable
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 3
PER_CALL = {"graph_build_s": "graph_build", "elli_cluster_s": "elli_cluster",
            "ksc_cluster_s": "ksc_cluster", "score_s": "score"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk-sweep", "large-synth", "knn-sparse"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "ellispec" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no ellispec sources under {src}")
    sys.path.insert(0, str(src))
    import ellispec

    if Path(ellispec.__file__).resolve().parent != (src / "ellispec").resolve():
        raise SystemExit(f"run.py: imported ellispec from {ellispec.__file__}")


def spread(samples):
    """Median, plus the highest percentile with ten samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 40:
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        for p in (99.9, 99.0, 90.0, 75.0):
            if len(samples) * (1.0 - p / 100.0) >= 10:
                out[f"p{p:g}"] = cuts[int(round(p * 10)) - 1]
                break
    return out


def machine():
    import numpy as np
    import scipy

    info = {"cpus": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return info


def setup_samples(args, own_s):
    """Set-up time of this process and of fresh set-up-only processes."""
    samples = [own_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def rounds_for(workloads, workload, inputs, seconds, first_checked, start):
    """Whole rounds until ``seconds`` have passed since ``start``; stop
    early when the next round would overrun by more than half of itself."""
    done = []
    while True:
        done.append(workloads.run_round(workload, inputs,
                                        checking=first_checked and not done))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * done[-1].wall_s >= seconds:
            return done


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs = workloads.make_inputs(args.workload, args.seed, Path(tmp))
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        start = time.perf_counter()
        if args.trace:
            rounds = rounds_for(workloads, args.workload, inputs, 0, True, start)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = rounds_for(workloads, args.workload, inputs,
                                    args.seconds, False, start)
            finally:
                tracer.restore()
            rounds += traced
        else:
            rounds = rounds_for(workloads, args.workload, inputs, args.seconds,
                                True, start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(rounds[0].problems)
    for i, rnd in enumerate(rounds[1:], start=2):
        if rnd.digests != rounds[0].digests:
            problems.append(f"round {i} labels differ from round 1")
    attempted = sum(r.attempted for r in rounds)
    failed = [f for r in rounds for f in r.failed]

    report = {"workload": args.workload, "seed": args.seed,
              "rounds": len(rounds), "machine": machine(),
              "round_wall_s": [r.wall_s for r in rounds],
              "failed_ops": failed[:len(rounds[0].failed)],
              "digests": rounds[0].digests, "problems": problems}
    if args.trace:
        traced_wall = statistics.median(r.wall_s for r in traced)
        values = tracing.layer_metrics(tracer, len(traced), traced_wall,
                                       rounds[0].wall_s)
        report["absent_layers"] = tracer.absent
        dump = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(dump))
        report["spans_file"] = str(dump.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_samples(args, setup_s)),
                  "wall_s": statistics.median(r.wall_s for r in rounds),
                  "peak_rss_mb": peak_rss_mb}
        per_call = {}
        for metric, kind in PER_CALL.items():
            per_call[metric] = spread([s for r in rounds for s in r.calls[kind]])
            # a round's calls differ in size and cost (several graphs, both
            # suites); their mean is steadier from seed to seed than their
            # median, which jumps between cost levels
            values[metric] = statistics.median(
                statistics.fmean(r.calls[kind]) for r in rounds)
        report["per_call"] = per_call
        wanted = spec["end_to_end"]

    for m in wanted:
        print(f"  {m['name']:<26} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  operations: {attempted} attempted, {len(failed)} failed")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("detail " + json.dumps(report, default=float))
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failed),
              "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
