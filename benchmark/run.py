"""f1sketch benchmark: one workload per process, metrics as one JSON line.

    python3 benchmark/run.py --workload zipf-text-report --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

Inputs are generated from --seed by a child process (benchmark/inputs.py)
into .bench_work/ and are removed when the run ends. The run then repeats
whole rounds of its workload until the next round would pass --seconds (at
least MIN_ROUNDS rounds) and reports each end-to-end timing as the median of
its samples. With --trace 1 it installs span wrappers around the package's
public functions and reports the per-layer metrics instead, as medians of
per-round totals. The last line of stdout is the JSON result; the exit code
is 0 only when every correctness check passed. See benchmark/README.md.
"""

from __future__ import annotations

import os

# one thread per workload process; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("zipf-text-report", "churn-binary-report", "record-monitor")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ingest_ns_per_update": "ns",
    "estimate_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name whose self time it sums
LAYER_SPANS = {
    "streams.read_s": "streams.read",
    "seeds.derive_s": "seeds.derive",
    "hashing.eval_s": "hashing.eval",
    "stable.variates_s": "stable.variates",
    "stable.scatter_s": "stable.scatter",
    "countsketch.update_s": "countsketch.update",
    "countsketch.touched_items_s": "countsketch.touched_items",
    "countsketch.point_estimate_s": "countsketch.point_estimate",
    "countsketch.top_k_s": "countsketch.top_k",
    "countsketch.f2_residual_s": "countsketch.f2_residual",
    "estimator.classify_s": "estimator.classify",
    "estimator.update_s": "estimator.update",
    "estimator.flush_s": "estimator.flush",
    "estimator.heavy_s": "estimator.heavy",
    "estimator.light_s": "estimator.light",
    "cli.run_s": "cli.run",
}
LAYER_COUNTS = ("streams.records", "seeds.calls", "hashing.items_hashed",
                "stable.variate_pairs", "estimator.flush_records",
                "estimator.flush_distinct")
LAYER_MAXIMA = ("countsketch.touched_count", "estimator.heavy_count")


def import_package():
    """Import f1sketch from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import f1sketch

    if os.path.dirname(os.path.dirname(os.path.abspath(f1sketch.__file__))) != SRC:
        raise ImportError(f"f1sketch imported from {f1sketch.__file__}, not from {SRC}")
    return f1sketch


def layer_values(tracer, distinct: int) -> dict[str, float]:
    from tracing import self_seconds_by_name

    spans = tracer.spans
    seconds = self_seconds_by_name(spans)
    values = {metric: seconds.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    values.update({key: float(tracer.counts.get(key, 0)) for key in LAYER_COUNTS})
    values.update({key: float(tracer.maxima.get(key, 0)) for key in LAYER_MAXIMA})
    values["hashing.hashes_per_distinct_item"] = values["hashing.items_hashed"] / distinct
    values["streams.ns_per_record"] = values["streams.read_s"] * 1e9 / values["streams.records"]
    values["trace.spans"] = float(len(spans))
    return values


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"hashing.hashes_per_distinct_item": "hashes/item",
            "streams.ns_per_record": "ns"}.get(metric, "count")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer, span_cost_ns

    tag = f"{name}-seed{seed}-pid{os.getpid()}"
    inputs_dir = os.path.join(WORK, tag)
    os.makedirs(inputs_dir)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), "--workload", name,
                        "--seed", str(seed), "--out", inputs_dir],
                       check=True, timeout=CHILD_TIMEOUT_S)
        workload = workloads.WORKLOADS[name](name, inputs_dir)
        workload.warm_up()
        tally = workloads.Tally()
        tracer = Tracer() if trace else None
        layer_samples: dict[str, list[float]] = {}
        if tracer:
            tracer.install()
        start = time.perf_counter()
        rounds = 0
        try:
            while True:
                if tracer:
                    tracer.reset()
                workload.round(tally)
                rounds += 1
                if tracer:
                    values = layer_values(tracer, workload.distinct)
                    values["trace.run_s"] = tally.samples["run_s"][-1]
                    for key, value in values.items():
                        layer_samples.setdefault(key, []).append(value)
                elapsed = time.perf_counter() - start
                if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    if tracer:
        metrics = {key: statistics.median(vals) for key, vals in layer_samples.items()}
        metrics["trace.overhead_s"] = metrics["trace.spans"] * span_cost_ns() * 1e-9
        tracer.dump(os.path.join(WORK, f"spans-{tag}.json"))
        metrics = {key: {"value": metrics[key], "unit": layer_unit(key)}
                   for key in sorted(metrics)}
    else:
        metrics = {key: statistics.median(vals) for key, vals in tally.samples.items()}
        for key, vals in sorted(tally.samples.items()):
            print(f"  samples {key}: n={len(vals)} min={min(vals):.6g} "
                  f"median={statistics.median(vals):.6g} max={max(vals):.6g}")
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {key: {"value": metrics[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    print(f"workload {name}  seed {seed}  {rounds} rounds in {elapsed:.1f} s  "
          f"{'traced' if trace else 'untraced'}")
    for key, metric in metrics.items():
        print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in tally.problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="f1sketch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        out = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(WORK, out), "w", encoding="ascii") as fh:
            json.dump(result, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
