"""The three benchmark workloads.

Each workload prepares once (loads the generated files' reference values,
warms up) and then runs whole rounds. A round performs the same operations
every time: it records timing samples, counts operations and applies the
correctness checks. Every timed section starts after `gc.collect()`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import statistics
import time
from collections import defaultdict

import numpy as np

import checks
import f1sketch.cli
import inputs
from f1sketch import Estimator, EstimatorConfig, streams

ACCURACY = 0.5
ESTIMATOR_SEED = 7
SETUP_REPEATS = 5      # Estimator constructions timed per round
ESTIMATE_REPEATS = 2   # estimate() calls per round on the final state (report workloads)


class Tally:
    """Timing samples, operation counts and check outcomes of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def sample(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok and name not in self.problems:
            self.problems.append(name)


def timed(fn):
    """(fn(), elapsed ns), after a full collection."""
    gc.collect()
    t0 = time.perf_counter_ns()
    result = fn()
    return result, time.perf_counter_ns() - t0


class Workload:
    def __init__(self, name: str, work_dir: str):
        self.spec = inputs.SPECS[name]
        self.path = inputs.stream_path(work_dir, name)
        with np.load(inputs.reference_path(work_dir, name)) as ref:
            self.ref = {key: ref[key] for key in ref.files}
        self.exact_f1 = int(self.ref["exact_f1"])
        self.distinct = int(self.ref["distinct"])
        self.config = EstimatorConfig(accuracy=ACCURACY, n=self.spec.n, seed=ESTIMATOR_SEED)

    def warm_up(self) -> None:
        """Touch every code path once on a small prefix, untimed."""
        stream = streams.read_stream(self.path, binary=self.spec.binary)
        est = Estimator(self.config)
        est.update_many(stream.items[:20_000], stream.deltas[:20_000])
        est.update(int(stream.items[0]), int(stream.deltas[0]))
        est.flush()
        est.estimate()

    def time_setup(self, tally: Tally) -> None:
        for _ in range(SETUP_REPEATS):
            _, ns = timed(lambda: Estimator(self.config))
            tally.op()
            tally.sample("setup_s", ns * 1e-9)

    def read(self, tally: Tally):
        """The workload's records, through the package's reader. Untimed: on
        a shared machine this interpreter-bound step spread too much between
        runs to be bounded; its cost shows as `streams.read_s` when traced."""
        tally.op()
        return streams.read_stream(self.path, binary=self.spec.binary)

    def round(self, tally: Tally) -> None:
        raise NotImplementedError


class FileReport(Workload):
    """From stream file to printed report through `f1sketch run`, then the
    read, ingest and estimate steps timed one by one."""

    def round(self, tally: Tally) -> None:
        self.time_setup(tally)

        argv = ["run", self.path, "--epsilon", str(ACCURACY), "--seed", str(ESTIMATOR_SEED)]
        if self.spec.binary:
            argv.append("--binary")
        out = io.StringIO()

        def run():
            with contextlib.redirect_stdout(out):
                return f1sketch.cli.main(argv)

        code, ns = timed(run)
        tally.op(code == 0)
        tally.sample("run_s", ns * 1e-9)
        if code == 0:
            row = checks.parse_run_row(out.getvalue())
            total, heavy, light = (float(row[k]) for k in ("est_f1", "est_heavy", "est_light"))
            tally.check("run: estimate within accuracy of exact F1",
                        checks.within_accuracy(total, self.exact_f1, ACCURACY))
            tally.check("run: total == heavy + light", checks.additive(total, heavy, light))

        stream = self.read(tally)
        est = Estimator(self.config)

        def ingest():
            est.update_many(stream.items, stream.deltas)
            est.flush()

        _, ns = timed(ingest)
        tally.op()
        tally.sample("ingest_ns_per_update", ns / len(stream))

        reports = []
        for _ in range(ESTIMATE_REPEATS):
            report, ns = timed(est.estimate)
            tally.op()
            tally.sample("estimate_ms", ns * 1e-6)
            reports.append(report)
        first = reports[0]
        tally.check("estimate() within accuracy of exact F1",
                    checks.within_accuracy(first.total, self.exact_f1, ACCURACY))
        tally.check("estimate(): total == heavy + light",
                    checks.additive(first.total, first.heavy, first.light))
        tally.check("repeated estimate() identical",
                    all(checks.same_report(first, r) for r in reports[1:]))
        if self.spec.dist == "uniform-turnstile":
            net = Estimator(self.config)
            net.update_many(self.ref["net_items"], self.ref["net_values"])
            net.flush()
            tally.check("turnstile: counters equal those of the net frequencies",
                        checks.counters_equal(est, net))


class RecordMonitor(Workload):
    """Records fed one at a time through `Estimator.update`, with
    `flush()` then `estimate()` every `query_every` records."""

    def round(self, tally: Tally) -> None:
        self.time_setup(tally)
        stream = self.read(tally)
        items, deltas = stream.items.tolist(), stream.deltas.tolist()
        query_at = self.ref["query_at"].tolist()

        est = Estimator(self.config)
        reports = []
        query_ms = []
        ingest_ns = 0
        gc.collect()
        start = time.perf_counter_ns()
        begin = 0
        for end in query_at:
            t0 = time.perf_counter_ns()
            update = est.update
            for i, v in zip(items[begin:end], deltas[begin:end]):
                update(i, v)
            est.flush()
            t1 = time.perf_counter_ns()
            reports.append(est.estimate())
            t2 = time.perf_counter_ns()
            tally.op()
            ingest_ns += t1 - t0
            query_ms.append((t2 - t1) * 1e-6)
            begin = end
        tally.sample("run_s", (time.perf_counter_ns() - start) * 1e-9)
        # queries grow with the touched set, so a round gives one sample: the
        # median of its queries, which compares like with like across rounds
        tally.sample("estimate_ms", statistics.median(query_ms))
        tally.sample("ingest_ns_per_update", ingest_ns / len(items))
        tally.op()

        for report, exact in zip(reports, self.ref["prefix_f1"].tolist()):
            tally.check("query within accuracy of the prefix's exact F1",
                        checks.within_accuracy(report.total, exact, ACCURACY))
            tally.check("query: total == heavy + light",
                        checks.additive(report.total, report.heavy, report.light))
        tally.check("repeated estimate() identical",
                    checks.same_report(reports[-1], est.estimate()))
        batched = Estimator(self.config)
        batched.update_many(stream.items, stream.deltas)
        batched.flush()
        tally.check("record-at-a-time counters equal one batched update_many",
                    checks.counters_equal(est, batched))
        tally.check("record-at-a-time stable cells within 1e-9 of batched",
                    checks.stable_close(est, batched))


WORKLOADS = {
    "zipf-text-report": FileReport,
    "churn-binary-report": FileReport,
    "record-monitor": RecordMonitor,
}
