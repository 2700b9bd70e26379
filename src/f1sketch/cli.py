"""Command-line harness: synthetic streams, single runs, trial batteries.

Exit codes: 0 success, 1 usage or configuration error, 2 stream parse
error, 3 internal sketch invariant violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

from .countsketch import SketchInvariantError
from .estimator import Estimator, EstimatorConfig, _aggregate
from .streams import Distribution, Stream, StreamParseError, generate, read_stream, write_stream

CSV_HEADER = ("trial,seed,exact_f1,est_f1,rel_err,est_heavy,est_light,"
              "heavy_count,wall_ns_per_update")


@dataclass(frozen=True)
class TrialRow:
    """One CSV row; `exact_f1` is None when no exact value was computed
    (`run` without `--oracle`), and then `rel_err` is None too and both
    fields are left empty."""

    trial: int
    seed: int
    exact_f1: float | None
    est_f1: float
    est_heavy: float
    est_light: float
    heavy_count: int
    wall_ns_per_update: float

    @property
    def rel_err(self) -> float | None:
        if self.exact_f1 is None:
            return None
        return abs(self.est_f1 - self.exact_f1) / max(self.exact_f1, 1.0)

    def csv(self) -> str:
        exact, err = ("", "") if self.exact_f1 is None else (repr(self.exact_f1),
                                                             repr(self.rel_err))
        return (f"{self.trial},{self.seed},{exact},{self.est_f1!r},"
                f"{err},{self.est_heavy!r},{self.est_light!r},"
                f"{self.heavy_count},{self.wall_ns_per_update!r}")


def run_trial(stream: Stream, accuracy: float, seed: int,
              exact_f1: float | None, trial: int = 0) -> TrialRow:
    """One independent estimator pass over a parsed stream."""
    est = Estimator(EstimatorConfig(accuracy=accuracy, n=stream.n, seed=seed))
    t0 = time.perf_counter_ns()
    est.update_many(stream.items, stream.deltas)
    est.flush()
    ingest_ns = time.perf_counter_ns() - t0
    report = est.estimate()
    per_update = ingest_ns / max(len(stream), 1)
    return TrialRow(trial=trial, seed=seed, exact_f1=exact_f1,
                    est_f1=report.total, est_heavy=report.heavy,
                    est_light=report.light, heavy_count=report.heavy_count,
                    wall_ns_per_update=per_update)


def exact_f1_of(stream: Stream) -> float:
    """Exact F1 of a stream from its aggregated records, so memory follows
    the records, not the declared domain. The per-item int64 sums wrap as
    `ExactState`'s do, and the sum of magnitudes is exact before the one
    rounding to float; read as uint64, the magnitude of -2**63 is 2**63."""
    _, sums = _aggregate(stream.items, stream.deltas, stream.n)
    return float(sum(np.abs(sums).view(np.uint64).tolist()))


def _cmd_generate(args) -> int:
    dist = Distribution.parse(args.dist)
    stream = generate(dist, n=args.n, m=args.m, seed=args.seed,
                      turnstile=args.turnstile)
    write_stream(args.out, stream, binary=args.binary)
    print(f"wrote {len(stream)} records over [1, {stream.n}] to {args.out}")
    return 0


def _cmd_run(args) -> int:
    stream = read_stream(args.stream, binary=args.binary)
    # a bad accuracy or domain is refused before the oracle runs
    EstimatorConfig(accuracy=args.epsilon, n=stream.n, seed=args.seed)
    exact = exact_f1_of(stream) if args.oracle else None
    row = run_trial(stream, args.epsilon, args.seed, exact)
    print(CSV_HEADER)
    print(row.csv())
    print(f"estimate       : {row.est_f1:.6g}")
    print(f"  heavy part   : {row.est_heavy:.6g}  ({row.heavy_count} heavy items)")
    print(f"  light part   : {row.est_light:.6g}")
    print(f"  ns per update: {row.wall_ns_per_update:.1f}")
    if args.oracle:
        print(f"exact F1       : {exact:.6g}")
        print(f"relative error : {row.rel_err:.6g}")
    return 0


_worker_stream: Stream | None = None  # the stream an `eval --jobs` worker holds


def _init_worker(stream: Stream) -> None:
    global _worker_stream
    _worker_stream = stream


def _worker_trial(params: tuple) -> TrialRow:
    return run_trial(_worker_stream, *params)


def _cmd_eval(args) -> int:
    if args.trials < 1:
        raise ValueError("need at least one trial")
    if args.jobs < 1:
        raise ValueError("need at least one job")
    stream = read_stream(args.stream, binary=args.binary)
    EstimatorConfig(accuracy=args.epsilon, n=stream.n, seed=args.seed)  # as in `run`
    exact = exact_f1_of(stream)
    # per trial only its parameters; workers get the stream once, at start
    trials = [(args.epsilon, args.seed + t, exact, t) for t in range(args.trials)]
    # a forked pool starts all its workers at once, each holding the stream
    jobs = min(args.jobs, args.trials)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker, initargs=(stream,)) as pool:
            rows = list(pool.map(_worker_trial, trials))
    else:
        rows = [run_trial(stream, *params) for params in trials]
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")
    errs = np.array([row.rel_err for row in rows])
    success = float((errs <= args.epsilon).mean())
    print(f"trials={args.trials} success_fraction={success:.4f} "
          f"mean_rel_err={errs.mean():.6g} median_rel_err={np.median(errs):.6g} "
          f"p95_rel_err={np.quantile(errs, 0.95):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f1sketch",
        description="Estimate the first frequency moment of turnstile streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic stream file")
    gen.add_argument("--dist", required=True,
                     help="uniform | zipf(s) | planted(heavy_count,heavy_f,light_max) | adversarial")
    gen.add_argument("--n", type=int, required=True, help="domain size")
    gen.add_argument("--m", type=int, required=True, help="record count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--turnstile", action="store_true",
                     help="allow negative deltas (default insert-only)")
    gen.add_argument("--binary", action="store_true")

    run = sub.add_parser("run", help="estimate F1 of one stream")
    run.add_argument("stream", help="stream file path, or - for stdin")
    run.add_argument("--epsilon", type=float, required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--oracle", action="store_true",
                     help="also compute the exact F1 and relative error")
    run.add_argument("--binary", action="store_true")

    ev = sub.add_parser("eval", help="run many independent trials, write CSV")
    ev.add_argument("stream")
    ev.add_argument("--epsilon", type=float, required=True)
    ev.add_argument("--trials", type=int, required=True)
    ev.add_argument("--seed", type=int, default=0, help="base seed; trial t uses seed+t")
    ev.add_argument("--out", required=True)
    ev.add_argument("--jobs", type=int, default=1)
    ev.add_argument("--binary", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 is reserved for parse errors
        return 1 if exc.code not in (0, None) else 0
    handlers = {"generate": _cmd_generate, "run": _cmd_run, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except StreamParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SketchInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
