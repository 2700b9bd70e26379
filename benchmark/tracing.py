"""Span tracing from outside the package.

`Tracer.install` replaces public functions of the package with wrappers
that record a span (name, start, end, parent) per call and optional
counts. Each wrapper is installed where callers look the name up -- a
module attribute such as `f1sketch.cli.read_stream`, or a class attribute
such as `KWiseHash.eval_many` -- and `uninstall` restores the originals.
Spans stay in memory; `dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for idx, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, cursor), min(end, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end_ns - s.start_ns - covered)
    return out


def self_seconds_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, self_ns in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + self_ns * 1e-9
    return totals


# a counter name and a function of (call args, result) giving the amount
CountHook = tuple[str, Callable[[tuple, object], int]]


class Tracer:
    """Records spans in four parallel lists, so a span allocates no object
    the garbage collector tracks; `spans` assembles them on demand."""

    def __init__(self):
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*fields) for fields in
                zip(self._names, self._starts, self._ends, self._parents)]

    def wrap(self, fn, name: str, count: CountHook | None = None,
             maximum: CountHook | None = None):
        names, starts, ends, parents = self._names, self._starts, self._ends, self._parents
        stack, counts, maxima, clock = self._stack, self.counts, self.maxima, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](args, result)
            if maximum is not None:
                key, value = maximum[0], maximum[1](args, result)
                maxima[key] = max(maxima.get(key, 0), value)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget recorded spans and counts; patches stay installed."""
        for record in (self._names, self._starts, self._ends, self._parents):
            record.clear()
        self.counts.clear()
        self.maxima.clear()

    def install(self) -> None:
        """Wrap the package's layer boundaries (see README's layer table)."""
        import f1sketch.cli as cli
        import f1sketch.seeds as seeds
        import f1sketch.streams as streams
        from f1sketch.countsketch import CountSketchTable
        from f1sketch.estimator import Estimator, StableTable
        from f1sketch.hashing import KWiseHash
        from f1sketch.stable import StableVariateSource

        records = ("streams.records", lambda args, result: len(result))

        def one(key):
            return key, lambda args, result: 1

        def sized(key, pos):
            return key, lambda args, result: int(np.size(args[pos]))

        self.patch(cli, "main", "cli.run")
        self.patch(cli, "read_stream", "streams.read", count=records)
        self.patch(streams, "read_stream", "streams.read", count=records)
        for fn in ("master_key", "derive_key", "field_elements"):
            self.patch(seeds, fn, "seeds.derive", count=one("seeds.calls"))
        self.patch(KWiseHash, "eval_many", "hashing.eval",
                   count=sized("hashing.items_hashed", 1))
        self.patch(StableVariateSource, "variates_for", "stable.variates",
                   count=sized("stable.variate_pairs", 2))
        self.patch(StableTable, "update_many", "stable.scatter",
                   count=sized("estimator.flush_distinct", 1))
        self.patch(CountSketchTable, "update_many", "countsketch.update")
        self.patch(CountSketchTable, "touched_items", "countsketch.touched_items",
                   maximum=("countsketch.touched_count", lambda args, result: len(result)))
        self.patch(CountSketchTable, "point_estimate_many", "countsketch.point_estimate")
        self.patch(CountSketchTable, "top_k", "countsketch.top_k")
        self.patch(CountSketchTable, "f2_residual_estimate", "countsketch.f2_residual")
        self.patch(Estimator, "update", "estimator.update", count=one("estimator.flush_records"))
        self.patch(Estimator, "update_many", "estimator.update",
                   count=sized("estimator.flush_records", 1))
        self.patch(Estimator, "flush", "estimator.flush")
        self.patch(Estimator, "classify", "estimator.classify")
        self.patch(Estimator, "heavy_estimate", "estimator.heavy")
        self.patch(Estimator, "light_estimate", "estimator.light")
        self.patch(Estimator, "estimate", "estimator.estimate",
                   maximum=("estimator.heavy_count", lambda args, result: result.heavy_count))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"span_fields": list(Span._fields),
                       "spans": [self._names, self._starts, self._ends, self._parents],
                       "counts": dict(self.counts), "maxima": self.maxima}, fh)


def span_cost_ns(calls: int = 20_000) -> float:
    """Median extra cost of one traced call (with a count hook) over a
    direct call, in ns."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop", count=("calls", lambda args, result: 1))
    samples = []
    for _ in range(5):
        tracer.reset()
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter_ns()
        samples.append(((t1 - t0) - (t2 - t1)) / calls)
    return float(np.median(samples))
