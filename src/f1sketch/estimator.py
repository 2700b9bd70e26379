"""First-moment estimator for turnstile streams.

One estimator owns three linear structures, all derived from a single
master seed:

  * a stable-sketch table of `width` buckets, three Cauchy accumulators
    each, which carries the light-item mass;
  * a CountSketch of `depth` rows used to read off isolated heavy items;
  * a taller CountSketch (the heavy-hitter structure) whose point estimates
    and residual-F2 estimate drive the heavy/light split.

Ingestion is single-writer. `estimate()` and every other read are safe
concurrently once ingestion quiesces, and `estimate()` never mutates sketch
state, so it may be called repeatedly. Independent estimators (distinct
seeds) can run fully in parallel.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import hashing, records, seeds
from .countsketch import (CountSketchTable, SketchInvariantError, batch_reaches_limit,
                          zeroed_cells)
from .hashing import MERSENNE61, KWiseHash
from .stable import StableVariateSource, stability_constant

# an estimator whose sketch arrays would exceed this is rejected up front
MEMORY_CAP_BYTES = 1 << 30

# the light decode's moment constant C(1, 1/3)^-3 (see `light_estimate`)
_LIGHT_SCALE = stability_constant(1.0, 1.0 / 3.0) ** -3


def _aggregate(items: np.ndarray, deltas: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct items ascending, int64 sum of each one's deltas, wrapping as
    numpy's int64 adds do) of items in [1, n], summed by `hashing.dense_sums`.
    An item is present when it has a record, so items whose deltas cancel
    are kept. The sums are indexed by item when n <= 4 * records, where an
    (n + 1)-array is O(records) scratch, and by rank among the distinct
    items otherwise. ValueError naming an item outside [1, n]: the first in
    the batch when `dense_sums` refuses it, else the smallest or largest
    distinct item."""
    if n <= 4 * items.size:
        try:
            sums, seen = hashing.dense_sums(items, deltas, n + 1)
        except ValueError:  # an item below 0 or past n, sought only on refusal
            raise ValueError(f"item {items[(items < 1) | (items > n)][0]} "
                             f"outside domain [1, {n}]") from None
        uniq = np.flatnonzero(seen)
        sums = sums[uniq]
    else:
        uniq, rank = np.unique(items, return_inverse=True)
        sums = hashing.dense_sums(rank, deltas, uniq.size)[0]
    if uniq.size and (uniq[0] < 1 or uniq[-1] > n):
        raise ValueError(f"item {uniq[0] if uniq[0] < 1 else uniq[-1]} outside domain [1, {n}]")
    return uniq, sums


@dataclass(frozen=True)
class EstimatorConfig:
    """Sizing derived from the requested accuracy.

    `accuracy` is the user-facing relative error target in (0, 1/2]; the
    internal working accuracy is a quarter of it, the largest share that
    keeps the analysis precondition eps <= 1/8 for every accuracy. Items are
    hashed over GF(2**61 - 1), so the domain size n must lie below 2**61 - 1.
    `n` and `seed` must be integers (numpy integers are stored as Python ints).
    """

    accuracy: float
    n: int
    seed: int

    def __post_init__(self):
        for name in ("n", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if not 0.0 < self.accuracy <= 0.5:
            raise ValueError("accuracy must lie in (0, 1/2]")
        if self.n < 1:
            raise ValueError("domain size n must be >= 1")
        if self.n >= MERSENNE61:
            raise ValueError(f"domain size n = {self.n} is not below 2**61 - 1, "
                             f"the largest domain the hash field holds")

    @property
    def eps(self) -> float:
        return self.accuracy / 4.0

    @property
    def budget(self) -> int:
        """Frequency resolution budget, ceil(1/eps^2)."""
        return math.ceil(1.0 / self.eps**2)

    @property
    def width(self) -> int:
        """Buckets per table: 64 * budget."""
        return 64 * self.budget

    @property
    def table_depth(self) -> int:
        """CountSketch rows, from the collision-probability bound
        2 + log2(5.1/eps^2)."""
        return math.ceil(2 + math.log2(5.1 / self.eps**2))

    @property
    def hh_depth(self) -> int:
        """Rows of the heavy-hitter structure: ceil(log2 n) + 2."""
        return math.ceil(math.log2(max(self.n, 2))) + 2

    @property
    def independence(self) -> int:
        """Independence of the stable table's bucket hash and of its three
        variate hashes: max(8, ceil(log2 1/eps^2))."""
        return max(8, math.ceil(math.log2(1.0 / self.eps**2)))

    @property
    def heavy_clamp(self) -> int:
        """Largest heavy-set size the light correction will trust: ceil(5.1 * budget)."""
        return math.ceil(5.1 * self.budget)

    def light_correction(self, heavy_count: int) -> float:
        """Collision correction (1 - 1/width)^-min(heavy_count, heavy_clamp)
        for the stable buckets a heavy set of that size removes."""
        return (1.0 - 1.0 / self.width) ** -min(heavy_count, self.heavy_clamp)


@dataclass(frozen=True)
class Classification:
    """Heavy/light split of the touched items.

    heavy iff estimate^2 >= threshold, with
    threshold = 4 * f2_residual / budget; `signs` are sgn(estimate) with
    sgn(0) = +1. Light items are the remaining touched items.
    """

    items: np.ndarray
    estimates: np.ndarray
    heavy_mask: np.ndarray
    threshold: float
    f2_residual: float

    # each computed once, on first read: `estimate()` reads some several times
    @functools.cached_property
    def heavy_items(self) -> np.ndarray:
        return self.items[self.heavy_mask]

    @functools.cached_property
    def heavy_estimates(self) -> np.ndarray:
        return self.estimates[self.heavy_mask]

    @functools.cached_property
    def heavy_signs(self) -> np.ndarray:
        return np.where(self.heavy_estimates >= 0, 1, -1).astype(np.int64)

    @functools.cached_property
    def heavy_count(self) -> int:
        return int(self.heavy_mask.sum())

    @classmethod
    def empty(cls) -> "Classification":
        return cls(
            items=np.zeros(0, dtype=np.int64),
            estimates=np.zeros(0),
            heavy_mask=np.zeros(0, dtype=bool),
            threshold=0.0,
            f2_residual=0.0,
        )


@dataclass(frozen=True)
class EstimateReport:
    """Final estimate and its decomposition; total == heavy + light exactly."""

    total: float
    heavy: float
    light: float
    heavy_count: int
    light_correction: float
    diagnostics: dict = field(default_factory=dict)


class StableTable:
    """`cols` buckets of three stable accumulators plus their bucket hash."""

    def __init__(self, cols: int, bucket_hash: KWiseHash,
                 source: StableVariateSource):
        self.cols = cols
        self.bucket_hash = bucket_hash
        self.source = source
        self.cells = zeroed_cells((cols, 3), np.float64)
        self.finite = True  # no add has left a cell infinite or NaN

    def update_many(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Add each int64 delta times its item's three variates into its
        bucket, item by item (`hashing.stable_add`). SketchInvariantError if
        any accumulator then is not finite: one this batch wrote, or one an
        earlier batch left so, as no add makes it finite again."""
        deltas = np.asarray(deltas, dtype=np.int64)
        buckets = self.bucket_hash.eval_many(items)
        variates = self.source.variates_for(buckets, items)
        self.finite &= not hashing.stable_add(self.cells, buckets, deltas, variates)
        if not self.finite:
            raise SketchInvariantError("stable accumulator is not finite")

    def nbytes(self) -> int:
        return int(self.cells.nbytes)


class Estimator(records.RecordBuffer):
    """Streaming F1 estimator; see module docstring for the structure.

    Records from `update` and `update_many` wait in the record buffer it
    inherits (`f1sketch.records`) until a flush takes them as one pair."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        c = config
        total_bytes = (c.width * 3 + c.table_depth * c.width + c.hh_depth * c.width) * 8
        if total_bytes > MEMORY_CAP_BYTES:
            raise ValueError(
                f"accuracy {c.accuracy} needs {total_bytes} sketch bytes, "
                f"above the cap of {MEMORY_CAP_BYTES}"
            )
        key = seeds.master_key(c.seed)
        self.table = StableTable(
            c.width,
            KWiseHash.from_seed(seeds.derive_key(key, "u-bucket"),
                                c.independence, c.n, c.width),
            StableVariateSource(seeds.derive_key(key, "u-variates"), c.independence),
        )
        self.countsketch = CountSketchTable.from_seed(
            seeds.derive_key(key, "cs"), c.table_depth, c.width, c.n, role="cs")
        self.heavy_hitters = CountSketchTable.from_seed(
            seeds.derive_key(key, "hh"), c.hh_depth, c.width, c.n, role="hh")
        self._open(c.n)
        self._updates = 0
        self._ingest_ns = 0

    # -- ingestion ---------------------------------------------------------

    # the record buffer's own methods, so a class patch reaches every call:
    # update(i, v) applies one turnstile record, update_many(items, deltas)
    # 1-D arrays of them; see `f1sketch.records` for what each refuses
    update = records.RecordBuffer.push
    update_many = records.RecordBuffer.push_many

    def flush(self) -> None:
        """Materialize buffered records into the sketch cells.

        Buffered deltas for one item are combined exactly (integer sums)
        before touching any float accumulator, so the sketch state after one
        flush is independent of record order. Called automatically by every
        read; worth calling explicitly only to fence off ingestion timing or
        to quiesce before concurrent reads.

        Raises SketchInvariantError, and drops the buffered batch without
        touching the sketch, when the batch's raw sum of |delta| reaches
        2**62 (summing such deltas could wrap int64), or when its
        aggregated sum of |delta| would take the CountSketch tables' running
        sum to 2**62 (`CountSketchTable.scatter_many`, which both tables
        check before any cell is written): a turnstile stream whose
        aggregated |delta| sum to 2**62 across flushes is refused, however
        its cells cancel. Raises ValueError, and drops the
        batch the same way, when a record buffered by `update` has a
        non-integer item or delta, or an item of an `update_many` array
        changed since the call is outside [1, n]. The stable table's
        finiteness guard runs last and is kept, though it cannot trip while
        the counter bound holds: every stable cell stays below
        2**62 * 1e9 in magnitude. The `updates` diagnostic counts only the
        records of flushes that succeeded.
        """
        t0 = time.perf_counter_ns()
        taken = self._take()
        if taken is None:
            return
        items, deltas = taken
        if batch_reaches_limit(deltas):
            raise SketchInvariantError("batch magnitude would overflow counters")
        uniq, agg = _aggregate(items, deltas, self.config.n)
        # both tables take every batch, so they hold one running sum, and
        # a batch past it is refused by the first, before any write; the
        # first keeps no items, nor their packed cells
        self.countsketch.scatter_many(uniq, agg, packed=False)
        self.heavy_hitters.update_many(uniq, agg)
        self.table.update_many(uniq, agg)
        self._updates += int(items.size)
        self._ingest_ns += time.perf_counter_ns() - t0

    # -- estimation --------------------------------------------------------

    def touched_items(self) -> np.ndarray:
        self.flush()
        return self.heavy_hitters.touched_items()

    def classify(self) -> Classification:
        """Split touched items into heavy and light by estimated frequency."""
        self.flush()
        hh = self.heavy_hitters
        items = hh.touched_items()
        if items.size == 0:
            return Classification.empty()
        est = hh.point_estimate_many(hh.touched_cells())
        residual = hh.f2_residual_estimate(4 * self.config.budget, est)
        threshold = 4.0 * residual / self.config.budget
        heavy = est**2 >= threshold
        return Classification(items=items, estimates=est, heavy_mask=heavy,
                              threshold=threshold, f2_residual=residual)

    def _isolation_table(self, heavy: np.ndarray):
        """Per heavy item, its first isolating row of `countsketch` (0-based;
        -1 if none) and its cell there times the row's sign (0 if none).
        The heavy set's packed cells (`CountSketchTable.packed_cells`) give
        every bucket and sign; row by row, the buckets find the items
        alone in their cell, until every item is settled."""
        cs = self.countsketch
        first = np.full(heavy.size, -1, dtype=np.int64)
        reads = np.zeros(heavy.size, dtype=np.int64)
        if heavy.size == 0:  # hashing no item costs a dozen numpy calls
            return first, reads
        unsettled = np.arange(heavy.size)
        packed = cs.packed_cells(heavy)
        for j in range(cs.rows):
            if unsettled.size == 0:
                break
            buckets, negative = packed[:, j] >> 1, packed[:, j] & 1
            alone = np.bincount(buckets, minlength=cs.cols)[buckets[unsettled]] == 1
            settled = unsettled[alone]
            unsettled = unsettled[~alone]
            first[settled] = j
            reads[settled] = cs.cells[j, buckets[settled]] * np.where(negative[settled], -1, 1)
        return first, reads

    def heavy_contributions(self, cls: Classification, reads=None) -> np.ndarray:
        """Per-item reads aligned with cls.heavy_items.

        A heavy item i contributes cell * sgn(estimate_i) * sign_row(i) from
        its first isolating row, or 0 when no row isolates it. `reads` are
        the isolation table's reads of cls.heavy_items when already taken.
        """
        if reads is None:
            self.flush()
            _, reads = self._isolation_table(cls.heavy_items)
        return (reads * cls.heavy_signs).astype(np.float64)

    def heavy_estimate(self, cls: Classification, reads=None) -> float:
        """Sum of isolated-cell reads over the heavy set."""
        return float(self.heavy_contributions(cls, reads).sum())

    def _collision_free_mask(self, heavy: np.ndarray) -> np.ndarray:
        """Over the StableTable's buckets: True where no heavy item hashes."""
        mask = np.ones(self.config.width, dtype=bool)
        if heavy.size:
            mask[self.table.bucket_hash.eval_many(heavy) - 1] = False
        return mask

    def light_estimate(self, cls: Classification) -> float:
        """Geometric-means read of the heavy-free stable buckets.

        Sums |x1 * x2 * x3|^(1/3) over every bucket no heavy item occupies,
        scaled by the moment constant C(1, 1/3)^-3 and by
        `config.light_correction(heavy_count)`, which compensates for the
        buckets the heavy set removed. heavy_count is clamped at
        `heavy_clamp` so a runaway heavy set cannot blow up the correction;
        the clamp event is reported in diagnostics by `estimate`.
        """
        self.flush()
        mask = self._collision_free_mask(cls.heavy_items)
        cells = self.table.cells
        prod = np.abs(cells[:, 0] * cells[:, 1] * cells[:, 2])
        total = float((prod[mask] ** (1.0 / 3.0)).sum())
        correction = self.config.light_correction(cls.heavy_count)
        return correction * _LIGHT_SCALE * total

    def estimate(self) -> EstimateReport:
        """Classify, estimate both parts, and report their exact sum."""
        self.flush()
        t0 = time.perf_counter_ns()
        cls = self.classify()
        t1 = time.perf_counter_ns()
        first, reads = self._isolation_table(cls.heavy_items)
        heavy = self.heavy_estimate(cls, reads)
        t2 = time.perf_counter_ns()
        light = self.light_estimate(cls)
        t3 = time.perf_counter_ns()
        diagnostics = {
            "updates": self._updates,
            "ingest_ns": self._ingest_ns,
            "classify_ns": t1 - t0,
            "heavy_ns": t2 - t1,
            "light_ns": t3 - t2,
            "stable_bytes": self.table.nbytes(),
            "countsketch_bytes": self.countsketch.nbytes(),
            "heavy_hitter_bytes": self.heavy_hitters.nbytes(),
            "touched_bytes": self.heavy_hitters.touched_nbytes(),
            "heavy_clamped": cls.heavy_count > self.config.heavy_clamp,
            "isolation_failures": int((first < 0).sum()),
            "threshold": cls.threshold,
            "f2_residual_estimate": cls.f2_residual,
        }
        return EstimateReport(total=heavy + light, heavy=heavy, light=light,
                              heavy_count=cls.heavy_count,
                              light_correction=self.config.light_correction(cls.heavy_count),
                              diagnostics=diagnostics)
