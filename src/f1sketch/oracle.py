"""Exact ground truth for desk-scale verification.

Keeps the full frequency vector and recomputes every derived quantity from
scratch on each query, in exact integer arithmetic wherever the moment
order allows. The point of this module is trust, not speed; nothing here
is shared with the sketch code paths beyond the hash/variate objects handed
in explicitly for cell replay.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hashing import MERSENNE61, KWiseHash
from .stable import LATTICE, TRUNCATION_CAP


class TailBoundCheck(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


class ExactState:
    """Dense exact frequency vector for domains up to about a million items."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("domain size must be >= 1")
        self.n = n
        self.frequencies = np.zeros(n, dtype=np.int64)

    def update(self, i: int, v: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"item {i} outside domain [1, {self.n}]")
        self.frequencies[i - 1] += v

    def update_many(self, items, deltas) -> None:
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 1 or items.max() > self.n):
            raise ValueError("item outside domain")
        np.add.at(self.frequencies, items - 1, np.asarray(deltas, dtype=np.int64))

    @classmethod
    def from_frequencies(cls, freqs) -> "ExactState":
        state = cls(len(freqs))
        state.frequencies = np.asarray(freqs, dtype=np.int64).copy()
        return state

    # -- exact quantities ----------------------------------------------------

    def _sorted_magnitudes(self) -> list[int]:
        """|f| as uint64, so |-2**63| is 2**63, in the residual order: larger
        magnitude first, ties to the smaller item index."""
        mags = np.abs(self.frequencies).view(np.uint64)
        return [int(m) for m in mags[np.argsort(~mags, kind="stable")]]

    def moment(self, p: float) -> float:
        """F_p = sum |f_i|^p; exact integer arithmetic for integral p."""
        if p <= 0:
            raise ValueError("moment order must be positive")
        mags = np.abs(self.frequencies).view(np.uint64)
        if float(p).is_integer():
            return sum(int(m) ** int(p) for m in mags if m)
        return float((mags[mags > 0].astype(float) ** p).sum())

    def residual(self, p: float, k: int) -> float:
        """F_p after dropping the k largest magnitudes."""
        if not 0 <= k <= self.n:
            raise ValueError("need 0 <= k <= n")
        tail = self._sorted_magnitudes()[k:]
        if float(p).is_integer():
            return sum(m ** int(p) for m in tail if m)
        return float(sum(float(m) ** p for m in tail if m))

    def residual_of_set(self, p: float, removed) -> float:
        """F_p over everything outside an explicit item set."""
        mask = np.ones(self.n, dtype=bool)
        for i in removed:
            mask[int(i) - 1] = False
        mags = np.abs(self.frequencies[mask]).view(np.uint64)
        if float(p).is_integer():
            return sum(int(m) ** int(p) for m in mags if m)
        return float((mags[mags > 0].astype(float) ** p).sum())

    def check_tail_bound(self, p: float, q: float, budget: int) -> TailBoundCheck:
        """Deterministic tail inequality:
        residual(q, B) <= moment(p)^(q/p) / B^(q/p - 1).

        Evaluated in exact integer arithmetic when p = 1 and q is integral;
        the returned sides are floats either way.
        """
        if not 0 < p <= q:
            raise ValueError("need 0 < p <= q")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        lhs = self.residual(q, min(budget, self.n))
        if p == 1.0 and float(q).is_integer():
            qi = int(q)
            lhs_int = int(lhs)
            f1 = int(self.moment(1.0)) if self.frequencies.any() else 0
            holds = lhs_int * budget ** (qi - 1) <= f1**qi
            rhs = f1**qi / budget ** (qi - 1)
            return TailBoundCheck(holds, float(lhs_int), float(rhs))
        rhs = self.moment(p) ** (q / p) / budget ** (q / p - 1.0)
        return TailBoundCheck(lhs <= rhs, float(lhs), float(rhs))

    def heavy_set(self, budget: int) -> set[int]:
        """Items with f^2 >= 4 * residual(2, 4*budget) / budget, all exact."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        res = self.residual(2.0, min(4 * budget, self.n))
        threshold = 4.0 * res / budget
        nz = np.nonzero(self.frequencies)[0]
        f = self.frequencies[nz].astype(float)
        return {int(i) + 1 for i, fi in zip(nz, f) if fi * fi >= threshold}


def expected_hash(h, i: int) -> int:
    """Scalar reference for `KWiseHash.eval_many` of one single-row hash:
    Horner's rule over GF(2**61 - 1) in Python ints, then onto
    [1, h.range_size]. i must lie below 2**61 - 1."""
    v = 0
    for c in h.coefficients:
        v = (v * int(i) + c) % MERSENNE61
    return v % h.range_size + 1


def expected_bucket(h, i: int) -> int:
    """A CountSketch row's bucket of item i, in [1, cols], from the row's
    hash onto [1, 2 * cols]: with w = hash - 1, bucket w mod cols + 1."""
    return (expected_hash(h, i) - 1) % (h.range_size // 2) + 1


def expected_sign(h, i: int) -> int:
    """A CountSketch row's sign of item i from the row's hash onto
    [1, 2 * cols]: -1 exactly when w = hash - 1 is at least cols."""
    return -1 if expected_hash(h, i) - 1 >= h.range_size // 2 else 1


def expected_countsketch_cells(state: ExactState, table) -> np.ndarray:
    """Recompute a CountSketch's cells from the exact vector and the table's
    own hashes, independent of the incremental update path."""
    cells = np.zeros((table.rows, table.cols), dtype=np.int64)
    items = np.nonzero(state.frequencies)[0].astype(np.int64) + 1
    f = state.frequencies[items - 1]
    for j, h in enumerate(table.hashes):
        w = h.eval_many(items) - 1  # bucket w mod cols, sign -1 from cols up
        np.add.at(cells[j], w % table.cols, np.where(w < table.cols, f, -f))
    return cells


def expected_stable_cells(state: ExactState, table) -> np.ndarray:
    """Recompute a stable table's cells: sum over items of f * variate,
    accumulated in ascending item order, each bucket by `expected_hash`
    and each variate by `expected_variate`."""
    cells = np.zeros((table.cols, 3))
    for i in np.flatnonzero(state.frequencies).tolist():
        f = float(state.frequencies[i])
        row = cells[expected_hash(table.bucket_hash, i + 1) - 1]
        for slot in (1, 2, 3):
            row[slot - 1] += f * expected_variate(table.source, slot, i + 1)
    return cells


def expected_point_estimate(table, i: int) -> float:
    """Scalar reference for `CountSketchTable.point_estimate_many`: the
    median over rows of cell * sign for item i, one hash call per row."""
    vals = [table.cells[j][expected_bucket(h, i) - 1] * expected_sign(h, i)
            for j, h in enumerate(table.hashes)]
    return float(np.median(vals))


def expected_isolation_row(hashes, item: int, heavy_items) -> int | None:
    """Scalar reference for the estimator's isolation table: the smallest
    row index (1-based) whose hash puts `item` in a bucket apart from every
    other member of `heavy_items`, or None if no row does."""
    item = int(item)
    others = [int(k) for k in heavy_items if int(k) != item]
    for j, h in enumerate(hashes):
        b = expected_bucket(h, item)
        if all(expected_bucket(h, k) != b for k in others):
            return j + 1
    return None


def cauchy_variate(u: float) -> float:
    """Scalar reference for `stable.cauchy_variates`: a standard Cauchy draw
    from a uniform u in (0, 1), clamped to +-TRUNCATION_CAP."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly inside (0, 1)")
    x = math.tan(math.pi * (u - 0.5))
    return max(-TRUNCATION_CAP, min(TRUNCATION_CAP, x))


def expected_uniform(source, slot: int, item: int) -> float:
    """Scalar reference for the uniform behind variate `slot` in {1, 2, 3}
    of `item` in a `StableVariateSource`: w = `expected_hash` of the slot's
    row onto [1, 2**52], as (w - 1/2) / 2**52."""
    if slot not in (1, 2, 3):
        raise ValueError("slot must be 1, 2 or 3")
    w = expected_hash(KWiseHash(source.coeffs[slot - 1], LATTICE), item)
    return (w - 0.5) / LATTICE


def expected_variate(source, slot: int, item: int) -> float:
    """Scalar reference for `StableVariateSource.variates_for`: the reference
    uniform through `cauchy_variate`. It agrees with the vector path to a
    few ulps, since numpy and libm may round tan differently."""
    return cauchy_variate(expected_uniform(source, slot, item))
