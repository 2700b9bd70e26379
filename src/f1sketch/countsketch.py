"""CountSketch tables: point frequency estimates, top-k, F2 and residual F2.

Cells are signed 64-bit counters; an update (i, v) adds v * sign_j(i) to one
cell per row. With the C hashing kernel loaded, a batch is hashed and
scattered in one pass per row; the numpy path (hash matrices plus
`np.add.at`) is the fallback and the bitwise reference. Ingestion is
single-writer; once the writer quiesces, every read is safe from any number
of threads. Distinct tables may be written by distinct threads.
"""

from __future__ import annotations

import mmap

import numpy as np

from . import hashing, seeds
from .hashing import KWiseHash, SignHash

# hard ceiling on |cell|; update streams are sized so m * M stays below it
CELL_LIMIT = 1 << 62
# bucket hashes are 8-wise independent; sign hashes are 4-wise (SignHash)
BUCKET_INDEPENDENCE = 8


class SketchInvariantError(RuntimeError):
    """An internal accumulator invariant was violated (overflow / NaN)."""


def column_medians(values: np.ndarray) -> np.ndarray:
    """Bitwise `np.median(values, axis=0)` of a float array without NaNs,
    sorting `values` in place: one sort along the short axis runs several
    times faster than median's partition along it."""
    values.sort(axis=0)
    mid = values.shape[0] // 2
    if values.shape[0] % 2:
        return values[mid].copy()
    return (values[mid - 1] + values[mid]) / 2


def batch_magnitude(deltas: np.ndarray) -> float:
    """Sum of |delta| over a batch, in float64: a batch below CELL_LIMIT
    cannot wrap an int64 sum of its deltas."""
    return float(np.abs(np.asarray(deltas, dtype=np.float64)).sum())


def zeroed_cells(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array on its own anonymous memory map.

    `np.zeros` takes its memory from the C heap, which clears recycled
    memory at allocation time whenever freed memory was not returned to the
    OS, so building an estimator took 1.9 to 2.6 ms (2-vCPU VM) depending
    only on allocator history. Fresh mapped pages are zeroed by the kernel
    when first written, whatever ran before.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class CountSketchTable:
    """rows x cols signed-counter sketch with per-row bucket and sign hashes.

    Top-k enumeration draws its candidates from every item index ever
    updated, kept as one ascending array (space O(distinct items)).
    """

    def __init__(self, rows: int, cols: int, *, bucket_hashes, sign_hashes):
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if len(bucket_hashes) != rows or len(sign_hashes) != rows:
            raise ValueError("need one bucket hash and one sign hash per row")
        self.rows = rows
        self.cols = cols
        self.bucket_hashes = tuple(bucket_hashes)
        self.sign_hashes = tuple(sign_hashes)
        # every row's bucket hash, then every row's sign hash, in one pass
        self._row_hash = KWiseHash.stack(
            self.bucket_hashes + tuple(s.inner for s in self.sign_hashes))
        self.cells = zeroed_cells((rows, cols), np.int64)
        # flat index in `cells` of bucket 0 of each row (buckets are 1-based)
        self._bucket_base = np.arange(rows, dtype=np.int64)[:, None] * cols - 1
        self._touched = np.zeros(0, dtype=np.int64)

    @classmethod
    def from_seed(cls, key: bytes, rows: int, cols: int, n: int, *,
                  role: str = "cs") -> "CountSketchTable":
        """Build a table whose per-row hashes are derived from one PRF key."""
        bucket = [
            KWiseHash.from_seed(seeds.derive_key(key, role + "-bucket", j),
                                BUCKET_INDEPENDENCE, n, cols)
            for j in range(rows)
        ]
        sign = [
            SignHash.from_seed(seeds.derive_key(key, role + "-sign", j), n)
            for j in range(rows)
        ]
        return cls(rows, cols, bucket_hashes=bucket, sign_hashes=sign)

    # -- ingestion ---------------------------------------------------------

    def update(self, i: int, v: int) -> None:
        """Apply one turnstile record (item i, signed delta v)."""
        self.update_many(np.array([i], dtype=np.int64),
                         np.array([v], dtype=np.int64))

    def update_many(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch of records; equivalent to per-record updates.

        With the C kernel each row is hashed and scattered in one pass
        (`hashing.scatter_signed`). Without it the numpy body below runs;
        it is also the bitwise reference the kernel is tested against.
        Either way the whole batch is added, and then SketchInvariantError
        is raised if a cell it wrote ends at |cell| >= 2**62.
        """
        if len(items) == 0:
            return
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if deltas.shape != items.shape:
            raise ValueError("need one delta per item")
        # a batch whose total magnitude reaches 2**62 could wrap int64
        # before the post-add check below sees it
        if batch_magnitude(deltas) >= CELL_LIMIT:
            raise SketchInvariantError("batch magnitude would overflow counters")
        if hashing._kernel is not None:
            overflow = hashing.scatter_signed(self._row_hash, items, deltas, self.cells,
                                              CELL_LIMIT)
        else:
            idx, signed = self.hash_matrices(items)
            signed *= deltas  # in place: (rows x items) temporaries add up
            flat = self.cells.reshape(-1)
            np.add.at(flat, idx, signed)
            touched = flat[idx]
            overflow = np.abs(touched, out=touched).max() >= CELL_LIMIT
        if overflow:
            raise SketchInvariantError("counter overflow: |cell| >= 2**62")
        # sort-and-mask merge: several times faster than np.union1d here
        merged = np.sort(np.concatenate((self._touched, items)))
        fresh = np.empty(merged.size, dtype=bool)
        fresh[0] = True
        np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
        self._touched = merged[fresh]

    def touched_items(self) -> np.ndarray:
        """Every item index ever updated, ascending, as a new int64 array."""
        return self._touched.copy()

    def hash_matrices(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell and sign of every item in every row, from one multi-row hash
        evaluation: two (rows, items) int64 arrays, the first indexing the
        flattened `cells` (row j at j * cols + bucket - 1), the second +-1."""
        both = self._row_hash.eval_many(np.asarray(items, dtype=np.int64))
        idx, signs = both[:self.rows], both[self.rows:]
        idx += self._bucket_base
        signs *= -2
        signs += 3  # sign bucket 1 -> +1, bucket 2 -> -1
        return idx, signs

    # -- estimation --------------------------------------------------------
    #
    # The estimate-side methods take `items` (default: the touched items)
    # plus, when the caller already has them, `hashed = hash_matrices(items)`
    # and `estimates = point_estimate_many(items, hashed)`, so one estimate
    # hashes each item once.

    def point_estimate_many(self, items: np.ndarray, hashed=None) -> np.ndarray:
        """Median over rows of cell * sign: the frequency estimate of each item."""
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return np.zeros(0)
        idx, signs = self.hash_matrices(items) if hashed is None else hashed
        per_row = np.take(self.cells, idx)
        per_row *= signs
        return column_medians(per_row.astype(np.float64))

    def _ranked(self, k: int, items, hashed, estimates):
        """(items, hashed, estimates, positions of the top k): the positions
        order |estimate| descending, ties to the smaller index."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if items is None:
            items = self.touched_items()
        if items.size == 0 or k == 0:
            return items, hashed, estimates, np.zeros(0, dtype=np.int64)
        if hashed is None:
            hashed = self.hash_matrices(items)
        if estimates is None:
            estimates = self.point_estimate_many(items, hashed)
        order = np.lexsort((items, -np.abs(estimates)))[:k]
        return items, hashed, estimates, order

    def top_k(self, k: int, items=None, hashed=None,
              estimates=None) -> list[tuple[int, float]]:
        """k candidates of largest |estimate|, ties to the smaller index.

        Returns all candidates when fewer than k items were touched.
        """
        items, _, est, order = self._ranked(k, items, hashed, estimates)
        return [(int(items[o]), float(est[o])) for o in order]

    def f2_estimate(self) -> float:
        """Median over rows of the sum of squared cells."""
        return float(np.median((self.cells.astype(float) ** 2).sum(axis=1)))

    def f2_residual_estimate(self, k: int, items=None, hashed=None,
                             estimates=None) -> float:
        """Estimated second moment of everything outside the top-k items.

        Per row, the estimated contribution of each top-k item is removed
        from its cell and the squared cells are summed; the median row value
        is returned (clamped at zero). k = 0 reduces to `f2_estimate`.
        """
        _, hashed, est, top = self._ranked(k, items, hashed, estimates)
        if top.size == 0:
            return self.f2_estimate()
        idx, signs = hashed[0][:, top], hashed[1][:, top]
        est = est[top]
        # row by row: one row's float copy stays in cache, the whole
        # table's does not (a single scatter over it ran 4x slower)
        row_vals = np.empty(self.rows)
        for j in range(self.rows):
            skimmed = self.cells[j].astype(float)
            np.subtract.at(skimmed, idx[j] - j * self.cols, est * signs[j])
            row_vals[j] = (skimmed ** 2).sum()
        return max(0.0, float(np.median(row_vals)))

    def nbytes(self) -> int:
        return int(self.cells.nbytes)
