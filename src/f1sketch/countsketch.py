"""CountSketch tables: point frequency estimates, top-k, F2 and residual F2.

Cells are signed 64-bit counters; an update (i, v) adds v * sign_j(i) to one
cell per row. Row j is one 8-wise hash onto [1, 2 * cols]: with w = hash - 1
the bucket is w mod cols, and the sign is -1 exactly when w >= cols. So
(bucket, sign) is jointly 8-wise independent, more than CountSketch needs
(Charikar, Chen & Farach-Colton, ICALP 2002), with a bias of at most
2 * cols / (2**61 - 1). An item's cells have two forms: the matrix rows, which
define them, and packed cells, one uint32 of bucket and sign per row. A
batch is hashed and scattered in blocks of items, every row per block
(`hashing.scatter_signed`). A table keeps the exact sum of |delta| over
the batches it took, which bounds every |cell|, and refuses a batch that
would take that sum to 2**62 before it writes any cell, so a refused
batch changes nothing. That holds the counters to the m * M < 2**62
they are sized for, and refuses a turnstile stream past it even where
its cells cancel and stay small. `update_many` keeps the packed cells of
every touched item, so reads over them hash nothing;
`scatter_many` keeps nothing and may skip them. Point estimates are the
medians of the signed cells at packed cells, read and sorted in one pass
(`hashing.signed_medians`); `top_k` and `f2_residual_estimate` rank the
touched items, and the residual F2 skims blocks of rows
(`hashing.skim_rows`). `hashing` runs each of these in its C kernel or in
the numpy twin of it; the row sums of the residual F2 are numpy's.
Ingestion is single-writer; once the writer quiesces, every read is safe
from any number of threads. Distinct tables may be written by distinct
threads.
"""

from __future__ import annotations

import mmap

import numpy as np

from . import hashing, seeds
from .hashing import MERSENNE61, KWiseHash

# hard ceiling on |cell|; update streams are sized so m * M stays below it.
# A table refuses, before writing any cell, a batch that would take its
# running sum of |delta| to the ceiling, so a stream past m * M < 2**62 is
# refused even where its cells cancel and stay small
CELL_LIMIT = 1 << 62
# each row's hash, bucket and sign alike, is 8-wise independent
BUCKET_INDEPENDENCE = 8
# bytes in a transparent huge page on 4 KiB-page x86-64 and arm64 kernels
HUGE_PAGE = 1 << 21
# bytes of float64 rows `hashing.skim_rows` skims per call: each call adds a
# numpy row sum, so fewer, larger blocks run faster (8 rows of 4,096
# columns took 141 us where 128 KiB blocks took 163), and the bound keeps
# one query's buffer small however wide the table
_SKIM_BYTES = 1 << 18


class SketchInvariantError(RuntimeError):
    """An internal accumulator invariant was violated (overflow / NaN)."""


def batch_reaches_limit(deltas: np.ndarray) -> bool:
    """Whether a batch's exact sum of |delta| reaches CELL_LIMIT; a batch
    below it cannot wrap an int64 sum of its deltas."""
    return hashing.abs_sum(deltas, CELL_LIMIT) == CELL_LIMIT


def zeroed_cells(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array on its own private anonymous memory map, starting
    on a 2 MiB boundary, with transparent huge pages asked for on the whole
    2 MiB pages inside it.

    `np.zeros` takes its memory from the C heap, which clears recycled
    memory at allocation time whenever freed memory was not returned to the
    OS, so building an estimator took 1.9 to 2.6 ms (2-vCPU VM) depending
    only on allocator history. Fresh mapped pages are zeroed by the OS
    when first written, whatever ran before, so construction touches no
    cell. The first ingest then pays one fault per page it writes; on 4 KiB
    pages that was about a third of a fresh estimator's ingest time.

    The map is over-allocated by 2 MiB so the array can be aligned; the
    unused head and tail are never touched and cost address space only.
    The partial 2 MiB page at the array's end is not advised: a huge page
    there would make memory resident that the array never uses. Where the
    OS lacks `MADV_HUGEPAGE` or refuses it, the cells stay on 4 KiB pages.
    The map is private, so a forked child's writes never reach the
    parent's cells.
    """
    count = int(np.prod(shape))
    nbytes = count * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, nbytes + HUGE_PAGE, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    start = -np.frombuffer(buf, dtype=np.uint8).ctypes.data % HUGE_PAGE
    whole = nbytes - nbytes % HUGE_PAGE
    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    if whole and advice is not None:
        try:
            buf.madvise(advice, start, whole)
        except OSError:
            pass  # no transparent huge pages here: 4 KiB pages still work
    return np.frombuffer(buf, dtype=dtype, count=count, offset=start).reshape(shape)


class CountSketchTable:
    """rows x cols signed-counter sketch with one hash per row.

    Row j's hash is `coeffs[j]`, one polynomial onto [1, 2 * cols], read as
    bucket and sign (see the module docstring); `coeffs` is read-only.
    `_mass`, the exact sum of |delta| over every batch the table took,
    bounds every |cell| and stays below CELL_LIMIT.

    Every item index `update_many` ever saw is kept in one ascending array
    (space O(distinct items)), the candidates of top-k enumeration, next to
    its packed cell in every row, so reads over the touched items hash
    nothing; `scatter_many` keeps no items.
    A packed cell is bucket << 1 | (sign == -1) as uint32, laid out
    item-major: the table holds 8 + 4 * rows bytes per touched item.
    `point_estimate_many` takes packed cells; `top_k` and
    `f2_residual_estimate` rank the touched items.
    """

    def __init__(self, coeffs, cols: int):
        coeffs = hashing.field_coeffs(coeffs).copy()  # its own, frozen below
        if not 1 <= cols < 1 << 31:
            raise ValueError("cols must lie in [1, 2**31), so a packed cell fits 32 bits")
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self.rows = coeffs.shape[0]
        self.cols = cols
        self.cells = zeroed_cells((self.rows, cols), np.int64)
        self._mass = 0
        self._touched = np.zeros(0, dtype=np.int64)
        self._packed = np.zeros((0, self.rows), dtype=np.uint32)

    @classmethod
    def from_seed(cls, key: bytes, rows: int, cols: int, n: int, *,
                  role: str = "cs") -> "CountSketchTable":
        """A table over the domain [1, n], row j drawn as `KWiseHash.from_seed` would."""
        if not 1 <= n < MERSENNE61:
            raise ValueError("domain size n must lie in [1, 2**61 - 1), the hash field")
        return cls([seeds.field_elements(seeds.derive_key(key, role + "-bucket", j),
                                         BUCKET_INDEPENDENCE, MERSENNE61)
                    for j in range(rows)], cols)

    @property
    def hashes(self) -> tuple:
        """Each row as a `KWiseHash` onto [1, 2 * cols], built on request."""
        return tuple(KWiseHash(row, 2 * self.cols) for row in self.coeffs.tolist())

    # -- ingestion ---------------------------------------------------------

    def update_many(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch with `scatter_many`; if that did not raise, the
        batch's items join the touched items, with their packed cells."""
        items = np.asarray(items, dtype=np.int64)
        self._remember(items, self.scatter_many(items, deltas))

    def scatter_many(self, items: np.ndarray, deltas: np.ndarray,
                     packed: bool = True) -> np.ndarray | None:
        """Apply a batch of records; equivalent to per-record updates.
        Returns each item's packed cells, an (items, rows) uint32 array, or
        None when `packed` is False.

        SketchInvariantError, before any cell is written, when the batch's
        exact sum of |delta| would take `_mass` to 2**62; else the whole
        batch is added (`hashing.scatter_signed`), and no cell can reach
        2**62 or wrap.
        """
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if deltas.shape != items.shape:
            raise ValueError("need one delta per item")
        room = CELL_LIMIT - self._mass
        mass = hashing.abs_sum(deltas, room)
        if mass == room:
            raise SketchInvariantError("batch magnitude would overflow counters: the table's "
                                       "sum of |delta| would reach 2**62")
        out = hashing.scatter_signed(self.coeffs, items, deltas, self.cells, packed)
        self._mass += mass
        return out

    def _remember(self, items: np.ndarray, packed: np.ndarray) -> None:
        """Insert the batch's items not yet touched, once each, with their
        packed cells. Both arrays stay ascending by item; the cached rows
        are moved into place whole, not gathered by index. The first batch
        of a table, ascending with no repeats as a flush's is, becomes the
        touched items as it is."""
        if self._touched.size == 0 and (items[1:] > items[:-1]).all():
            self._touched, self._packed = items.copy(), packed
            return
        pos = np.searchsorted(self._touched, items)
        if self._touched.size:
            fresh = np.flatnonzero(self._touched.take(pos, mode="clip") != items)
        else:
            fresh = np.arange(items.size)
        if fresh.size == 0:
            return
        new = items[fresh]
        if not (new[1:] > new[:-1]).all():  # a direct call may repeat or reorder items
            new, first = np.unique(new, return_index=True)
            fresh = fresh[first]
        size = self._touched.size + new.size
        dest = pos[fresh] + np.arange(new.size)  # each lands after the new ones before it
        kept = np.ones(size, dtype=bool)
        kept[dest] = False
        touched = np.empty(size, dtype=np.int64)
        touched[dest] = new
        touched[kept] = self._touched
        cells = np.empty((size, self.rows), dtype=np.uint32)
        # an item's row of cells as one element: masked copies move rows, not words
        row = np.dtype((np.void, cells.strides[0]))
        as_rows = cells.view(row).reshape(-1)
        as_rows[dest] = packed[fresh].view(row).reshape(-1)
        as_rows[kept] = self._packed.view(row).reshape(-1)
        self._touched, self._packed = touched, cells

    def touched_items(self) -> np.ndarray:
        """Every item index ever updated, ascending, as a new int64 array."""
        return self._touched.copy()

    def touched_cells(self) -> np.ndarray:
        """Packed cells of the touched items from the cache, hashing
        nothing: a read-only (items, rows) uint32 view aligned with
        `touched_items()`."""
        view = self._packed.view()
        view.flags.writeable = False
        return view

    def touched_nbytes(self) -> int:
        """Bytes of the touched items and their packed cells."""
        return int(self._touched.nbytes + self._packed.nbytes)

    def packed_cells(self, items: np.ndarray) -> np.ndarray:
        """Packed cells of any items, by hashing them in every row at once:
        the (items, rows) uint32 array `scatter_signed` returns."""
        w = hashing.horner_rows(self.coeffs, 2 * self.cols, items) - 1
        packed = (w % self.cols) << 1 | (w >= self.cols)
        return np.ascontiguousarray(packed.T, dtype=np.uint32)

    # -- estimation --------------------------------------------------------

    def point_estimate_many(self, packed: np.ndarray) -> np.ndarray:
        """Median over rows of cell * sign: the frequency estimate of each
        item whose (items, rows) packed cells are given, from
        `touched_cells()` or `packed_cells(items)`."""
        return hashing.signed_medians(packed, self.cells)

    def _ranked(self, k: int, estimates):
        """(estimates of the touched items, positions of the top k among
        them), both empty when k is 0 or nothing was touched: the positions
        order |estimate| descending, ties to the smaller index. `estimates`
        defaults to those of `touched_cells()`. Only the items at or above
        the k-th largest |estimate| are sorted, stably, keeping item order."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self._touched.size == 0 or k == 0:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        if estimates is None:
            estimates = self.point_estimate_many(self._packed)
        mag = np.abs(estimates)
        cut = max(mag.size - k, 0)
        cand = np.flatnonzero(mag >= np.partition(mag, cut)[cut])
        return estimates, cand[np.argsort(-mag[cand], kind="stable")][:k]

    def top_k(self, k: int, estimates=None) -> list[tuple[int, float]]:
        """k touched items of largest |estimate|, ties to the smaller index.

        Returns all touched items when fewer than k were touched.
        """
        est, order = self._ranked(k, estimates)
        return [(int(self._touched[o]), float(est[o])) for o in order]

    def f2_estimate(self) -> float:
        """Median over rows of the sum of squared cells: the residual F2 of k = 0."""
        return self.f2_residual_estimate(0)

    def f2_residual_estimate(self, k: int, estimates=None) -> float:
        """Estimated second moment of everything outside the top-k items.

        Per row, the estimated contribution of each top-k item is removed
        from its cell and the squared cells are summed; the median row value
        is returned (clamped at zero).
        """
        est, top = self._ranked(k, estimates)
        packed, est = self._packed[top], est[top]
        row_vals = np.empty(self.rows)
        step = max(1, _SKIM_BYTES // (8 * self.cols))
        skimmed = np.empty((min(step, self.rows), self.cols))
        for r0 in range(0, self.rows, step):
            block = hashing.skim_rows(self.cells, r0, packed, est, skimmed[:self.rows - r0])
            row_vals[r0:r0 + step] = block.sum(axis=1)  # bitwise each row's sum()
        return max(0.0, float(np.median(row_vals)))

    def nbytes(self) -> int:
        return int(self.cells.nbytes)
