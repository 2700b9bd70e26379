"""CountSketch tables: point frequency estimates, top-k, F2 and residual F2.

Cells are signed 64-bit counters; an update (i, v) adds v * sign_j(i) to one
cell per row. With the C hashing kernel loaded, a batch is hashed and
scattered in one pass per row; the numpy path (hash matrices plus
`np.add.at`) is the fallback and the bitwise reference. `update_many`
keeps the cells of every item it touched, so reads over those items hash
nothing; `scatter_many` adds a batch and keeps nothing, for a table whose
reads hash the few items they need.
Ingestion is single-writer; once the writer quiesces, every read is safe
from any number of threads. Distinct tables may be written by distinct
threads.
"""

from __future__ import annotations

import mmap

import numpy as np

from . import hashing, seeds
from .hashing import KWiseHash

# hard ceiling on |cell|; update streams are sized so m * M stays below it
CELL_LIMIT = 1 << 62
# bucket hashes are 8-wise independent; sign hashes are 4-wise, range 2
BUCKET_INDEPENDENCE = 8
SIGN_INDEPENDENCE = 4
# bytes in a transparent huge page on 4 KiB-page x86-64 and arm64 kernels
HUGE_PAGE = 1 << 21
# items per block of point estimates: a block's (items, rows) temporaries
# are reused from the heap instead of mapped afresh and faulted in per query
_ESTIMATE_BLOCK = 1024


class SketchInvariantError(RuntimeError):
    """An internal accumulator invariant was violated (overflow / NaN)."""


def row_medians(values: np.ndarray) -> np.ndarray:
    """Bitwise `np.median(values, axis=1)` of an (items, rows) float array
    without NaNs, sorting `values` in place: one sort along the short,
    contiguous last axis runs several times faster than median's partition
    along it."""
    values.sort(axis=1)
    mid = values.shape[1] // 2
    if values.shape[1] % 2:
        return values[:, mid].copy()
    return (values[:, mid - 1] + values[:, mid]) / 2


def batch_magnitude(deltas: np.ndarray) -> float:
    """Sum of |delta| over a batch, in float64: a batch below CELL_LIMIT
    cannot wrap an int64 sum of its deltas."""
    return float(np.abs(np.asarray(deltas, dtype=np.float64)).sum())


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
    """rows x cols signed-counter sketch with per-row bucket and sign hashes.

    Row j's sign hash is a range-2 `KWiseHash`: bucket 1 is sign +1 and
    bucket 2 is sign -1.

    Every item index `update_many` ever saw is kept in one ascending array
    (space O(distinct items)), the candidates of top-k enumeration, next to
    its packed cell in every row, so reads over the touched items hash
    nothing; `scatter_many` keeps no items.
    A packed cell is (bucket - 1) << 1 | (sign == -1) as uint32, laid out
    item-major: the table holds 8 + 4 * rows bytes per touched item.
    """

    def __init__(self, rows: int, cols: int, *, bucket_hashes, sign_hashes):
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if cols >= 1 << 31:
            raise ValueError("cols must be below 2**31, so a packed cell fits 32 bits")
        if len(bucket_hashes) != rows or len(sign_hashes) != rows:
            raise ValueError("need one bucket hash and one sign hash per row")
        if any(s.range_size != 2 for s in sign_hashes):
            raise ValueError("sign hashes need range 2")
        self.rows = rows
        self.cols = cols
        self.bucket_hashes = tuple(bucket_hashes)
        self.sign_hashes = tuple(sign_hashes)
        # every row's bucket hash, then every row's sign hash, in one pass
        self._row_hash = KWiseHash.stack(self.bucket_hashes + self.sign_hashes)
        self.cells = zeroed_cells((rows, cols), np.int64)
        # flat index in `cells` of each row's first cell
        self._row_start = np.arange(rows, dtype=np.int64) * cols
        self._touched = np.zeros(0, dtype=np.int64)
        self._packed = np.zeros((0, rows), dtype=np.uint32)

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
            KWiseHash.from_seed(seeds.derive_key(key, role + "-sign", j),
                                SIGN_INDEPENDENCE, n, 2)
            for j in range(rows)
        ]
        return cls(rows, cols, bucket_hashes=bucket, sign_hashes=sign)

    # -- ingestion ---------------------------------------------------------

    def update(self, i: int, v: int) -> None:
        """Apply one turnstile record (item i, signed delta v)."""
        self.update_many(np.array([i], dtype=np.int64),
                         np.array([v], dtype=np.int64))

    def update_many(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch with `scatter_many`; if that did not raise, the
        batch's items join the touched items, with their packed cells."""
        items = np.asarray(items, dtype=np.int64)
        self._remember(items, self.scatter_many(items, deltas))

    def scatter_many(self, items: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Apply a batch of records; equivalent to per-record updates.
        Returns each item's packed cells, an (items, rows) uint32 array.

        With the C kernel each row is hashed and scattered in one pass
        (`hashing.scatter_signed`). Without it the numpy body below runs;
        it is also the bitwise reference the kernel is tested against.
        Either way the whole batch is added, and then SketchInvariantError
        is raised if a cell it wrote ends at |cell| >= 2**62.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return np.zeros((0, self.rows), dtype=np.uint32)
        deltas = np.asarray(deltas, dtype=np.int64)
        if deltas.shape != items.shape:
            raise ValueError("need one delta per item")
        # a batch whose total magnitude reaches 2**62 could wrap int64
        # before the post-add check below sees it
        if batch_magnitude(deltas) >= CELL_LIMIT:
            raise SketchInvariantError("batch magnitude would overflow counters")
        if hashing._kernel is not None:
            overflow, packed = hashing.scatter_signed(self._row_hash, items, deltas,
                                                      self.cells, CELL_LIMIT)
        else:
            idx, signed = self.hash_matrices(items)
            packed = self._pack(idx, signed)
            signed *= deltas  # in place: (rows x items) temporaries add up
            flat = self.cells.reshape(-1)
            np.add.at(flat, idx, signed)
            touched = flat[idx]
            overflow = np.abs(touched, out=touched).max() >= CELL_LIMIT
        if overflow:
            raise SketchInvariantError("counter overflow: |cell| >= 2**62")
        return packed

    def _remember(self, items: np.ndarray, packed: np.ndarray) -> None:
        """Insert the batch's items not yet touched, once each, with their
        packed cells. Both arrays stay ascending by item; the cached rows
        are moved into place whole, not gathered by index."""
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

    def hash_matrices(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell and sign of every item in every row, from one multi-row hash
        evaluation: two (rows, items) int64 arrays, the first indexing the
        flattened `cells` (row j at j * cols + bucket - 1), the second +-1."""
        both = self._row_hash.eval_many(np.asarray(items, dtype=np.int64))
        idx, signs = both[:self.rows], both[self.rows:]
        idx += self._row_start[:, None] - 1
        signs *= -2
        signs += 3  # sign bucket 1 -> +1, bucket 2 -> -1
        return idx, signs

    def _pack(self, idx: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """The (items, rows) uint32 packed cells of `hash_matrices` output."""
        packed = (idx - self._row_start[:, None]) << 1 | (signs < 0)
        return np.ascontiguousarray(packed.T, dtype=np.uint32)

    def packed_cells(self, items: np.ndarray) -> np.ndarray:
        """Packed cells of any items, by hashing them."""
        return self._pack(*self.hash_matrices(items))

    def unpack(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`hash_matrices` of packed cells, item-major: the index in the
        flattened `cells` and the +-1 sign of each, as (items, rows) int64."""
        signs = packed.astype(np.int64)
        idx = signs >> 1
        idx += self._row_start
        signs &= 1
        signs *= -2
        signs += 1
        return idx, signs

    # -- estimation --------------------------------------------------------
    #
    # The estimate-side methods take `items` (default: the touched items,
    # whose packed cells come from the cache) plus, when the caller already
    # has them, their `packed` cells and `estimates =
    # point_estimate_many(items, packed)`; items passed without their packed
    # cells are hashed.

    def point_estimate_many(self, items: np.ndarray, packed=None) -> np.ndarray:
        """Median over rows of cell * sign: the frequency estimate of each item."""
        items = np.asarray(items, dtype=np.int64)
        if packed is None:
            packed = self.packed_cells(items)
        out = np.empty(items.size)
        for lo in range(0, items.size, _ESTIMATE_BLOCK):
            idx, signs = self.unpack(packed[lo:lo + _ESTIMATE_BLOCK])
            per_item = self.cells.reshape(-1).take(idx)
            per_item *= signs
            out[lo:lo + _ESTIMATE_BLOCK] = row_medians(per_item.astype(np.float64))
        return out

    def _ranked(self, k: int, items, packed, estimates):
        """(items, packed, estimates, positions of the top k): the positions
        order |estimate| descending, ties to the smaller index."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if items is None:
            items, packed = self.touched_items(), self.touched_cells()
        if items.size == 0 or k == 0:
            return items, packed, estimates, np.zeros(0, dtype=np.int64)
        if packed is None:
            packed = self.packed_cells(items)
        if estimates is None:
            estimates = self.point_estimate_many(items, packed)
        order = np.lexsort((items, -np.abs(estimates)))[:k]
        return items, packed, estimates, order

    def top_k(self, k: int, items=None, packed=None,
              estimates=None) -> list[tuple[int, float]]:
        """k candidates of largest |estimate|, ties to the smaller index.

        Returns all candidates when fewer than k items were touched.
        """
        items, _, est, order = self._ranked(k, items, packed, estimates)
        return [(int(items[o]), float(est[o])) for o in order]

    def f2_estimate(self) -> float:
        """Median over rows of the sum of squared cells."""
        return float(np.median((self.cells.astype(float) ** 2).sum(axis=1)))

    def f2_residual_estimate(self, k: int, items=None, packed=None,
                             estimates=None) -> float:
        """Estimated second moment of everything outside the top-k items.

        Per row, the estimated contribution of each top-k item is removed
        from its cell and the squared cells are summed; the median row value
        is returned (clamped at zero). k = 0 reduces to `f2_estimate`.
        """
        _, packed, est, top = self._ranked(k, items, packed, estimates)
        if top.size == 0:
            return self.f2_estimate()
        idx, signs = self.unpack(packed[top])
        est = est[top]
        # row by row: one row's float copy stays in cache, the whole
        # table's does not (a single scatter over it ran 4x slower)
        row_vals = np.empty(self.rows)
        skimmed = np.empty(self.cols)
        for j in range(self.rows):
            skimmed[:] = self.cells[j]
            np.subtract.at(skimmed, idx[:, j] - j * self.cols, est * signs[:, j])
            np.square(skimmed, out=skimmed)
            row_vals[j] = skimmed.sum()
        return max(0.0, float(np.median(row_vals)))

    def nbytes(self) -> int:
        return int(self.cells.nbytes)
