"""Limited-independence hash families over GF(2**61 - 1), and the C kernel.

A t-wise independent hash is a uniformly random polynomial of degree t-1
over the field of the Mersenne prime 2**61 - 1, evaluated by Horner's rule
and reduced onto the bucket range [1, C]. The reduction `(value mod C) + 1`
skews bucket probabilities by at most C/2**61 relative, below 2**-45 at
desk-scale C, and is ignored. A CountSketch row is one hash onto
[1, 2 * cols], read as a bucket and a sign (see `countsketch`). Items and
coefficients must be integers in [0, 2**61 - 1); every entry point refuses others.

Hash objects are immutable after construction and safe to share across
threads.

A small C kernel, `kernel61.c` next to this module, read as text at import
(`_HORNER_SOURCE`), has eight routines: `horner61` runs `eval_many`, every
row of a coefficient matrix reduced onto one range (the stable variates'
three rows onto 2**52 among them); `scatter61` hashes CountSketch updates
in blocks of 1,024 items, every row per block, and adds each block's
deltas in a loop of its own, judging no cell (`scatter_signed`);
`abs_sum_reaches` sums |delta| exactly, capped at a limit (`abs_sum`),
for the running counter bound a CountSketch table checks before its
scatter writes any cell, so a batch it refuses writes nothing (a
turnstile stream whose |delta| sum to 2**62 is refused, however its
cells cancel); `stable_add3` adds delta * variate into the stable
accumulators in item order (`stable_add`); `dense_sums64` sums a flush's
records into dense arrays, by item or by rank (`dense_sums`);
`parse_plain` reads plain stream text; `medians61` reads the signed cells
behind CountSketch point estimates and takes each item's median with a
sorting network (`signed_medians`); and `skim61` removes the top items
from CountSketch rows for the residual F2 (`skim_rows`). It is compiled once per machine with the local gcc into
`$XDG_CACHE_HOME/f1sketch` (default `~/.cache/f1sketch`), under a file
name keyed by a hash of the source, and loaded through ctypes when this
module is imported.

On an x86-64 CPU with AVX-512F, `horner61` and `scatter61` hash 32 items
per pass (`poly61x32`: four vectors of eight items, the mulmod in 32-bit
limbs), and `medians61` sorts eight items' reads per vector (`median8`).
The library is built for the baseline x86-64 and asks the CPU once, when
it loads (`__builtin_cpu_supports`); other CPUs, and the items after the
last full group, run the scalar body (`poly61`, one item at a time
through the same comparators), which gives the same bits. Ranges that
are powers of two are reduced with a mask (`reduce61`).

Each routine has a numpy twin next to the wrapper that runs it, listed in
`_ROUTINES`: the same arguments, with arrays in place of pointers, the same
return value and the same writes. A wrapper runs the kernel when it loaded
and the twin otherwise; no other module chooses. A kernel that cannot be
built or loaded, or that disagrees with a twin on the edge cases of
`_spot_cases`, is not used. `KWISE_BACKEND` names the path in use.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import pathlib
import platform

import numpy as np

from . import seeds

MERSENNE61 = (1 << 61) - 1

_M61 = np.uint64(MERSENNE61)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)
_30, _31, _61 = np.uint64(30), np.uint64(31), np.uint64(61)


def _step61(v: np.ndarray, x1: np.ndarray, x0: np.ndarray, c: np.uint64) -> np.ndarray:
    """One Horner step v * x + c modulo 2**61 - 1 on uint64 arrays, for
    x = x1 * 2**31 + x0, folded but not fully reduced: for v < 2**62 and
    x, c < 2**61 the sum below stays under 2**64, and the result is
    congruent and under 2**61 + 6. It works in place on its own temporaries,
    as on small arrays each operation's call costs more than its arithmetic."""
    v1 = v >> _31
    v0 = v & _MASK31
    # v*x = v1*x1*2^62 + (v1*x0 + v0*x1)*2^31 + v0*x0, and 2^61 === 1 (mod p)
    mid = v1 * x0
    mid += v0 * x1
    acc = v1 * x1
    acc += acc  # 2^62 === 2 (mod p)
    acc += mid >> _30
    mid &= _MASK30
    mid <<= _31
    acc += mid
    v0 *= x0
    acc += v0
    acc += c
    v1 = acc >> _61
    acc &= _M61
    acc += v1
    return acc


def _horner_numpy(coeffs: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """(poly_r(x) mod 2**61-1) mod m + 1 as int64 for every row r of the
    (rows, t) uint64 matrix `coeffs`, leading coefficient first, and every
    item of the uint64 vector x, as a (rows, items) array."""
    x1, x0 = x >> _31, x & _MASK31
    v = np.repeat(coeffs[:, :1], x.size, axis=1)
    for k in range(1, coeffs.shape[1]):
        v = _step61(v, x1, x0, coeffs[:, k, None])
    v = np.minimum(v, v - _M61)  # the residue: v - p wraps above v when v < p
    return (v % np.uint64(m)).astype(np.int64) + 1


_HORNER_SOURCE = pathlib.Path(__file__).with_name("kernel61.c").read_text(encoding="ascii")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "f1sketch")


def _library_path(name: str, source: str, flags, *key: str) -> str:
    """Where the library `name` built from `source` with `flags` is cached:
    a file name keyed by a hash of both, of the machine and of `key`."""
    text = "\0".join((source, " ".join(flags), platform.machine(), platform.system(), *key))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"{name}-{digest}.so")


def _build_library(path: str, source: str, flags) -> None:
    """Compile `source` with `flags` to the shared library `path`. Each
    builder compiles in a private directory and renames the finished library
    into place, so concurrent builders (say, `eval --jobs` workers) never
    load a partial file."""
    import subprocess
    import tempfile

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        source_path = os.path.join(tmp, "library.c")
        with open(source_path, "w", encoding="ascii") as fh:
            fh.write(source)
        built = os.path.join(tmp, "library.so")
        try:
            subprocess.run(["gcc", *flags, "-o", built, source_path],
                           check=True, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cannot compile {os.path.basename(path)}: {exc}") from exc
        os.replace(built, path)


def _run(routine: str, *args):
    """Routine `routine` of the kernel source on `args`, in its order, with
    arrays in place of pointers: the loaded kernel's, else its numpy twin."""
    if _kernel is None:
        return _ROUTINES[routine][0](*args)
    return _c_call(_kernel, routine, args)


def _c_call(lib, routine: str, args):
    """`routine` of the library `lib` on `args`, each array passed as a
    pointer to its data."""
    return getattr(lib, routine)(*[a.ctypes.data if isinstance(a, np.ndarray) else a
                                   for a in args])


def _view(a: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of the C-contiguous array `a` as a view of
    `shape`, as a C routine reads memory through a pointer."""
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def _first(mask: np.ndarray) -> int:
    """Index of the first True of a 1-D bool array, or its size if none."""
    return int(mask.argmax()) if mask.any() else mask.size


def _field_items(items) -> np.ndarray:
    """A vector of integer items as contiguous uint64; ValueError unless each
    lies in [0, 2**61 - 1), past which the kernel and numpy disagree."""
    x = np.asarray(items)
    if x.ndim == 1 and (x.size == 0 or x.dtype.kind in "iu"):
        # as uint64 a negative item is at least 2**63: one maximum checks both ends
        x = x.view(np.uint64) if x.dtype == np.int64 else x.astype(np.uint64)
        if x.size == 0 or x.max() < MERSENNE61:
            return np.ascontiguousarray(x)
    raise ValueError("items must be a vector of integers in [0, 2**61 - 1)")


def field_coeffs(coeffs) -> np.ndarray:
    """A matrix of integer coefficients, one polynomial a row, as a
    C-contiguous uint64 array, `coeffs` itself when it already is one;
    ValueError unless it has a row and a column and each lies in
    [0, 2**61 - 1), past which the kernel and numpy disagree."""
    c = np.asarray(coeffs)
    if c.ndim == 2 and c.size and c.dtype.kind in "iu":
        # as uint64 a negative coefficient is at least 2**63: one maximum checks both ends
        c = c.astype(np.uint64, order="C", copy=False)
        if c.max() < MERSENNE61:
            return c
    raise ValueError("need a non-empty 2-D matrix of coefficients below 2**61 - 1")


def field_range(range_size) -> int:
    """`range_size` as an int; ValueError unless an integer in [1, 2**61 - 1]."""
    if not isinstance(range_size, (int, np.integer)) or not 1 <= range_size <= MERSENNE61:
        raise ValueError("range_size must be an integer in [1, 2**61 - 1]")
    return int(range_size)


# -- the routines' numpy twins, each next to the wrapper that runs it ----------


# (rows x items) cells per `_horner_numpy` call in its twin, so each
# temporary stays at 256 KiB
_TWIN_CELLS = 1 << 15


def _horner61(coeffs, m, rows, t, x, n, out) -> None:
    """Numpy twin of `horner61`: `_horner_numpy` over every row at once, in
    blocks of items that keep its temporaries in cache."""
    coeffs, out = _view(coeffs, rows, t), _view(out, rows, n)
    step = max(1, _TWIN_CELLS // max(rows, 1))
    for lo in range(0, n, step):
        out[:, lo:lo + step] = _horner_numpy(coeffs, m, x[lo:min(lo + step, n)])


def horner_rows(coeffs: np.ndarray, range_size: int, x: np.ndarray) -> np.ndarray:
    """Evaluate every row of a (rows, t) coefficient matrix, leading
    coefficient first, at every item of the vector x over GF(2**61 - 1),
    each value reduced onto [1, range_size]. Returns a (rows, items) int64
    array. ValueError for any item or coefficient outside [0, 2**61 - 1),
    or a range that is not an integer in [1, 2**61 - 1], on either path."""
    x = _field_items(x)
    coeffs = field_coeffs(coeffs)
    m = field_range(range_size)
    out = np.empty((coeffs.shape[0], x.size), dtype=np.int64)
    _run("horner61", coeffs, m, coeffs.shape[0], coeffs.shape[1], x, x.size, out)
    return out


def _scatter61(coeffs, rows, t, x, deltas, n, cells, cols, packed) -> None:
    """Numpy twin of `scatter61`: every row hashed by `_horner61`, then
    `np.add.at`."""
    if n == 0:
        return
    w = np.empty((rows, n), dtype=np.int64)
    _horner61(coeffs, 2 * cols, rows, t, x, n, w)
    w = w.T - 1
    negative = w >= cols
    w -= cols * negative  # the bucket
    if packed is not None:
        _view(packed, n, rows)[:] = w << 1 | negative
    w += np.arange(rows) * cols  # the index in the flattened table
    d = deltas[:n, None]
    np.add.at(cells.reshape(-1), w, np.where(negative, -d, d))


def scatter_signed(coeffs: np.ndarray, items: np.ndarray, deltas: np.ndarray,
                   cells: np.ndarray, packed: bool) -> np.ndarray | None:
    """Add sign_r(i) * delta into cells[r, bucket_r(i)] for every row r of
    the (rows, cols) int64 table `cells` and every item i, wrapping as
    numpy's int64 adds do (`scatter61`); it judges no cell. `coeffs` is a
    `CountSketchTable`'s (rows, t) matrix, one polynomial per row; row r's
    field value is reduced onto w in [0, 2 * cols), whose bucket is
    w mod cols and whose sign is -1 exactly when w >= cols. Returns every
    item's packed cell in every row as an (items, rows) uint32 array,
    bucket << 1 | (sign == -1), or None when `packed` is False.

    Needs items and coefficients in [0, 2**61 - 1), as `horner_rows` does,
    and cols < 2**31, so a packed cell fits 32 bits.
    """
    rows, cols = cells.shape
    x = _field_items(items)
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    coeffs = field_coeffs(coeffs)
    if (cells.dtype != np.int64 or not cells.flags.c_contiguous or not cells.flags.writeable
            or cols >= 1 << 31 or x.shape != d.shape or coeffs.shape[0] != rows):
        raise ValueError("scatter_signed needs a writable C-contiguous int64 table under "
                         "2**31 columns, one delta per item, one polynomial per row")
    out = np.empty((x.size, rows), dtype=np.uint32) if packed else None
    _run("scatter61", coeffs, rows, coeffs.shape[1], x, d, x.size, cells, cols, out)
    return out


def _abs_sum_reaches(deltas, n, limit) -> int:
    """Numpy twin of `abs_sum_reaches`: the high and low 32-bit halves of
    |delta| are summed apart, so neither sum can wrap."""
    mag = np.abs(deltas[:n]).view(np.uint64)  # |-2**63| wraps to 2**63 as uint64
    high = int((mag >> np.uint64(32)).sum())
    return min((high << 32) + int((mag & np.uint64(0xFFFFFFFF)).sum()), limit)


def abs_sum(deltas: np.ndarray, limit: int) -> int:
    """The exact sum of |delta| over an int64 vector, counting |-2**63| as
    2**63, when it is below `limit`, at most 2**63; else `limit`
    (`abs_sum_reaches`)."""
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    return int(_run("abs_sum_reaches", d, d.size, limit))


def _stable_add3(cells, cols, buckets, deltas, variates, n) -> int:
    """Numpy twin of `stable_add3`: `np.add.at`, which adds in item order
    too, up to the first bucket outside [1, cols]; then the rows written
    are checked for a non-finite cell."""
    b = buckets[:n] - 1
    stop = _first(b.view(np.uint64) >= cols)
    table = _view(cells, cols, 3)
    np.add.at(table, b[:stop], deltas[:stop, None] * _view(variates, n, 3)[:stop])
    return 1 if stop < n else 0 if np.isfinite(table[b]).all() else 2


def stable_add(cells: np.ndarray, buckets: np.ndarray, deltas: np.ndarray,
               variates: np.ndarray) -> bool:
    """Add deltas[i] * variates[i] into row buckets[i] - 1 of the (cols, 3)
    float64 table `cells`, item by item (`stable_add3`), so every sum
    rounds as `np.add.at`'s does. Returns whether a cell written is
    infinite or NaN, found in O(items), not O(cols). ValueError for a
    bucket outside [1, cols], after the adds before it."""
    b = np.ascontiguousarray(buckets, dtype=np.int64)
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    v = np.ascontiguousarray(variates, dtype=np.float64)
    if (cells.dtype != np.float64 or not cells.flags.c_contiguous or not cells.flags.writeable
            or cells.ndim != 2 or cells.shape[1] != 3 or b.ndim != 1 or d.shape != b.shape
            or v.shape != (b.size, 3)):
        raise ValueError("stable_add needs a writable C-contiguous (cols, 3) float64 table "
                         "and one delta and three variates per bucket")
    status = _run("stable_add3", cells, cells.shape[0], b, d, v, b.size)
    if status == 1:
        raise ValueError("bucket outside the stable table")
    return status == 2


def _dense_sums64(items, deltas, n, sums, seen, length) -> int:
    """Numpy twin of `dense_sums64`: `np.add.at` and a scatter of ones, up to
    the first item outside [0, length)."""
    stop = _first(items[:n].view(np.uint64) >= length)
    np.add.at(sums, items[:stop], deltas[:stop])
    seen[items[:stop]] = 1
    return int(stop < n)


def dense_sums(items: np.ndarray, deltas: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, seen) over the indices [0, length): sums[i] the int64 sum of
    the deltas of item i, wrapping as numpy's int64 adds do, and seen[i] 1
    where item i has a record (so an item whose deltas cancel is seen), as
    a uint8 array (`dense_sums64`). ValueError if an item lies outside
    [0, length)."""
    x = np.ascontiguousarray(items, dtype=np.int64)
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    if x.shape != d.shape or x.ndim != 1:
        raise ValueError("dense_sums needs one delta per item")
    sums = np.zeros(length, dtype=np.int64)
    seen = np.zeros(length, dtype=np.uint8)
    if _run("dense_sums64", x, d, x.size, sums, seen, length):
        raise ValueError(f"item outside [0, {length})")
    return sums, seen


def _parse_plain(s: bytes, length: int, items, deltas, cap: int) -> int:
    """Numpy twin of `parse_plain`, in whole-array passes. It finds the first
    token that is not an optional '-' and digits, 1 to 18 bytes in all, and
    the first that breaks the pairing of tokens two to a line; the records
    of the lines before it are read by `np.fromstring`."""
    text = np.frombuffer(s, dtype=np.uint8, count=length)
    sep = (text == ord(" ")) | (text == ord("\n"))
    digit = text - np.uint8(ord("0")) < 10
    minus = text == ord("-")
    edges = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    starts, ends = edges[0::2], edges[1::2]
    if starts.size == 0:
        return 0
    # the first byte no token may hold: neither a digit nor a '-', or a '-'
    # that does not open its token or has no digit after it
    signs = np.flatnonzero(minus)
    opens = (signs == 0) | sep[signs - 1]
    closes = (signs + 1 < length) & digit[np.minimum(signs + 1, length - 1)]
    misplaced = signs[~(opens & closes)]
    stray = min(_first(~(sep | digit | minus)), misplaced[0] if misplaced.size else length)
    # whether a line break follows each token before the next one: never
    # after the first of a record, always after the second
    follows = np.append(np.logical_or.reduceat(text[:ends[-1]] == ord("\n"), ends[:-1]), True)
    first = min(np.searchsorted(starts, stray, side="right") - 1 if stray < length
                else starts.size, _first(ends - starts > 18),
                _first(follows != (np.arange(starts.size) % 2 == 1)))
    read = first - first % 2  # tokens on the lines before the first token's
    count = min(read // 2, cap)
    if count:
        values = np.fromstring(s[:ends[2 * count - 1]], dtype=np.int64, sep=" ")
        items[:count], deltas[:count] = values[0::2], values[1::2]
    return -1 if first < starts.size or read // 2 > cap else count


def parse_plain(text: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(items, deltas) of stream text with no header, one record a line, as
    int64 arrays (`parse_plain`). None when the text leaves the shape the
    routine reads: tokens of an optional '-' and digits, at most 18 bytes
    each, two on each non-blank line, split only by ' ' and '\\n'."""
    # records, not bytes, size the arrays; numpy counts 30x faster than bytes.count
    cap = np.count_nonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n")) + 1
    items, deltas = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)
    count = _run("parse_plain", text, len(text), items, deltas, cap)
    return None if count < 0 else (items[:count], deltas[:count])


def _packed_args(packed: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """`packed` as C-contiguous (items, rows) uint32 cells of the (rows, cols)
    C-contiguous int64 table `cells`; ValueError for any other shape."""
    p = np.ascontiguousarray(packed, dtype=np.uint32)
    if (cells.dtype != np.int64 or not cells.flags.c_contiguous or cells.ndim != 2
            or p.ndim != 2 or p.shape[1] != cells.shape[0]):
        raise ValueError("need (items, rows) packed cells of a C-contiguous int64 table")
    return p


@functools.cache
def _merge_exchange(rows: int) -> np.ndarray:
    """The comparators of Batcher's merge-exchange sort of `rows` keys
    (Batcher, AFIPS 1968; Knuth, TAOCP vol. 3, 5.2.2, Algorithm M), in the
    order they apply, as a read-only (pairs, 2) uint32 array of positions
    a < b: putting the smaller key at a, in turn, sorts any keys."""
    net, t = [], (rows - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            net += [(i, i + d) for i in range(rows - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    net = np.array(net, dtype=np.uint32).reshape(-1, 2)
    net.flags.writeable = False
    return net


def _medians61(packed, n, rows, cells, cols, net, pairs, work, out) -> int:
    """Numpy twin of `medians61`: in blocks of items, the signed reads taken
    from the flattened table, a bucket past its row clipped to the row's
    last cell, then sorted along rows by numpy, not by `net`; `work` is
    zeroed, as the kernel leaves it."""
    packed, flat = _view(packed, n, rows), cells.reshape(-1)
    mid, bad = rows // 2, False
    step = max(1, _TWIN_CELLS // rows)
    for lo in range(0, n, step):
        sign = packed[lo:lo + step].astype(np.int64)
        index = sign >> 1
        bad |= bool((index >= cols).any())
        np.minimum(index, cols - 1, out=index)
        index += np.arange(rows) * cols
        sign &= 1  # in place, to +-1: (items, rows) temporaries add up
        sign *= -2
        sign += 1
        values = flat.take(index)
        values *= sign
        values.sort(axis=1)  # along the short last axis, faster than median's partition
        if rows % 2:
            out[lo:lo + step] = values[:, mid]
        else:
            out[lo:lo + step] = (values[:, mid - 1].astype(np.float64) + values[:, mid]) / 2
    work[:8 * (rows + 1)] = 0
    return int(bad)


def signed_medians(packed: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Median over rows of cell * sign for every item's (items, rows)
    packed cells of the (rows, cols) int64 table `cells`, as float64,
    bitwise `np.median` of each item's int64 signed reads (`medians61`).
    ValueError for a bucket outside the row, or a table with no cell."""
    p = _packed_args(packed, cells)
    rows, cols = cells.shape
    if rows < 1 or cols < 1:
        raise ValueError("signed_medians needs a table of at least one row and column")
    net, out = _merge_exchange(rows), np.empty(p.shape[0])
    if _run("medians61", p, p.shape[0], rows, cells, cols, net, net.shape[0],
            np.empty(8 * (rows + 1), dtype=np.int64), out):
        raise ValueError("packed cell outside the table")
    return out


def _skim61(cells, rows, cols, r0, nr, packed, est, k, out) -> int:
    """Numpy twin of `skim61`: row by row, a float copy of the row less a
    `np.subtract.at`, which subtracts in item order too, then squared."""
    cells, out = _view(cells, rows, cols), _view(out, nr, cols)
    q = _view(packed, k, rows).astype(np.int64)
    e = est[:k, None]
    signed = np.where(q & 1, -e, e)
    for r in range(r0, r0 + nr):
        o = out[r - r0]
        o[:] = cells[r]
        stop = _first(q[:, r] >> 1 >= cols)
        np.subtract.at(o, q[:stop, r] >> 1, signed[:stop, r])
        if stop < k:
            return 1
        np.square(o, out=o)
    return 0


def skim_rows(cells: np.ndarray, r0: int, packed: np.ndarray, est: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Rows r0 .. r0 + len(out) - 1 of the (rows, cols) int64 table `cells`
    as float64, each less est[t] * sign at item t's bucket for every item t
    in turn, then squared, written into `out`, a C-contiguous (rows in
    block, cols) float64 array, and returned (`skim61`). `packed` holds the
    items' (items, rows) packed cells. ValueError for a bucket outside the
    row."""
    p = _packed_args(packed, cells)
    e = np.ascontiguousarray(est, dtype=np.float64)
    if (out.dtype != np.float64 or not out.flags.c_contiguous or out.ndim != 2
            or out.shape[1] != cells.shape[1] or not 0 <= r0 <= cells.shape[0] - out.shape[0]
            or e.shape != p.shape[:1]):
        raise ValueError("skim_rows needs rows inside the table, one estimate per item, "
                         "and a C-contiguous float64 out of whole rows")
    if _run("skim61", cells, cells.shape[0], cells.shape[1], r0, out.shape[0], p, e, e.size,
            out):
        raise ValueError("packed cell outside the table")
    return out


_P, _N = ctypes.c_void_p, ctypes.c_size_t
# each routine of the kernel source: its numpy twin, then its ctypes
# restype and argtypes (_P a pointer, _N a size_t)
_ROUTINES = {
    "horner61": (_horner61, None, [_P, ctypes.c_uint64, _N, _N, _P, _N, _P]),
    "scatter61": (_scatter61, None, [_P, _N, _N, _P, _P, _N, _P, _N, _P]),
    "abs_sum_reaches": (_abs_sum_reaches, ctypes.c_uint64, [_P, _N, ctypes.c_uint64]),
    "stable_add3": (_stable_add3, ctypes.c_int, [_P, _N, _P, _P, _P, _N]),
    "dense_sums64": (_dense_sums64, ctypes.c_int, [_P, _P, _N, _P, _P, _N]),
    "parse_plain": (_parse_plain, ctypes.c_int64, [ctypes.c_char_p, _N, _P, _P, _N]),
    "medians61": (_medians61, ctypes.c_int, [_P, _N, _N, _P, _N, _P, _N, _P, _P]),
    "skim61": (_skim61, ctypes.c_int, [_P, _N, _N, _N, _N, _P, _P, _N, _P]),
}


# items per block of `scatter61`, BLOCK61 in its source
_SCATTER_BLOCK = 1024

# `parse_plain` spot-check texts: one in the shape it reads (its first two
# lines take the word-wise path), and texts it must decline (a 19-byte
# token, "--1", a tab and a ':', next to the digits, where the word-wise
# path looks, a lone token, three tokens, a token that runs into '-')
_PARSE_SPOT = (b"1234567 7654321\n8 90\n 12 -0\n\n  \n12345678 1\n007 -99999999999999999 \n"
               b"999999999999999999 5")
_PARSE_DECLINED = (b"1 -999999999999999999\n", b"1 --1\n", b"1 2\t\n3 4\n5 6\n7 8\n",
                   b"1:2 3\n4 5\n6 7\n8 9\n", b"1 2\n3\n", b"1 2 3\n", b"1 2-\n")


def _spot_cases():
    """(routine, arguments) pairs on which a kernel must return and write
    what the numpy twins do. Every output starts filled with a fixed value,
    so a cell a routine leaves unwritten shows."""
    m61, limit, i64 = MERSENNE61, 1 << 62, np.int64
    # 70 items, two groups of 32 for the AVX-512 body and a tail of six:
    # the even ones field extremes, the odd ones spread over the field
    x = np.arange(70, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) % np.uint64(m61)
    x[0::2] = [0, 1, 2**32 - 1, 2**32, m61 - 1] * 7
    # full polynomials of coefficients near 2**61 - 1 (the first, at x = 1,
    # folds to 2**61 - 1 itself, which only the canonical subtract makes 0),
    # then rows with leading zeros, at two power-of-two ranges (the second,
    # the stable variates', masks above 32 bits) and another
    coeffs = np.array([[m61 - k for k in range(1, 8)] + [28],
                       [m61 - 1 - (k << 40) for k in range(8)],
                       [0, 0, 0, 0, m61 - 1, 0, 12345, m61 - 2],
                       [0, 0, 0, 0, 0, 0, 7, 1 << 60]], dtype=np.uint64)
    for m in (8192, 11392, 1 << 52):
        yield "horner61", (coeffs, m, 4, 8, x, x.size, np.full((4, x.size), -7, dtype=i64))
    # the same items scattered under the full rows into 64 columns, packed
    # cells included, and 100 columns, without them (a second row as a margin)
    deltas = np.arange(x.size, dtype=i64) * (1 << 50) - (1 << 55)
    for r, cols, packed in ((0, 64, np.full(x.size, 7, dtype=np.uint32)), (1, 100, None)):
        yield "scatter61", (coeffs[r], 1, 8, x, deltas, x.size, np.zeros((2, cols), dtype=i64),
                            cols, packed)
    # a row of 1000 cells (and 1000 more, to catch a bucket past it) under
    # poly(x) = x: items on w = 0, cols - 1, cols, 2 * cols - 1 take both
    # signs; it starts near the top of int64, where adds wrap
    cols = 1000
    linear = np.array([1, 0], dtype=np.uint64)
    x = np.array([0, cols - 1, cols, 2 * cols - 1, 2**32 - 1], dtype=np.uint64)
    deltas = np.array([5, 7, 1 << 40, 3, -1], dtype=i64)
    yield "scatter61", (linear, 1, 2, x, deltas, x.size,
                        np.full((2, cols), (1 << 63) - 4, dtype=i64), cols,
                        np.full(x.size, 7, dtype=np.uint32))
    # two rows of 2 columns under x and x + 1, a third as a margin, over a
    # batch of distinct deltas two items longer than a block
    n, cols = _SCATTER_BLOCK + 2, 2
    yield "scatter61", (np.array([[1, 0], [1, 1]], dtype=np.uint64), 2, 2,
                        np.arange(n, dtype=np.uint64), np.arange(n, dtype=i64) * 3 - 2000, n,
                        np.zeros((3, cols), dtype=i64), cols, np.full((n, 2), 7, dtype=np.uint32))
    # the capped exact sum at its boundary: just below the limit, exactly at
    # it (where float64 sums round), past it at the first delta, and
    # |INT64_MIN|, which counts as 2**63; then a running bound's small
    # limit, and a second 2**63 at the largest limit, where a sum that
    # passed it would wrap
    for deltas, cap in (([limit - 1], limit), ([limit - 1, 0, -1], limit), ([1 - limit, 1], limit),
                        ([-(1 << 63)], limit), ([(1 << 63) - 1, -(1 << 63)], limit),
                        ([-3, 2, -5], limit), ([], limit), ([3, -4, 2], 10), ([3, -4, 3, 5], 10),
                        ([-(1 << 63), -(1 << 63)], 1 << 63)):
        yield "abs_sum_reaches", (np.array(deltas, dtype=i64), len(deltas), cap)
    # stable adds where the order of the adds matters (bucket 2, slot 0 sums
    # 2**53, 1 and -2**53: 2**53 + 1 rounds down, -2**53 + 1 does not), a
    # delta that rounds as a double, then a bucket past the table, then a
    # product that overflows to infinity
    buckets = np.array([2, 1, 2, 2, 3], dtype=i64)
    deltas = np.array([1, -3, 1, -1, (1 << 53) + 1], dtype=i64)
    variates = np.array([[2.0**53, 0.5, -1.0], [1.5, 2.0, 3.0], [1.0, -1.0, 1e-3],
                         [2.0**53, 1.0, 0.25], [-2.5, 1e290, 0.0]])
    for cols, big in ((3, 1e290), (2, 1e290), (3, 1e300)):
        variates[4, 1] = big
        yield "stable_add3", (np.zeros((3, 3)), cols, buckets, deltas, variates.copy(),
                              buckets.size)
    # sums that wrap, an item whose deltas cancel, then an item out of range
    items = np.array([3, 1, 3, 0, 5, 1], dtype=i64)
    deltas = np.array([2**63 - 1, -4, 1, 0, 7, 4], dtype=i64)
    for length in (6, 5):
        yield "dense_sums64", (items, deltas, items.size, np.full(6, 9, dtype=i64),
                               np.full(6, 2, dtype=np.uint8), length)
    # the texts at a cap of six records, and the text in shape at five
    for text, cap in [(t, 6) for t in (_PARSE_SPOT, *_PARSE_DECLINED)] + [(_PARSE_SPOT, 5)]:
        yield "parse_plain", (text, len(text), np.full(6, -7, dtype=i64),
                              np.full(6, -7, dtype=i64), cap)
    # medians of 19 items, two groups of eight for the AVX-512 body and a
    # tail of three, over 1, 2, 5 and 16 rows of 4 cells: INT64_MIN, which
    # wraps, both signs of the largest cells, ties, and neighbours of 2**53
    # whose float64 mean rounds unlike their integer mean; then with a
    # bucket past the row in the first group and in the tail
    values = np.array([-(1 << 63), (1 << 63) - 1, 1 - (1 << 62), 0, 0, 3, -3, 2**53 + 1,
                       2**53 + 3, -2**53 - 1], dtype=i64)
    for rows in (1, 2, 5, 16):
        cells = values[(np.arange(4 * rows) * 3 + rows) % values.size].reshape(rows, 4)
        # bucket and sign from the top three bits of a multiplicative hash
        spread = np.arange(19 * rows, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        packed = (spread >> np.uint64(61)).astype(np.uint32).reshape(19, rows)
        net = _merge_exchange(rows)
        for bad in ([], [3], [17]):
            wrong = packed.copy()
            wrong[bad, 0] = 9  # bucket 4 of 4
            yield "medians61", (wrong, 19, rows, cells, 4, net, net.shape[0],
                                np.full(8 * (rows + 1), -7, dtype=i64), np.full(19, -7.0))
    # rows 1 and 2 of a 3 x 4 table skimmed of three items, which all share
    # row 1's bucket 2, where reversing the subtractions gives -1, not 0;
    # then row 0 skimmed of a fourth item whose bucket is past the row
    cells = np.array([[1, 2, 3, 4], [-3, 1 << 62, 0, 7], [5, 0, 1 - (1 << 62), 2]], dtype=i64)
    packed = np.array([[0, 4, 1], [2, 4, 6], [7, 4, 0], [8, 0, 0]], dtype=np.uint32)
    est = np.array([2.0**53, 1.0, -2.0**53, 0.0])
    for r0, nr, k in ((1, 2, 3), (0, 1, 4)):
        yield "skim61", (cells, 3, 4, r0, nr, packed, est, k, np.full((2, 4), -7.0))


def _agrees(lib) -> bool:
    """Whether every routine of `lib` returns and writes what its numpy twin
    does on every case of `_spot_cases`, bytewise, its inputs included."""
    for routine, args in _spot_cases():
        outcomes = []
        for run in (lambda *a: _c_call(lib, routine, a), _ROUTINES[routine][0]):
            mine = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
            with np.errstate(over="ignore", invalid="ignore"):  # products past float64
                result = run(*mine)
            outcomes.append((result, [a.tobytes() for a in mine if isinstance(a, np.ndarray)]))
        if outcomes[0] != outcomes[1]:
            return False
    return True


def _load_kernel():
    """The compiled library, its routines bound as `_ROUTINES` declares, or
    None when it cannot be built or loaded or disagrees with a numpy twin
    (`_agrees`)."""
    path = _library_path("horner61", _HORNER_SOURCE, _CFLAGS)
    try:
        if not os.path.exists(path):
            _build_library(path, _HORNER_SOURCE, _CFLAGS)
        lib = ctypes.CDLL(path)
        for name, (_, restype, argtypes) in _ROUTINES.items():
            routine = getattr(lib, name)
            routine.restype, routine.argtypes = restype, argtypes
    except (OSError, AttributeError):  # no compiler, unwritable cache, bad library
        return None
    return lib if _agrees(lib) else None


_kernel = _load_kernel()
KWISE_BACKEND = "numpy" if _kernel is None else "c-kernel"


class KWiseHash:
    """Degree t-1 polynomial hash over GF(2**61 - 1), output in [1, range_size].

    `coefficients` are listed leading coefficient first; any t distinct
    inputs receive jointly uniform field values over a uniform draw of the
    coefficient tuple. Inputs and coefficients must lie in [0, 2**61 - 1);
    `eval_many` refuses other inputs, and the constructor other coefficients.
    `f1sketch.oracle.expected_hash` is the scalar reference.
    """

    __slots__ = ("coefficients", "range_size", "_coeff_rows")

    def __init__(self, coefficients, range_size: int):
        rows = field_coeffs([coefficients])
        self.range_size = field_range(range_size)
        self.coefficients = tuple(rows[0].tolist())
        self._coeff_rows = rows

    @classmethod
    def from_seed(cls, key: bytes, t: int, n: int, range_size: int) -> "KWiseHash":
        """Draw a t-wise independent hash [n] -> [range_size] from a PRF key."""
        if not 1 <= n < MERSENNE61:
            raise ValueError("domain size n must be >= 1 and below 2**61 - 1, the hash field size")
        return cls(seeds.field_elements(key, t, MERSENNE61), range_size)

    def eval_many(self, items: np.ndarray) -> np.ndarray:
        """Bucket in [1, range_size] of each item of an integer array, as
        int64 of the same shape."""
        x = np.asarray(items)
        return horner_rows(self._coeff_rows, self.range_size, x.ravel()).reshape(x.shape)
