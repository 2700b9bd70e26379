"""Limited-independence hash families over GF(2**61 - 1), and the C kernel.

A t-wise independent hash is a uniformly random polynomial of degree t-1
over the field of the Mersenne prime 2**61 - 1, evaluated by Horner's rule
and reduced onto the bucket range [1, C]. The reduction `(value mod C) + 1`
skews bucket probabilities by at most C/2**61 relative, below 2**-45 at
desk-scale C, and is ignored. A CountSketch row is one hash onto
[1, 2 * cols], read as a bucket and a sign (see `countsketch`).

Hash objects are immutable after construction and safe to share across
threads.

A small C kernel, `kernel61.c` next to this module, read as text at import
(`_HORNER_SOURCE`), has nine routines: `horner61` runs `eval_many`, every
row of a coefficient matrix reduced onto one range; `scatter61` hashes
CountSketch updates in blocks of 1,024 items, every row per block, adds
each block's deltas and reads its cells back in loops of their own, and
judges the cells written against the counter limit once the whole batch
is added (`scatter_signed`);
`abs_sum_reaches` is the exact integer overflow guard, whether a batch's
sum of |delta| reaches 2**62; `stable_add3` adds delta * variate into the
stable accumulators in item order (`stable_add`); `dense_sums64` sums a
flush's records into dense per-item arrays (`dense_sums`);
`philox_uniforms` draws the Philox uniforms behind the stable variates;
`parse_plain` reads plain stream text; `reads61` reads the signed cells
behind CountSketch point estimates (`signed_reads`); and `skim61` removes
the top items from CountSketch rows for the residual F2 (`skim_rows`). It is
compiled once per machine with the local gcc into `$XDG_CACHE_HOME/f1sketch`
(default `~/.cache/f1sketch`), under a file name keyed by a hash of the
source, and loaded through ctypes when this module is imported.

On an x86-64 CPU with AVX-512F, `horner61` and `scatter61` hash 32 items
per pass (`poly61x32`: four vectors of eight items, the mulmod in 32-bit
limbs) and `philox_uniforms` draws eight pairs per vector (`philox8`).
The library is built for the baseline x86-64 and asks the CPU once, when
it loads (`__builtin_cpu_supports`); other CPUs, and the items after the
last full group, run the scalar body (`poly61`, `philox_c0c1`), which
gives the same bits. Ranges that are powers of two are reduced with a
mask (`reduce61`).

Each routine has a numpy twin next to the wrapper that runs it, listed in
`_ROUTINES`: the same arguments, with arrays in place of pointers, the same
return value and the same writes. A wrapper runs the kernel when it loaded
and the twin otherwise; no other module chooses. A kernel that cannot be
built or loaded, or that disagrees with a twin on the edge cases of
`_spot_cases`, is not used. `KWISE_BACKEND` names the path in use.
"""

from __future__ import annotations

import ctypes
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
    array. ValueError for any item outside [0, 2**61 - 1), or a range that
    is not an integer in [1, 2**61 - 1], on either path."""
    x = _field_items(x)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.uint64)
    if (coeffs.ndim != 2 or coeffs.shape[1] < 1 or not isinstance(range_size, (int, np.integer))
            or not 1 <= range_size <= MERSENNE61):
        raise ValueError("horner_rows needs a (rows, t >= 1) matrix and one integer range "
                         "in [1, 2**61 - 1]")
    out = np.empty((coeffs.shape[0], x.size), dtype=np.int64)
    _run("horner61", coeffs, int(range_size), coeffs.shape[0], coeffs.shape[1], x, x.size, out)
    return out


def _scatter61(coeffs, rows, t, x, deltas, n, cells, cols, limit, packed) -> int:
    """Numpy twin of `scatter61`: every row hashed by `_horner61`, then
    `np.add.at`, then the cells written read back."""
    if n == 0:
        return 0
    w = np.empty((rows, n), dtype=np.int64)
    _horner61(coeffs, 2 * cols, rows, t, x, n, w)
    w = w.T - 1
    cells = cells.reshape(-1)
    negative = w >= cols
    w -= cols * negative  # the bucket
    if packed is not None:
        _view(packed, n, rows)[:] = w << 1 | negative
    w += np.arange(rows) * cols  # the index in the flattened table
    d = deltas[:n, None]
    np.add.at(cells, w, np.where(negative, -d, d))
    return int(np.abs(cells[w]).max() >= limit)


def scatter_signed(coeffs: np.ndarray, items: np.ndarray, deltas: np.ndarray,
                   cells: np.ndarray, limit: int,
                   packed: bool) -> tuple[bool, np.ndarray | None]:
    """Add sign_r(i) * delta into cells[r, bucket_r(i)] for every row r of
    the (rows, cols) int64 table `cells` and every item i (`scatter61`).
    `coeffs` is a `CountSketchTable`'s (rows, t) matrix, one polynomial per
    row; row r's field value is reduced onto w in [0, 2 * cols), whose
    bucket is w mod cols and whose sign is -1 exactly when w >= cols.
    Returns whether any cell written ends the batch at |cell| >= limit, and
    every item's packed cell in every row as an (items, rows) uint32 array,
    bucket << 1 | (sign == -1), or None when `packed` is False.

    Needs items in [0, 2**61 - 1), as `horner_rows` does, and cols < 2**31,
    so a packed cell fits 32 bits.
    """
    rows, cols = cells.shape
    x = _field_items(items)
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.uint64)
    if (cells.dtype != np.int64 or not cells.flags.c_contiguous or not cells.flags.writeable
            or cols >= 1 << 31 or x.shape != d.shape or coeffs.ndim != 2
            or coeffs.shape[0] != rows or coeffs.shape[1] < 1):
        raise ValueError("scatter_signed needs a writable C-contiguous int64 table under "
                         "2**31 columns, one delta per item, one polynomial (t >= 1) per row")
    out = np.empty((x.size, rows), dtype=np.uint32) if packed else None
    over = _run("scatter61", coeffs, rows, coeffs.shape[1], x, d, x.size, cells, cols, limit, out)
    return bool(over), out


def _abs_sum_reaches(deltas, n, limit) -> int:
    """Numpy twin of `abs_sum_reaches`: the high and low 32-bit halves of
    |delta| are summed apart, so neither sum can wrap."""
    mag = np.abs(deltas[:n]).view(np.uint64)  # |-2**63| wraps to 2**63 as uint64
    high = int((mag >> np.uint64(32)).sum())
    return int((high << 32) + int((mag & np.uint64(0xFFFFFFFF)).sum()) >= limit)


def abs_sum_reaches(deltas: np.ndarray, limit: int) -> bool:
    """Whether the exact sum of |delta| over an int64 vector reaches
    `limit`, at most 2**63, counting |-2**63| as 2**63."""
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    return bool(_run("abs_sum_reaches", d, d.size, limit))


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


# Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011): round multipliers and Weyl key increments
PHILOX_M0, PHILOX_M1 = 0xD2511F53, 0xCD9E8D57
PHILOX_W0, PHILOX_W1 = 0x9E3779B9, 0xBB67AE85
PHILOX_ROUNDS = 10

_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def philox4x32(c0, c1, c2, c3, k0: int, k1: int) -> tuple:
    """Philox4x32-10 blocks for aligned counter words, one block per element.

    Counter words are arrays of 32-bit values and (k0, k1) the 32-bit key
    words; returns the four output words as uint64 arrays. Every 32x32-bit
    product is exact in uint64, so a round is a few whole-array operations.
    `f1sketch.oracle.expected_philox4x32` is the scalar reference.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3))
    for r in range(PHILOX_ROUNDS):
        if r:
            k0 = (k0 + PHILOX_W0) & 0xFFFFFFFF
            k1 = (k1 + PHILOX_W1) & 0xFFFFFFFF
        p0 = c0 * np.uint64(PHILOX_M0)
        p1 = c2 * np.uint64(PHILOX_M1)
        # (hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0)); in place on
        # the fresh arrays only, never on the caller's counter words
        c0 = p1 >> _32
        c0 ^= c1
        c0 ^= np.uint64(k0)
        c2 = p0 >> _32
        c2 ^= c3
        c2 ^= np.uint64(k1)
        p1 &= _LOW32
        p0 &= _LOW32
        c1, c3 = p1, p0
    return c0, c1, c2, c3


def _uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Uniform in (0, 1) from the 64-bit word hi:lo: its top 52 bits,
    offset by half a step so neither end is reachable."""
    return ((((hi << _32) | lo) >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0 ** -52


def _philox_uniforms(buckets, items, n, k0, k1, out) -> None:
    """Numpy twin of `philox_uniforms`: `philox4x32` over every slot of
    every pair at once."""
    x = items[:n].view(np.uint64)[:, None]
    shape = (n, 3)
    c0, c1, _, _ = philox4x32(
        np.broadcast_to(x & _LOW32, shape),
        np.broadcast_to(x >> _32, shape),
        np.broadcast_to(buckets[:n, None].view(np.uint64) & _LOW32, shape),
        np.broadcast_to(np.arange(3, dtype=np.uint64), shape),
        k0, k1,
    )
    _view(out, n, 3)[:] = _uniform(c0, c1)


def philox_uniforms(buckets: np.ndarray, items: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """The uniforms behind `stable.StableVariateSource`'s three variates of
    each aligned (bucket, item) pair, as a (pairs, 3) float64 array: slot s
    is the Philox4x32-10 block of counter (item mod 2**32, item // 2**32,
    bucket, s) under key (k0, k1), its words c0:c1 made a uniform as
    `_uniform` makes it (`philox_uniforms`). Items must be non-negative and
    buckets below 2**32."""
    b = np.ascontiguousarray(buckets, dtype=np.int64)
    x = np.ascontiguousarray(items, dtype=np.int64)
    if b.shape != x.shape or x.ndim != 1:
        raise ValueError("philox_uniforms needs one bucket per item")
    out = np.empty((x.size, 3))
    _run("philox_uniforms", b, x, x.size, k0, k1, out)
    return out


def _packed_args(packed: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """`packed` as C-contiguous (items, rows) uint32 cells of the (rows, cols)
    C-contiguous int64 table `cells`; ValueError for any other shape."""
    p = np.ascontiguousarray(packed, dtype=np.uint32)
    if (cells.dtype != np.int64 or not cells.flags.c_contiguous or cells.ndim != 2
            or p.ndim != 2 or p.shape[1] != cells.shape[0]):
        raise ValueError("need (items, rows) packed cells of a C-contiguous int64 table")
    return p


def _reads61(packed, n, rows, cells, cols, out) -> int:
    """Numpy twin of `reads61`: a take from the flattened table, up to the
    first packed cell outside the row."""
    sign = _view(packed, n, rows).astype(np.int64)
    index = sign >> 1
    stop = _first(index.reshape(-1) >= cols)
    index += np.arange(rows) * cols
    sign &= 1  # in place, to +-1: (items, rows) temporaries add up
    sign *= -2
    sign += 1
    values = cells.reshape(-1).take(index, mode="clip").reshape(-1)
    np.multiply(values[:stop], sign.reshape(-1)[:stop], out=_view(out, n * rows)[:stop])
    return int(stop < sign.size)


def signed_reads(packed: np.ndarray, cells: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cell * sign of every (items, rows) packed cell of the (rows, cols)
    int64 table `cells`, written into `out`, a C-contiguous int64 array of
    the same shape as `packed`, and returned (`reads61`). ValueError for a
    bucket outside the row."""
    p = _packed_args(packed, cells)
    if out.dtype != np.int64 or not out.flags.c_contiguous or out.shape != p.shape:
        raise ValueError("signed_reads needs a C-contiguous int64 out of the packed shape")
    if _run("reads61", p, p.shape[0], p.shape[1], cells, cells.shape[1], out):
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
    "scatter61": (_scatter61, ctypes.c_int, [_P, _N, _N, _P, _P, _N, _P, _N, ctypes.c_int64, _P]),
    "abs_sum_reaches": (_abs_sum_reaches, ctypes.c_int, [_P, _N, ctypes.c_uint64]),
    "stable_add3": (_stable_add3, ctypes.c_int, [_P, _N, _P, _P, _P, _N]),
    "dense_sums64": (_dense_sums64, ctypes.c_int, [_P, _P, _N, _P, _P, _N]),
    "philox_uniforms": (_philox_uniforms, None,
                        [_P, _P, _N, ctypes.c_uint32, ctypes.c_uint32, _P]),
    "parse_plain": (_parse_plain, ctypes.c_int64, [ctypes.c_char_p, _N, _P, _P, _N]),
    "reads61": (_reads61, ctypes.c_int, [_P, _N, _N, _P, _N, _P]),
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
    # then rows with leading zeros, at a power-of-two range and another
    coeffs = np.array([[m61 - k for k in range(1, 8)] + [28],
                       [m61 - 1 - (k << 40) for k in range(8)],
                       [0, 0, 0, 0, m61 - 1, 0, 12345, m61 - 2],
                       [0, 0, 0, 0, 0, 0, 7, 1 << 60]], dtype=np.uint64)
    for m in (8192, 11392):
        yield "horner61", (coeffs, m, 4, 8, x, x.size, np.full((4, x.size), -7, dtype=i64))
    # the same items scattered under the full rows into 64 and 100 columns
    # (a second row as a margin), packed cells included
    deltas = np.arange(x.size, dtype=i64) * (1 << 50) - (1 << 55)
    for r, cols in ((0, 64), (1, 100)):
        yield "scatter61", (coeffs[r], 1, 8, x, deltas, x.size, np.zeros((2, cols), dtype=i64),
                            cols, limit, np.full(x.size, 7, dtype=np.uint32))
    # a row of 1000 cells (and 1000 more, to catch a bucket past it) under
    # poly(x) = x: items on w = 0, cols - 1, cols, 2 * cols - 1 take both
    # signs; it starts near the limit, which item 0 crosses
    cols = 1000
    linear = np.array([1, 0], dtype=np.uint64)
    x = np.array([0, cols - 1, cols, 2 * cols - 1, 2**32 - 1], dtype=np.uint64)
    deltas = np.array([5, 7, 1 << 40, 3, -1], dtype=i64)
    yield "scatter61", (linear, 1, 2, x, deltas, x.size, np.full((2, cols), limit - 4, dtype=i64),
                        cols, limit, np.full(x.size, 7, dtype=np.uint32))
    # two rows of 2 columns under x and x + 1, a third as a margin, over a
    # batch two items longer than a block. From cells at +-(limit - 4), the
    # +-1 deltas stay within 4 of the start; item 1023, in the first block,
    # takes a cell of each row past the limit, and item 1025, in the
    # second, brings both back in the run with packed cells (delta -16) and
    # not in the run without (delta 0): only a reread after the whole batch
    # judges both right
    n, cols = _SCATTER_BLOCK + 2, 2
    x = np.arange(n, dtype=np.uint64)
    coeffs = np.array([[1, 0], [1, 1]], dtype=np.uint64)
    cells = np.array([[limit - 4] * cols, [4 - limit] * cols, [0] * cols], dtype=i64)
    for last, packed in ((-16, np.full((n, 2), 7, dtype=np.uint32)), (0, None)):
        deltas = np.ones(n, dtype=i64)
        deltas[-3:] = -8, 1, last
        yield "scatter61", (coeffs, 2, 2, x, deltas, n, cells, cols, limit, packed)
    # the exact guard at its boundary: just below the limit, exactly at it
    # (where float64 sums round), and |INT64_MIN|, which counts as 2**63
    for deltas in ([limit - 1], [limit - 1, 0, -1], [1 - limit, 1], [-(1 << 63)],
                   [(1 << 63) - 1, -(1 << 63)], [-3, 2, -5], []):
        yield "abs_sum_reaches", (np.array(deltas, dtype=i64), len(deltas), limit)
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
    # 19 pairs, two groups of 8 for the AVX-512 body and a tail of three;
    # items past 2**32 take the second counter word
    items = np.arange(19, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(1)
    items[[0, 5, 10, 15, 16, 17, 18]] = 0, 2**32 - 1, 2**32, 7, (1 << 40) + 12345, (1 << 63) - 1, 1
    buckets = (items * np.uint64(0xD1B54A32D192ED03) >> np.uint64(32)).view(i64)
    buckets[[1, 16, 17, 18]] = (1 << 32) - 1, 1, (1 << 31) - 1, 0
    yield "philox_uniforms", (buckets, items.view(i64), items.size, 0x89ABCDEF, 0x01234567,
                              np.full((items.size, 3), -1.0))
    # the texts at a cap of six records, and the text in shape at five
    for text, cap in [(t, 6) for t in (_PARSE_SPOT, *_PARSE_DECLINED)] + [(_PARSE_SPOT, 5)]:
        yield "parse_plain", (text, len(text), np.full(6, -7, dtype=i64),
                              np.full(6, -7, dtype=i64), cap)
    # signed reads of a 2 x 3 table at both signs and at INT64_MIN, which
    # wraps; then a bucket past the row
    cells = np.array([[5, -7, 1 << 62], [-(1 << 63), 0, 9]], dtype=i64)
    packed = np.array([[0, 1], [3, 4], [5, 5], [2, 0], [6, 0]], dtype=np.uint32)
    for n in (4, 5):
        yield "reads61", (packed, n, 2, cells, 3, np.full((5, 2), -7, dtype=i64))
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
    coefficient tuple. Inputs must lie in [0, 2**61 - 1); `eval_many`
    refuses others.
    `f1sketch.oracle.expected_hash` is the scalar reference.
    """

    __slots__ = ("coefficients", "range_size", "_coeff_rows")

    def __init__(self, coefficients, range_size: int):
        coefficients = [int(c) % MERSENNE61 for c in coefficients]
        if not coefficients:
            raise ValueError("need at least one coefficient (t >= 1)")
        if not 1 <= range_size <= MERSENNE61:
            raise ValueError("range_size must lie in [1, 2**61 - 1]")
        self.coefficients = tuple(coefficients)
        self.range_size = range_size
        self._coeff_rows = np.array([coefficients], dtype=np.uint64)

    @classmethod
    def from_seed(cls, key: bytes, t: int, n: int, range_size: int) -> "KWiseHash":
        """Draw a t-wise independent hash [n] -> [range_size] from a PRF key."""
        if t < 1:
            raise ValueError("independence degree t must be >= 1")
        if n < 1 or range_size < 1:
            raise ValueError("domain and range sizes must be >= 1")
        if n >= MERSENNE61:
            raise ValueError("domain size n must be below 2**61 - 1, the hash field size")
        return cls(seeds.field_elements(key, t, MERSENNE61), range_size)

    def eval_many(self, items: np.ndarray) -> np.ndarray:
        """Bucket in [1, range_size] of each item of an integer array, as
        int64 of the same shape."""
        x = np.asarray(items)
        return horner_rows(self._coeff_rows, self.range_size, x.ravel()).reshape(x.shape)
