"""Limited-independence hash families over GF(2**61 - 1).

A t-wise independent hash is a uniformly random polynomial of degree t-1
over the field of the Mersenne prime 2**61 - 1, evaluated by Horner's rule
and reduced onto the bucket range [1, C]. The reduction `(value mod C) + 1`
skews bucket probabilities by at most C/2**61 relative, below 2**-45 at
desk-scale C, and is ignored.

Hash objects are immutable after construction and safe to share across
threads.

`eval_many` runs a small C kernel (`_HORNER_SOURCE`), which also hashes and
scatters CountSketch updates in one pass (`scatter_signed`), sums a flush's
records into dense per-item arrays (`dense_sums`) and draws the Philox
uniforms behind the stable variates (`philox_uniforms`). It is compiled
once per machine with the local gcc into `$XDG_CACHE_HOME/f1sketch`
(default `~/.cache/f1sketch`), under a file name keyed by a hash of the
source, and loaded through ctypes when this module is imported. When it
cannot be built or loaded, or fails its spot check, numpy runs instead:
the evaluation below (`_mulmod61`/`_addmod61`), the scatter in
`CountSketchTable.update_many`, the aggregation in
`estimator._dense_sums` and `stable.philox_uniforms`. Each is also the
bitwise reference its kernel routine is tested against. `KWISE_BACKEND`
names the path in use.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

import numpy as np

from . import seeds

MERSENNE61 = (1 << 61) - 1

_M61 = np.uint64(MERSENNE61)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)


def _mulmod61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b) mod (2**61 - 1) on uint64 arrays without 128-bit overflow."""
    a1 = a >> np.uint64(31)
    a0 = a & _MASK31
    b1 = b >> np.uint64(31)
    b0 = b & _MASK31
    # a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0, and 2^61 === 1 (mod p)
    mid = a1 * b0 + a0 * b1
    acc = (a1 * b1 << np.uint64(1)) + (mid >> np.uint64(30)) + ((mid & _MASK30) << np.uint64(31)) + a0 * b0
    acc = (acc & _M61) + (acc >> np.uint64(61))
    acc = (acc & _M61) + (acc >> np.uint64(61))
    return np.where(acc >= _M61, acc - _M61, acc)


def _addmod61(a: np.ndarray, b: np.uint64) -> np.ndarray:
    s = a + b
    s = (s & _M61) + (s >> np.uint64(61))
    return np.where(s >= _M61, s - _M61, s)


def _horner_numpy(coeffs: np.ndarray, range_size: np.uint64, x: np.ndarray) -> np.ndarray:
    """One row: (poly(x) mod 2**61-1) mod range_size + 1 as int64, with
    `coeffs` leading first. Leading zero coefficients are skipped; they
    leave Horner's value at 0, so the result is the same."""
    nonzero = np.flatnonzero(coeffs)
    start = int(nonzero[0]) if nonzero.size else coeffs.size - 1
    v = np.full(x.shape, coeffs[start], dtype=np.uint64)
    for c in coeffs[start + 1:]:
        v = _addmod61(_mulmod61(v, x), c)
    return (v % range_size).astype(np.int64) + 1


_HORNER_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

#define P61 0x1FFFFFFFFFFFFFFFULL

/* One Horner step v * x + c modulo 2^61 - 1, folded but not fully
   reduced: for v < 2^62 and x, c < 2^61 the sum below stays under 2^63,
   and the result is congruent and under 2^61 + 4. */
static inline uint64_t step61(uint64_t v, uint64_t x, uint64_t c) {
    __uint128_t z = (__uint128_t)v * x;
    uint64_t r = ((uint64_t)z & P61) + (uint64_t)(z >> 61) + c;
    return (r & P61) + (r >> 61);
}

/* The canonical residue, in [0, 2^61 - 1), of a step61 result. */
static inline uint64_t canon61(uint64_t v) {
    return v >= P61 ? v - P61 : v;
}

/* Index of the first nonzero coefficient of c[0 .. t-1] (t - 1 if none):
   leading zeros leave Horner's value at 0, so they are skipped. */
static inline size_t lead61(const uint64_t *c, size_t t) {
    size_t s = 0;
    while (s + 1 < t && c[s] == 0)
        s++;
    return s;
}

/* Canonical Horner values at x[0] and, when four > 0, x[1 .. 3] of the
   polynomial c[s .. t-1], leading first. The four chains advance together
   so their multiplies overlap; one dependent chain is latency-bound. */
static inline void poly61(const uint64_t *c, size_t s, size_t t, const uint64_t *x,
                          int four, uint64_t *v) {
    uint64_t a = c[s], b = c[s], d = c[s], e = c[s];
    if (four) {
        for (size_t k = s + 1; k < t; k++) {
            a = step61(a, x[0], c[k]);
            b = step61(b, x[1], c[k]);
            d = step61(d, x[2], c[k]);
            e = step61(e, x[3], c[k]);
        }
        v[1] = canon61(b);
        v[2] = canon61(d);
        v[3] = canon61(e);
    } else {
        for (size_t k = s + 1; k < t; k++)
            a = step61(a, x[0], c[k]);
    }
    v[0] = canon61(a);
}

/* out[r * n + i] = (poly_r(x[i]) mod 2^61-1) mod ranges[r] + 1, where
   poly_r has coefficients coeffs[r * t .. r * t + t - 1], leading first,
   all below 2^61-1, and every x[i] is below 2^61-1. */
void horner61(const uint64_t *coeffs, const uint64_t *ranges, size_t rows,
              size_t t, const uint64_t *x, size_t n, int64_t *out) {
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * t;
        const uint64_t m = ranges[r];
        const size_t s = lead61(c, t);
        int64_t *o = out + r * n;
        uint64_t v[4];
        for (size_t i = 0; i < n;) {
            const int four = i + 4 <= n;
            poly61(c, s, t, x + i, four, v);
            for (int j = 0; j < (four ? 4 : 1); j++, i++)
                o[i] = (int64_t)(v[j] % m) + 1;
        }
    }
}

/* CountSketch update of a (rows, cols) int64 table from a stacked hash of
   2 * rows polynomials laid out as for horner61: row r's bucket is
   polynomial r (ranges[r] <= cols < 2^31), its sign polynomial rows + r,
   whose range must be 2: sign bucket 1 is +1 and 2 is -1. Adds
   sign * deltas[i] into cell (r, bucket - 1) for every row r and item i,
   wrapping modulo 2^64 as numpy's int64 adds do. Row by row: hash every
   item into packed[i * rows + r] as (bucket - 1) << 1 | negative-sign, add,
   then reread the cells written. Returns 1 when any ends at
   |cell| >= limit, else 0; |INT64_MIN| wraps negative, as numpy's abs. */
int scatter61(const uint64_t *coeffs, const uint64_t *ranges, size_t rows,
              size_t t, const uint64_t *x, const int64_t *deltas, size_t n,
              int64_t *cells, size_t cols, int64_t limit, uint32_t *packed) {
    int over = 0;
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *cb = coeffs + r * t, *cs = coeffs + (rows + r) * t;
        const uint64_t mb = ranges[r];
        const size_t sb = lead61(cb, t), ss = lead61(cs, t);
        uint64_t *row = (uint64_t *)(cells + r * cols);
        uint32_t *p = packed + r;
        uint64_t vb[4], vs[4];
        for (size_t i = 0; i < n;) {
            const int four = i + 4 <= n;
            poly61(cb, sb, t, x + i, four, vb);
            poly61(cs, ss, t, x + i, four, vs);
            for (int j = 0; j < (four ? 4 : 1); j++, i++)
                p[i * rows] = (uint32_t)(vb[j] % mb << 1 | (vs[j] & 1));
        }
        for (size_t i = 0; i < n; i++) {
            const uint32_t q = p[i * rows];
            const uint64_t d = (uint64_t)deltas[i];
            row[q >> 1] += q & 1 ? 0 - d : d;
        }
        for (size_t i = 0; i < n; i++) {
            const uint64_t c = row[p[i * rows] >> 1];
            over |= (int64_t)((int64_t)c < 0 ? 0 - c : c) >= limit;
        }
    }
    return over;
}

/* Exact dense aggregation: for every i < n, sums[items[i]] += deltas[i],
   wrapping modulo 2^64 as numpy's int64 adds do, and seen[items[i]] = 1.
   Both arrays hold len entries. Returns 1 at the first item outside
   [0, len), leaving both arrays partly written, else 0. */
int dense_sums64(const int64_t *items, const int64_t *deltas, size_t n,
                 int64_t *sums, uint8_t *seen, size_t len) {
    uint64_t *s = (uint64_t *)sums;
    for (size_t i = 0; i < n; i++) {
        const uint64_t j = (uint64_t)items[i];
        if (j >= len)
            return 1;
        s[j] += (uint64_t)deltas[i];
        seen[j] = 1;
    }
    return 0;
}

/* Output words c0:c1, as one 64-bit word, of the Philox4x32-10 block of
   counter (c0, c1, c2, c3) under key (k0, k1) (Salmon et al., SC 2011). */
static inline uint64_t philox_c0c1(uint32_t c0, uint32_t c1, uint32_t c2, uint32_t c3,
                                   uint32_t k0, uint32_t k1) {
    for (int r = 0; r < 10; r++) {
        if (r) {
            k0 += 0x9E3779B9u;
            k1 += 0xBB67AE85u;
        }
        const uint64_t p0 = (uint64_t)c0 * 0xD2511F53u, p1 = (uint64_t)c2 * 0xCD9E8D57u;
        c0 = (uint32_t)(p1 >> 32) ^ c1 ^ k0;
        c2 = (uint32_t)(p0 >> 32) ^ c3 ^ k1;
        c1 = (uint32_t)p1;
        c3 = (uint32_t)p0;
    }
    return (uint64_t)c0 << 32 | c1;
}

/* out[3 * i + s], for slots s = 0, 1, 2 of every pair i < n: the uniform
   in (0, 1) of the Philox4x32-10 block of counter (items[i] mod 2^32,
   items[i] / 2^32, buckets[i], s) under key (k0, k1), made from the top
   52 bits of its words c0:c1 plus half a step. Every operation on the
   double is exact. Items lie in [0, 2^64) and buckets in [0, 2^32). */
void philox_uniforms(const int64_t *buckets, const int64_t *items, size_t n,
                     uint32_t k0, uint32_t k1, double *out) {
    for (size_t i = 0; i < n; i++) {
        const uint64_t x = (uint64_t)items[i];
        for (uint32_t s = 0; s < 3; s++) {
            const uint64_t w = philox_c0c1((uint32_t)x, (uint32_t)(x >> 32),
                                           (uint32_t)buckets[i], s, k0, k1);
            out[3 * i + s] = ((double)(w >> 12) + 0.5) * 0x1p-52;
        }
    }
}
"""
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "f1sketch")


def _build_kernel(path: str) -> None:
    """Compile the kernel to `path`. Each builder compiles in a private
    directory and renames the finished library into place, so concurrent
    builders (say, `eval --jobs` workers) never load a partial file."""
    import subprocess
    import tempfile

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        source = os.path.join(tmp, "horner61.c")
        with open(source, "w", encoding="ascii") as fh:
            fh.write(_HORNER_SOURCE)
        built = os.path.join(tmp, "horner61.so")
        try:
            subprocess.run(["gcc", *_CFLAGS, "-o", built, source],
                           check=True, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cannot compile the hashing kernel: {exc}") from exc
        os.replace(built, path)


# a spot check of `philox_uniforms`: under key (k0, k1), (bucket, item)
# pairs and the Philox4x32-10 words c0:c1 of their slots 0, 1 and 2, as
# `stable.philox4x32` computes them (tests/test_stable.py checks this table)
_PHILOX_SPOT_KEY = (0x89ABCDEF, 0x01234567)
_PHILOX_SPOT = (
    (1, 7, (0x616FE086A7D3DCFE, 0xD1ADE77EDA758A27, 0xAA665DDE279EEEAD)),
    ((1 << 31) - 1, (1 << 40) + 12345,
     (0xE9541D2B31D0A727, 0x8335D1C7267EDD5D, 0x7D7713C264656A46)),
)


def _load_kernel():
    """The compiled library (`horner61`, `scatter61`, `dense_sums64` and
    `philox_uniforms`), or None when it cannot be built or loaded or
    disagrees with the numpy reference on a spot check."""
    key = "\0".join((_HORNER_SOURCE, " ".join(_CFLAGS), platform.machine(),
                     platform.system()))
    digest = hashlib.sha256(key.encode("ascii")).hexdigest()[:16]
    path = os.path.join(_cache_dir(), f"horner61-{digest}.so")
    try:
        if not os.path.exists(path):
            _build_kernel(path)
        lib = ctypes.CDLL(path)
        horner, scatter = lib.horner61, lib.scatter61
        dense, philox = lib.dense_sums64, lib.philox_uniforms
    except (OSError, AttributeError):  # no compiler, unwritable cache, bad library
        return None
    ptr, size, u32 = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint32
    horner.restype = None
    horner.argtypes = [ptr, ptr, size, size, ptr, size, ptr]
    scatter.restype = ctypes.c_int
    scatter.argtypes = [ptr, ptr, size, size, ptr, ptr, size, ptr, size, ctypes.c_int64, ptr]
    dense.restype = ctypes.c_int
    dense.argtypes = [ptr, ptr, size, ptr, ptr, size]
    philox.restype = None
    philox.argtypes = [ptr, ptr, size, u32, u32, ptr]
    coeffs = np.array([[MERSENNE61 - 1, 0, 12345, MERSENNE61 - 2], [0, 0, 7, 1 << 60]],
                      dtype=np.uint64)
    ranges = np.array([1000, 2], dtype=np.uint64)
    x = np.array([1, 2, 3, 2**32 - 1, MERSENNE61 - 1], dtype=np.uint64)
    out = np.empty((2, x.size), dtype=np.int64)
    horner(coeffs.ctypes.data, ranges.ctypes.data, 2, 4, x.ctypes.data, x.size, out.ctypes.data)
    want = [_horner_numpy(coeffs[r], ranges[r], x) for r in range(2)]
    ok = np.array_equal(out, want)
    # one table row of 1000 cells (bucket row 0, sign row 1), starting near
    # the limit, which item 2 (sign +1) crosses, and then at zero
    limit = 1 << 62
    deltas = np.array([5, 7, 1 << 40, 3, -1], dtype=np.int64)
    packed = np.empty(x.size, dtype=np.uint32)
    want_packed = (want[0] - 1) << 1 | (want[1] - 1)
    for start in (limit - 4, 0):
        cells = np.full(1000, start, dtype=np.int64)
        want_cells = cells.copy()
        np.add.at(want_cells, want[0] - 1, (3 - 2 * want[1]) * deltas)
        over = scatter(coeffs.ctypes.data, ranges.ctypes.data, 1, 4, x.ctypes.data,
                       deltas.ctypes.data, x.size, cells.ctypes.data, cells.size, limit,
                       packed.ctypes.data)
        want_over = np.abs(want_cells[want[0] - 1]).max() >= limit
        ok = (ok and np.array_equal(cells, want_cells) and bool(over) == want_over
              and np.array_equal(packed, want_packed))
    # sums that wrap, an item whose deltas cancel, then an item out of range
    items = np.array([3, 1, 3, 0, 5, 1], dtype=np.int64)
    deltas = np.array([2**63 - 1, -4, 1, 0, 7, 4], dtype=np.int64)
    sums, seen = np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.uint8)
    want_sums = sums.copy()
    np.add.at(want_sums, items, deltas)
    bad = dense(items.ctypes.data, deltas.ctypes.data, items.size, sums.ctypes.data,
                seen.ctypes.data, sums.size)
    ok = (ok and bad == 0 and np.array_equal(sums, want_sums)
          and np.array_equal(seen, np.bincount(items, minlength=6) > 0)
          and dense(items.ctypes.data, deltas.ctypes.data, items.size, sums.ctypes.data,
                    seen.ctypes.data, 5) == 1)
    buckets = np.array([b for b, _, _ in _PHILOX_SPOT], dtype=np.int64)
    items = np.array([i for _, i, _ in _PHILOX_SPOT], dtype=np.int64)
    uniforms = np.empty((items.size, 3))
    philox(buckets.ctypes.data, items.ctypes.data, items.size, *_PHILOX_SPOT_KEY,
           uniforms.ctypes.data)
    want_uniforms = [[((w >> 12) + 0.5) * 2.0 ** -52 for w in words]
                     for _, _, words in _PHILOX_SPOT]
    ok = ok and uniforms.tolist() == want_uniforms
    return lib if ok else None


_kernel = _load_kernel()
KWISE_BACKEND = "numpy" if _kernel is None else "c-kernel"


def _horner_rows(coeffs: np.ndarray, ranges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate every row of a C-contiguous (rows, t) uint64 coefficient
    matrix at every item of the contiguous uint64 vector x over
    GF(2**61 - 1); row r is reduced onto [1, ranges[r]]. Returns a
    (rows, items) int64 array.

    Runs the C kernel when it loaded, else `_horner_numpy` row by row (rows
    stacked in numpy make temporaries too large for cache, and run slower).
    """
    out = np.empty((coeffs.shape[0], x.size), dtype=np.int64)
    if _kernel is not None:
        _kernel.horner61(coeffs.ctypes.data, ranges.ctypes.data, coeffs.shape[0],
                         coeffs.shape[1], x.ctypes.data, x.size, out.ctypes.data)
    else:
        for r in range(coeffs.shape[0]):
            out[r] = _horner_numpy(coeffs[r], ranges[r], x)
    return out


def scatter_signed(row_hash: "KWiseHash", items: np.ndarray, deltas: np.ndarray,
                   cells: np.ndarray, limit: int) -> tuple[bool, np.ndarray]:
    """Add sign_r(i) * delta into cells[r, bucket_r(i) - 1] for every row r
    of the (rows, cols) int64 table `cells` and every item i, in one pass of
    the C kernel (`scatter61`); `row_hash` stacks the rows' bucket hashes
    and then their range-2 sign hashes, as `CountSketchTable` builds it.
    Returns whether any cell written ends at |cell| >= limit, and every
    item's packed cell in every row as an (items, rows) uint32 array:
    (bucket - 1) << 1 | (sign == -1).

    Needs the kernel loaded (`_kernel` not None) and cols < 2**31, so a
    packed cell fits 32 bits. Hashing each row into (rows, items) arrays
    and adding them with `np.add.at` gives the same cells; that numpy body,
    in `CountSketchTable.update_many`, is the bitwise reference.
    """
    rows, cols = cells.shape
    x = np.ascontiguousarray(items, dtype=np.int64).view(np.uint64)
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    coeffs, ranges = row_hash._coeff_rows, row_hash._ranges
    if (cells.dtype != np.int64 or not cells.flags.c_contiguous or not cells.flags.writeable
            or cols >= 1 << 31 or x.shape != d.shape or x.ndim != 1
            or coeffs.shape[0] != 2 * rows or (ranges[:rows] > cols).any()
            or (ranges[rows:] != 2).any()):
        raise ValueError("scatter_signed needs a writable C-contiguous int64 table under "
                         "2**31 columns, one delta per item, and bucket then sign hashes "
                         "for each row")
    packed = np.empty((x.size, rows), dtype=np.uint32)
    over = _kernel.scatter61(coeffs.ctypes.data, ranges.ctypes.data, rows, coeffs.shape[1],
                             x.ctypes.data, d.ctypes.data, x.size, cells.ctypes.data, cols,
                             limit, packed.ctypes.data)
    return bool(over), packed


def dense_sums(items: np.ndarray, deltas: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, seen) over the indices [0, length): sums[i] the int64 sum of
    the deltas of item i, wrapping as numpy's int64 adds do, and seen[i] 1
    where item i has a record (so an item whose deltas cancel is seen), as
    a uint8 array. One pass of the C kernel (`dense_sums64`), which must be
    loaded; `np.add.at` plus `np.bincount`, in `estimator._dense_sums`, is
    the bitwise reference. ValueError if an item lies outside [0, length).
    """
    x = np.ascontiguousarray(items, dtype=np.int64)
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    if x.shape != d.shape or x.ndim != 1:
        raise ValueError("dense_sums needs one delta per item")
    sums = np.zeros(length, dtype=np.int64)
    seen = np.zeros(length, dtype=np.uint8)
    if _kernel.dense_sums64(x.ctypes.data, d.ctypes.data, x.size, sums.ctypes.data,
                            seen.ctypes.data, length):
        raise ValueError(f"item outside [0, {length})")
    return sums, seen


def philox_uniforms(buckets: np.ndarray, items: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """The uniforms behind `stable.StableVariateSource`'s three variates of
    each aligned (bucket, item) pair, as a (pairs, 3) float64 array: slot s
    is the Philox4x32-10 block of counter (item mod 2**32, item // 2**32,
    bucket, s) under key (k0, k1), its words c0:c1 made a uniform by
    `stable._uniform`. One pass of the C kernel (`philox_uniforms`), which
    must be loaded; `stable.philox_uniforms` is the numpy fallback and
    bitwise reference. Items must be non-negative and buckets below 2**32.
    """
    b = np.ascontiguousarray(buckets, dtype=np.int64)
    x = np.ascontiguousarray(items, dtype=np.int64)
    if b.shape != x.shape or x.ndim != 1:
        raise ValueError("philox_uniforms needs one bucket per item")
    out = np.empty((x.size, 3))
    _kernel.philox_uniforms(b.ctypes.data, x.ctypes.data, x.size, k0, k1, out.ctypes.data)
    return out


class KWiseHash:
    """Degree t-1 polynomial hash over GF(2**61 - 1), output in [1, range_size].

    `coefficients` are listed leading coefficient first; any t distinct
    inputs receive jointly uniform field values over a uniform draw of the
    coefficient tuple. Inputs must lie below 2**61 - 1.
    `f1sketch.oracle.expected_hash` is the scalar reference.

    `KWiseHash.stack` joins several hashes into one whose `eval_many`
    evaluates all of them in a single pass. A stacked hash has a tuple of
    coefficient rows and a tuple of ranges.
    """

    __slots__ = ("coefficients", "range_size", "_coeff_rows", "_ranges")

    def __init__(self, coefficients, range_size: int):
        coefficients = [int(c) % MERSENNE61 for c in coefficients]
        if not coefficients:
            raise ValueError("need at least one coefficient (t >= 1)")
        if not 1 <= range_size <= MERSENNE61:
            raise ValueError("range_size must lie in [1, 2**61 - 1]")
        self.coefficients = tuple(coefficients)
        self.range_size = range_size
        self._coeff_rows = np.array([coefficients], dtype=np.uint64)
        self._ranges = np.array([range_size], dtype=np.uint64)

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

    @classmethod
    def stack(cls, hashes) -> "KWiseHash":
        """One hash whose `eval_many(items)` returns a (rows, *items.shape)
        array, row j equal to `hashes[j].eval_many(items)`.

        Lower-degree rows are padded with leading zero coefficients, which
        leave Horner's value unchanged.
        """
        hashes = list(hashes)
        if not hashes or any(h._coeff_rows.shape[0] != 1 for h in hashes):
            raise ValueError("stack needs one or more single-row hashes")
        t = max(len(h.coefficients) for h in hashes)
        stacked = cls.__new__(cls)
        stacked.coefficients = tuple((0,) * (t - len(h.coefficients)) + h.coefficients
                                     for h in hashes)
        stacked.range_size = tuple(h.range_size for h in hashes)
        stacked._coeff_rows = np.array(stacked.coefficients, dtype=np.uint64)
        stacked._ranges = np.array(stacked.range_size, dtype=np.uint64)
        return stacked

    def eval_many(self, items: np.ndarray) -> np.ndarray:
        """Bucket in [1, range_size] of each item of an integer array, as
        int64 of the same shape (a stacked hash adds a leading row axis)."""
        x = np.asarray(items, dtype=np.uint64)
        out = _horner_rows(self._coeff_rows, self._ranges, x.ravel())
        if isinstance(self.range_size, tuple):
            return out.reshape(out.shape[:1] + x.shape)
        return out.reshape(x.shape)
