"""Limited-independence hash families over a prime field.

A t-wise independent hash is a uniformly random polynomial of degree t-1
over GF(p), evaluated by Horner's rule and reduced onto the bucket range
[1, C]. The reduction `(value mod C) + 1` skews bucket probabilities by at
most C/p relative; with the default 61-bit prime and desk-scale C this is
below 2**-45 and is ignored everywhere except the small-field exhaustive
tests, which account for it exactly.

Hash objects are immutable after construction and safe to share across
threads.

Over the 61-bit Mersenne prime, `eval_many` runs a small C kernel
(`_HORNER_SOURCE`), which also hashes and scatters CountSketch updates in
one pass (`scatter_signed`). It is compiled once per machine with the local
gcc into `$XDG_CACHE_HOME/f1sketch` (default `~/.cache/f1sketch`), under a
file name keyed by a hash of the source, and loaded through ctypes when this
module is imported. When it cannot be built or loaded, the numpy evaluation
below (`_mulmod61`/`_addmod61`) and the numpy scatter in
`CountSketchTable.update_many` run instead; they are also the bitwise
reference the kernel is tested against. `KWISE_BACKEND` names the path in
use.
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


def _load_kernel():
    """The compiled library (`horner61` and `scatter61`), or None when it
    cannot be built or loaded or disagrees with the numpy reference on a
    spot check."""
    key = "\0".join((_HORNER_SOURCE, " ".join(_CFLAGS), platform.machine(),
                     platform.system()))
    digest = hashlib.sha256(key.encode("ascii")).hexdigest()[:16]
    path = os.path.join(_cache_dir(), f"horner61-{digest}.so")
    try:
        if not os.path.exists(path):
            _build_kernel(path)
        lib = ctypes.CDLL(path)
        horner, scatter = lib.horner61, lib.scatter61
    except (OSError, AttributeError):  # no compiler, unwritable cache, bad library
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    horner.restype = None
    horner.argtypes = [ptr, ptr, size, size, ptr, size, ptr]
    scatter.restype = ctypes.c_int
    scatter.argtypes = [ptr, ptr, size, size, ptr, ptr, size, ptr, size, ctypes.c_int64, ptr]
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class KWiseHash:
    """Degree t-1 polynomial hash over GF(prime), output in [1, range_size].

    `coefficients` are listed leading coefficient first; any t distinct
    inputs receive jointly uniform field values over a uniform draw of the
    coefficient tuple.

    `KWiseHash.stack` joins several 61-bit hashes into one whose `eval_many`
    evaluates all of them in a single pass. A stacked hash has a tuple of
    coefficient rows and a tuple of ranges, and no scalar `eval`.
    """

    __slots__ = ("coefficients", "prime", "range_size", "_coeff_rows", "_ranges")

    def __init__(self, coefficients, prime: int, range_size: int):
        coefficients = [int(c) % prime for c in coefficients]
        if not coefficients:
            raise ValueError("need at least one coefficient (t >= 1)")
        if range_size < 1:
            raise ValueError("range_size must be >= 1")
        if prime < range_size:
            raise ValueError("prime must be at least the output range")
        if prime != MERSENNE61 and not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.coefficients = tuple(coefficients)
        self.prime = prime
        self.range_size = range_size
        self._coeff_rows = (
            np.array([coefficients], dtype=np.uint64) if prime == MERSENNE61 else None
        )
        self._ranges = np.array([range_size], dtype=np.uint64)

    @classmethod
    def from_seed(cls, key: bytes, t: int, n: int, range_size: int,
                  prime: int | None = None) -> "KWiseHash":
        """Draw a t-wise independent hash [n] -> [range_size] from a PRF key."""
        if t < 1:
            raise ValueError("independence degree t must be >= 1")
        if n < 1 or range_size < 1:
            raise ValueError("domain and range sizes must be >= 1")
        if prime is None:
            prime = MERSENNE61
        if prime <= n or prime < range_size:
            raise ValueError("prime must exceed the domain and cover the range")
        return cls(seeds.field_elements(key, t, prime), prime, range_size)

    @classmethod
    def stack(cls, hashes) -> "KWiseHash":
        """One hash whose `eval_many(items)` returns a (rows, *items.shape)
        array, row j equal to `hashes[j].eval_many(items)`.

        Lower-degree rows are padded with leading zero coefficients, which
        leave Horner's value unchanged. Every hash must be over 2**61 - 1.
        """
        hashes = list(hashes)
        if not hashes or any(h._coeff_rows is None or h._coeff_rows.shape[0] != 1
                             for h in hashes):
            raise ValueError("stack needs single-row hashes over 2**61 - 1")
        t = max(len(h.coefficients) for h in hashes)
        stacked = cls.__new__(cls)
        stacked.coefficients = tuple((0,) * (t - len(h.coefficients)) + h.coefficients
                                     for h in hashes)
        stacked.prime = MERSENNE61
        stacked.range_size = tuple(h.range_size for h in hashes)
        stacked._coeff_rows = np.array(stacked.coefficients, dtype=np.uint64)
        stacked._ranges = np.array(stacked.range_size, dtype=np.uint64)
        return stacked

    def eval(self, i: int) -> int:
        """Bucket of item i, in [1, range_size]. i must lie in the domain."""
        if isinstance(self.range_size, tuple):
            raise TypeError("a stacked hash has no scalar eval; use eval_many")
        v = 0
        x = i % self.prime
        for c in self.coefficients:
            v = (v * x + c) % self.prime
        return v % self.range_size + 1

    __call__ = eval

    def eval_many(self, items: np.ndarray) -> np.ndarray:
        """Vectorized `eval` over an integer array; returns int64 buckets."""
        if self._coeff_rows is not None:
            x = np.asarray(items, dtype=np.uint64)
            out = _horner_rows(self._coeff_rows, self._ranges, x.ravel())
            if isinstance(self.range_size, tuple):
                return out.reshape(out.shape[:1] + x.shape)
            return out.reshape(x.shape)
        return np.array([self.eval(int(i)) for i in np.asarray(items).ravel()],
                        dtype=np.int64).reshape(np.shape(items))


class SignHash:
    """4-wise independent sign hash onto {-1, +1}.

    Wraps a range-2 KWiseHash; bucket 1 maps to +1, bucket 2 to -1.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: KWiseHash):
        if inner.range_size != 2:
            raise ValueError("sign hash needs an inner hash with range 2")
        self.inner = inner

    @classmethod
    def from_seed(cls, key: bytes, n: int, prime: int | None = None) -> "SignHash":
        return cls(KWiseHash.from_seed(key, t=4, n=n, range_size=2, prime=prime))

    def eval(self, i: int) -> int:
        return 1 if self.inner.eval(i) == 1 else -1

    __call__ = eval

    def eval_many(self, items: np.ndarray) -> np.ndarray:
        return np.where(self.inner.eval_many(items) == 1, 1, -1).astype(np.int64)
