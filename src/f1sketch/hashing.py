"""Limited-independence hash families over GF(2**61 - 1), and the C kernel.

A t-wise independent hash is a uniformly random polynomial of degree t-1
over the field of the Mersenne prime 2**61 - 1, evaluated by Horner's rule
and reduced onto the bucket range [1, C]. The reduction `(value mod C) + 1`
skews bucket probabilities by at most C/2**61 relative, below 2**-45 at
desk-scale C, and is ignored. A CountSketch row is one hash onto
[1, 2 * cols], read as a bucket and a sign (see `countsketch`).

Hash objects are immutable after construction and safe to share across
threads.

A small C kernel (`_HORNER_SOURCE`) has nine routines: `horner61` runs
`eval_many`; `scatter61` hashes CountSketch updates in blocks of 1,024
items, every row per block, adds each block's deltas and reads its cells
back in loops of their own, and judges the cells written against the
counter limit once the whole batch is added (`scatter_signed`);
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
import platform

import numpy as np

from . import seeds

MERSENNE61 = (1 << 61) - 1

_M61 = np.uint64(MERSENNE61)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)


def _step61(v: np.ndarray, x1: np.ndarray, x0: np.ndarray, c: np.uint64) -> np.ndarray:
    """One Horner step v * x + c modulo 2**61 - 1 on uint64 arrays, for
    x = x1 * 2**31 + x0, folded but not fully reduced: for v < 2**62 and
    x, c < 2**61 the sum below stays under 2**64, and the result is
    congruent and under 2**61 + 6."""
    v1 = v >> np.uint64(31)
    v0 = v & _MASK31
    # v*x = v1*x1*2^62 + (v1*x0 + v0*x1)*2^31 + v0*x0, and 2^61 === 1 (mod p)
    mid = v1 * x0 + v0 * x1
    acc = (v1 * x1 << np.uint64(1)) + (mid >> np.uint64(30)) + ((mid & _MASK30) << np.uint64(31))
    acc += v0 * x0
    acc += c
    return (acc & _M61) + (acc >> np.uint64(61))


def _horner_numpy(coeffs: np.ndarray, ranges, x: np.ndarray) -> np.ndarray:
    """(poly_r(x) mod 2**61-1) mod ranges[r] + 1 as int64 for every row r
    of the (rows, t) uint64 matrix `coeffs`, leading coefficient first, and
    every item of the vector x, as a (rows, items) array; or, for one row
    of coefficients and one range, as a vector. Leading zero columns are
    skipped; they leave Horner's value at 0, so the result is the same."""
    c = np.atleast_2d(coeffs)
    nonzero = np.flatnonzero(c.any(axis=0))
    start = int(nonzero[0]) if nonzero.size else c.shape[1] - 1
    x1, x0 = x >> np.uint64(31), x & _MASK31
    v = np.repeat(c[:, start, None], x.size, axis=1)
    for k in range(start + 1, c.shape[1]):
        v = _step61(v, x1, x0, c[:, k, None])
    v = np.minimum(v, v - _M61)  # the residue: v - p wraps above v when v < p
    out = (v % np.reshape(ranges, (-1, 1))).astype(np.int64) + 1
    return out if np.ndim(coeffs) == 2 else out[0]


_HORNER_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#define P61 0x1FFFFFFFFFFFFFFFULL

/* Each exported routine starts on a 64-byte boundary, so where its loops
   fall against cache lines does not move with the code above it: skim61
   ran 1.7 times as long when an edit above it moved its start from offset
   0 to 16 of a line. */
#define ENTRY61 __attribute__((aligned(64)))

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

#if defined(__x86_64__)
/* step61 on eight items at once, in 32-bit limbs, as _mm512_mul_epu32
   multiplies the low halves of 64-bit lanes: with v = vh 2^32 + vl and
   x = xh 2^32 + xl, v x = vh xh 2^64 + mid 2^32 + vl xl for mid = vh xl +
   vl xh, where 2^64 = 8 and, split at bit 29, mid 2^32 = (mid >> 29) 2^61 +
   (mid mod 2^29) 2^32, with 2^61 = 1 (mod 2^61 - 1). For v < 2^62 and
   x, c < 2^61 the sum below stays under 5 2^61, and the result is
   congruent and under 2^61 + 4, as step61's is. xh holds x >> 32. */
static inline __attribute__((target("avx512f"))) __m512i step61x8(__m512i v, __m512i x,
                                                                   __m512i xh, __m512i c) {
    const __m512i p = _mm512_set1_epi64((long long)P61), vh = _mm512_srli_epi64(v, 32);
    const __m512i low = _mm512_mul_epu32(v, x);
    const __m512i mid = _mm512_add_epi64(_mm512_mul_epu32(vh, x), _mm512_mul_epu32(v, xh));
    __m512i r = _mm512_add_epi64(c, _mm512_slli_epi64(_mm512_mul_epu32(vh, xh), 3));
    r = _mm512_add_epi64(r, _mm512_and_si512(low, p));
    r = _mm512_add_epi64(r, _mm512_srli_epi64(low, 61));
    r = _mm512_add_epi64(r, _mm512_srli_epi64(mid, 29));
    r = _mm512_add_epi64(r, _mm512_slli_epi64(
            _mm512_and_si512(mid, _mm512_set1_epi64((1LL << 29) - 1)), 32));
    return _mm512_add_epi64(_mm512_and_si512(r, p), _mm512_srli_epi64(r, 61));
}

/* canon61 of eight step61x8 results a, stored to v[0 .. 7]: a - P61 wraps
   above a exactly when a < P61, so the minimum is the residue. */
static inline __attribute__((target("avx512f"))) void canon61x8(__m512i a, uint64_t *v) {
    const __m512i p = _mm512_set1_epi64((long long)P61);
    _mm512_storeu_si512(v, _mm512_min_epu64(a, _mm512_sub_epi64(a, p)));
}

/* Canonical Horner values at x[0 .. 31] of the polynomial c[s .. t-1],
   leading first, as poly61 gives them: four vectors of eight items, whose
   steps overlap as poly61's four chains do. */
static __attribute__((target("avx512f"))) void poly61x32(const uint64_t *c, size_t s, size_t t,
                                                         const uint64_t *x, uint64_t *v) {
    const __m512i x0 = _mm512_loadu_si512(x), x1 = _mm512_loadu_si512(x + 8);
    const __m512i x2 = _mm512_loadu_si512(x + 16), x3 = _mm512_loadu_si512(x + 24);
    const __m512i h0 = _mm512_srli_epi64(x0, 32), h1 = _mm512_srli_epi64(x1, 32);
    const __m512i h2 = _mm512_srli_epi64(x2, 32), h3 = _mm512_srli_epi64(x3, 32);
    __m512i a0 = _mm512_set1_epi64((long long)c[s]), a1 = a0, a2 = a0, a3 = a0;
    for (size_t k = s + 1; k < t; k++) {
        const __m512i ck = _mm512_set1_epi64((long long)c[k]);
        a0 = step61x8(a0, x0, h0, ck);
        a1 = step61x8(a1, x1, h1, ck);
        a2 = step61x8(a2, x2, h2, ck);
        a3 = step61x8(a3, x3, h3, ck);
    }
    canon61x8(a0, v);
    canon61x8(a1, v + 8);
    canon61x8(a2, v + 16);
    canon61x8(a3, v + 24);
}

/* Whether the CPU runs AVX-512F, asked once when the library loads; the
   build itself targets the baseline x86-64, so the library stays portable. */
static int simd61;

static __attribute__((constructor)) void pick61(void) {
    __builtin_cpu_init();
    simd61 = __builtin_cpu_supports("avx512f");
}
#endif

/* Canonical Horner values of the polynomial c[s .. t-1] at the first k of
   the n > 0 items x[0 .. n-1], into v[0 .. k-1]; returns k: 32 by
   poly61x32 when the CPU runs AVX-512F, else 4 or 1 by poly61. */
static inline size_t lanes61(const uint64_t *c, size_t s, size_t t, const uint64_t *x,
                             size_t n, uint64_t *v) {
#if defined(__x86_64__)
    if (simd61 && n >= 32) {
        poly61x32(c, s, t, x, v);
        return 32;
    }
#endif
    poly61(c, s, t, x, n >= 4, v);
    return n >= 4 ? 4 : 1;
}

/* v mod m for m >= 1: a mask when m is a power of two, as every table at
   accuracy 0.5 is, sparing a 64-bit division per value. */
static inline uint64_t reduce61(uint64_t v, uint64_t m) {
    return m & (m - 1) ? v % m : v & (m - 1);
}

/* out[r * n + i] = (poly_r(x[i]) mod 2^61-1) mod ranges[r] + 1, where
   poly_r has coefficients coeffs[r * t .. r * t + t - 1], leading first,
   all below 2^61-1, and every x[i] is below 2^61-1. */
ENTRY61 void horner61(const uint64_t *coeffs, const uint64_t *ranges, size_t rows,
                      size_t t, const uint64_t *x, size_t n, int64_t *out) {
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * t;
        const uint64_t m = ranges[r];
        const size_t s = lead61(c, t);
        int64_t *o = out + r * n;
        uint64_t v[32];
        for (size_t i = 0; i < n;) {
            const size_t k = lanes61(c, s, t, x + i, n - i, v);
            for (size_t j = 0; j < k; j++, i++)
                o[i] = (int64_t)reduce61(v[j], m) + 1;
        }
    }
}

/* Items per block of scatter61: every row hashes a block, then adds it,
   so the whole batch no longer streams through memory once per row. */
#define BLOCK61 1024

/* |c| >= limit for an int64 cell c; |INT64_MIN| wraps negative, as numpy's
   abs does, so it never counts. */
static inline int over61(uint64_t c, int64_t limit) {
    return (int64_t)((int64_t)c < 0 ? 0 - c : c) >= limit;
}

/* One block of scatter61, items [lo, hi), hi - lo <= BLOCK61. Row by row:
   the block's packed cells are hashed into q (4 KiB, in L1); unless
   reread, each delta is added into its cell; then the cells are read
   back, and the packed cells copied out unless packed is NULL. Returns
   whether a cell read back is at |cell| >= limit. Hashing, adding and
   reading in separate loops ran faster than adding in the hash loop, and
   an add whose result is not read is one instruction, so a first write to
   a fresh page faults once, not first to read and then to write. */
static inline int block61(const uint64_t *coeffs, size_t rows, size_t t, const uint64_t *x,
                          const int64_t *deltas, size_t lo, size_t hi, int64_t *cells,
                          size_t cols, int64_t limit, uint32_t *packed, int reread) {
    const uint64_t m = 2 * (uint64_t)cols;
    uint32_t q[BLOCK61];
    int hit = 0;
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * t;
        const size_t s = lead61(c, t);
        uint64_t *row = (uint64_t *)(cells + r * cols);
        uint64_t v[32];
        for (size_t i = lo; i < hi;) {
            const size_t k = lanes61(c, s, t, x + i, hi - i, v);
            for (size_t j = 0; j < k; j++, i++) {
                const uint64_t w = reduce61(v[j], m), neg = w >= cols;
                q[i - lo] = (uint32_t)((w - (cols & (0 - neg))) << 1 | neg);
            }
        }
        for (size_t i = 0; !reread && i < hi - lo; i++) {
            const uint64_t sign = 0 - (uint64_t)(q[i] & 1);
            row[q[i] >> 1] += ((uint64_t)deltas[lo + i] ^ sign) - sign;
        }
        for (size_t i = 0; i < hi - lo; i++)
            hit |= over61(row[q[i] >> 1], limit);
        for (size_t i = 0; packed && i < hi - lo; i++)
            packed[(lo + i) * rows + r] = q[i];
    }
    return hit;
}

/* CountSketch update of a (rows, cols) int64 table, 0 < cols < 2^31, from
   one polynomial per row laid out as for horner61: w = (poly_r(x) mod
   2^61-1) mod 2 * cols gives bucket w mod cols and sign -1 iff w >= cols,
   found with a mask, as a branch on this coin flip mispredicts half the
   time. Adds sign * deltas[i] into cell (r, bucket) for every row r and
   item i, wrapping modulo 2^64 as numpy's int64 adds do, BLOCK61 items at
   a time, every row per block. Unless packed is NULL, item i's packed cell
   in row r goes to packed[i * rows + r] as bucket << 1 | negative-sign.
   Returns 1 when a cell written ends the batch at |cell| >= limit (see
   over61), else 0. Each block reads back the cells it wrote; a cell that
   ends the batch there was there when the block of its last add read it,
   so the batch is hashed again, to read every cell it wrote, only when
   some block read one there: the whole batch is added before any cell is
   judged. */
ENTRY61 int scatter61(const uint64_t *coeffs, size_t rows, size_t t, const uint64_t *x,
                      const int64_t *deltas, size_t n, int64_t *cells, size_t cols,
                      int64_t limit, uint32_t *packed) {
    int near = 0, over = 0;
    for (size_t lo = 0; lo < n; lo += BLOCK61)
        near |= block61(coeffs, rows, t, x, deltas, lo, n - lo < BLOCK61 ? n : lo + BLOCK61,
                        cells, cols, limit, packed, 0);
    for (size_t lo = 0; near && lo < n; lo += BLOCK61)
        over |= block61(coeffs, rows, t, x, deltas, lo, n - lo < BLOCK61 ? n : lo + BLOCK61,
                        cells, cols, limit, NULL, 1);
    return over;
}

/* 1 when |deltas[0]| + ... + |deltas[n-1]|, summed exactly, reaches
   limit, at most 2^63, else 0; |INT64_MIN| counts as 2^63. The sum stops
   at the first partial sum that reaches limit, so it never wraps. */
ENTRY61 int abs_sum_reaches(const int64_t *deltas, size_t n, uint64_t limit) {
    uint64_t sum = 0;
    for (size_t i = 0; i < n; i++) {
        const uint64_t d = (uint64_t)deltas[i];
        sum += (int64_t)d < 0 ? 0 - d : d;
        if (sum >= limit)
            return 1;
    }
    return 0;
}

/* Stable accumulators of a (cols, 3) float64 table: for every i < n in
   turn, cells[3 * (buckets[i] - 1) + s] += (double)deltas[i] *
   variates[3 * i + s] for slots s = 0, 1, 2, in item order, as np.add.at
   adds, so every sum rounds alike. The product is rounded before the add:
   the kernel is built with -ffp-contract=off, so no fused multiply-add.
   Returns 1 at the first bucket outside [1, cols], leaving cells partly
   written; else 2 when a cell written ends the batch infinite or NaN (no
   add makes such a cell finite again, so each sum is judged as written);
   else 0. */
ENTRY61 int stable_add3(double *cells, size_t cols, const int64_t *buckets, const int64_t *deltas,
                        const double *variates, size_t n) {
    int finite = 1;
    for (size_t i = 0; i < n; i++) {
        const uint64_t b = (uint64_t)buckets[i] - 1;
        if (b >= cols)
            return 1;
        const double d = (double)deltas[i];
        for (size_t s = 0; s < 3; s++) {
            cells[3 * b + s] += d * variates[3 * i + s];
            finite &= __builtin_isfinite(cells[3 * b + s]);
        }
    }
    return finite ? 0 : 2;
}

/* Exact dense aggregation: for every i < n, sums[items[i]] += deltas[i],
   wrapping modulo 2^64 as numpy's int64 adds do, and seen[items[i]] = 1.
   Both arrays hold len entries. Returns 1 at the first item outside
   [0, len), leaving both arrays partly written, else 0. */
ENTRY61 int dense_sums64(const int64_t *items, const int64_t *deltas, size_t n,
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

#if defined(__x86_64__)
/* One Philox4x32-10 round of eight blocks, as philox_c0c1 runs it, with
   round keys k0 and k1: a word to a 64-bit lane, whose high half is left
   as it falls, as _mm512_mul_epu32 reads only the low halves. */
static inline __attribute__((target("avx512f"))) void round8(__m512i *c, __m512i k0, __m512i k1) {
    const __m512i p0 = _mm512_mul_epu32(c[0], _mm512_set1_epi64(0xD2511F53));
    const __m512i p1 = _mm512_mul_epu32(c[2], _mm512_set1_epi64(0xCD9E8D57));
    c[0] = _mm512_ternarylogic_epi64(_mm512_srli_epi64(p1, 32), c[1], k0, 0x96);  /* a ^ b ^ c */
    c[2] = _mm512_ternarylogic_epi64(_mm512_srli_epi64(p0, 32), c[3], k1, 0x96);
    c[1] = p1;
    c[3] = p0;
}

/* The uniforms of eight blocks' words c0:c1, as philox_uniforms makes
   them, into u[0 .. 7]. Or-ing q < 2^52 into the bits of 2^52 makes the
   double 2^52 + q; less 2^52 - 1/2 it is q + 1/2, exactly. */
static inline __attribute__((target("avx512f"))) void uniform8(const __m512i *c, double *u) {
    const __m512i w = _mm512_or_si512(_mm512_slli_epi64(c[0], 32),
                                      _mm512_and_si512(c[1], _mm512_set1_epi64(0xFFFFFFFF)));
    const __m512i q = _mm512_srli_epi64(w, 12), two52 = _mm512_set1_epi64(0x4330000000000000);
    const __m512d h = _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(q, two52)),
                                    _mm512_set1_pd(0x1p52 - 0.5));
    _mm512_storeu_pd(u, _mm512_mul_pd(h, _mm512_set1_pd(0x1p-52)));
}

/* philox_uniforms of the eight pairs at buckets[0 .. 7], items[0 .. 7]:
   eight pairs to a vector, one vector per slot, the three advanced
   together so their multiplies overlap. */
static __attribute__((target("avx512f"))) void philox8(const int64_t *buckets, const int64_t *items,
                                                       uint32_t k0, uint32_t k1, double *out) {
    const __m512i x = _mm512_loadu_si512(items), b = _mm512_loadu_si512(buckets);
    const __m512i xh = _mm512_srli_epi64(x, 32);
    __m512i c0[4] = {x, xh, b, _mm512_set1_epi64(0)}, c1[4] = {x, xh, b, _mm512_set1_epi64(1)};
    __m512i c2[4] = {x, xh, b, _mm512_set1_epi64(2)};
    for (int r = 0; r < 10; r++, k0 += 0x9E3779B9u, k1 += 0xBB67AE85u) {
        const __m512i j0 = _mm512_set1_epi64(k0), j1 = _mm512_set1_epi64(k1);
        round8(c0, j0, j1);
        round8(c1, j0, j1);
        round8(c2, j0, j1);
    }
    double u[3][8];
    uniform8(c0, u[0]);
    uniform8(c1, u[1]);
    uniform8(c2, u[2]);
    for (int i = 0; i < 8; i++)
        for (int s = 0; s < 3; s++)
            out[3 * i + s] = u[s][i];
}
#endif

/* out[3 * i + s], for slots s = 0, 1, 2 of every pair i < n: the uniform
   in (0, 1) of the Philox4x32-10 block of counter (items[i] mod 2^32,
   items[i] / 2^32, buckets[i], s) under key (k0, k1), made from the top
   52 bits of its words c0:c1 plus half a step. Every operation on the
   double is exact. Items lie in [0, 2^64) and buckets in [0, 2^32). Eight
   pairs at a time go to philox8 when the CPU runs AVX-512F. */
ENTRY61 void philox_uniforms(const int64_t *buckets, const int64_t *items, size_t n,
                             uint32_t k0, uint32_t k1, double *out) {
    size_t i = 0;
#if defined(__x86_64__)
    for (; simd61 && i + 8 <= n; i += 8)
        philox8(buckets + i, items + i, k0, k1, out + 3 * i);
#endif
    for (; i < n; i++) {
        const uint64_t x = (uint64_t)items[i];
        for (uint32_t s = 0; s < 3; s++) {
            const uint64_t w = philox_c0c1((uint32_t)x, (uint32_t)(x >> 32),
                                           (uint32_t)buckets[i], s, k0, k1);
            out[3 * i + s] = ((double)(w >> 12) + 0.5) * 0x1p-52;
        }
    }
}

#define ONES 0x0101010101010101ULL

/* How many bytes of the little-endian word w, from its first, are ASCII
   digits before the first that is not (8 if all are). No carry reaches
   that first non-digit; bytes past it may be misjudged. */
static inline unsigned digits64(uint64_t w) {
    const uint64_t t = w ^ (ONES * '0');
    const uint64_t m = ((t + ONES * 0x76) | t) & (ONES * 0x80);
    return m ? (unsigned)__builtin_ctzll(m) >> 3 : 8;
}

/* The value of the first k (1 to 7) bytes of w, ASCII digits, the first
   most significant: shifted up behind zero bytes, the digits are summed
   in pairs, then pairs of pairs, then quads, each by one multiply. */
static inline uint64_t value64(uint64_t w, unsigned k) {
    w = (w << (64 - 8 * k)) & (ONES * 0x0F);
    w = (w * 2561) >> 8;
    w = ((w & 0x00FF00FF00FF00FFULL) * 6553601) >> 16;
    return ((w & 0x0000FFFF0000FFFFULL) * 42949672960001ULL) >> 32;
}

/* Records of plain stream text s[0 .. len-1]: lines split by '\n', each
   either blank (spaces only) or two tokens split by spaces, a token being
   an optional '-' and 1 to 18 bytes in all, so its value fits int64. The
   i-th record's tokens go to items[i] and deltas[i]. Returns the number of
   records, or -1 when the text leaves this shape or holds more than cap
   records: the caller then reads it another way. A line "<1 to 7 digits>
   <1 to 7 digits>\n" with 16 bytes left to read is read from two 8-byte
   words, with no branch per byte: a byte loop mispredicts at the end of
   every token of varying length. */
ENTRY61 int64_t parse_plain(const char *s, size_t len, int64_t *items, int64_t *deltas,
                            size_t cap) {
    size_t i = 0, n = 0;
    while (i < len) {
        if (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ && i + 16 <= len) {
            uint64_t w, u;
            memcpy(&w, s + i, 8);
            const unsigned a = digits64(w);
            if (a && a < 8 && (uint8_t)(w >> 8 * a) == ' ') {
                memcpy(&u, s + i + a + 1, 8);
                const unsigned b = digits64(u);
                if (b && b < 8 && (uint8_t)(u >> 8 * b) == '\n' && n < cap) {
                    items[n] = (int64_t)value64(w, a);
                    deltas[n++] = (int64_t)value64(u, b);
                    i += a + b + 2;
                    continue;
                }
            }
        }
        int64_t v[2];
        int tokens = 0;
        for (;;) {
            while (i < len && s[i] == ' ')
                i++;
            if (i == len || s[i] == '\n')
                break;
            const size_t start = i;
            const int neg = s[i] == '-';
            uint64_t x = 0;
            for (i += neg; i < len && (unsigned char)(s[i] - '0') < 10; i++)
                x = x * 10 + (uint64_t)(s[i] - '0');
            if (tokens == 2 || i == start + neg || i - start > 18
                    || (i < len && s[i] != ' ' && s[i] != '\n'))
                return -1;
            v[tokens++] = neg ? -(int64_t)x : (int64_t)x;
        }
        if (tokens == 1 || (tokens == 2 && n == cap))
            return -1;
        if (tokens == 2) {
            items[n] = v[0];
            deltas[n++] = v[1];
        }
        i++;
    }
    return (int64_t)n;
}

/* Signed reads of a (rows, cols) int64 table: for every item i < n and row
   r, out[i * rows + r] = cells[r * cols + q / 2] times -1 if q is odd, for
   the packed cell q = packed[i * rows + r]. The sign is applied with a
   mask, not a branch, and -INT64_MIN wraps as numpy's int64 does. Returns
   1 at the first bucket outside [0, cols), leaving out partly written. */
ENTRY61 int reads61(const uint32_t *packed, size_t n, size_t rows, const int64_t *cells,
                    size_t cols, int64_t *out) {
    for (size_t i = 0; i < n * rows; i += rows)
        for (size_t r = 0; r < rows; r++) {
            const uint32_t q = packed[i + r];
            if (q >> 1 >= cols)
                return 1;
            const uint64_t c = (uint64_t)cells[r * cols + (q >> 1)], s = 0 - (uint64_t)(q & 1);
            out[i + r] = (int64_t)((c ^ s) - s);
        }
    return 0;
}

/* Residual rows r0 .. r0 + nr - 1 of a (rows, cols) int64 table: row r as
   float64 into out[(r - r0) * cols ..], less est[t] times the sign of
   packed cell q = packed[t * rows + r] at bucket q / 2, for t = 0 .. k - 1
   in turn (float subtraction does not commute), then squared in place. The
   sign flips est[t]'s sign bit: a branch on it mispredicts half the time.
   Returns 1 at the first bucket outside [0, cols), leaving out partly
   written. */
ENTRY61 int skim61(const int64_t *cells, size_t rows, size_t cols, size_t r0, size_t nr,
                   const uint32_t *packed, const double *est, size_t k, double *out) {
    for (size_t r = r0; r < r0 + nr; r++) {
        const int64_t *row = cells + r * cols;
        double *o = out + (r - r0) * cols;
        for (size_t b = 0; b < cols; b++)
            o[b] = (double)row[b];
        for (size_t t = 0; t < k; t++) {
            const uint32_t q = packed[t * rows + r];
            if (q >> 1 >= cols)
                return 1;
            uint64_t e;  /* est[t] with its sign bit flipped when q is odd */
            memcpy(&e, est + t, 8);
            e ^= (uint64_t)(q & 1) << 63;
            double v;
            memcpy(&v, &e, 8);
            o[q >> 1] -= v;
        }
        for (size_t b = 0; b < cols; b++)
            o[b] *= o[b];
    }
    return 0;
}
"""
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


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


def _horner61(coeffs, ranges, rows, t, x, n, out) -> None:
    """Numpy twin of `horner61`: `_horner_numpy` over every row at once, in
    blocks of items that keep its temporaries in cache."""
    coeffs, out = _view(coeffs, rows, t), _view(out, rows, n)
    step = max(1, _TWIN_CELLS // max(rows, 1))
    for lo in range(0, n, step):
        out[:, lo:lo + step] = _horner_numpy(coeffs, ranges[:rows], x[lo:min(lo + step, n)])


def horner_rows(coeffs: np.ndarray, ranges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate every row of a (rows, t) coefficient matrix, leading
    coefficient first, at every item of the vector x over GF(2**61 - 1);
    row r is reduced onto [1, ranges[r]]. Returns a (rows, items) int64
    array. Rows of lower degree are padded with leading zeros, which leave
    Horner's value unchanged. ValueError for any item outside
    [0, 2**61 - 1), or a range of 0, on either path."""
    x = _field_items(x)
    coeffs, ranges = (np.ascontiguousarray(a, dtype=np.uint64) for a in (coeffs, ranges))
    if (coeffs.ndim != 2 or coeffs.shape[1] < 1 or ranges.shape != coeffs.shape[:1]
            or 0 in ranges.tolist()):  # a list: a whole-array test costs more on a few rows
        raise ValueError("horner_rows needs a (rows, t >= 1) matrix and one range >= 1 per row")
    out = np.empty((coeffs.shape[0], x.size), dtype=np.int64)
    _run("horner61", coeffs, ranges, coeffs.shape[0], coeffs.shape[1], x, x.size, out)
    return out


def _scatter61(coeffs, rows, t, x, deltas, n, cells, cols, limit, packed) -> int:
    """Numpy twin of `scatter61`: every row hashed by `_horner61`, then
    `np.add.at`, then the cells written read back."""
    if n == 0:
        return 0
    w = np.empty((rows, n), dtype=np.int64)
    _horner61(coeffs, np.full(rows, 2 * cols, dtype=np.uint64), rows, t, x, n, w)
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
                   packed: bool = True) -> tuple[bool, np.ndarray | None]:
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
            or coeffs.shape[0] != rows):
        raise ValueError("scatter_signed needs a writable C-contiguous int64 table under "
                         "2**31 columns, one delta per item, and one polynomial per row")
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
    "horner61": (_horner61, None, [_P, _P, _N, _N, _P, _N, _P]),
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
    # folds to 2**61 - 1 itself, which only the canonical subtract makes 0)
    # at a power-of-two range and another; then rows with leading zeros
    coeffs = np.array([[m61 - k for k in range(1, 8)] + [28],
                       [m61 - 1 - (k << 40) for k in range(8)],
                       [0, 0, 0, 0, m61 - 1, 0, 12345, m61 - 2],
                       [0, 0, 0, 0, 0, 0, 7, 1 << 60]], dtype=np.uint64)
    yield "horner61", (coeffs, np.array([8192, 11392, 1000, 2], dtype=np.uint64), 4, 8, x,
                       x.size, np.full((4, x.size), -7, dtype=i64))
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
    linear = np.array([0, 0, 1, 0], dtype=np.uint64)
    x = np.array([0, cols - 1, cols, 2 * cols - 1, 2**32 - 1], dtype=np.uint64)
    deltas = np.array([5, 7, 1 << 40, 3, -1], dtype=i64)
    yield "scatter61", (linear, 1, 4, x, deltas, x.size, np.full((2, cols), limit - 4, dtype=i64),
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
    coeffs = np.array([[0, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint64)
    cells = np.array([[limit - 4] * cols, [4 - limit] * cols, [0] * cols], dtype=i64)
    for last, packed in ((-16, np.full((n, 2), 7, dtype=np.uint32)), (0, None)):
        deltas = np.ones(n, dtype=i64)
        deltas[-3:] = -8, 1, last
        yield "scatter61", (coeffs, 2, 4, x, deltas, n, cells, cols, limit, packed)
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
    key = "\0".join((_HORNER_SOURCE, " ".join(_CFLAGS), platform.machine(),
                     platform.system()))
    digest = hashlib.sha256(key.encode("ascii")).hexdigest()[:16]
    path = os.path.join(_cache_dir(), f"horner61-{digest}.so")
    try:
        if not os.path.exists(path):
            _build_kernel(path)
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

    def eval_many(self, items: np.ndarray) -> np.ndarray:
        """Bucket in [1, range_size] of each item of an integer array, as
        int64 of the same shape."""
        x = np.asarray(items)
        return horner_rows(self._coeff_rows, self._ranges, x.ravel()).reshape(x.shape)
