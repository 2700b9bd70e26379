/* The C kernel of f1sketch.hashing, which reads, builds and checks it at import. */

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

/* Canonical Horner values at x[0] and, when four > 0, x[1 .. 3] of the
   polynomial c[0 .. t-1], leading first. The four chains advance together
   so their multiplies overlap; one dependent chain is latency-bound. */
static inline void poly61(const uint64_t *c, size_t t, const uint64_t *x, int four, uint64_t *v) {
    uint64_t a = c[0], b = c[0], d = c[0], e = c[0];
    if (four) {
        for (size_t k = 1; k < t; k++) {
            a = step61(a, x[0], c[k]);
            b = step61(b, x[1], c[k]);
            d = step61(d, x[2], c[k]);
            e = step61(e, x[3], c[k]);
        }
        v[1] = canon61(b);
        v[2] = canon61(d);
        v[3] = canon61(e);
    } else {
        for (size_t k = 1; k < t; k++)
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

/* Canonical Horner values at x[0 .. 31] of the polynomial c[0 .. t-1],
   leading first, as poly61 gives them: four vectors of eight items, whose
   steps overlap as poly61's four chains do. */
static __attribute__((target("avx512f"))) void poly61x32(const uint64_t *c, size_t t,
                                                         const uint64_t *x, uint64_t *v) {
    const __m512i x0 = _mm512_loadu_si512(x), x1 = _mm512_loadu_si512(x + 8);
    const __m512i x2 = _mm512_loadu_si512(x + 16), x3 = _mm512_loadu_si512(x + 24);
    const __m512i h0 = _mm512_srli_epi64(x0, 32), h1 = _mm512_srli_epi64(x1, 32);
    const __m512i h2 = _mm512_srli_epi64(x2, 32), h3 = _mm512_srli_epi64(x3, 32);
    __m512i a0 = _mm512_set1_epi64((long long)c[0]), a1 = a0, a2 = a0, a3 = a0;
    for (size_t k = 1; k < t; k++) {
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

/* Canonical Horner values of the polynomial c[0 .. t-1] at the first k of
   the n > 0 items x[0 .. n-1], into v[0 .. k-1]; returns k: 32 by
   poly61x32 when the CPU runs AVX-512F, else 4 or 1 by poly61. */
static inline size_t lanes61(const uint64_t *c, size_t t, const uint64_t *x, size_t n,
                             uint64_t *v) {
#if defined(__x86_64__)
    if (simd61 && n >= 32) {
        poly61x32(c, t, x, v);
        return 32;
    }
#endif
    poly61(c, t, x, n >= 4, v);
    return n >= 4 ? 4 : 1;
}

/* v mod m for m >= 1: a mask when m is a power of two, as every table at
   accuracy 0.5 and the stable variates' 2^52 are, sparing a 64-bit
   division per value. */
static inline uint64_t reduce61(uint64_t v, uint64_t m) {
    return m & (m - 1) ? v % m : v & (m - 1);
}

/* out[r * n + i] = (poly_r(x[i]) mod 2^61-1) mod m + 1 for m >= 1, where
   poly_r has coefficients coeffs[r * t .. r * t + t - 1], leading first,
   all below 2^61-1, and every x[i] is below 2^61-1. */
ENTRY61 void horner61(const uint64_t *coeffs, uint64_t m, size_t rows, size_t t,
                      const uint64_t *x, size_t n, int64_t *out) {
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * t;
        int64_t *o = out + r * n;
        uint64_t v[32];
        for (size_t i = 0; i < n;) {
            const size_t k = lanes61(c, t, x + i, n - i, v);
            for (size_t j = 0; j < k; j++, i++)
                o[i] = (int64_t)reduce61(v[j], m) + 1;
        }
    }
}

/* Items per block of scatter61: every row hashes a block, then adds it,
   so the whole batch no longer streams through memory once per row. */
#define BLOCK61 1024

/* One block of scatter61, items [lo, hi), hi - lo <= BLOCK61. Row by row:
   the block's packed cells are hashed into q (4 KiB, in L1), each delta
   is added into its cell, and the packed cells are copied out unless
   packed is NULL. Hashing and adding in loops of their own ran faster
   than adding in the hash loop, and an add whose result is not read is
   one instruction, so a first write to a fresh page faults once, not
   first to read and then to write. */
static inline void block61(const uint64_t *coeffs, size_t rows, size_t t, const uint64_t *x,
                           const int64_t *deltas, size_t lo, size_t hi, int64_t *cells,
                           size_t cols, uint32_t *packed) {
    const uint64_t m = 2 * (uint64_t)cols;
    uint32_t q[BLOCK61];
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * t;
        uint64_t *row = (uint64_t *)(cells + r * cols);
        uint64_t v[32];
        for (size_t i = lo; i < hi;) {
            const size_t k = lanes61(c, t, x + i, hi - i, v);
            for (size_t j = 0; j < k; j++, i++) {
                const uint64_t w = reduce61(v[j], m), neg = w >= cols;
                q[i - lo] = (uint32_t)((w - (cols & (0 - neg))) << 1 | neg);
            }
        }
        for (size_t i = 0; i < hi - lo; i++) {
            const uint64_t sign = 0 - (uint64_t)(q[i] & 1);
            row[q[i] >> 1] += ((uint64_t)deltas[lo + i] ^ sign) - sign;
        }
        for (size_t i = 0; packed && i < hi - lo; i++)
            packed[(lo + i) * rows + r] = q[i];
    }
}

/* CountSketch update of a (rows, cols) int64 table, 0 < cols < 2^31, from
   one polynomial per row laid out as for horner61: w = (poly_r(x) mod
   2^61-1) mod 2 * cols gives bucket w mod cols and sign -1 iff w >= cols,
   found with a mask, as a branch on this coin flip mispredicts half the
   time. Adds sign * deltas[i] into cell (r, bucket) for every row r and
   item i, wrapping modulo 2^64 as numpy's int64 adds do, BLOCK61 items at
   a time, every row per block. Unless packed is NULL, item i's packed cell
   in row r goes to packed[i * rows + r] as bucket << 1 | negative-sign.
   It judges no cell: the caller bounds every cell before the batch (see
   abs_sum_reaches). */
ENTRY61 void scatter61(const uint64_t *coeffs, size_t rows, size_t t, const uint64_t *x,
                       const int64_t *deltas, size_t n, int64_t *cells, size_t cols,
                       uint32_t *packed) {
    for (size_t lo = 0; lo < n; lo += BLOCK61)
        block61(coeffs, rows, t, x, deltas, lo, n - lo < BLOCK61 ? n : lo + BLOCK61, cells,
                cols, packed);
}

/* The exact |deltas[0]| + ... + |deltas[n-1]| when it is below limit, at
   most 2^63, else limit; |INT64_MIN| counts as 2^63. The sum stops at the
   first partial sum that reaches limit, so it never wraps. */
ENTRY61 uint64_t abs_sum_reaches(const int64_t *deltas, size_t n, uint64_t limit) {
    uint64_t sum = 0;
    for (size_t i = 0; i < n; i++) {
        const uint64_t d = (uint64_t)deltas[i];
        sum += (int64_t)d < 0 ? 0 - d : d;
        if (sum >= limit)
            return limit;
    }
    return sum;
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

/* Item i's signed read in a row of cols int64 cells: the cell at the
   bucket of its packed cell q, times -1 if q is odd, the sign applied with
   a mask, not a branch, and -INT64_MIN wrapping as numpy's int64 does. A
   bucket outside the row reads the row's last cell and sets *bad. */
static inline int64_t read61(const int64_t *row, size_t cols, uint32_t q, int *bad) {
    const size_t b = q >> 1, past = b >= cols;
    *bad |= (int)past;
    const uint64_t c = (uint64_t)row[past ? cols - 1 : b], s = 0 - (uint64_t)(q & 1);
    return (int64_t)((c ^ s) - s);
}

/* The float64 median of rows sorted keys s[0], s[stride], ..., with
   numpy's bits: the middle key, or the mean of the middle two, each
   converted on its own (int64 -> float64 rounding is monotone). */
static inline double middle61(const int64_t *s, size_t stride, size_t rows) {
    const size_t mid = rows / 2;
    if (rows & 1)
        return (double)s[mid * stride];
    return ((double)s[(mid - 1) * stride] + (double)s[mid * stride]) / 2;
}

#if defined(__x86_64__)
/* medians61 of the eight items at packed[0 .. 8 * rows - 1], into
   out[0 .. 7]: one vector per row in w[0 .. 8 * rows - 1], lane j item j,
   each comparator a signed min and max of two vectors. A row's vector is
   built in a register and stored whole: a vector load of eight one-lane
   stores stalls until they drain. Returns whether a bucket lies outside
   its row. */
static __attribute__((target("avx512f"))) int median8(const uint32_t *packed, size_t rows,
                                                      const int64_t *cells, size_t cols,
                                                      const uint32_t *net, size_t pairs,
                                                      int64_t *w, double *out) {
    int bad = 0;
    for (size_t r = 0; r < rows; r++) {
        const int64_t *row = cells + r * cols;
        const uint32_t *q = packed + r;
#define READ61(j) read61(row, cols, q[(j) * rows], &bad)
        _mm512_storeu_si512(w + 8 * r, _mm512_set_epi64(READ61(7), READ61(6), READ61(5),
                                                        READ61(4), READ61(3), READ61(2),
                                                        READ61(1), READ61(0)));
#undef READ61
    }
    for (size_t k = 0; k < pairs; k++) {
        int64_t *a = w + 8 * net[2 * k], *b = w + 8 * net[2 * k + 1];
        const __m512i x = _mm512_loadu_si512(a), y = _mm512_loadu_si512(b);
        _mm512_storeu_si512(a, _mm512_min_epi64(x, y));
        _mm512_storeu_si512(b, _mm512_max_epi64(x, y));
    }
    for (size_t j = 0; j < 8; j++)
        out[j] = middle61(w + j, 8, rows);
    return bad;
}
#endif

/* Point-estimate medians of a (rows, cols) int64 table, rows >= 1 and
   cols >= 1: for every item i < n, out[i] is the median over rows r of
   its signed read (see read61) at packed cell packed[i * rows + r], as
   float64 with numpy's bits (see middle61). The reads are sorted by the
   comparators net[2 k] < net[2 k + 1], k < pairs, of a sorting network
   for rows keys, each leaving the smaller key at the first: eight items
   per vector by median8 when the CPU runs AVX-512F, and the items after
   the last full group, or all of them, one at a time with branchless
   min and max. work, 8 * (rows + 1) int64 of the caller's, holds the
   reads as they are sorted, from its first 64-byte boundary on, so that
   no vector straddles two cache lines (which cost a tenth more time); it
   is left zeroed, as the numpy twin, which sorts without it, leaves it.
   Returns 1 when a bucket lies outside its row, after every item is read
   as read61 reads it, else 0. */
ENTRY61 int medians61(const uint32_t *packed, size_t n, size_t rows, const int64_t *cells,
                      size_t cols, const uint32_t *net, size_t pairs, int64_t *work,
                      double *out) {
    int64_t *w = (int64_t *)(((uintptr_t)work + 63) & ~(uintptr_t)63);
    int bad = 0;
    size_t i = 0;
#if defined(__x86_64__)
    for (; simd61 && i + 8 <= n; i += 8)
        bad |= median8(packed + i * rows, rows, cells, cols, net, pairs, w, out + i);
#endif
    for (; i < n; i++) {
        for (size_t r = 0; r < rows; r++)
            w[r] = read61(cells + r * cols, cols, packed[i * rows + r], &bad);
        for (size_t k = 0; k < pairs; k++) {
            int64_t *a = w + net[2 * k], *b = w + net[2 * k + 1];
            const int64_t x = *a, y = *b;
            *a = x < y ? x : y;
            *b = x < y ? y : x;
        }
        out[i] = middle61(w, 1, rows);
    }
    memset(work, 0, 8 * (rows + 1) * sizeof *work);
    return bad;
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
