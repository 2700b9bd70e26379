"""Symmetric p-stable variates and the estimators built on them.

Covers the Cauchy (p=1) special case used by the first-moment sketch, the
general p in (0, 2) case via the Chambers-Mallows-Stuck transform, the
replayable variate source behind the sketch (a vectorized Philox4x32-10
counter-based generator), the moment constants of stable laws, and the two
classical whole-vector baseline estimators (median of sketch magnitudes,
geometric means).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TRUNCATION_CAP = 1e9


def cauchy_variate(u: float, cap: float = DEFAULT_TRUNCATION_CAP) -> float:
    """Standard Cauchy draw from a uniform u in (0, 1), clamped to +-cap."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly inside (0, 1)")
    x = math.tan(math.pi * (u - 0.5))
    return max(-cap, min(cap, x))


def stable_variate(u1: float, u2: float, p: float,
                   cap: float = DEFAULT_TRUNCATION_CAP) -> float:
    """Symmetric p-stable draw from two uniforms, clamped to +-cap.

    Chambers-Mallows-Stuck: theta = pi*(u1 - 1/2), W = -ln(u2). p = 1
    degenerates to tan(theta), the Cauchy inverse CDF.
    """
    if not 0.0 < u1 < 1.0 or not 0.0 < u2 < 1.0:
        raise ValueError("uniforms must lie strictly inside (0, 1)")
    if not 0.0 < p <= 2.0:
        raise ValueError("stability index p must lie in (0, 2]")
    theta = math.pi * (u1 - 0.5)
    if p == 1.0:
        x = math.tan(theta)
    else:
        w = -math.log(u2)
        x = (math.sin(p * theta) / math.cos(theta) ** (1.0 / p)) * (
            math.cos((1.0 - p) * theta) / w
        ) ** ((1.0 - p) / p)
    return max(-cap, min(cap, x))


def stable_variates(u1: np.ndarray, u2: np.ndarray, p: float,
                    cap: float = DEFAULT_TRUNCATION_CAP) -> np.ndarray:
    """`stable_variate` over aligned arrays of uniforms, without its range
    checks; u2 is unused when p = 1."""
    theta = np.pi * (u1 - 0.5)
    if p == 1.0:
        x = np.tan(theta)
    else:
        w = -np.log(u2)
        x = (np.sin(p * theta) / np.cos(theta) ** (1.0 / p)) * (
            np.cos((1.0 - p) * theta) / w
        ) ** ((1.0 - p) / p)
    return np.clip(x, -cap, cap)


def stability_constant(p: float, q: float) -> float:
    """q-th absolute moment of a unit-scale symmetric p-stable variable.

    (2/pi) * Gamma(1 - q/p) * Gamma(q) * sin(pi q / 2), valid for
    -1 < q < p, q != 0. Computed through log-gamma; both gamma factors are
    positive except Gamma(q) on (-1, 0), where sin(pi q / 2) flips sign too,
    so the result is always positive.
    """
    if not 0.0 < p <= 2.0:
        raise ValueError("need 0 < p <= 2")
    if q >= p or q <= -1.0 or q == 0.0:
        raise ValueError("need -1 < q < p with q != 0 (Gamma poles)")
    # lgamma returns log|Gamma|; on (-1, 0) both Gamma(q) and sin(pi q/2)
    # are negative, so the product stays positive and |.| is safe.
    log_mag = math.lgamma(1.0 - q / p) + math.lgamma(q)
    return (2.0 / math.pi) * math.exp(log_mag) * abs(math.sin(math.pi * q / 2.0))


def kp_constant(p: float) -> float:
    """Variance constant of the three-way geometric-means bucket estimator:
    C(p, p/3)**-6 * C(p, 2p/3)**3."""
    if not 0.0 < p < 2.0:
        raise ValueError("need 0 < p < 2")
    return stability_constant(p, p / 3.0) ** -6 * stability_constant(p, 2.0 * p / 3.0) ** 3


def geometric_means_estimate(values, p: float) -> float:
    """Unbiased F_p estimate from t independent p-stable sketches of one
    vector: C(p, p/t)**-t * prod |X_i|**(p/t)."""
    x = np.asarray(values, dtype=float)
    t = x.size
    if t < 3:
        raise ValueError("need at least 3 sketch values")
    if not np.isfinite(x).all():
        raise ValueError("sketch values must be finite")
    mags = np.abs(x)
    if (mags == 0.0).any():
        return 0.0
    scale = stability_constant(p, p / t) ** -t
    # work in logs so large t cannot overflow the running product
    return scale * math.exp(float(np.log(mags).sum()) * (p / t))


def median_estimate(values) -> float:
    """Median of sketch magnitudes; estimates F_1 for Cauchy sketches.

    The median of |Cauchy(scale=F1)| is exactly F1, so no scale constant is
    applied. Even-length input uses the lower median; prefer odd t.
    """
    x = np.abs(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("need at least one sketch value")
    return float(np.sort(x)[(x.size - 1) // 2])


# Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011): round multipliers and Weyl key increments
PHILOX_M0, PHILOX_M1 = 0xD2511F53, 0xCD9E8D57
PHILOX_W0, PHILOX_W1 = 0x9E3779B9, 0xBB67AE85
PHILOX_ROUNDS = 10
VARIATE_GENERATOR = "Philox4x32-10 (numpy)"

_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def philox4x32(c0, c1, c2, c3, k0: int, k1: int) -> tuple:
    """Philox4x32-10 blocks for aligned counter words, one block per element.

    Counter words are arrays of 32-bit values and (k0, k1) the 32-bit key
    words; returns the four output words as uint64 arrays. Every 32x32-bit
    product is exact in uint64, so a round is a few whole-array operations.
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


class StableVariateSource:
    """Replayable p-stable variates indexed by (bucket, slot, item).

    Slot r in {1, 2, 3} of the pair (bucket, item) is one Philox4x32-10
    block with counter (item mod 2**32, item // 2**32, bucket, r - 1) under
    the 64-bit key in the first 8 bytes of `key` (two little-endian 32-bit
    words). Output words c0:c1 give the uniform u1 and c2:c3 the uniform u2
    of the Chambers-Mallows-Stuck transform. Distinct counters give
    independent blocks for PRF purposes, so any variate is a pure function
    of (key, bucket, slot, item). Magnitudes are clamped to `cap`.
    """

    __slots__ = ("key", "p", "cap", "philox_key")

    def __init__(self, key: bytes, p: float = 1.0,
                 cap: float = DEFAULT_TRUNCATION_CAP):
        if not 0.0 < p <= 2.0:
            raise ValueError("stability index p must lie in (0, 2]")
        if cap <= 0:
            raise ValueError("truncation cap must be positive")
        if len(key) < 8:
            raise ValueError("variate key needs at least 8 bytes")
        self.key = key
        self.p = p
        self.cap = cap
        self.philox_key = (int.from_bytes(key[0:4], "little"),
                           int.from_bytes(key[4:8], "little"))

    def variates_for(self, buckets: np.ndarray, items: np.ndarray) -> np.ndarray:
        """All three slots for aligned (bucket, item) pairs; shape (len, 3)."""
        items = np.asarray(items, dtype=np.int64).astype(np.uint64)[:, None]
        buckets = np.asarray(buckets, dtype=np.int64).astype(np.uint64)[:, None]
        shape = (items.shape[0], 3)
        c0, c1, c2, c3 = philox4x32(
            np.broadcast_to(items & _LOW32, shape),
            np.broadcast_to(items >> _32, shape),
            np.broadcast_to(buckets, shape),
            np.broadcast_to(np.arange(3, dtype=np.uint64), shape),
            *self.philox_key,
        )
        return stable_variates(_uniform(c0, c1), _uniform(c2, c3), self.p, self.cap)
