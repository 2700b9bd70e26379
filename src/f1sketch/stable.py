"""Cauchy (1-stable) variates and the moment constants of stable laws.

Covers the replayable variate source behind the sketch (a vectorized
Philox4x32-10 counter-based generator feeding the Cauchy inverse CDF) and
the moment constants C(p, q) and K_p that the light decode and its
analysis use.
"""

from __future__ import annotations

import math

import numpy as np

from . import hashing

# the estimator clamps every variate's magnitude to this
TRUNCATION_CAP = 1e9


def cauchy_variates(u: np.ndarray) -> np.ndarray:
    """Standard Cauchy draws tan(pi * (u - 1/2)) from uniforms in (0, 1),
    clamped to +-TRUNCATION_CAP; `f1sketch.oracle.cauchy_variate` is the
    scalar reference."""
    return np.clip(np.tan(np.pi * (u - 0.5)), -TRUNCATION_CAP, TRUNCATION_CAP)


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


# Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011): round multipliers and Weyl key increments
PHILOX_M0, PHILOX_M1 = 0xD2511F53, 0xCD9E8D57
PHILOX_W0, PHILOX_W1 = 0x9E3779B9, 0xBB67AE85
PHILOX_ROUNDS = 10

_VARIATE_BLOCK = 1 << 16  # (bucket, item) pairs per Philox pass in `variates_for`
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
    """Replayable Cauchy variates indexed by (bucket, slot, item).

    Slot r in {1, 2, 3} of the pair (bucket, item) is one Philox4x32-10
    block with counter (item mod 2**32, item // 2**32, bucket, r - 1) under
    the 64-bit key in the first 8 bytes of `key` (two little-endian 32-bit
    words). Output words c0:c1 give the uniform of `cauchy_variates`.
    Distinct counters give independent blocks for PRF purposes, so any
    variate is a pure function of (key, bucket, slot, item).
    """

    __slots__ = ("key", "philox_key")

    def __init__(self, key: bytes):
        if len(key) < 8:
            raise ValueError("variate key needs at least 8 bytes")
        self.key = key
        self.philox_key = (int.from_bytes(key[0:4], "little"),
                           int.from_bytes(key[4:8], "little"))

    def variates_for(self, buckets: np.ndarray, items: np.ndarray) -> np.ndarray:
        """All three slots for aligned (bucket, item) pairs; shape (len, 3).

        Drawn `_VARIATE_BLOCK` pairs at a time into the output, so scratch
        memory stays bounded; each variate depends only on its own pair, so
        the blocks do not change any bit."""
        items = np.asarray(items, dtype=np.int64)
        buckets = np.asarray(buckets, dtype=np.int64)
        out = np.empty((items.shape[0], 3))
        for lo in range(0, items.shape[0], _VARIATE_BLOCK):
            block = slice(lo, lo + _VARIATE_BLOCK)
            out[block] = self._block_variates(buckets[block], items[block])
        return out

    def _block_variates(self, buckets: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Variates of one block of pairs. The uniforms come from the C
        kernel when it is loaded, else from `philox_uniforms`, its bitwise
        reference; `tan` is numpy's either way."""
        draw = hashing.philox_uniforms if hashing._kernel is not None else philox_uniforms
        return cauchy_variates(draw(buckets, items, *self.philox_key))


def philox_uniforms(buckets: np.ndarray, items: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """The (pairs, 3) uniforms of `StableVariateSource`'s slots for aligned
    (bucket, item) pairs under key (k0, k1), in numpy: the fallback and
    bitwise reference of `hashing.philox_uniforms`."""
    items = items.astype(np.uint64)[:, None]
    buckets = buckets.astype(np.uint64)[:, None]
    shape = (items.shape[0], 3)
    c0, c1, _, _ = philox4x32(
        np.broadcast_to(items & _LOW32, shape),
        np.broadcast_to(items >> _32, shape),
        np.broadcast_to(buckets, shape),
        np.broadcast_to(np.arange(3, dtype=np.uint64), shape),
        k0, k1,
    )
    return _uniform(c0, c1)
