"""Cauchy (1-stable) variates and the moment constants of stable laws.

Covers the replayable variate source behind the sketch (the Philox4x32-10
counter-based uniforms of `hashing.philox_uniforms` feeding the Cauchy
inverse CDF) and the moment constants C(p, q) and K_p that the light decode
and its analysis use.
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


_VARIATE_BLOCK = 1 << 16  # (bucket, item) pairs per Philox pass in `variates_for`


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
            out[block] = cauchy_variates(
                hashing.philox_uniforms(buckets[block], items[block], *self.philox_key))
        return out
