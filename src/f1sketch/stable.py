"""Cauchy (1-stable) variates and the moment constants of stable laws.

Covers the replayable variate source behind the sketch (three polynomial
hashes over GF(2**61 - 1), t-wise independent as every hash of
`f1sketch.hashing` is, feeding the Cauchy inverse CDF; Kane, Nelson &
Woodruff, SODA 2010, show that O(log(1/eps) / log log(1/eps))-wise
independent Cauchy variates suffice) and the moment constants C(p, q) and
K_p that the light decode and its analysis use.
"""

from __future__ import annotations

import math

import numpy as np

from . import hashing, seeds

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


_VARIATE_BLOCK = 1 << 16  # items per Horner pass in `variates_for`

# the uniforms' lattice: a variate's hash lies in [1, LATTICE]
LATTICE = 1 << 52


class StableVariateSource:
    """Replayable Cauchy variates indexed by (slot, item).

    Slot r in {1, 2, 3} of item i is `cauchy_variates((w - 1/2) / 2**52)`
    for w = (poly_r(i) mod (2**61 - 1)) mod 2**52 + 1, where poly_r is row
    r - 1 of `coeffs`, a read-only (3, t) matrix of field elements drawn
    under `key`: a t-wise independent hash, as `hashing.KWiseHash` is. The
    uniforms are the points (k + 1/2) / 2**52, k < 2**52, exact in float64,
    so neither 0 nor 1 is reached. The top point, w = 2**52, has 511
    preimages in the field where every other has 512, so it is drawn with
    probability 2**-61 less than the others.
    """

    __slots__ = ("coeffs",)

    def __init__(self, key: bytes, t: int):
        coeffs = np.array(seeds.field_elements(key, 3 * t, hashing.MERSENNE61),
                          dtype=np.uint64).reshape(3, t)
        coeffs.flags.writeable = False
        self.coeffs = coeffs

    def variates_for(self, buckets: np.ndarray, items: np.ndarray) -> np.ndarray:
        """All three slots for a vector of items; shape (len, 3). `buckets`
        holds each item's stable bucket, one per item, and no variate
        depends on it: an item lands in one bucket.

        Drawn `_VARIATE_BLOCK` items at a time into the output, so scratch
        memory stays bounded; each variate depends only on its own item, so
        the blocks do not change any bit. ValueError for an item outside
        [0, 2**61 - 1), as `hashing.horner_rows` refuses it."""
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 1 or np.shape(buckets) != items.shape:
            raise ValueError("variates_for needs a vector of items and one bucket per item")
        out = np.empty((items.shape[0], 3))
        for lo in range(0, items.shape[0], _VARIATE_BLOCK):
            w = hashing.horner_rows(self.coeffs, LATTICE, items[lo:lo + _VARIATE_BLOCK])
            out[lo:lo + _VARIATE_BLOCK] = cauchy_variates((w.T - 0.5) * (1.0 / LATTICE))
        return out
