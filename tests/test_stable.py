import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from f1sketch import (
    StableVariateSource,
    cauchy_variate,
    geometric_means_estimate,
    kp_constant,
    median_estimate,
    stability_constant,
    stable_variate,
)
from f1sketch import seeds
from f1sketch.oracle import expected_philox4x32, expected_uniforms, expected_variate
from f1sketch.stable import philox4x32, stable_variates


def source(tag: str, p: float = 1.0, cap: float = 1e9) -> StableVariateSource:
    return StableVariateSource(seeds.derive_key(seeds.master_key(99), tag), p=p, cap=cap)


# -- inverse-CDF transform ----------------------------------------------------


def test_cauchy_at_half_is_zero():
    assert cauchy_variate(0.5) == 0.0


def test_cauchy_at_three_quarters_is_one():
    assert cauchy_variate(0.75) == pytest.approx(1.0, abs=1e-12)


def test_cauchy_rejects_boundary():
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            cauchy_variate(u)


@given(st.floats(1e-9, 1 - 1e-9))
@settings(max_examples=200)
def test_cauchy_symmetry(u):
    # exact when 1-u is exactly representable; otherwise the reflected
    # argument carries half an ulp that tan amplifies by its condition
    # number, roughly the output magnitude itself
    v = cauchy_variate(u)
    if 1.0 - (1.0 - u) == u:
        assert v == -cauchy_variate(1.0 - u)
    else:
        tol = max(1e-12, 1e-15 * (1.0 + abs(v)))
        assert v == pytest.approx(-cauchy_variate(1.0 - u), rel=tol)


def test_cauchy_truncation():
    assert cauchy_variate(1e-12) == -1e9
    assert cauchy_variate(0.75, cap=0.5) == 0.5


def test_empirical_median_of_magnitudes():
    src = source("median")
    vals = src.variates_for(np.ones(10**6, dtype=np.int64),
                            np.arange(1, 10**6 + 1))[:, 0]
    assert np.median(np.abs(vals)) == pytest.approx(1.0, abs=0.01)


# -- moment constants ---------------------------------------------------------


def test_constant_cauchy_two_thirds():
    assert stability_constant(1.0, 2.0 / 3.0) == pytest.approx(2.0, abs=1e-9)


def test_constant_cauchy_one_third():
    assert stability_constant(1.0, 1.0 / 3.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)


@pytest.mark.parametrize("p,q", [(1.0, 0.25), (1.0, 0.6), (1.0, -0.5), (0.5, 0.3)])
def test_constant_matches_quadrature(p, q):
    # independent oracle: E|X|^q by quadrature against the exact density
    # (Cauchy) or a high-accuracy series via the CMS sampler (p != 1)
    if p == 1.0:
        val, _ = integrate.quad(lambda x: x**q * (2.0 / math.pi) / (1 + x * x),
                                0, np.inf)
    else:
        rng = np.random.default_rng(5)
        theta = math.pi * (rng.random(2 * 10**6) - 0.5)
        w = -np.log(rng.random(2 * 10**6))
        x = (np.sin(p * theta) / np.cos(theta) ** (1 / p)) * (
            np.cos((1 - p) * theta) / w) ** ((1 - p) / p)
        val = np.abs(x) ** q
        err = 3 * val.std() / math.sqrt(val.size)
        assert stability_constant(p, q) == pytest.approx(val.mean(), abs=err)
        return
    assert stability_constant(p, q) == pytest.approx(val, rel=1e-9)


def test_constant_gaussian_first_moment():
    # stable scale 1 at p=2 means variance 2: E|X| = 2/sqrt(pi)
    got = stability_constant(2.0, 1.0)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    val, _ = integrate.quad(
        lambda x: 2 * x * math.exp(-x * x / 4.0) / math.sqrt(4.0 * math.pi), 0, np.inf)
    assert got == pytest.approx(val, rel=1e-9)


def test_constant_rejects_poles():
    for p, q in [(1.0, 1.0), (1.0, 1.5), (1.0, -1.0), (1.0, 0.0), (0.0, 0.1), (2.5, 1.0)]:
        with pytest.raises(ValueError):
            stability_constant(p, q)


def test_kp_at_one():
    assert kp_constant(1.0) == pytest.approx(27.0 / 8.0, abs=1e-9)


def test_kp_continuity():
    grid = np.linspace(0.1, 1.9, 37)
    for p in grid:
        assert abs(kp_constant(p) - kp_constant(p + 1e-6)) <= 1e-3


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 1.5])
def test_kp_exceeds_one(p):
    assert kp_constant(p) > 1.0


def test_kp_rejects_out_of_range():
    for p in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            kp_constant(p)


# -- whole-vector estimators --------------------------------------------------


def test_geometric_means_zero_product():
    assert geometric_means_estimate([0.0, 1.0, 2.0], p=1.0) == 0.0
    assert geometric_means_estimate([0.0, 0.0, 0.0], p=1.0) == 0.0


def test_geometric_means_transcription():
    c = stability_constant(1.0, 1.0 / 3.0)
    x = (c**3, 1.0, 1.0)
    direct = abs(x[0] * x[1] * x[2]) ** (1.0 / 3.0) / c**3
    assert geometric_means_estimate(x, p=1.0) == pytest.approx(direct, rel=1e-12)


def test_geometric_means_rejects_short_or_nonfinite():
    with pytest.raises(ValueError):
        geometric_means_estimate([1.0, 2.0], p=1.0)
    with pytest.raises(ValueError):
        geometric_means_estimate([1.0, 2.0, float("inf")], p=1.0)


@given(st.floats(0.05, 1.95), st.floats(-100, 100).filter(lambda x: abs(x) > 1e-3))
@settings(max_examples=100)
def test_geometric_means_homogeneity(p, lam):
    x = np.array([1.7, -2.2, 0.9, 4.1])
    base = geometric_means_estimate(x, p=p)
    scaled = geometric_means_estimate(lam * x, p=p)
    assert scaled == pytest.approx(abs(lam) ** p * base, rel=1e-9)


def test_geometric_means_unbiased_monte_carlo():
    # Cauchy sketches of a fixed vector with F1 = 100, drawn from an
    # independent generator; the mean over 1e5 triples must bracket 100
    f = np.array([40.0, -25.0, 20.0, -10.0, 5.0])
    assert np.abs(f).sum() == 100.0
    rng = np.random.default_rng(31337)
    trials = 10**5
    ests = np.empty(trials)
    chunk = 10**4
    for lo in range(0, trials, chunk):
        sketches = rng.standard_cauchy((chunk, 3, f.size)) @ f
        c = stability_constant(1.0, 1.0 / 3.0) ** -3
        ests[lo : lo + chunk] = c * np.abs(sketches.prod(axis=1)) ** (1.0 / 3.0)
    se = ests.std() / math.sqrt(trials)
    assert abs(ests.mean() - 100.0) <= 3 * se
    # the analytic estimator agrees with the vectorized oracle formula
    one = geometric_means_estimate(sketches[-1], p=1.0)
    c = stability_constant(1.0, 1.0 / 3.0) ** -3
    assert one == pytest.approx(c * np.abs(sketches[-1].prod()) ** (1 / 3), rel=1e-9)


def test_median_estimate_small_lists():
    assert median_estimate([-5.0, 0.0, 5.0]) == 5.0
    assert median_estimate([3.3, 3.3, 3.3]) == 3.3
    assert median_estimate([2.0, -7.0]) == 2.0  # lower median on even length
    with pytest.raises(ValueError):
        median_estimate([])


def test_median_estimate_concentration():
    # median of t magnitudes of Cauchy(scale F1) concentrates at F1 with
    # relative sd ~ pi/(2 sqrt(t)): P(err <= 0.1) is ~0.80 at t=401 and
    # crosses 0.95 near t=1001
    rng = np.random.default_rng(2024)
    f1 = 50.0
    for t, floor in ((401, 0.75), (1001, 0.90)):
        sketches = f1 * rng.standard_cauchy((20_000, t))
        meds = np.array([median_estimate(row) for row in sketches[:2_000]])
        frac_small = ((np.abs(meds - f1) / f1) <= 0.1).mean()
        meds_big = np.median(np.abs(sketches), axis=1)
        frac = ((np.abs(meds_big - f1) / f1) <= 0.1).mean()
        assert frac >= floor
        assert abs(frac_small - frac) <= 0.05  # scalar path agrees with oracle


# -- variate source -----------------------------------------------------------

# the vector transform and the scalar one call numpy's and libm's
# transcendental functions, which may round differently by a few ulps
TRANSFORM_RTOL = 16 * np.finfo(np.float64).eps

# Random123 Philox4x32-10 known-answer vectors: counter, key, output
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter,key,want", PHILOX_KAT)
def test_philox_known_answers(counter, key, want):
    assert expected_philox4x32(counter, key) == want
    got = philox4x32(*(np.array([c], dtype=np.uint64) for c in counter), *key)
    assert tuple(int(w[0]) for w in got) == want


def test_philox_vector_matches_reference_on_random_blocks():
    rng = np.random.default_rng(123)
    counters = rng.integers(0, 2**32, size=(4, 500), dtype=np.uint64)
    for k0, k1 in ((0, 0), (0xFFFFFFFF, 1), tuple(int(k) for k in rng.integers(0, 2**32, 2))):
        got = np.stack(philox4x32(*counters, k0, k1))
        for j in range(counters.shape[1]):
            want = expected_philox4x32(tuple(int(c) for c in counters[:, j]), (k0, k1))
            assert tuple(int(w) for w in got[:, j]) == want


@pytest.mark.parametrize("p", [1.0, 0.7, 1.5])
def test_vector_variates_match_reference(p):
    # items past 2**32 use the second counter word; the reference uniforms
    # through the same numpy transform must give the same bits
    src = source(f"ref{p}", p=p)
    rng = np.random.default_rng(7)
    buckets = rng.integers(1, 2**20, 300)
    items = np.concatenate([rng.integers(1, 2**20, 100), rng.integers(2**32, 2**63, 200)])
    got = src.variates_for(buckets, items)
    for j in range(items.size):
        u = [expected_uniforms(src, buckets[j], slot, items[j]) for slot in (1, 2, 3)]
        u1, u2 = np.array(u).T
        assert np.array_equal(got[j], stable_variates(u1, u2, p, src.cap))
        want = [expected_variate(src, buckets[j], slot, items[j]) for slot in (1, 2, 3)]
        assert got[j] == pytest.approx(want, rel=TRANSFORM_RTOL)


def test_variates_of_concatenation_are_concatenated_variates():
    src = source("concat", p=0.7)
    rng = np.random.default_rng(11)
    buckets = rng.integers(1, 5000, 1000)
    items = rng.integers(1, 2**40, 1000)
    whole = src.variates_for(buckets, items)
    parts = [src.variates_for(buckets[lo:hi], items[lo:hi])
             for lo, hi in ((0, 1), (1, 400), (400, 400), (400, 1000))]
    assert np.array_equal(whole, np.concatenate(parts))


def test_items_differing_only_in_high_bits_get_different_variates():
    src = source("high")
    low = np.arange(1, 1001, dtype=np.int64)
    buckets = np.ones(1000, dtype=np.int64)
    base = src.variates_for(buckets, low)
    for shift in (32, 40, 62):
        other = src.variates_for(buckets, low + (1 << shift))
        assert not (other == base).any()


def test_variate_is_pure_and_matches_vector_path():
    src = source("pure")
    a = expected_variate(src, 9, 2, 1234)
    assert a == expected_variate(src, 9, 2, 1234)
    vec = src.variates_for(np.array([9]), np.array([1234]))
    assert np.array_equal(vec, src.variates_for(np.array([9]), np.array([1234])))
    assert vec[0, 1] == pytest.approx(a, rel=TRANSFORM_RTOL)


def test_variate_depends_on_all_indices():
    src = source("distinct")
    vals = {expected_variate(src, 1, 1, 5), expected_variate(src, 2, 1, 5),
            expected_variate(src, 1, 2, 5), expected_variate(src, 1, 1, 6),
            expected_variate(src, 1, 1, 5 + (1 << 32)),
            expected_variate(source("distinct2"), 1, 1, 5)}
    assert len(vals) == 6


def test_variate_truncation_cap():
    src = source("cap", cap=2.0)
    vals = src.variates_for(np.ones(5000, dtype=np.int64), np.arange(1, 5001))
    assert np.abs(vals).max() <= 2.0
    assert (np.abs(vals) == 2.0).any()
    assert expected_variate(src, 1, 1, 1) == pytest.approx(vals[0, 0], rel=TRANSFORM_RTOL)
    capped = np.nonzero(np.abs(vals[:, 0]) == 2.0)[0][0]
    assert expected_variate(src, 1, 1, capped + 1) == vals[capped, 0]


def test_variate_rejects_bad_slot_and_params():
    src = source("bad")
    with pytest.raises(ValueError):
        expected_variate(src, 1, 0, 1)
    with pytest.raises(ValueError):
        expected_variate(src, 1, 4, 1)
    with pytest.raises(ValueError):
        StableVariateSource(b"k" * 32, p=2.5)
    with pytest.raises(ValueError):
        StableVariateSource(b"k" * 32, cap=0.0)
    with pytest.raises(ValueError):
        StableVariateSource(b"k" * 7)
    with pytest.raises(ValueError):
        stable_variate(0.5, 0.5, p=0.0)
    with pytest.raises(ValueError):
        stable_variate(0.0, 0.5, p=1.0)


def test_scale_stability_of_weighted_sums():
    # sum a_i s_i must be Cauchy with scale sum |a_i|; compare against an
    # independently drawn reference sample with a two-sample KS test
    weights = np.array([3.0, -1.0, 2.0])
    draws = 10**5
    src = source("ks")
    buckets = np.repeat(np.arange(1, draws + 1), weights.size)
    items = np.tile(np.arange(1, weights.size + 1), draws)
    vs = src.variates_for(buckets, items)[:, 0].reshape(draws, weights.size)
    combined = vs @ weights
    rng = np.random.default_rng(8)
    reference = np.abs(weights).sum() * rng.standard_cauchy(draws)
    assert stats.ks_2samp(combined, reference).pvalue > 0.01


def test_general_p_moments_match_constants():
    # CMS sampler cross-check: empirical E|X|^q against the closed form
    for p, q in ((0.5, 0.25), (1.5, 0.7)):
        src = source(f"cms{p}", p=p)
        vals = src.variates_for(np.ones(2 * 10**5, dtype=np.int64),
                                np.arange(1, 2 * 10**5 + 1))[:, 0]
        mags = np.abs(vals) ** q
        se = mags.std() / math.sqrt(mags.size)
        assert mags.mean() == pytest.approx(stability_constant(p, q), abs=4 * se)
