import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from f1sketch import hashing, seeds, stable
from f1sketch.hashing import MERSENNE61
from f1sketch.oracle import cauchy_variate, expected_uniform, expected_variate
from f1sketch.stable import (_VARIATE_BLOCK, LATTICE, TRUNCATION_CAP, StableVariateSource,
                             cauchy_variates, kp_constant, stability_constant)

# the kernel (when it loaded) and the numpy twin
PATHS = [k for k in (hashing._kernel,) if k is not None] + [None]


def source(tag: str) -> StableVariateSource:
    return StableVariateSource(seeds.derive_key(seeds.master_key(99), tag), 8)


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
    assert TRUNCATION_CAP == 1e9
    assert cauchy_variate(1e-12) == -1e9 and cauchy_variate(1 - 1e-12) == 1e9


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


# -- three-way geometric means -------------------------------------------------


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


# -- variate source -----------------------------------------------------------

# the vector transform and the scalar one call numpy's and libm's
# transcendental functions, which may round differently by a few ulps
TRANSFORM_RTOL = 16 * np.finfo(np.float64).eps

def test_source_draws_three_rows_of_t_coefficients_under_its_key():
    key = seeds.derive_key(seeds.master_key(99), "rows")
    for t in (8, 11):
        src = StableVariateSource(key, t)
        assert src.coeffs.shape == (3, t) and not src.coeffs.flags.writeable
        assert src.coeffs.ravel().tolist() == seeds.field_elements(key, 3 * t, MERSENNE61)


def test_vector_variates_match_reference():
    # items up to the field's top, past 2**32; the reference uniforms
    # through the same numpy transform must give the same bits
    src = source("ref1.0")
    rng = np.random.default_rng(7)
    buckets = rng.integers(1, 2**20, 300)
    items = np.concatenate([rng.integers(1, 2**20, 100), rng.integers(2**32, MERSENNE61, 199),
                            [MERSENNE61 - 1]])
    got = src.variates_for(buckets, items)
    for j in range(items.size):
        u = [expected_uniform(src, slot, items[j]) for slot in (1, 2, 3)]
        assert np.array_equal(got[j], cauchy_variates(np.array(u)))
        want = [expected_variate(src, slot, items[j]) for slot in (1, 2, 3)]
        assert got[j] == pytest.approx(want, rel=TRANSFORM_RTOL)


@pytest.mark.parametrize("kernel", PATHS)
def test_lattice_ends_map_to_the_half_steps_inside_zero_and_one(kernel, monkeypatch):
    # under poly(x) = x, item 0 hashes to w = 1, item 2**52 - 1 to w = 2**52
    # and item 2**52 back to w = 1; with the Cauchy transform taken out,
    # variates_for returns the uniforms themselves
    monkeypatch.setattr(hashing, "_kernel", kernel)
    monkeypatch.setattr(stable, "cauchy_variates", lambda u: u)
    src = source("ends")
    src.coeffs = np.array([[1, 0]] * 3, dtype=np.uint64)
    items = np.array([0, LATTICE - 1, LATTICE, 3])
    want = [2.0**-53, 1 - 2.0**-53, 2.0**-53, 3.5 * 2.0**-52]
    got = src.variates_for(items, items)
    assert got.tolist() == [[u] * 3 for u in want]
    assert [expected_uniform(src, 2, i) for i in items.tolist()] == want


def test_variates_of_concatenation_are_concatenated_variates():
    src = source("concat")
    rng = np.random.default_rng(11)
    buckets = rng.integers(1, 5000, 1000)
    items = rng.integers(1, 2**40, 1000)
    whole = src.variates_for(buckets, items)
    parts = [src.variates_for(buckets[lo:hi], items[lo:hi])
             for lo, hi in ((0, 1), (1, 400), (400, 400), (400, 1000))]
    assert np.array_equal(whole, np.concatenate(parts))


def test_variates_for_many_pairs_in_bounded_scratch():
    # four blocks: peak memory is the output plus one block's scratch, where
    # a single pass over every pair holds about ten times the output
    src = source("blocks")
    pairs = 4 * _VARIATE_BLOCK
    buckets = np.arange(pairs, dtype=np.int64) % 25_600
    items = np.arange(1, pairs + 1, dtype=np.int64) * 7919
    tracemalloc.start()
    try:
        out = src.variates_for(buckets, items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (pairs, 3)
    assert peak < 4 * out.nbytes
    blocks = [src.variates_for(buckets[lo:lo + _VARIATE_BLOCK], items[lo:lo + _VARIATE_BLOCK])
              for lo in range(0, pairs, _VARIATE_BLOCK)]
    assert np.array_equal(out, np.concatenate(blocks))


def test_items_differing_only_in_high_bits_get_different_variates():
    src = source("high")
    low = np.arange(1, 1001, dtype=np.int64)
    buckets = np.ones(1000, dtype=np.int64)
    base = src.variates_for(buckets, low)
    for shift in (32, 40, 60):
        other = src.variates_for(buckets, low + (1 << shift))
        assert not (other == base).any()


@pytest.mark.parametrize("kernel", PATHS)
def test_items_outside_the_field_are_refused(kernel, monkeypatch):
    # past 2**61 - 1 the kernel and numpy Horner passes disagree
    monkeypatch.setattr(hashing, "_kernel", kernel)
    src = source("field")
    assert src.variates_for([1, 1], [1, MERSENNE61 - 1]).shape == (2, 3)
    for bad in (MERSENNE61, 2**63 - 1, -1):
        with pytest.raises(ValueError, match="2\\*\\*61 - 1"):
            src.variates_for([1, 1], [1, bad])


def test_variate_is_pure_and_matches_vector_path():
    src = source("pure")
    a = expected_variate(src, 2, 1234)
    assert a == expected_variate(src, 2, 1234)
    vec = src.variates_for(np.array([9]), np.array([1234]))
    assert np.array_equal(vec, src.variates_for(np.array([9]), np.array([1234])))
    assert vec[0, 1] == pytest.approx(a, rel=TRANSFORM_RTOL)


def test_variate_depends_on_all_indices():
    # slot, item and key each change a variate; the bucket does not, as an
    # item lands in one bucket
    src = source("distinct")
    vals = {expected_variate(src, 1, 5), expected_variate(src, 2, 5),
            expected_variate(src, 1, 6), expected_variate(src, 1, 5 + (1 << 32)),
            expected_variate(source("distinct2"), 1, 5)}
    assert len(vals) == 5
    items = np.array([5, 5, 6])
    got = src.variates_for(np.array([1, 2, 1]), items)
    assert got[0].tobytes() == got[1].tobytes() != got[2].tobytes()
    assert got[0, 0] == pytest.approx(expected_variate(src, 1, 5), rel=TRANSFORM_RTOL)


def test_variate_truncation_cap():
    # uniforms within 2**-52 of either end, where tan exceeds the cap, and
    # the two just inside the point where it reaches it
    edge = 1 / (math.pi * TRUNCATION_CAP)
    u = np.array([2.0**-53, 1e-12, edge * (1 - 1e-6), edge * (1 + 1e-6), 0.5,
                  1 - edge * (1 + 1e-6), 1 - edge * (1 - 1e-6), 1 - 1e-12, 1 - 2.0**-53])
    vals = cauchy_variates(u)
    assert vals == pytest.approx([cauchy_variate(x) for x in u], rel=TRANSFORM_RTOL)
    assert np.abs(vals).max() == TRUNCATION_CAP
    assert (np.abs(vals) == TRUNCATION_CAP).sum() == 6
    assert vals[3] > -TRUNCATION_CAP and vals[5] < TRUNCATION_CAP


def test_variate_rejects_bad_slot_and_params():
    src = source("bad")
    for slot in (0, 4):
        with pytest.raises(ValueError, match="slot"):
            expected_variate(src, slot, 1)
        with pytest.raises(ValueError, match="slot"):
            expected_uniform(src, slot, 1)


def test_scale_stability_of_weighted_sums():
    # sum a_i s_i must be Cauchy with scale sum |a_i|; compare against an
    # independently drawn reference sample with a two-sample KS test. Each
    # of the 10**5 samples weighs three items of its own, as a variate
    # depends on its item alone
    weights = np.array([3.0, -1.0, 2.0])
    draws = 10**5
    src = source("ks")
    items = np.arange(1, draws * weights.size + 1)
    vs = src.variates_for(items, items)[:, 0].reshape(draws, weights.size)
    combined = vs @ weights
    rng = np.random.default_rng(8)
    reference = np.abs(weights).sum() * rng.standard_cauchy(draws)
    assert stats.ks_2samp(combined, reference).pvalue > 0.01


# -- the kernel's and numpy's Horner passes ---------------------------------------


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@given(st.lists(st.one_of(st.integers(0, 2**32 + 5), st.integers(2**32, MERSENNE61 - 1)),
                max_size=80),
       st.sampled_from([1, 2, 8, 11]), st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_kernel_variates_equal_numpy_bitwise(items, t, seed):
    # past 32 items the kernel's AVX-512 body runs, where the CPU has it
    src = StableVariateSource(seeds.derive_key(seeds.master_key(seed), "u-variates"), t)
    items = np.array(items, dtype=np.int64)
    got = src.variates_for(items, items)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hashing, "_kernel", None)
        want = src.variates_for(items, items)
    assert got.shape == want.shape == (items.size, 3)
    assert got.tobytes() == want.tobytes()


def test_kernel_uniforms_refuse_misaligned_pairs():
    # on both paths, one bucket per item, though no variate depends on it
    src = source("aligned")
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            for buckets, items in (([1, 2], [3]), ([1], [3, 4]), ([[1]], [[3]])):
                with pytest.raises(ValueError, match="one bucket per item"):
                    src.variates_for(np.array(buckets), np.array(items))
