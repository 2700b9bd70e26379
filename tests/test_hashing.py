import itertools
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import hashing, seeds
from f1sketch.countsketch import CountSketchTable
from f1sketch.hashing import MERSENNE61, KWiseHash
from f1sketch.oracle import expected_hash


def key(tag: str, idx: int = 0) -> bytes:
    return seeds.derive_key(seeds.master_key(123), tag, idx)


def horner(coeffs, prime: int, x: int) -> int:
    """Field value at x of the polynomial `coeffs`, leading first, over
    GF(prime): the hash family's definition for any prime, which the
    exhaustive small-field tests below enumerate."""
    v = 0
    for c in coeffs:
        v = (v * x + c) % prime
    return v


def test_same_seed_same_hash():
    a = KWiseHash.from_seed(key("h"), t=4, n=10, range_size=5)
    b = KWiseHash.from_seed(key("h"), t=4, n=10, range_size=5)
    assert a.coefficients == b.coefficients
    assert expected_hash(a, 3) == expected_hash(b, 3)


def test_distinct_roles_distinct_hashes():
    a = KWiseHash.from_seed(key("h", 0), t=4, n=10**4, range_size=1000)
    b = KWiseHash.from_seed(key("h", 1), t=4, n=10**4, range_size=1000)
    assert a.coefficients != b.coefficients


def test_degree_zero_is_constant():
    h = KWiseHash.from_seed(key("const"), t=1, n=100, range_size=7)
    assert np.unique(h.eval_many(np.arange(1, 101))).size == 1


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        KWiseHash.from_seed(key("x"), t=0, n=10, range_size=5)
    with pytest.raises(ValueError):
        KWiseHash.from_seed(key("x"), t=2, n=10, range_size=0)
    with pytest.raises(ValueError):
        KWiseHash.from_seed(key("x"), t=2, n=0, range_size=5)
    with pytest.raises(ValueError, match="below 2\\*\\*61 - 1"):
        KWiseHash.from_seed(key("x"), t=2, n=MERSENNE61, range_size=5)
    with pytest.raises(ValueError):
        KWiseHash([], range_size=5)
    with pytest.raises(ValueError):
        KWiseHash([1], range_size=0)
    with pytest.raises(ValueError):
        KWiseHash([1], range_size=MERSENNE61 + 1)  # range wider than field


def test_hand_evaluated_polynomial():
    # 3*4 = 12, reduced to bucket 12 mod 11 + 1 = 2
    h = KWiseHash([3, 0], range_size=11)
    assert h.eval_many(np.array([4])).tolist() == [2] and expected_hash(h, 4) == 2


def test_evaluation_is_pure():
    h = KWiseHash.from_seed(key("pure"), t=8, n=10**6, range_size=64)
    x = np.array([12345])
    assert np.array_equal(h.eval_many(x), h.eval_many(x))


@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 50),
       st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_range_and_vectorization(seed, t, c, items):
    h = KWiseHash.from_seed(key("prop", seed), t=t, n=10**6, range_size=c)
    vec = h.eval_many(np.array(items))
    assert all(1 <= v <= c for v in vec)
    assert [expected_hash(h, i) for i in items] == list(vec)


def test_small_prime_matches_mersenne_path():
    # the generic-prime `horner` of the small-field tests and the vectorized
    # 61-bit path must agree where the fields coincide
    coeffs = [5, 2, 9]
    h = KWiseHash(coeffs, range_size=1000)
    items = np.arange(1, 2001)
    want = [horner(coeffs, MERSENNE61, int(i)) % 1000 + 1 for i in items]
    assert h.eval_many(items).tolist() == want


def test_exhaustive_pairwise_uniformity_identity_reduction():
    # prime 7, t = 2, range 7: the mod reduction is the identity, so over
    # all 49 coefficient pairs every (input, output) pair must be hit
    # exactly prime times
    p = 7
    for x in range(1, p):
        counts = np.zeros(p, dtype=int)
        for a, b in itertools.product(range(p), repeat=2):
            counts[horner([a, b], p, x)] += 1
        assert (counts == p).all()


def test_exhaustive_pairwise_uniformity_with_reduction_skew():
    # prime 7 onto 6 buckets: bucket preimage sizes differ by at most one
    # field value, so per-(input, output) counts are prime * 1 or prime * 2
    p, c = 7, 6
    for x in range(1, p):
        counts = np.zeros(c, dtype=int)
        for a, b in itertools.product(range(p), repeat=2):
            counts[horner([a, b], p, x) % c] += 1
        weights = counts / p
        assert set(weights) <= {1.0, 2.0}
        assert weights.max() - weights.min() <= 1.0


def test_bucket_balance_large_domain():
    h = KWiseHash.from_seed(key("balance"), t=8, n=10**5, range_size=64)
    buckets = h.eval_many(np.arange(1, 10**5 + 1))
    loads = np.bincount(buckets, minlength=65)[1:]
    assert loads.max() <= 3 * loads.mean()


def row_signs(tag: str, n: int) -> np.ndarray:
    """The signs a one-row CountSketch table gives items 1..n."""
    table = CountSketchTable.from_seed(key(tag), 1, 7, n)
    return table.hash_matrices(np.arange(1, n + 1))[1][0]


def test_sign_square_is_one():
    vals = row_signs("sign", 10**4)
    assert (vals * vals == 1).all()
    assert set(np.unique(vals)) == {-1, 1}


def test_sign_empirical_balance():
    vals = row_signs("sign-balance", 10**5)
    assert abs(vals.mean()) <= 0.02


def test_exhaustive_fourwise_sign_structure():
    # over all 13^4 coefficient tuples, the field values at 4 distinct
    # points form a bijection with the tuples (exact 4-wise independence);
    # sign-pattern counts then factor exactly as products of the per-point
    # preimage sizes (7 even field values -> +1, 6 odd -> -1)
    p = 13
    points = np.array([1, 2, 5, 11])
    grids = np.meshgrid(*[np.arange(p)] * 4, indexing="ij")
    coeffs = [g.ravel() for g in grids]
    values = []
    for x in points:
        v = np.zeros_like(coeffs[0])
        for c in coeffs:
            v = (v * x + c) % p
        values.append(v)
    combined = sum(v * p**i for i, v in enumerate(values))
    assert (np.bincount(combined, minlength=p**4) == 1).all()
    signs = [(v % 2 == 0).astype(int) for v in values]  # 1 marks +1
    pattern = sum(s * 2**i for i, s in enumerate(signs))
    counts = np.bincount(pattern, minlength=16)
    evens, odds = 7, 6
    for code in range(16):
        expect = 1
        for bit in range(4):
            expect *= evens if (code >> bit) & 1 else odds
        assert counts[code] == expect


def lucas_lehmer(p: int) -> bool:
    """Whether 2**p - 1 is prime, for an odd prime p: s = 4, then p - 2
    steps of s -> s**2 - 2 modulo 2**p - 1, must end at 0."""
    m, s = (1 << p) - 1, 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def test_is_prime_basics():
    # every hash's t-wise independence rests on the field modulus being prime
    assert MERSENNE61 == 2**61 - 1 and lucas_lehmer(61)
    assert lucas_lehmer(13) and lucas_lehmer(31)
    assert not lucas_lehmer(11) and not lucas_lehmer(59)  # 2047 = 23 * 89


# -- compiled kernel against the numpy reference and the scalar eval ----------


def three_paths(h: KWiseHash, items: np.ndarray, monkeypatch):
    """eval_many through the active path, eval_many through numpy, and the
    scalar reference, for one single-row hash."""
    active = h.eval_many(items)
    with monkeypatch.context() as m:
        m.setattr(hashing, "_kernel", None)
        reference = h.eval_many(items)
    scalar = np.array([expected_hash(h, i) for i in items], dtype=np.int64)
    return active, reference, scalar


EDGE_ITEMS = np.array([1, 2, 3, 10**4, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**40 + 17],
                      dtype=np.int64)


@pytest.mark.parametrize("range_size", [1, 2, 25_600, MERSENNE61])
@pytest.mark.parametrize("coeffs", [
    [0], [MERSENNE61 - 1], [0, 0, 0, 5], [MERSENNE61 - 1] * 8, [0] * 8,
    [1, 0, 0, 0, 0, 0, 0, MERSENNE61 - 1], [MERSENNE61 - 1, 0, MERSENNE61 - 1, 0],
])
def test_kernel_matches_reference_on_edge_coefficients(coeffs, range_size, monkeypatch):
    h = KWiseHash(coeffs, range_size=range_size)
    active, reference, scalar = three_paths(h, EDGE_ITEMS, monkeypatch)
    assert active.tobytes() == reference.tobytes() == scalar.tobytes()


@given(st.integers(0, 2**32), st.integers(1, 10),
       st.sampled_from([1, 2, 3, 25_600, 2**40, MERSENNE61]),
       st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_reference_on_random_hashes(seed, t, range_size, items):
    h = KWiseHash.from_seed(key("kernel", seed), t=t, n=2**32, range_size=range_size)
    items = np.array(items, dtype=np.int64)
    active = h.eval_many(items)
    reference = np.stack([hashing._horner_numpy(h._coeff_rows[0], h._ranges[0],
                                                items.astype(np.uint64))])[0]
    assert active.tobytes() == reference.tobytes()
    assert active.tolist() == [expected_hash(h, i) for i in items]


def test_stacked_rows_equal_single_rows(monkeypatch):
    width = 25_600
    rows = [KWiseHash.from_seed(key("stack-b", j), t=8, n=10**4, range_size=width)
            for j in range(5)]
    rows += [KWiseHash.from_seed(key("stack-s", j), t=4, n=10**4, range_size=2)
             for j in range(5)]
    rows.append(KWiseHash([0, 0, 3], range_size=1))
    stacked = KWiseHash.stack(rows)
    items = np.concatenate([np.arange(1, 3000, dtype=np.int64), EDGE_ITEMS])
    want = np.stack([h.eval_many(items) for h in rows])
    got = stacked.eval_many(items)
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    with monkeypatch.context() as m:
        m.setattr(hashing, "_kernel", None)
        assert stacked.eval_many(items).tobytes() == want.tobytes()
    assert stacked.eval_many(items.reshape(2, -1)).shape == (len(rows), 2, items.size // 2)
    assert stacked.eval_many(np.zeros(0, dtype=np.int64)).shape == (len(rows), 0)


def test_stack_rejects_empty_and_stacked_input():
    with pytest.raises(ValueError):
        KWiseHash.stack([])
    stacked = KWiseHash.stack([KWiseHash([1, 2], range_size=5), KWiseHash([3], range_size=7)])
    with pytest.raises(ValueError):
        KWiseHash.stack([stacked])


def test_package_imports_and_agrees_without_a_compiler(tmp_path):
    # a fresh interpreter with no gcc on PATH and an empty kernel cache must
    # fall back to numpy and give the same estimate as this process
    from f1sketch import Estimator, EstimatorConfig, generate

    script = (
        "from f1sketch import Estimator, EstimatorConfig, generate, hashing\n"
        "s = generate('zipf(1.1)', n=2000, m=20000, seed=4)\n"
        "e = Estimator(EstimatorConfig(accuracy=0.5, n=s.n, seed=9))\n"
        "e.update_many(s.items, s.deltas)\n"
        "r = e.estimate()\n"
        "print(hashing.KWISE_BACKEND, repr(r.total), repr(r.heavy), r.heavy_count)\n"
    )
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    s = generate("zipf(1.1)", n=2000, m=20000, seed=4)
    e = Estimator(EstimatorConfig(accuracy=0.5, n=s.n, seed=9))
    e.update_many(s.items, s.deltas)
    r = e.estimate()
    assert proc.stdout.split() == ["numpy", repr(r.total), repr(r.heavy), str(r.heavy_count)]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_concurrent_first_imports_share_one_cached_kernel(tmp_path):
    # several fresh interpreters building into one empty cache at once must
    # all load a whole library and leave exactly one file behind
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
    script = "from f1sketch import hashing; print(hashing.KWISE_BACKEND)"
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(3)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0], [err for _, err in outs]
    assert [out.strip() for out, _ in outs] == ["c-kernel"] * 3
    cached = os.listdir(tmp_path / "f1sketch")
    assert len(cached) == 1 and cached[0].endswith(".so")


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    source = tmp_path / "kernel.c"
    source.write_text(hashing._HORNER_SOURCE, encoding="ascii")
    proc = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
                           "-o", str(tmp_path / "kernel.so"), str(source)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
