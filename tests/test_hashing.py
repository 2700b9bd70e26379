import ctypes
import itertools
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import hashing, records, seeds
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
    # the range is an integer, as `horner_rows` needs: numpy's are taken
    for bad in (2.5, 7.0, "7", None):
        with pytest.raises(ValueError, match="range_size must be an integer"):
            KWiseHash([1], range_size=bad)
    assert type(KWiseHash([1], range_size=np.int64(7)).range_size) is int
    # a coefficient outside the field is refused, not reduced or truncated
    for bad in ([1.5], [-1], [2**61 + 2], [True], [1.5, -1, 2**61 + 2]):
        with pytest.raises(ValueError, match="coefficients below 2\\*\\*61 - 1"):
            KWiseHash(bad, range_size=7)


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
    """The signs a one-row CountSketch table gives items 1..n, read off
    its packed cells."""
    table = CountSketchTable.from_seed(key(tag), 1, 7, n)
    negative = table.packed_cells(np.arange(1, n + 1))[:, 0] & 1
    return 1 - 2 * negative.astype(np.int64)


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
    # preimage sizes. Signs are read as a CountSketch row reads them off its
    # hash onto 2 * cols values, here cols = 3: v mod 6 below 3 is +1 (the
    # 7 field values 0-2, 6-8 and 12), from 3 up -1 (the 6 values 3-5, 9-11)
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
    cols = 3
    signs = [(v % (2 * cols) < cols).astype(int) for v in values]  # 1 marks +1
    pattern = sum(s * 2**i for i, s in enumerate(signs))
    counts = np.bincount(pattern, minlength=16)
    plus, minus = 7, 6
    for code in range(16):
        expect = 1
        for bit in range(4):
            expect *= plus if (code >> bit) & 1 else minus
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


PATHS = [k for k in (hashing._kernel,) if k is not None] + [None]

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
    reference = hashing._horner_numpy(np.array([h.coefficients], dtype=np.uint64),
                                      h.range_size, items.astype(np.uint64))
    assert active.tobytes() == reference[0].tobytes()
    assert active.tolist() == [expected_hash(h, i) for i in items]


def test_stacked_rows_equal_single_rows(monkeypatch):
    # `horner_rows` over a matrix of rows under one shared range, two of
    # them with leading zeros, against each row's own `eval_many`, on both
    # paths
    items = np.concatenate([np.arange(1, 3000, dtype=np.int64), EDGE_ITEMS])
    x = items.astype(np.uint64)
    for range_size, kernel in itertools.product([1, 2, 8192, 25_600, MERSENNE61], PATHS):
        rows = [KWiseHash.from_seed(key("stack", j), t=8, n=10**4, range_size=range_size)
                for j in range(5)]
        rows += [KWiseHash([0] * 6 + [3, 5], range_size), KWiseHash([0] * 8, range_size)]
        coeffs = np.array([h.coefficients for h in rows], dtype=np.uint64)
        monkeypatch.setattr(hashing, "_kernel", kernel)
        want = np.stack([h.eval_many(items) for h in rows])
        got = hashing.horner_rows(coeffs, range_size, x)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert hashing.horner_rows(coeffs, range_size, x[:0]).shape == (len(rows), 0)
        # no bucket to reduce onto (the kernel would divide by 0), a range
        # past the field, arrays of ranges, no coefficients, items not a vector
        for bad in ((coeffs, 0, x), (coeffs, MERSENNE61 + 1, x), (coeffs, 2.5, x),
                    (coeffs, np.full(len(rows), range_size, dtype=np.uint64), x),
                    (coeffs, np.array([range_size]), x), (coeffs[:, :0], range_size, x),
                    (coeffs, range_size, x.reshape(-1, 1))):
            with pytest.raises(ValueError):  # checked before the kernel sees a pointer
                hashing.horner_rows(*bad)


def test_field_coeffs_takes_a_c_contiguous_uint64_matrix_as_it_is_and_still_checks_it():
    # no copy per `horner_rows` or `scatter_signed` call; any other matrix
    # is converted to one
    mine = np.array([[3, 4], [5, 6]], dtype=np.uint64)
    assert hashing.field_coeffs(mine) is mine
    for other in (mine.astype(np.int64), mine.T, [[3, 4], [5, 6]]):
        got = hashing.field_coeffs(other)
        assert got is not other and got.dtype == np.uint64 and got.flags.c_contiguous
    mine[1, 0] = MERSENNE61
    with pytest.raises(ValueError, match="coefficients below 2\\*\\*61 - 1"):
        hashing.field_coeffs(mine)


@pytest.mark.parametrize("bad", [-1, 1.5, MERSENNE61, 2**64 - 1])
def test_every_entry_point_refuses_a_coefficient_outside_the_field(bad, monkeypatch):
    # past 2**61 - 1 the kernel and numpy disagree, so both paths refuse
    # it, in a list and, when it is whole, in an int64 or uint64 array
    items, deltas = np.array([1, MERSENNE61 - 1]), np.array([3, -1])
    matrices = [[[3, bad, 5]]]
    if float(bad).is_integer():
        matrices += [np.array([[3, bad, 5]], dtype=np.int64 if bad < 0 else np.uint64)]
    for kernel, coeffs in itertools.product(PATHS, matrices):
        monkeypatch.setattr(hashing, "_kernel", kernel)
        cells = np.zeros((1, 7), dtype=np.int64)
        with pytest.raises(ValueError, match="coefficients below 2\\*\\*61 - 1"):
            hashing.horner_rows(coeffs, 1000, items)
        with pytest.raises(ValueError, match="coefficients below 2\\*\\*61 - 1"):
            hashing.scatter_signed(coeffs, items, deltas, cells, True)
        with pytest.raises(ValueError, match="coefficients below 2\\*\\*61 - 1"):
            KWiseHash(coeffs[0], range_size=1000)
        with pytest.raises(ValueError, match="coefficients below 2\\*\\*61 - 1"):
            CountSketchTable(coeffs, 7)
        assert not cells.any()


def test_coefficients_on_which_the_paths_disagree_are_refused_on_both(monkeypatch):
    # unchecked, item 2**61 - 2 went to bucket 14 on the kernel and 206 on
    # numpy, and a -1 was read as 2**64 - 1 without complaint
    for kernel in PATHS:
        monkeypatch.setattr(hashing, "_kernel", kernel)
        with pytest.raises(ValueError):
            hashing.horner_rows(np.array([[2**64 - 1, 2**64 - 1, 5]], dtype=np.uint64), 1000,
                                np.array([MERSENNE61 - 1]))
        with pytest.raises(ValueError):
            hashing.horner_rows(np.array([[-1, 2]]), 1000, np.array([3]))


def test_package_imports_and_agrees_without_a_compiler(tmp_path):
    # a fresh interpreter with no gcc on PATH and an empty kernel cache must
    # fall back to numpy and the Python record buffer, and give the same
    # estimate as this process
    from f1sketch import Estimator, EstimatorConfig, generate

    script = (
        "from f1sketch import Estimator, EstimatorConfig, generate, hashing, records\n"
        "s = generate('zipf(1.1)', n=2000, m=20000, seed=4)\n"
        "e = Estimator(EstimatorConfig(accuracy=0.5, n=s.n, seed=9))\n"
        "e.update_many(s.items[100:], s.deltas[100:])\n"
        "for i, v in zip(s.items[:100].tolist(), s.deltas[:100].tolist()):\n"
        "    e.update(i, v)\n"
        "r = e.estimate()\n"
        "print(hashing.KWISE_BACKEND, records.RECORDS_BACKEND, repr(r.total), repr(r.heavy),\n"
        "      r.heavy_count)\n"
    )
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    s = generate("zipf(1.1)", n=2000, m=20000, seed=4)
    e = Estimator(EstimatorConfig(accuracy=0.5, n=s.n, seed=9))
    e.update_many(s.items[100:], s.deltas[100:])
    for i, v in zip(s.items[:100].tolist(), s.deltas[:100].tolist()):
        e.update(i, v)
    r = e.estimate()
    assert proc.stdout.split() == ["numpy", "python", repr(r.total), repr(r.heavy),
                                   str(r.heavy_count)]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_concurrent_first_imports_share_one_cached_kernel(tmp_path):
    # several fresh interpreters building into one empty cache at once must
    # all load whole libraries and leave exactly one file of each behind:
    # the kernel and the record buffer
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
    script = ("from f1sketch import hashing, records\n"
              "print(hashing.KWISE_BACKEND, records.RECORDS_BACKEND)")
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(3)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0], [err for _, err in outs]
    assert [out.split() for out, _ in outs] == [["c-kernel", records.RECORDS_BACKEND]] * 3
    cached = sorted(os.listdir(tmp_path / "f1sketch"))
    assert [name.split("-")[0] for name in cached] == ["horner61", "records"]
    assert all(name.endswith(".so") for name in cached)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    source = tmp_path / "kernel.c"
    source.write_text(hashing._HORNER_SOURCE, encoding="ascii")
    proc = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
                           "-o", str(tmp_path / "kernel.so"), str(source)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
@pytest.mark.parametrize("old, new", [
    ("i - start > 18", "i - start > 19"),                 # takes a 19-byte token
    ("neg ? -(int64_t)x : (int64_t)x", "(int64_t)x"),     # drops a token's '-'
    ("tokens == 1 || ", ""),                              # takes a lone token
    ("value64(u, b)", "value64(u, a)"),                   # misreads a word-wise delta
    ("== '\\n' && n < cap", "!= ' ' && n < cap"),         # ends a word-wise line anyhow
    ("ONES * 0x76", "ONES * 0x75"),                       # reads ':' as a digit
])
def test_kernel_whose_parse_disagrees_is_refused(old, new, tmp_path, monkeypatch):
    # the mutated source builds, but the spot check in `_load_kernel`
    # refuses the whole library, so a parse that disagrees is never used
    check_mutant_refused(old, new, tmp_path, monkeypatch)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
@pytest.mark.parametrize("old, new", [
    ("neg = w >= cols", "neg = w > cols"),  # reads w = cols as sign +1
    ("<< 1 | neg)", "<< 1)"),               # drops the sign from the packed cell
    ("cols & (0 - neg)", "cols & neg"),     # leaves a negative item's bucket at w
])
def test_kernel_whose_scatter_sign_disagrees_is_refused(old, new, tmp_path, monkeypatch):
    # the spot check's linear row puts items on both sides of w = cols
    check_mutant_refused(old, new, tmp_path, monkeypatch)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
@pytest.mark.parametrize("old, new", [
    ("0 - (uint64_t)(q & 1)", "0 - (uint64_t)(~q & 1)"),           # medians61 flips the sign
    ("(double)s[(mid - 1) * stride]", "(double)s[mid * stride]"),  # even rows: upper middle twice
    ("for (size_t t = 0; t < k; t++)", "for (size_t t = k; t-- > 0;)"),  # skim61 runs backwards
    ("e ^= (uint64_t)(q & 1) << 63;", ""),                         # skim61 drops the sign
    ("o[b] *= o[b];", "o[b] *= 1.0;"),                             # skim61 does not square
])
def test_kernel_whose_reads_or_skim_disagree_is_refused(old, new, tmp_path, monkeypatch):
    # the spot check's medians run over odd and even rows, and its three
    # skimmed items share a bucket where reversing the subtractions gives
    # -1, not 0
    check_mutant_refused(old, new, tmp_path, monkeypatch)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
@pytest.mark.parametrize("old, new", [
    ("deltas[lo + i] ^ sign", "deltas[i] ^ sign"),              # reuses block 0's deltas
    ("packed[(lo + i) * rows + r]", "packed[i * rows + r]"),    # packs every block at 0
    ("        if (sum >= limit)", "        if (sum > limit)"),  # wraps past a sum of 2**63
    ("sum += (int64_t)d < 0 ? 0 - d : d;", "sum += d;"),        # sums deltas, not |delta|
    ("            return limit;", "            return sum;"),   # returns a sum past the cap
    ("i < n; i++) {\n        const uint64_t d",
     "i + 1 < n; i++) {\n        const uint64_t d"),  # skips the last |delta|
    ("for (size_t i = 0; i < n; i++) {\n        const uint64_t b",
     "for (size_t i = n; i-- > 0;) {\n        const uint64_t b"),  # adds in reverse
    ("+= d * variates[3 * i + s];", "+= (double)(float)(d * variates[3 * i + s]);"),
    ("if (b >= cols)\n            return 1;\n        const double",
     "if (b > cols)\n            return 1;\n        const double"),  # takes bucket cols + 1
])
def test_kernel_whose_blocked_scatter_guard_or_stable_add_disagrees_is_refused(
        old, new, tmp_path, monkeypatch):
    # the spot check scatters across a block boundary, sums |delta| to
    # each side of its cap, and adds where order rounds
    check_mutant_refused(old, new, tmp_path, monkeypatch)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_kernel_whose_mask_drops_bits_past_32_is_refused(tmp_path, monkeypatch):
    # every table's range fits 32 bits; the spot check's range 2**52, that
    # of the stable variates, is what catches a mask of the low word only
    check_mutant_refused("v & (m - 1)", "(uint32_t)v & (m - 1)", tmp_path, monkeypatch)


def cpu_runs_avx512f() -> bool:
    """Whether this host lists AVX-512F, so the kernel's vector bodies run."""
    try:
        flags = pathlib.Path("/proc/cpuinfo").read_text(encoding="ascii", errors="replace")
    except OSError:
        return False
    return platform.machine() == "x86_64" and re.search(r"\bavx512f\b", flags) is not None


@pytest.mark.skipif(shutil.which("gcc") is None or not cpu_runs_avx512f(),
                    reason="needs a C compiler and an AVX-512F CPU")
@pytest.mark.parametrize("old, new", [
    ("(1LL << 29) - 1", "(1LL << 30) - 1"),             # splits the middle product at bit 30
    ("_mm512_mul_epu32(vh, xh), 3)", "_mm512_mul_epu32(vh, xh), 2)"),  # folds 2^64 as 4
    ("_mm512_min_epu64(a, _mm512_sub_epi64(a, p))", "a"),  # leaves 2^61 - 1 unreduced
    ("(a, _mm512_min_epi64(x, y))", "(a, _mm512_max_epi64(x, y))"),  # keeps the max twice
])
def test_kernel_whose_vector_body_disagrees_is_refused(old, new, tmp_path, monkeypatch):
    # the spot check runs 70 items through horner61 and scatter61 and 19
    # items through medians61, so two full vector groups and a tail each.
    # (Exchanging the comparator's min and max would sort descending, whose
    # middle keys are the same, so that mutant would be right.)
    check_mutant_refused(old, new, tmp_path, monkeypatch)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_kernel_built_without_the_cpu_check_loads_and_agrees(tmp_path, monkeypatch):
    # with the CPU check replaced by 0 every routine runs its scalar body,
    # which must pass the spot check and give what the loaded kernel gives
    check = '__builtin_cpu_supports("avx512f")'
    assert hashing._HORNER_SOURCE.count(check) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(hashing, "_HORNER_SOURCE", hashing._HORNER_SOURCE.replace(check, "0"))
    scalar = hashing._load_kernel()
    assert scalar is not None
    rng = np.random.default_rng(19)
    coeffs = rng.integers(MERSENNE61 - 2**40, MERSENNE61, size=(5, 8), dtype=np.uint64)
    items = rng.integers(0, MERSENNE61, size=1001, dtype=np.uint64)
    items[::7] = np.resize(np.array([0, 1, 2**32 - 1, 2**32, MERSENNE61 - 1], dtype=np.uint64),
                           items[::7].size)
    outputs = []
    for kernel in (hashing._kernel, scalar):
        monkeypatch.setattr(hashing, "_kernel", kernel)
        cells = np.zeros((5, 4096), dtype=np.int64)
        packed = hashing.scatter_signed(coeffs, items, np.arange(1001) - 500, cells, True)
        medians = [hashing.signed_medians(packed[:, :rows], cells[:rows]) for rows in (4, 5)]
        outputs.append([hashing.horner_rows(coeffs, m, items).tobytes()
                        for m in (1, 8192, 11392, 1 << 52, 2**40, MERSENNE61)]
                       + [cells.tobytes(), packed.tobytes()]
                       + [m.tobytes() for m in medians])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [31, 32, 33, 64, 70, 1001])
def test_kernel_matches_numpy_across_vector_groups(n, monkeypatch):
    # items in full groups of 32 and a tail, at power-of-two ranges (1 << 52
    # that of the stable variates) and others, against the numpy twins
    rng = np.random.default_rng(n)
    coeffs = rng.integers(0, MERSENNE61, size=(4, 8), dtype=np.uint64)
    coeffs[3, :3] = 0  # leading zeros
    items = rng.integers(0, MERSENNE61, size=n, dtype=np.uint64)
    outputs = []
    for kernel in PATHS:
        monkeypatch.setattr(hashing, "_kernel", kernel)
        cells = np.zeros((4, 1000), dtype=np.int64)
        packed = hashing.scatter_signed(coeffs, items, np.ones(n, dtype=np.int64), cells, True)
        outputs.append([hashing.horner_rows(coeffs, m, items).tobytes()
                        for m in (4096, 11392, 1 << 52, MERSENNE61, 3)]
                       + [cells.tobytes(), packed.tobytes()])
    assert all(out == outputs[0] for out in outputs)


def test_scatter_block_matches_the_kernel_source():
    # the spot check and the tests cross a block boundary only if this holds
    assert re.search(r"#define BLOCK61 (\d+)", hashing._HORNER_SOURCE)[1] == str(
        hashing._SCATTER_BLOCK)


def exported_routines() -> set:
    """Names of the non-static functions of the kernel source."""
    return set(re.findall(r"^(?!static\b)\w[\w\s*]*?\b(\w+)\(", hashing._HORNER_SOURCE,
                          re.MULTILINE))


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
def test_every_exported_kernel_routine_is_bound_and_spot_checked(monkeypatch):
    # every non-static function of the source must be looked up and called
    # by `_load_kernel`, so none reaches a caller unchecked
    exported = exported_routines()
    assert {"horner61", "scatter61", "medians61", "skim61"} <= exported
    called = set()

    class Routine:
        def __init__(self, name, fn):
            object.__setattr__(self, "_name", name)
            object.__setattr__(self, "_fn", fn)

        def __setattr__(self, attr, value):  # restype and argtypes
            setattr(self._fn, attr, value)

        def __call__(self, *args):
            called.add(self._name)
            return self._fn(*args)

    class Library:
        def __init__(self, path, load=ctypes.CDLL):
            self._lib = load(path)

        def __getattr__(self, name):
            return Routine(name, getattr(self._lib, name))

    monkeypatch.setattr(hashing.ctypes, "CDLL", Library)
    assert hashing._load_kernel() is not None
    assert called == exported


def test_only_hashing_chooses_between_kernel_and_twin():
    # no other module reads `_kernel`, and every exported routine of the
    # source has a numpy twin the wrappers fall back to
    package = pathlib.Path(hashing.__file__).parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if "_kernel" in path.read_text(encoding="utf-8")]
    assert naming == ["hashing.py"]
    exported = exported_routines()
    assert len(exported) == 8 and set(hashing._ROUTINES) == exported
    assert all(callable(twin) for twin, _, _ in hashing._ROUTINES.values())


def test_kernel_source_ships_with_the_package():
    # `hashing` and `records` read their C sources from files next to them
    # at import, so an installed package must carry both as package data
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(hashing.__file__).parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    for name, module, text in (("kernel61.c", hashing, hashing._HORNER_SOURCE),
                               ("records.c", records, records._SOURCE)):
        assert name in package_data["f1sketch"]
        source = pathlib.Path(module.__file__).with_name(name)
        assert source.read_text(encoding="ascii") == text


def check_mutant_refused(old, new, tmp_path, monkeypatch):
    """The kernel source with `old` replaced by `new` builds, and
    `_load_kernel` refuses it; the unchanged source still loads."""
    source = hashing._HORNER_SOURCE
    assert source.count(old) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(hashing, "_HORNER_SOURCE", source.replace(old, new))
    assert hashing._load_kernel() is None
    assert len(os.listdir(tmp_path / "f1sketch")) == 1  # built, then refused
    monkeypatch.setattr(hashing, "_HORNER_SOURCE", source)
    assert hashing._load_kernel() is not None


def test_kernel_source_that_does_not_compile_loads_nothing_and_caches_nothing(
        tmp_path, monkeypatch):
    # with a compiler the build fails; without one there is nothing to run
    source = hashing._HORNER_SOURCE + "\nnot C at all\n"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(hashing, "_HORNER_SOURCE", source)
    assert hashing._load_kernel() is None
    assert os.listdir(tmp_path / "f1sketch") == []
    if shutil.which("gcc") is not None:
        with pytest.raises(OSError, match="cannot compile"):
            hashing._build_library(str(tmp_path / "f1sketch" / "x.so"), source, hashing._CFLAGS)
        assert os.listdir(tmp_path / "f1sketch") == []


def test_quiet_run_prints_the_backends_and_the_line_count():
    # -q hides the report header, so conftest prints its line in the summary
    root = pathlib.Path(hashing.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests/test_hashing.py::test_hand_evaluated_polynomial"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^f1sketch kernel routines \(horner61, .*\): (c-kernel|numpy); "
                     r"record buffer: (c-type|python); src lines: \d+; test lines: \d+$",
                     proc.stdout, re.MULTILINE)
