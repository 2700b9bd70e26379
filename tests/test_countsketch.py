import errno
import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import SketchInvariantError, countsketch, generate, hashing, seeds
from f1sketch.countsketch import CELL_LIMIT, HUGE_PAGE, CountSketchTable, zeroed_cells
from f1sketch.hashing import KWiseHash
from f1sketch.oracle import (ExactState, expected_bucket, expected_countsketch_cells,
                             expected_point_estimate, expected_sign)


def make_table(rows=3, cols=7, n=20, seed=1, **kwargs) -> CountSketchTable:
    return CountSketchTable.from_seed(seeds.master_key(seed), rows, cols, n, **kwargs)


def update(table: CountSketchTable, i: int, v: int) -> None:
    """Apply one turnstile record (item i, signed delta v)."""
    table.update_many(np.array([i], dtype=np.int64), np.array([v], dtype=np.int64))


# the kernel (when it loaded) and the numpy reference
PATHS = [k for k in (hashing._kernel, None) if k is not None] + [None]


def check_zeroed_cells(shape_a, shape_b):
    a = zeroed_cells(shape_a, np.int64)
    b = zeroed_cells(shape_b, np.float64)
    assert a.shape == shape_a and a.dtype == np.int64 and not a.any()
    assert b.shape == shape_b and b.dtype == np.float64 and not b.any()
    a[-1, -1] = -7
    b[:] = 1.5
    assert a.sum() == -7 and not zeroed_cells(shape_a, np.int64).any()
    assert a.flags.writeable and a.flags.c_contiguous


def test_zeroed_cells_are_zero_writable_and_independent():
    check_zeroed_cells((3, 5), (5, 3))
    check_zeroed_cells((13, 25_600), (3, HUGE_PAGE // 8 + 1))


def test_zeroed_cells_of_a_huge_page_or_more_start_on_one():
    for shape in ((HUGE_PAGE // 8,), (13, 25_600), (3, HUGE_PAGE // 4 + 3)):
        cells = zeroed_cells(shape, np.int64)
        assert cells.ctypes.data % HUGE_PAGE == 0 and not cells.any()


class RefusingMap(mmap.mmap):
    """A map whose `madvise` fails, as on a kernel without huge pages."""

    advised = 0

    def madvise(self, *args):
        RefusingMap.advised += 1
        raise OSError(errno.EINVAL, "madvise refused")


@pytest.mark.parametrize("refusal", ["madvise raises", "no MADV_HUGEPAGE"])
def test_zeroed_cells_without_huge_pages(refusal, monkeypatch):
    monkeypatch.setattr(RefusingMap, "advised", 0)
    if refusal == "madvise raises":
        monkeypatch.setattr(mmap, "mmap", RefusingMap)
    else:
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    check_zeroed_cells((3, 5), (5, 3))
    check_zeroed_cells((13, 25_600), (3, HUGE_PAGE // 8 + 1))
    # madvise was asked for the three arrays of a huge page or more only
    assert RefusingMap.advised == (3 if refusal == "madvise raises" else 0)


def test_update_then_inverse_restores_state():
    t = make_table()
    before = t.cells.copy()
    update(t, 4, 3)
    update(t, 4, -3)
    assert (t.cells == before).all()


def test_single_update_touches_one_cell_per_row():
    t = make_table(rows=5, cols=11)
    update(t, 7, 5)
    changed = np.nonzero(t.cells)
    assert len(changed[0]) == 5
    assert sorted(changed[0]) == list(range(5))
    assert set(np.abs(t.cells[changed])) == {5}


def test_cells_match_oracle_recomputation():
    rng = np.random.default_rng(3)
    t = make_table(rows=3, cols=7, n=20)
    state = ExactState(20)
    for _ in range(100):
        i = int(rng.integers(1, 21))
        v = int(rng.integers(-5, 6))
        update(t, i, v)
        state.update(i, v)
    assert (t.cells == expected_countsketch_cells(state, t)).all()


def test_point_estimate_single_item_exact():
    t = make_table(rows=4, cols=64, n=100)
    update(t, 42, 42)
    assert expected_point_estimate(t, 42) == 42.0
    assert list(t.point_estimate_many(t.packed_cells([42]))) == [42.0]


def test_point_estimate_empty_table_is_zero():
    t = make_table()
    assert expected_point_estimate(t, 5) == 0.0
    assert list(t.point_estimate_many(t.packed_cells([5]))) == [0.0]


def test_point_estimate_many_matches_scalar():
    t = make_table(rows=5, cols=17, n=50, seed=9)
    rng = np.random.default_rng(0)
    for _ in range(200):
        update(t, int(rng.integers(1, 51)), int(rng.integers(-4, 5)))
    items = np.arange(1, 51)
    many = t.point_estimate_many(t.packed_cells(items))
    assert [expected_point_estimate(t, int(i)) for i in items] == list(many)


@pytest.mark.parametrize("kernel", PATHS)
def test_point_estimate_many_over_several_blocks_matches_scalar(kernel, monkeypatch):
    # 3,109 items, whole vector groups of eight and a tail of five, from
    # the cached packed cells and from hashing
    monkeypatch.setattr(hashing, "_kernel", kernel)
    size = 3 * 1024 + 37
    t = make_table(rows=5, cols=97, n=5000, seed=10)
    rng = np.random.default_rng(3)
    t.update_many(rng.choice(np.arange(1, 5001), size=size, replace=False),
                  rng.integers(-50, 51, size=size))
    items = t.touched_items()
    want = [expected_point_estimate(t, int(i)) for i in items]
    assert t.point_estimate_many(t.touched_cells()).tolist() == want
    assert t.point_estimate_many(t.packed_cells(items)).tolist() == want


@pytest.mark.parametrize("kernel", PATHS)
def test_scatter_many_adds_what_update_many_adds_and_keeps_nothing(kernel, monkeypatch):
    monkeypatch.setattr(hashing, "_kernel", kernel)
    kept, scattered = make_table(rows=4, cols=9, n=50), make_table(rows=4, cols=9, n=50)
    items, deltas = np.array([7, 3, 7, 41]), np.array([2, -5, 1, 9])
    kept.update_many(items, deltas)
    packed = scattered.scatter_many(items, deltas)
    assert kept.cells.tobytes() == scattered.cells.tobytes()
    assert packed.tobytes() == scattered.packed_cells(items).tobytes()
    assert scattered.touched_nbytes() == 0
    assert scattered.scatter_many(np.zeros(0, dtype=np.int64), []).shape == (0, 4)
    # without its packed cells the batch adds the same, and the guard holds
    assert scattered.scatter_many(items, -deltas, packed=False) is None
    assert scattered.scatter_many(items[:0], deltas[:0], packed=False) is None
    assert not scattered.cells.any() and scattered.touched_nbytes() == 0
    # the table took 34 of |delta|: a batch that takes that to 2**62 is
    # refused before it writes
    assert scattered._mass == 34
    with pytest.raises(SketchInvariantError, match="would reach 2\\*\\*62"):
        scattered.scatter_many(items[-1:], [CELL_LIMIT - 34], packed=False)
    assert not scattered.cells.any() and scattered._mass == 34


def test_top_k_single_item():
    t = make_table()
    update(t, 3, 9)
    assert t.top_k(1) == [(3, 9.0)]


def test_top_k_planted_ranking():
    # 100, 90, ..., 10 planted over a wide table with a tiny noise tail
    t = make_table(rows=7, cols=512, n=10**4, seed=5)
    state = ExactState(10**4)
    for rank in range(10):
        update(t, rank + 1, 100 - 10 * rank)
        state.update(rank + 1, 100 - 10 * rank)
    rng = np.random.default_rng(11)
    for _ in range(50):
        i = int(rng.integers(100, 10**4))
        update(t, i, 1)
        state.update(i, 1)
    top3 = [item for item, _ in t.top_k(3)]
    mags = np.abs(state.frequencies)
    oracle3 = list(np.lexsort((np.arange(1, 10**4 + 1), -mags))[:3] + 1)
    assert top3 == oracle3 == [1, 2, 3]


def test_top_k_ties_break_to_smaller_index():
    t = make_table(rows=5, cols=97, n=50, seed=21)
    for i in (9, 4, 30):
        update(t, i, 6)
    items = [item for item, _ in t.top_k(3)]
    assert items == [4, 9, 30]


def test_ranking_refuses_a_negative_k():
    t = make_table()
    update(t, 1, 2)
    for rank in (t.top_k, t.f2_residual_estimate):
        with pytest.raises(ValueError, match="k must be >= 0"):
            rank(-1)


def test_top_k_beyond_touched_returns_all():
    t = make_table()
    update(t, 1, 2)
    update(t, 2, 3)
    assert len(t.top_k(10)) == 2


# small values tie often; near +-2**62 float64 steps are 1,024 apart, so
# neighbouring integers there round to one float, or to two; -INT64_MIN
# wraps to itself
_cells = st.one_of(st.integers(-3, 3), st.integers(-2**62, 2**62),
                   st.sampled_from((-2**62, 2**62)).flatmap(
                       lambda c: st.integers(c - 3000, c + 3000)),
                   st.just(-2**63))


def medians_on(kernel, packed: np.ndarray, cells: np.ndarray) -> tuple[int, np.ndarray]:
    """(status, medians) of `medians61` called directly on one path, the
    kernel's or, for None, the numpy twin's, from outputs filled with -7;
    its scratch must come back zeroed."""
    rows, cols = cells.shape
    net = hashing._merge_exchange(rows)
    work, out = np.full(8 * (rows + 1), -7, dtype=np.int64), np.full(packed.shape[0], -7.0)
    args = (packed, packed.shape[0], rows, cells, cols, net, net.shape[0], work, out)
    status = (hashing._c_call(kernel, "medians61", args) if kernel is not None
              else hashing._medians61(*args))
    assert not work.any()
    return status, out


@given(st.integers(1, 40), st.sampled_from([0, 1, 7, 8, 9, 3 * 1024 + 37]),
       st.sampled_from(["none", "group", "tail"]), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_and_twin_medians_match_numpy_median_of_the_signed_reads(rows, n, bad, seed,
                                                                         data):
    # odd and even rows; items in whole groups of eight and a tail; a bucket
    # past its row, in a group of eight or in the tail, is read at the row's
    # last cell, every item is finished, and both paths report it
    cols = data.draw(st.integers(1, 5))
    cells = np.array(data.draw(st.lists(_cells, min_size=rows * cols, max_size=rows * cols)),
                     dtype=np.int64).reshape(rows, cols)
    rng = np.random.default_rng(seed)
    packed = rng.integers(0, 2 * cols, size=(n, rows), dtype=np.uint32)
    whole = n - n % 8
    where = {"group": range(whole), "tail": range(whole, n)}.get(bad, range(0))
    if len(where):
        packed[rng.choice(where), rng.integers(rows)] = 2 * cols + rng.integers(2)
    q = packed.astype(np.int64)
    reads = cells[np.arange(rows), np.minimum(q >> 1, cols - 1)]
    reads[q & 1 == 1] *= -1
    want = np.median(reads, axis=1) if n else np.zeros(0)
    for kernel in PATHS:
        status, got = medians_on(kernel, packed, cells)
        assert status == (len(where) > 0) and got.tobytes() == want.tobytes()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            if len(where):
                with pytest.raises(ValueError, match="packed cell outside the table"):
                    hashing.signed_medians(packed, cells)
            else:
                assert hashing.signed_medians(packed, cells).tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", range(1, 17))
def test_merge_exchange_sorts_every_zero_one_input(rows):
    # a comparator network that sorts every 0-1 input sorts every input
    # (Knuth, TAOCP vol. 3, 5.3.4, Theorem Z)
    keys = (np.arange(2**rows)[:, None] >> np.arange(rows) & 1).astype(bool)
    net = hashing._merge_exchange(rows)
    assert net.dtype == np.uint32 and not net.flags.writeable
    for a, b in net:
        assert a < b < rows
        keys[:, a], keys[:, b] = keys[:, a] & keys[:, b], keys[:, a] | keys[:, b]
    assert (keys[:, :-1] <= keys[:, 1:]).all()


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=60), st.integers(0, 70))
@settings(max_examples=100, deadline=None)
def test_ranked_matches_the_full_two_key_sort(values, k):
    # few distinct |estimates|, so the k-th value is usually tied: sorting
    # only the candidates at or above it must keep the full sort's top k
    t = make_table(rows=3, cols=31, n=500)
    t.update_many(np.arange(7, 7 * len(values) + 1, 7), np.ones(len(values), dtype=np.int64))
    est = np.array(values, dtype=np.float64)
    _, order = t._ranked(k, est)
    want = np.lexsort((t.touched_items(), -np.abs(est)))[:k]
    assert order.dtype == want.dtype and order.tolist() == want.tolist()


def test_top_k_ties_at_the_kth_value_keep_item_order():
    t = make_table(rows=3, cols=31, n=50)
    t.update_many(np.arange(1, 8), np.ones(7, dtype=np.int64))
    est = np.array([3.0, -5.0, 3.0, 5.0, -3.0, 1.0, 3.0])
    assert [i for i, _ in t.top_k(3, est)] == [2, 4, 1]
    assert [i for i, _ in t.top_k(5, est)] == [2, 4, 1, 3, 5]
    assert t.top_k(7, est)[-1] == (6, 1.0)


def test_f2_estimate_empty():
    assert make_table().f2_estimate() == 0.0


def test_f2_estimate_single_item_exact_per_row():
    t = make_table(rows=6, cols=32, n=10)
    update(t, 3, 4)
    assert ((t.cells.astype(float) ** 2).sum(axis=1) == 16.0).all()
    assert t.f2_estimate() == 16.0


def test_f2_estimate_concentration():
    rng = np.random.default_rng(77)
    f = rng.integers(-30, 31, size=50)
    exact_f2 = float((f.astype(float) ** 2).sum())
    ok = 0
    items = np.arange(1, 51, dtype=np.int64)
    for seed in range(200):
        t = CountSketchTable.from_seed(seeds.master_key(1000 + seed), 11, 400, 50)
        t.update_many(items, f)
        ok += abs(t.f2_estimate() - exact_f2) <= 0.2 * exact_f2
    assert ok >= 180


def test_f2_residual_k0_equals_f2():
    t = make_table(rows=5, cols=64, n=30, seed=2)
    rng = np.random.default_rng(1)
    for _ in range(60):
        update(t, int(rng.integers(1, 31)), int(rng.integers(-9, 10)))
    want = float(np.median((t.cells.astype(float) ** 2).sum(axis=1)))
    assert t.f2_residual_estimate(0) == t.f2_estimate() == want


def test_reads_of_no_items_compute_no_point_estimate(monkeypatch):
    # k = 0, or a table nothing touched, ranks nothing, so it estimates nothing
    def refuse(self, packed):
        raise AssertionError("point estimates computed")

    t, untouched = make_table(rows=5, cols=64, n=30, seed=2), make_table()
    t.update_many(np.arange(1, 31), np.arange(-15, 15))
    untouched.scatter_many(np.array([4, 9]), np.array([3, -8]))
    want = [float(np.median((x.cells.astype(float) ** 2).sum(axis=1))) for x in (t, untouched)]
    monkeypatch.setattr(CountSketchTable, "point_estimate_many", refuse)
    assert t.top_k(0) == [] and untouched.top_k(5) == []
    assert [t.f2_estimate(), untouched.f2_residual_estimate(5)] == want and min(want) > 0


def test_f2_residual_all_items_removed_is_zero():
    t = make_table(rows=4, cols=256, n=10, seed=3)
    update(t, 1, 12)
    assert t.f2_residual_estimate(1) == 0.0
    # several isolated items whose estimates are exact
    t2 = make_table(rows=4, cols=256, n=10, seed=3)
    for i, v in ((1, 12), (2, -7), (3, 5), (4, 2), (5, -1)):
        update(t2, i, v)
    est = dict(zip(range(1, 6), t2.point_estimate_many(t2.packed_cells(np.arange(1, 6)))))
    assert est == {1: 12.0, 2: -7.0, 3: 5.0, 4: 2.0, 5: -1.0}
    assert t2.f2_residual_estimate(5) == 0.0


def test_f2_residual_matches_per_row_reference():
    # the batched skim equals removing each top-k item's estimate through
    # the scalar per-row hashes
    s = generate("zipf(1.1)", n=2000, m=20_000, seed=31)
    t = make_table(rows=9, cols=300, n=s.n, seed=4)
    t.update_many(s.items, s.deltas)
    for k in (1, 10, 100, 5000):
        top = t.top_k(k)
        rows = []
        for j, h in enumerate(t.hashes):
            skimmed = t.cells[j].astype(float)
            for item, est in top:
                bucket = expected_bucket(h, item)
                skimmed[bucket - 1] -= est * expected_sign(h, item)
            rows.append((skimmed ** 2).sum())
        assert t.f2_residual_estimate(k) == max(0.0, float(np.median(rows)))


def test_f2_residual_monotone_on_separated_instance():
    t = make_table(rows=7, cols=512, n=20, seed=8)
    freqs = [100, 90, 80, 70, 60, 50, 40, 30, 20, 10]
    for i, v in enumerate(freqs, start=1):
        update(t, i, v)
    vals = [t.f2_residual_estimate(k) for k in range(len(freqs) + 1)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0


def test_top_k_set_residual_sandwich_zipf():
    # residual mass left after deleting the estimated top-k never beats
    # deleting the true top-k, and overshoots it by at most (1+2vk+k)
    stream = generate("zipf(1.1)", n=10**4, m=2 * 10**4, seed=4242)
    state = ExactState(stream.n)
    state.update_many(stream.items, stream.deltas)
    f = state.frequencies
    budget = 100
    cols, rows = 64 * budget, 16
    k = budget
    exact_res = state.residual(2.0, k)
    upper = exact_res * (1 + 2 * np.sqrt(k) + k)
    exact_f2 = state.moment(2.0)
    ok = skim_ok = 0
    trials = 100
    for seed in range(trials):
        t = CountSketchTable.from_seed(seeds.master_key(90_000 + seed), rows, cols, stream.n)
        t.update_many(stream.items, stream.deltas)
        top = np.array([i for i, _ in t.top_k(k)], dtype=np.int64)
        set_res = exact_f2 - float((f[top - 1].astype(float) ** 2).sum())
        ok += exact_res <= set_res <= upper
        # the scalar skim estimate tracks the set residual loosely
        skim = t.f2_residual_estimate(k)
        skim_ok += 0.5 * set_res <= skim <= 2.0 * set_res
    assert ok >= 0.95 * trials
    assert skim_ok >= 0.9 * trials


def test_point_guarantee_fraction():
    # per-item error within 8 sqrt(res(8B)/C) for at least 99% of touched
    # items, median over trials
    stream = generate("zipf(1.1)", n=10**4, m=2 * 10**4, seed=555)
    state = ExactState(stream.n)
    state.update_many(stream.items, stream.deltas)
    f = state.frequencies
    budget = 100
    cols, rows = 64 * budget, 16
    bound = 8.0 * np.sqrt(state.residual(2.0, 8 * budget) / cols)
    fracs = []
    for seed in range(20):
        t = CountSketchTable.from_seed(seeds.master_key(60_000 + seed), rows, cols, stream.n)
        t.update_many(stream.items, stream.deltas)
        touched = t.touched_items()
        err = np.abs(t.point_estimate_many(t.touched_cells()) - f[touched - 1])
        fracs.append(float((err <= bound).mean()))
    assert np.median(fracs) >= 0.99


def test_counter_overflow_raises():
    t = make_table(rows=2, cols=4, n=5)
    update(t, 1, 1 << 61)
    sign = int(np.sign(t.cells[0][np.abs(t.cells[0]).argmax()]))
    with pytest.raises(SketchInvariantError):
        update(t, 1, sign * (1 << 61) * expected_sign(t.hashes[0], 1))


def test_batch_magnitude_overflow_raises():
    t = make_table(rows=2, cols=4, n=5)
    with pytest.raises(SketchInvariantError):
        t.update_many(np.array([1, 2]), np.array([1 << 61, 1 << 61]))


@given(st.lists(st.tuples(st.integers(1, 15), st.integers(-9, 9)),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(records, rnd):
    t1 = make_table(rows=3, cols=8, n=15, seed=6)
    t2 = make_table(rows=3, cols=8, n=15, seed=6)
    for i, v in records:
        update(t1, i, v)
    shuffled = records[:]
    rnd.shuffle(shuffled)
    for i, v in shuffled:
        update(t2, i, v)
    assert (t1.cells == t2.cells).all()
    assert (t1.touched_items() == t2.touched_items()).all()


record_lists = st.lists(st.tuples(st.integers(1, 30), st.integers(-10**6, 10**6)),
                        max_size=40)


@given(record_lists, record_lists)
@settings(max_examples=40, deadline=None)
def test_linearity(a, b):
    # cells(A) + cells(B) == cells(A + B) exactly: the turnstile premise
    def cells(records):
        t = make_table(rows=4, cols=9, n=30, seed=8)
        if records:
            items, deltas = zip(*records)
            t.update_many(np.array(items), np.array(deltas))
        return t.cells

    assert (cells(a) + cells(b) == cells(a + b)).all()


@pytest.mark.parametrize("kernel", PATHS)
def test_packed_cells_match_per_row_hashes(kernel, monkeypatch):
    monkeypatch.setattr(hashing, "_kernel", kernel)
    t = make_table(rows=5, cols=13, n=500, seed=9)
    items = np.arange(1, 501, dtype=np.int64)
    packed = t.packed_cells(items)
    # each row's hash onto [1, 26]: w = hash - 1 in [0, 13) is bucket w and
    # sign +1, in [13, 26) bucket w - 13 and sign -1
    w = np.stack([h.eval_many(items) - 1 for h in t.hashes], axis=1)
    negative = (w >= 13).astype(np.int64)
    buckets = w - 13 * negative
    assert (buckets >= 0).all() and (buckets < 13).all() and 0 < negative.mean() < 1
    assert packed.dtype == np.uint32 and packed.flags.c_contiguous
    assert (packed == buckets << 1 | negative).all()
    t.cells[:] = np.arange(5 * 13).reshape(5, 13)
    # the median of one row is that row's signed read
    reads = np.stack([hashing.signed_medians(packed[:, r:r + 1], t.cells[r:r + 1])
                      for r in range(5)], axis=1)
    assert (reads == (buckets + 13 * np.arange(5)) * (1 - 2 * negative)).all()
    assert t.packed_cells(items[:0]).shape == (0, 5)


@given(st.one_of(st.integers(1, 2**20), st.integers(1, 2**31 - 1)), st.integers(0, 2**16),
       st.lists(st.integers(0, hashing.MERSENNE61 - 1), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_row_bucket_is_the_hash_onto_the_columns_alone(cols, seed, items):
    # cols divides 2 * cols, so reducing the field value onto [1, 2 * cols]
    # and then onto cols buckets is reducing it onto cols buckets: the same
    # coefficients give the same bucket as a hash onto [1, cols]
    coeffs = CountSketchTable.from_seed(seeds.master_key(seed), 1, 1, 10).coeffs[0].tolist()
    row = KWiseHash(coeffs, 2 * cols)
    items = np.array(items, dtype=np.int64)
    want = KWiseHash(coeffs, cols).eval_many(items) - 1
    assert ((row.eval_many(items) - 1) % cols == want).all()
    assert [expected_bucket(row, i) - 1 for i in items] == want.tolist()
    if cols <= 2**20:  # a table maps its cells, though packed_cells reads none
        t = CountSketchTable([coeffs], cols)
        assert (t.packed_cells(items)[:, 0] >> 1 == want).all()


def test_bucket_and_sign_are_near_uniform_over_their_grid():
    # 1e5 items over the 7 x 2 (bucket, sign) grid of one row: every pair is
    # hit near 1e5 / 14 times, and the counts pass a chi-square test
    from scipy.stats import chisquare

    t = make_table(rows=1, cols=7, n=10**5, seed=11)
    packed = t.packed_cells(np.arange(1, 10**5 + 1))[:, 0]
    counts = np.bincount(packed, minlength=14)
    assert counts.size == 14
    assert np.abs(counts / (10**5 / 14) - 1).max() <= 0.05
    assert chisquare(counts).pvalue >= 1e-3


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@pytest.mark.parametrize("cols", [1, 7, 4095, 2**20 - 3, 2**20 + 1])
def test_kernel_scatter_matches_numpy_body_at_odd_and_wide_tables(cols):
    # cells, touched items, packed cells and the outcomes, from cells at
    # zero and from cells near the limit, with a running sum that leaves
    # room for the first batch and not the second
    rng = np.random.default_rng(cols)
    items = rng.integers(1, 2**40, size=3000)
    deltas = rng.integers(-2**32, 2**32, size=3000)
    batches = [(items[:2000], deltas[:2000]), (items[1000:], deltas[1000:])]
    for start in (0, CELL_LIMIT - 1 - int(np.abs(deltas[:2000]).sum())):
        kernel, numpy_body = run_paths(dict(rows=2, cols=cols, n=2**40, seed=cols), batches,
                                       start=start)
        assert kernel == numpy_body
        assert kernel[0] == ["ok", "overflow" if start else "ok"]


# -- fused C scatter against the numpy twin -----------------------------------


def run_paths(table_args: dict, batches, start: int = 0, mass: int | None = None) -> list:
    """Per path: each batch's outcome ("ok" or "overflow"), then the cells,
    touched items and their cached packed cells after all batches, from
    cells all set to `start` and a running sum of |delta| of `mass`, by
    default |start|."""
    results = []
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            t = make_table(**table_args)
            t.cells[:] = start
            t._mass = abs(start) if mass is None else mass
            outcomes = []
            for items, deltas in batches:
                try:
                    t.update_many(np.array(items, dtype=np.int64),
                                  np.array(deltas, dtype=np.int64))
                    outcomes.append("ok")
                except SketchInvariantError:
                    outcomes.append("overflow")
            results.append((outcomes, t.cells.tobytes(), t.touched_items().tobytes(),
                            t.touched_cells().tobytes()))
    return results


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@given(st.integers(1, 6), st.integers(1, 60), st.integers(1, 2**32 - 1), st.integers(0, 2**16),
       st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_scatter_matches_numpy_body(rows, cols, n, seed, data):
    batch = st.lists(st.tuples(st.integers(1, n), st.integers(-2**40, 2**40)), max_size=50)
    batches = [tuple(zip(*b)) if b else ((), ()) for b in data.draw(st.lists(batch, max_size=4))]
    kernel, numpy_body = run_paths(dict(rows=rows, cols=cols, n=n, seed=seed), batches)
    assert kernel == numpy_body


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
def test_kernel_scatter_across_block_boundaries_matches_numpy_body():
    # two blocks and a short third, with items repeated on both sides of
    # each boundary: from cells at zero, random deltas; from cells and a
    # running sum 261 below the limit, a batch of 200 around the first
    # boundary is taken, then a delta of 61 is refused and one of 60 taken
    block = hashing._SCATTER_BLOCK
    rng = np.random.default_rng(17)
    items = rng.integers(1, 60, size=2 * block + 5)
    items[block - 2:block + 2] = items[2 * block - 1:2 * block + 3] = [9, 7, 9, 7]
    deltas = rng.integers(-2**20, 2**20, size=items.size)
    table = dict(rows=5, cols=11, n=60, seed=3)
    kernel, numpy_body = run_paths(table, [(items, deltas), (items[::-1], deltas)])
    assert kernel == numpy_body and kernel[0] == ["ok", "ok"]
    assert (make_table(**table).packed_cells(np.array([7])) & 1 == 0).any()  # a + row
    deltas = np.zeros(items.size, dtype=np.int64)
    deltas[[block - 1, block + 1]] = 100, -100
    kernel, numpy_body = run_paths(table, [(items, deltas), ([7], [61]), ([7], [60])],
                                   start=CELL_LIMIT - 261)
    assert kernel == numpy_body and kernel[0] == ["ok", "overflow", "ok"]


@pytest.mark.parametrize("kernel", PATHS)
def test_batch_guard_is_exact_at_its_boundary(kernel, monkeypatch):
    # float64 rounded 2**62 - 1 up to 2**62 and refused it; the exact sum
    # takes it and refuses a sum of exactly 2**62, and |-2**63| counts
    monkeypatch.setattr(hashing, "_kernel", kernel)
    t = make_table(rows=2, cols=4, n=5)
    t.update_many(np.array([1]), np.array([CELL_LIMIT - 1]))
    assert (np.abs(t.cells).max(axis=1) == CELL_LIMIT - 1).all()
    for deltas in ([CELL_LIMIT - 1, -1], [1 << 61, 1 << 61], [-(1 << 63)], [2**63 - 1, 0]):
        fresh = make_table(rows=2, cols=4, n=5)
        with pytest.raises(SketchInvariantError, match="batch magnitude"):
            fresh.update_many(np.arange(1, len(deltas) + 1), np.array(deltas))
        assert not fresh.cells.any() and fresh.touched_items().size == 0


@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-2**62, 2**62),
                          st.integers(-2**33, 2**33)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_batch_guard_matches_the_exact_sum_on_both_paths(deltas):
    want = sum(abs(d) for d in deltas) >= CELL_LIMIT
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            assert countsketch.batch_reaches_limit(np.array(deltas, dtype=np.int64)) == want


@pytest.mark.parametrize("kernel", PATHS)
def test_first_batch_becomes_the_touched_items_whole(kernel, monkeypatch):
    # an ascending first batch is kept as it is, as a copy; any other first
    # batch, and every later one, is merged into the touched items
    monkeypatch.setattr(hashing, "_kernel", kernel)
    for first in ([2, 5, 9], [9, 2, 5, 2]):
        t = make_table(rows=3, cols=7, n=20)
        items = np.array(first)
        t.update_many(items, np.ones(items.size, dtype=np.int64))
        items[:] = 1
        assert t.touched_items().tolist() == [2, 5, 9]
        t.update_many(np.array([9, 4]), np.array([1, 1]))
        assert t.touched_items().tolist() == [2, 4, 5, 9]
        assert t.touched_cells().tobytes() == t.packed_cells(t.touched_items()).tobytes()


@pytest.mark.parametrize("direction", [1, -1])
def test_cell_reaching_exactly_the_limit_raises_on_both_paths(direction):
    # item 3 brings one cell per row to +-(2**62 - 1) in two batches, the
    # second taken with the running sum of |delta| one below the limit;
    # a third batch that takes that sum to exactly 2**62 is refused with
    # nothing written, though item 5's cells would stay small
    half = CELL_LIMIT // 2
    batches = [([3], [direction * half]), ([3], [direction * (half - 1)]),
               ([5, 3], [direction, 0])]
    results = run_paths(dict(rows=3, cols=7, n=20, seed=4), batches)
    assert results[0][0] == ["ok", "ok", "overflow"]
    assert all(r == results[0] for r in results)
    cells = np.frombuffer(results[0][1], dtype=np.int64)
    assert (np.abs(cells) == CELL_LIMIT - 1).sum() == 3 and np.count_nonzero(cells) == 3
    assert np.frombuffer(results[0][2], dtype=np.int64).tolist() == [3]


def test_excursion_above_the_limit_within_a_batch_does_not_raise():
    # the bound counts every |delta| of a batch, so no add within a batch it
    # takes can lift a cell to the limit: a batch that adds 20 to item 3 and
    # takes 15 back is taken when the running sum ends 1 below 2**62, and
    # refused with nothing written when it would end at 2**62, though item
    # 3's cells would end 30 below it
    half = CELL_LIMIT // 2
    for room, outcome, end in ((36, "ok", CELL_LIMIT - 31), (35, "overflow", CELL_LIMIT - 35)):
        batches = [([3], [half]), ([3], [half - room]), ([3, 3], [20, -15])]
        results = run_paths(dict(rows=3, cols=7, n=20, seed=4), batches)
        assert results[0][0] == ["ok", "ok", outcome]
        assert all(r == results[0] for r in results)
        cells = np.frombuffer(results[0][1], dtype=np.int64)
        assert (np.abs(cells) == end).sum() == 3 and np.count_nonzero(cells) == 3


def test_corrupt_cells_wrap_alike_on_both_paths():
    # cells set past the limit by hand, which the bound cannot see (it
    # counts the |delta| of the batches a table took), take a batch and
    # wrap modulo 2**64 the same way on both paths
    top = (1 << 63) - 1
    batches = [([3, 5], [4, -4]), ([3], [1])]
    for start in (top - 2, -top):
        results = run_paths(dict(rows=3, cols=7, n=20, seed=4), batches, start=start, mass=0)
        assert all(r == results[0] for r in results)
        assert results[0][0] == ["ok", "ok"]
        cells = np.frombuffer(results[0][1], dtype=np.int64)
        assert (np.sign(cells) == -np.sign(start)).any()  # some add wrapped


@given(st.lists(st.lists(st.tuples(st.integers(1, 9),
                                   st.one_of(st.integers(-2**61, 2**61), st.integers(-9, 9))),
                         max_size=6), max_size=8))
@settings(max_examples=60, deadline=None)
def test_every_cell_stays_within_the_running_sum_below_the_limit(batches):
    # after any sequence of batches, each taken or refused whole on both
    # paths, every |cell| is at most the table's running sum of |delta|,
    # which stays below 2**62
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            t, mass = make_table(rows=3, cols=4, n=9), 0
            for batch in batches:
                items = np.array([i for i, _ in batch], dtype=np.int64)
                deltas = np.array([d for _, d in batch], dtype=np.int64)
                before, touched = t.cells.copy(), t.touched_items()
                try:
                    t.update_many(items, deltas)
                    mass += sum(abs(d) for _, d in batch)
                except SketchInvariantError:
                    assert mass + sum(abs(d) for _, d in batch) >= CELL_LIMIT
                    assert np.array_equal(t.cells, before)
                    assert np.array_equal(t.touched_items(), touched)
                assert t._mass == mass < CELL_LIMIT
                assert int(np.abs(t.cells).max()) <= mass


@pytest.mark.parametrize("kernel", PATHS)
def test_update_many_needs_one_delta_per_item(kernel, monkeypatch):
    # a scalar delta is refused on both paths, not broadcast by one of them,
    # and an empty batch, which writes nothing, is held to one delta per item
    monkeypatch.setattr(hashing, "_kernel", kernel)
    t = make_table()
    none = np.zeros(0, dtype=np.int64)
    for items, deltas in ((np.array([1, 2]), np.int64(5)), (np.array([1, 2]), np.array([1, 2, 3])),
                          (none, np.int64(5)), (none, np.array([1]))):
        for call in (t.update_many, t.scatter_many):
            with pytest.raises(ValueError, match="one delta per item"):
                call(items, deltas)
    t.update_many(none, none)
    assert not t.cells.any() and t.touched_items().size == 0


@pytest.mark.parametrize("kernel", PATHS)
@pytest.mark.parametrize("item", [-1, -(2**63), hashing.MERSENNE61, 2**63 - 1])
def test_items_outside_the_field_are_refused_on_both_paths(kernel, item, monkeypatch):
    # past 2**61 - 1 the kernel reads an item modulo the field and numpy
    # does not, so both paths refuse it, with one error, before any write
    monkeypatch.setattr(hashing, "_kernel", kernel)
    t = make_table()
    items = np.array([1, item], dtype=np.int64)
    field = "items must be a vector of integers in \\[0, 2\\*\\*61 - 1\\)"
    for call in (lambda: t.update_many(items, np.ones(2, dtype=np.int64)),
                 lambda: t.scatter_many(items, np.ones(2, dtype=np.int64)),
                 lambda: t.packed_cells(items),
                 lambda: t.hashes[0].eval_many(items),
                 lambda: t.hashes[0].eval_many([item]),
                 lambda: t.hashes[0].eval_many(items.astype(np.uint64))):
        with pytest.raises(ValueError, match=field):
            call()
    assert not t.cells.any() and t.touched_items().size == 0
    edge = np.array([0, hashing.MERSENNE61 - 1], dtype=np.int64)  # the field's ends still hash
    assert t.packed_cells(edge).shape == (2, 3)


def test_table_refuses_columns_a_packed_cell_cannot_hold():
    for cols in (1 << 31, 0, -1):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            CountSketchTable([[1]], cols)


def test_table_holds_each_row_once_as_a_read_only_row_of_its_matrix():
    key = seeds.master_key(5)
    for role, rows, cols, n in (("cs", 3, 7, 20), ("hh", 5, 1, 1), ("x", 2, 9, 2**61 - 2)):
        t = CountSketchTable.from_seed(key, rows, cols, n, role=role)
        assert t.coeffs.dtype == np.uint64 and t.coeffs.shape == (rows, 8)
        assert not t.coeffs.flags.writeable
        with pytest.raises(ValueError):
            t.coeffs[0, 0] = 1
        for j in range(rows):
            h = KWiseHash.from_seed(seeds.derive_key(key, role + "-bucket", j), 8, n, 2 * cols)
            assert t.coeffs[j].tolist() == list(h.coefficients)
        # the row hashes are a view of the matrix, built on request
        assert [(h.coefficients, h.range_size) for h in t.hashes] == [
            (tuple(row), 2 * cols) for row in t.coeffs.tolist()]
        assert not any(isinstance(v, (KWiseHash, tuple, list)) for v in vars(t).values())
        assert [a for a in vars(t).values()
                if isinstance(a, np.ndarray) and a.dtype == np.uint64] == [t.coeffs]
    # a table keeps its own copy: the caller's matrix stays writable and apart
    mine = np.array([[3, 4], [5, 6]], dtype=np.uint64)
    t = CountSketchTable(mine, 7)
    mine[0, 0] = 9
    assert t.coeffs.tolist() == [[3, 4], [5, 6]] and mine.flags.writeable


def test_table_refuses_a_coefficient_matrix_it_cannot_hash():
    matrix = "non-empty 2-D matrix of coefficients below 2\\*\\*61 - 1"
    for coeffs in ([1, 2], [[[1]]], [], [[]], np.zeros((0, 8), dtype=np.uint64),
                   np.zeros((3, 0), dtype=np.uint64), [[1, hashing.MERSENNE61]],
                   [[0], [2**64 - 1]]):
        with pytest.raises(ValueError, match=matrix):
            CountSketchTable(coeffs, 7)
    assert CountSketchTable([[hashing.MERSENNE61 - 1]], 7).rows == 1
    assert CountSketchTable(np.array([[5]], dtype=np.uint8), 7).coeffs.dtype == np.uint64
    # from_seed still refuses a domain the field cannot hold
    for n in (0, -1, hashing.MERSENNE61, 2**64):
        with pytest.raises(ValueError, match="domain size n"):
            make_table(n=n)
    with pytest.raises(ValueError, match=matrix):
        make_table(rows=0)


@pytest.mark.parametrize("coeff", [-1, 1.5])
def test_table_refuses_a_negative_or_fractional_coefficient(coeff):
    # read as uint64, -1 would overflow and 1.5 would be truncated to 1
    with pytest.raises(ValueError, match="non-empty 2-D matrix of coefficients below 2"):
        CountSketchTable([[coeff]], 7)


def test_kernel_scatter_refuses_mismatched_arguments():
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            t = make_table(rows=3, cols=7, n=20)
            with pytest.raises(ValueError):
                hashing.scatter_signed(t.coeffs, np.array([1, 2]), np.array([1]), t.cells, True)
            with pytest.raises(ValueError):  # a polynomial missing for the last row
                hashing.scatter_signed(t.coeffs[:-1], np.array([1]), np.array([1]), t.cells, True)
            with pytest.raises(ValueError):  # polynomials with no coefficient to start from
                hashing.scatter_signed(t.coeffs[:, :0], np.array([1]), np.array([1]), t.cells,
                                       True)
            with pytest.raises(ValueError):  # one polynomial, not a matrix of them
                hashing.scatter_signed(t.coeffs[0], np.array([1]), np.array([1]),
                                       np.zeros((1, 7), dtype=np.int64), True)
            with pytest.raises(ValueError):  # a float table
                hashing.scatter_signed(t.coeffs, np.array([1]), np.array([1]),
                                       np.zeros((3, 7)), True)
            with pytest.raises(ValueError):  # rows disagree with the coefficient matrix
                hashing.scatter_signed(t.coeffs, np.array([1]), np.array([1]),
                                       np.zeros((2, 7), dtype=np.int64), True)
            assert not t.cells.any()


# -- compiled reads (medians61, skim61) against the numpy twins -----------------


def reads_on_both_paths(t: CountSketchTable, k: int, estimates=None) -> list:
    """Per path: the touched items' point estimates and the residual F2
    after the top k, as bytes and repr, so -0.0 and 0.0 differ."""
    results = []
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            points = t.point_estimate_many(t.touched_cells())
            results.append((points.tobytes(), repr(t.f2_residual_estimate(k, estimates))))
    return results


EDGE_CELLS = [0, 1, -1, 3, CELL_LIMIT - 1, -(CELL_LIMIT - 1), CELL_LIMIT - 2, 2**53 + 1]


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@given(st.integers(1, 13), st.integers(1, 9), st.integers(0, 2**16), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_reads_and_skim_match_numpy_bodies(rows, cols, seed, data):
    # few columns, so top items share buckets, and cells up to +-(2**62 - 1),
    # where the order of the float subtractions changes the result
    t = make_table(rows=rows, cols=cols, n=200, seed=seed)
    items = data.draw(st.lists(st.integers(1, 200), min_size=1, max_size=40, unique=True))
    t.update_many(np.array(items), np.ones(len(items), dtype=np.int64))
    t.cells[:] = np.array(data.draw(st.lists(st.sampled_from(EDGE_CELLS) | st.integers(-99, 99),
                                             min_size=rows * cols, max_size=rows * cols)),
                          dtype=np.int64).reshape(rows, cols)
    k = data.draw(st.integers(0, len(items) + 1))
    kernel, numpy_body = reads_on_both_paths(t, k)
    assert kernel == numpy_body


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
def test_skim_subtracts_top_items_in_rank_order():
    # three items share the one cell: with their signs, subtracting 2**53,
    # then 1, then 1 leaves -2**53 (each 1 is rounded away), while the
    # reverse order leaves -(2**53 + 2)
    t = make_table(rows=1, cols=1, n=10, seed=4)
    t.update_many(np.array([1, 2, 3]), np.zeros(3, dtype=np.int64))
    sign = [expected_sign(t.hashes[0], i) for i in (1, 2, 3)]
    estimates = np.array([2.0**53 * sign[0], 1.0 * sign[1], 1.0 * sign[2]])
    assert 0.0 - 2.0**53 - 1.0 - 1.0 != 0.0 - 1.0 - 1.0 - 2.0**53
    kernel, numpy_body = reads_on_both_paths(t, 3, estimates)
    assert kernel == numpy_body
    assert kernel[1] == repr(2.0**106)


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@pytest.mark.parametrize("rows, cols", [(13, 4096), (16, 4096), (3, 2**15 + 1), (2, 2**16)])
def test_kernel_skim_blocks_match_numpy_body(rows, cols):
    # 8 rows of 4,096 columns per 256 KiB block, then a short last block;
    # past 32,768 columns one row per block
    s = generate("zipf(1.1)", n=5000, m=20_000, seed=rows)
    t = make_table(rows=rows, cols=cols, n=s.n, seed=cols)
    t.update_many(s.items, s.deltas)
    kernel, numpy_body = reads_on_both_paths(t, 256)
    assert kernel == numpy_body


def test_kernel_reads_and_skim_refuse_bad_arguments():
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            t = make_table(rows=3, cols=7, n=20)
            t.update_many(np.array([1, 2]), np.array([5, -3]))
            packed = t.touched_cells()
            est = np.array([5.0, -3.0])
            assert hashing.signed_medians(packed, t.cells).tolist() == [5.0, -3.0]
            for bad in ((packed[:, :2], t.cells),  # a row of cells missing
                        (packed, t.cells.astype(np.float64)),
                        (packed, np.asfortranarray(t.cells)),
                        (np.zeros((2, 0), dtype=np.uint32), t.cells[:0]),  # no row
                        (np.zeros((2, 3), dtype=np.uint32), t.cells[:, :0]),  # no column
                        (np.full((2, 3), 14, dtype=np.uint32), t.cells)):  # bucket 7 of 7
                with pytest.raises(ValueError):
                    hashing.signed_medians(*bad)
            rows = np.empty((2, 7))
            assert hashing.skim_rows(t.cells, 1, packed, est, rows) is rows
            for r0, p, e, o in ((2, packed, est, rows),  # rows 2 and 3 of 3
                                (-1, packed, est, rows),
                                (0, packed, est[:1], rows),  # an estimate missing
                                (0, packed, est, np.empty((2, 6))),
                                (0, packed, est, np.empty((2, 7), dtype=np.float32)),
                                (0, np.full((2, 3), 14, dtype=np.uint32), est, rows)):
                with pytest.raises(ValueError):
                    hashing.skim_rows(t.cells, r0, p, e, o)
