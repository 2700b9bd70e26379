import errno
import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import SketchInvariantError, countsketch, generate, hashing, seeds
from f1sketch.countsketch import CELL_LIMIT, HUGE_PAGE, CountSketchTable, zeroed_cells
from f1sketch.oracle import (ExactState, expected_countsketch_cells, expected_hash,
                             expected_point_estimate, expected_sign)


def make_table(rows=3, cols=7, n=20, seed=1, **kwargs) -> CountSketchTable:
    return CountSketchTable.from_seed(seeds.master_key(seed), rows, cols, n, **kwargs)


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
    t.update(4, 3)
    t.update(4, -3)
    assert (t.cells == before).all()


def test_single_update_touches_one_cell_per_row():
    t = make_table(rows=5, cols=11)
    t.update(7, 5)
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
        t.update(i, v)
        state.update(i, v)
    assert (t.cells == expected_countsketch_cells(state, t)).all()


def test_point_estimate_single_item_exact():
    t = make_table(rows=4, cols=64, n=100)
    t.update(42, 42)
    assert expected_point_estimate(t, 42) == 42.0
    assert list(t.point_estimate_many(np.array([42]))) == [42.0]


def test_point_estimate_empty_table_is_zero():
    t = make_table()
    assert expected_point_estimate(t, 5) == 0.0
    assert list(t.point_estimate_many(np.array([5]))) == [0.0]


def test_point_estimate_many_matches_scalar():
    t = make_table(rows=5, cols=17, n=50, seed=9)
    rng = np.random.default_rng(0)
    for _ in range(200):
        t.update(int(rng.integers(1, 51)), int(rng.integers(-4, 5)))
    items = np.arange(1, 51)
    many = t.point_estimate_many(items)
    assert [expected_point_estimate(t, int(i)) for i in items] == list(many)


@pytest.mark.parametrize("kernel", PATHS)
def test_point_estimate_many_over_several_blocks_matches_scalar(kernel, monkeypatch):
    # three whole blocks of point estimates and a remainder, from the
    # cached packed cells and from hashing
    monkeypatch.setattr(hashing, "_kernel", kernel)
    size = 3 * countsketch._ESTIMATE_BLOCK + 37
    t = make_table(rows=5, cols=97, n=5000, seed=10)
    rng = np.random.default_rng(3)
    t.update_many(rng.choice(np.arange(1, 5001), size=size, replace=False),
                  rng.integers(-50, 51, size=size))
    items = t.touched_items()
    want = [expected_point_estimate(t, int(i)) for i in items]
    assert t.point_estimate_many(items, t.touched_cells()).tolist() == want
    assert t.point_estimate_many(items).tolist() == want


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


def test_top_k_single_item():
    t = make_table()
    t.update(3, 9)
    assert t.top_k(1) == [(3, 9.0)]


def test_top_k_planted_ranking():
    # 100, 90, ..., 10 planted over a wide table with a tiny noise tail
    t = make_table(rows=7, cols=512, n=10**4, seed=5)
    state = ExactState(10**4)
    for rank in range(10):
        t.update(rank + 1, 100 - 10 * rank)
        state.update(rank + 1, 100 - 10 * rank)
    rng = np.random.default_rng(11)
    for _ in range(50):
        i = int(rng.integers(100, 10**4))
        t.update(i, 1)
        state.update(i, 1)
    top3 = [item for item, _ in t.top_k(3)]
    mags = np.abs(state.frequencies)
    oracle3 = list(np.lexsort((np.arange(1, 10**4 + 1), -mags))[:3] + 1)
    assert top3 == oracle3 == [1, 2, 3]


def test_top_k_ties_break_to_smaller_index():
    t = make_table(rows=5, cols=97, n=50, seed=21)
    for i in (9, 4, 30):
        t.update(i, 6)
    items = [item for item, _ in t.top_k(3)]
    assert items == [4, 9, 30]


def test_top_k_beyond_touched_returns_all():
    t = make_table()
    t.update(1, 2)
    t.update(2, 3)
    assert len(t.top_k(10)) == 2


def test_f2_estimate_empty():
    assert make_table().f2_estimate() == 0.0


def test_f2_estimate_single_item_exact_per_row():
    t = make_table(rows=6, cols=32, n=10)
    t.update(3, 4)
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
        t.update(int(rng.integers(1, 31)), int(rng.integers(-9, 10)))
    assert t.f2_residual_estimate(0) == t.f2_estimate()


def test_f2_residual_all_items_removed_is_zero():
    t = make_table(rows=4, cols=256, n=10, seed=3)
    t.update(1, 12)
    assert t.f2_residual_estimate(1) == 0.0
    # several isolated items whose estimates are exact
    t2 = make_table(rows=4, cols=256, n=10, seed=3)
    for i, v in ((1, 12), (2, -7), (3, 5), (4, 2), (5, -1)):
        t2.update(i, v)
    est = dict(zip(range(1, 6), t2.point_estimate_many(np.arange(1, 6))))
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
        for j in range(t.rows):
            skimmed = t.cells[j].astype(float)
            for item, est in top:
                bucket = expected_hash(t.bucket_hashes[j], item)
                skimmed[bucket - 1] -= est * expected_sign(t.sign_hashes[j], item)
            rows.append((skimmed ** 2).sum())
        assert t.f2_residual_estimate(k) == max(0.0, float(np.median(rows)))


def test_f2_residual_monotone_on_separated_instance():
    t = make_table(rows=7, cols=512, n=20, seed=8)
    freqs = [100, 90, 80, 70, 60, 50, 40, 30, 20, 10]
    for i, v in enumerate(freqs, start=1):
        t.update(i, v)
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
        err = np.abs(t.point_estimate_many(touched) - f[touched - 1])
        fracs.append(float((err <= bound).mean()))
    assert np.median(fracs) >= 0.99


def test_counter_overflow_raises():
    t = make_table(rows=2, cols=4, n=5)
    t.update(1, 1 << 61)
    sign = int(np.sign(t.cells[0][np.abs(t.cells[0]).argmax()]))
    with pytest.raises(SketchInvariantError):
        t.update(1, sign * (1 << 61) * expected_sign(t.sign_hashes[0], 1))


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
        t1.update(i, v)
    shuffled = records[:]
    rnd.shuffle(shuffled)
    for i, v in shuffled:
        t2.update(i, v)
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


def test_hash_matrices_match_per_row_hashes():
    t = make_table(rows=5, cols=13, n=500, seed=9)
    items = np.arange(1, 501, dtype=np.int64)
    idx, signs = t.hash_matrices(items)
    cols = np.stack([h.eval_many(items) - 1 for h in t.bucket_hashes])
    assert (idx == cols + 13 * np.arange(5)[:, None]).all()
    assert (signs == np.stack([3 - 2 * h.eval_many(items) for h in t.sign_hashes])).all()


# -- fused C scatter against the numpy body -----------------------------------


def run_paths(table_args: dict, batches, start: int = 0) -> list:
    """Per path: each batch's outcome ("ok" or "overflow"), then the cells,
    touched items and their cached packed cells after all batches, from
    cells all set to `start`."""
    results = []
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            t = make_table(**table_args)
            t.cells[:] = start
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


@pytest.mark.parametrize("direction", [1, -1])
def test_cell_reaching_exactly_the_limit_raises_on_both_paths(direction):
    # item 3 brings one cell per row to +-(2**62 - 1) in two batches (each
    # one's magnitude stays below 2**62 in float64), then one more unit
    # takes every one of those cells to exactly +-2**62
    half = CELL_LIMIT // 2
    batches = [([3], [direction * half]), ([3], [direction * (half - 1)]),
               ([3], [direction])]
    results = run_paths(dict(rows=3, cols=7, n=20, seed=4), batches)
    assert results[0][0] == ["ok", "ok", "overflow"]
    assert all(r == results[0] for r in results)
    cells = np.frombuffer(results[0][1], dtype=np.int64)
    assert (np.abs(cells) == CELL_LIMIT).sum() == 3


def test_excursion_above_the_limit_within_a_batch_does_not_raise():
    # the second batch takes item 3's cells 10 above the limit, then 5 back
    # below it: only the cells at the end of the batch are checked
    half = CELL_LIMIT // 2
    batches = [([3], [half]), ([3], [half - 10]), ([3, 3], [20, -15])]
    results = run_paths(dict(rows=3, cols=7, n=20, seed=4), batches)
    assert results[0][0] == ["ok", "ok", "ok"]
    assert all(r == results[0] for r in results)
    cells = np.frombuffer(results[0][1], dtype=np.int64)
    assert (np.abs(cells) == CELL_LIMIT - 5).sum() == 3


def test_corrupt_cells_wrap_alike_on_both_paths():
    # cells already past the limit (a batch raised earlier) wrap modulo
    # 2**64 the same way on both paths
    top = (1 << 63) - 1
    batches = [([3, 5], [4, -4]), ([3], [1])]
    for start in (top - 2, -top):
        results = run_paths(dict(rows=3, cols=7, n=20, seed=4), batches, start=start)
        assert all(r == results[0] for r in results)
        assert results[0][0][0] == "overflow"


@pytest.mark.parametrize("kernel", PATHS)
def test_update_many_needs_one_delta_per_item(kernel, monkeypatch):
    # a scalar delta is refused on both paths, not broadcast by one of them
    monkeypatch.setattr(hashing, "_kernel", kernel)
    t = make_table()
    for deltas in (np.int64(5), np.array([1, 2, 3])):
        with pytest.raises(ValueError):
            t.update_many(np.array([1, 2]), deltas)
    assert not t.cells.any() and t.touched_items().size == 0


def test_table_refuses_columns_a_packed_cell_cannot_hold():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        CountSketchTable(1, 1 << 31, bucket_hashes=[], sign_hashes=[])


def test_table_refuses_sign_hashes_of_range_other_than_two():
    t = make_table(rows=2)
    with pytest.raises(ValueError, match="range 2"):
        CountSketchTable(2, 7, bucket_hashes=t.bucket_hashes, sign_hashes=t.bucket_hashes)


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
def test_kernel_scatter_refuses_mismatched_arguments():
    t = make_table(rows=3, cols=7, n=20)
    with pytest.raises(ValueError):
        hashing.scatter_signed(t._row_hash, np.array([1, 2]), np.array([1]), t.cells, CELL_LIMIT)
    with pytest.raises(ValueError):  # a table narrower than the bucket range
        hashing.scatter_signed(t._row_hash, np.array([1]), np.array([1]),
                               np.zeros((3, 6), dtype=np.int64), CELL_LIMIT)
    with pytest.raises(ValueError):  # rows disagree with the stacked hash
        hashing.scatter_signed(t._row_hash, np.array([1]), np.array([1]),
                               np.zeros((2, 7), dtype=np.int64), CELL_LIMIT)
    assert not t.cells.any()
