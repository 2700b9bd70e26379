import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import seeds
from f1sketch.countsketch import CountSketchTable
from f1sketch.oracle import ExactState, expected_countsketch_cells


def state_of(freqs) -> ExactState:
    return ExactState.from_frequencies(freqs)


def test_moments_hand_examples():
    assert state_of([0, 0, 0]).moment(1.0) == 0
    s = state_of([3, -4])
    assert s.moment(1.0) == 7
    assert s.moment(2.0) == 25


def test_moment_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        state_of([1]).moment(0.0)


def test_residual_edges_and_hand_example():
    s = state_of([5, 4, 3, 2, 1])
    assert s.residual(2.0, 0) == s.moment(2.0)
    assert s.residual(2.0, 5) == 0
    assert s.residual(2.0, 2) == 9 + 4 + 1
    with pytest.raises(ValueError):
        s.residual(2.0, 6)


def test_residual_nonincreasing_in_k():
    rng = np.random.default_rng(0)
    s = state_of(rng.integers(-50, 51, size=40))
    vals = [s.residual(1.5, k) for k in range(41)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_residual_tie_break_smaller_index_first():
    # equal magnitudes drop in index order; residual_of_set confirms which
    # set the ranked residual corresponds to
    s = state_of([2, 3, -3, 1])
    assert s.residual(1.0, 1) == s.residual_of_set(1.0, {2})
    assert s.residual(1.0, 2) == s.residual_of_set(1.0, {2, 3})
    assert s.residual(1.0, 3) == s.residual_of_set(1.0, {2, 3, 1})


def test_update_paths_agree():
    a = ExactState(10)
    b = ExactState(10)
    recs = [(1, 4), (9, -2), (1, -1)]
    for i, v in recs:
        a.update(i, v)
    b.update_many([i for i, _ in recs], [v for _, v in recs])
    assert (a.frequencies == b.frequencies).all()
    with pytest.raises(ValueError):
        a.update(0, 1)
    with pytest.raises(ValueError):
        a.update(11, 1)


def test_tail_bound_equal_orders():
    s = state_of([7, -3, 2, 2, 1])
    check = s.check_tail_bound(1.5, 1.5, 2)
    assert check.holds
    assert check.lhs == pytest.approx(s.residual(1.5, 2))
    assert check.rhs == pytest.approx(s.moment(1.5))


def test_tail_bound_all_ones_hand_example():
    s = state_of([1] * 100)
    check = s.check_tail_bound(1.0, 2.0, 10)
    assert check.holds
    assert check.lhs == 90.0
    assert check.rhs == 1000.0


def test_tail_bound_never_fails_on_random_vectors():
    rng = np.random.default_rng(123)
    for _ in range(100):
        kind = rng.integers(0, 3)
        size = int(rng.integers(1, 60))
        if kind == 0:
            f = rng.integers(-40, 41, size=size)
        elif kind == 1:
            ranks = np.arange(1, size + 1, dtype=float)
            f = np.round(200 / ranks ** 1.2).astype(np.int64) * rng.choice([-1, 1], size=size)
        else:
            f = np.zeros(size, dtype=np.int64)
        s = state_of(f)
        for p, q in ((1.0, 2.0), (0.5, 1.0), (1.0, 3.0)):
            b = int(rng.integers(1, 20))
            assert s.check_tail_bound(p, q, b).holds


def test_tail_bound_validation():
    s = state_of([1, 2])
    with pytest.raises(ValueError):
        s.check_tail_bound(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        s.check_tail_bound(1.0, 2.0, 0)


def test_heavy_set_edges():
    assert state_of([0, 0, 0]).heavy_set(5) == set()
    assert state_of([0, 9, 0]).heavy_set(5) == {2}


def test_heavy_set_zipf_bounded():
    ranks = np.arange(1, 10**4 + 1, dtype=float)
    f = np.round(1500 / ranks ** 1.1).astype(np.int64)
    s = state_of(f)
    budget = 100
    assert len(s.heavy_set(budget)) <= 5.1 * budget


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_tail_bound_property(freqs, budget):
    s = state_of(freqs)
    for p, q in ((1.0, 2.0), (0.5, 1.0), (1.0, 3.0), (0.7, 1.9)):
        assert s.check_tail_bound(p, q, budget).holds


def test_countsketch_replay_matches_incremental():
    rng = np.random.default_rng(5)
    for seed in range(3):
        t = CountSketchTable.from_seed(seeds.master_key(seed), 4, 16, 30)
        s = ExactState(30)
        items = rng.integers(1, 31, size=500)
        deltas = rng.integers(-6, 7, size=500)
        t.update_many(items, deltas)
        s.update_many(items, deltas)
        assert (t.cells == expected_countsketch_cells(s, t)).all()
