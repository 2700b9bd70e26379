import math
import os
import resource

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import (Estimator, EstimatorConfig, SketchInvariantError, estimator, generate,
                      hashing, seeds)
from f1sketch.countsketch import CELL_LIMIT, CountSketchTable
from f1sketch.estimator import Classification
from f1sketch.hashing import KWiseHash
from f1sketch.oracle import (ExactState, expected_bucket, expected_hash, expected_isolation_row,
                             expected_sign, expected_stable_cells, expected_variate)
from f1sketch.stable import StableVariateSource, stability_constant


def build(n=100, seed=1, accuracy=0.5, cls=Estimator) -> Estimator:
    return cls(EstimatorConfig(accuracy=accuracy, n=n, seed=seed))


# -- configuration ------------------------------------------------------------


def test_config_arithmetic():
    c = EstimatorConfig(accuracy=0.5, n=10**4, seed=0)
    assert c.eps == 0.125
    assert c.budget == 64
    assert c.width == 4096
    assert c.table_depth == 11
    assert c.hh_depth == math.ceil(math.log2(10**4)) + 2 == 16
    assert c.independence == 8
    assert c.heavy_clamp == 327


@given(st.floats(0.0, 0.5, exclude_min=True))
def test_eps_is_a_quarter_of_accuracy_and_meets_the_precondition(accuracy):
    eps = EstimatorConfig(accuracy=accuracy, n=10, seed=0).eps
    assert eps == accuracy / 4 and eps <= 1 / 8


def test_sketch_bytes_at_accuracy_half():
    # 3 stable accumulators plus 11 + 16 CountSketch rows, each of 4,096 8-byte cells
    d = build(n=10**4, seed=0).estimate().diagnostics
    total = d["stable_bytes"] + d["countsketch_bytes"] + d["heavy_hitter_bytes"]
    assert total == (3 + 11 + 16) * 4096 * 8 == 983_040


def test_config_validation():
    for bad in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(ValueError):
            EstimatorConfig(accuracy=bad, n=10, seed=0)
    with pytest.raises(ValueError):
        EstimatorConfig(accuracy=0.5, n=0, seed=0)
    # items are hashed over GF(2**61 - 1): the largest domain is 2**61 - 2
    for n in (2**61 - 1, 2**62, 10**19):
        with pytest.raises(ValueError, match="not below 2\\*\\*61 - 1"):
            EstimatorConfig(accuracy=0.5, n=n, seed=0)
    assert EstimatorConfig(accuracy=0.5, n=2**61 - 2, seed=0).hh_depth == 63
    # n and seed must be integers: a float is refused, not used as a size
    for kwargs in (dict(n=1000.0, seed=0), dict(n=1000.5, seed=0), dict(n=1000, seed=1.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            EstimatorConfig(accuracy=0.5, **kwargs)
    cfg = EstimatorConfig(accuracy=0.5, n=np.int64(1000), seed=np.int64(3))
    assert (cfg.n, cfg.seed) == (1000, 3) and type(cfg.n) is type(cfg.seed) is int
    assert Estimator(cfg).estimate().total == 0.0


def test_memory_cap_rejected():
    # accuracy 1e-3 asks for 6.4e9 buckets per table; the cap check runs
    # before any array is allocated
    with pytest.raises(ValueError, match="above the cap"):
        Estimator(EstimatorConfig(accuracy=1e-3, n=10, seed=0))


def test_same_seed_bitwise_identical_build():
    a = build(seed=42)
    b = build(seed=42)
    assert a.table.bucket_hash.coefficients == b.table.bucket_hash.coefficients
    for ha, hb in zip(a.countsketch.hashes, b.countsketch.hashes):
        assert ha.coefficients == hb.coefficients
    for ha, hb in zip(a.heavy_hitters.hashes, b.heavy_hitters.hashes):
        assert ha.coefficients == hb.coefficients


# -- ingestion ----------------------------------------------------------------


def test_empty_stream_estimates_zero():
    rep = build().estimate()
    assert rep.total == 0.0 and rep.heavy == 0.0 and rep.light == 0.0
    assert rep.heavy_count == 0


def test_single_item_exact_recovery():
    est = build(seed=9)
    est.update(17, 7)
    rep = est.estimate()
    assert rep.total == 7.0 and rep.heavy == 7.0 and rep.light == 0.0
    assert rep.heavy_count == 1


def test_update_rejects_out_of_domain(record_paths):
    for cls in record_paths:
        est = build(n=10, cls=cls)
        for i in (0, 11, -(1 << 63), 1 << 63, np.int64(0), 11.0, False):
            with pytest.raises(ValueError, match=f"^item {i} outside domain \\[1, 10\\]$"):
                est.update(i, 1)
        est.update(10, 1)
        assert est.touched_items().tolist() == [10]


def test_inverse_updates_restore_all_structures():
    est = build(seed=4)
    est.update(5, 11)
    est.update(5, -11)
    est.flush()
    assert not est.table.cells.any()
    assert not est.countsketch.cells.any()
    assert not est.heavy_hitters.cells.any()


def test_single_update_touch_counts():
    est = build(seed=5)
    est.update(33, 2)
    est.flush()
    assert np.count_nonzero(est.table.cells.any(axis=1)) == 1
    assert np.count_nonzero(est.table.cells) == 3
    assert np.count_nonzero(est.countsketch.cells) == est.countsketch.rows
    assert np.count_nonzero(est.heavy_hitters.cells) == est.heavy_hitters.rows


def test_stable_cells_match_oracle_replay():
    est = build(n=100, seed=12)
    state = ExactState(100)
    rng = np.random.default_rng(0)
    items = rng.integers(1, 101, size=10**4)
    deltas = rng.integers(-3, 4, size=10**4)
    est.update_many(items, deltas)
    state.update_many(items, deltas)
    est.flush()
    want = expected_stable_cells(state, est.table)
    scale = np.abs(want).max()
    assert np.allclose(est.table.cells, want, rtol=1e-9, atol=1e-9 * scale)


def test_stable_cells_match_scalar_variate_replay():
    # every cell re-summed from the scalar reference variates, item by item
    est = build(n=40, seed=13)
    rng = np.random.default_rng(1)
    items = rng.integers(1, 41, size=500)
    deltas = rng.integers(-5, 6, size=500)
    est.update_many(items, deltas)
    est.flush()
    state = ExactState(40)
    state.update_many(items, deltas)
    want = np.zeros_like(est.table.cells)
    for i in np.nonzero(state.frequencies)[0] + 1:
        b = expected_hash(est.table.bucket_hash, i)
        for slot in (1, 2, 3):
            want[b - 1, slot - 1] += state.frequencies[i - 1] * expected_variate(
                est.table.source, b, slot, i)
    assert np.allclose(est.table.cells, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_order_of_scalar_and_batch_ingestion_agrees():
    a = build(seed=6)
    b = build(seed=6)
    records = [(3, 2), (9, -1), (3, 5), (50, 7)]
    for i, v in records:
        a.update(i, v)
    b.update_many(np.array([i for i, _ in records]), np.array([v for _, v in records]))
    a.flush()
    b.flush()
    assert a.table.cells.tobytes() == b.table.cells.tobytes()
    assert (a.countsketch.cells == b.countsketch.cells).all()


@given(st.lists(st.tuples(st.integers(1, 60), st.integers(-8, 8)),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_order_invariance_bitwise(records, rnd):
    a = build(n=60, seed=31)
    b = build(n=60, seed=31)
    for i, v in records:
        a.update(i, v)
    shuffled = records[:]
    rnd.shuffle(shuffled)
    for i, v in shuffled:
        b.update(i, v)
    a.flush()
    b.flush()
    assert a.table.cells.tobytes() == b.table.cells.tobytes()
    assert (a.countsketch.cells == b.countsketch.cells).all()
    assert (a.heavy_hitters.cells == b.heavy_hitters.cells).all()


# -- classification -----------------------------------------------------------


def test_single_dominant_item_is_heavy():
    est = build(seed=2)
    est.update(8, 1000)
    cls = est.classify()
    assert list(cls.heavy_items) == [8]
    assert cls.heavy_count == 1


def test_uniform_ones_domain_all_light():
    n = 10**4
    est = build(n=n, seed=3)
    est.update_many(np.arange(1, n + 1), np.ones(n, dtype=np.int64))
    cls = est.classify()
    assert cls.heavy_count == 0
    assert cls.threshold > 1.0
    assert len(cls.light_items) == n


def test_classification_signs():
    est = build(seed=14)
    est.update(1, 500)
    est.update(2, -500)
    cls = est.classify()
    assert set(cls.heavy_items) == {1, 2}
    signs = dict(zip(cls.heavy_items, cls.heavy_signs))
    assert signs[1] == 1 and signs[2] == -1


def test_empty_classification():
    cls = build().classify()
    assert cls.heavy_count == 0
    assert cls.items.size == 0


# -- isolation ----------------------------------------------------------------


def test_isolation_trivial_when_alone():
    est = build(seed=7)
    est.update(5, 100)
    assert expected_isolation_row(est.countsketch.hashes, 5, [5]) == 1


def test_isolation_absent_on_forced_collision():
    # two items forced into the same bucket of every row of a 2-bucket table
    # (row hashes onto [1, 4], two buckets times two signs)
    i1, i2 = 1, 2
    for seed in range(200):
        hashes = [
            KWiseHash.from_seed(seeds.derive_key(seeds.master_key(seed), "iso", j),
                                t=2, n=4, range_size=4)
            for j in range(2)
        ]
        if all(expected_bucket(h, i1) == expected_bucket(h, i2) for h in hashes):
            assert expected_isolation_row(hashes, i1, [i1, i2]) is None
            assert expected_isolation_row(hashes, i2, [i1, i2]) is None
            return
    pytest.fail("no colliding seed found in 200 tries")


def test_isolation_smallest_row_wins():
    # row 1 collides, row 2 separates: the reported index must be 2
    for seed in range(400):
        hashes = [
            KWiseHash.from_seed(seeds.derive_key(seeds.master_key(seed), "iso2", j),
                                t=2, n=4, range_size=8)
            for j in range(2)
        ]
        b1, b2 = ([expected_bucket(h, i) for h in hashes] for i in (1, 2))
        if b1[0] == b2[0] and b1[1] != b2[1]:
            assert expected_isolation_row(hashes, 1, [1, 2]) == 2
            return
    pytest.fail("no suitable seed found")


def test_no_heavy_collision_event_frequency():
    # |H| = ceil(5.1 B) items across C = 64 B buckets with the default
    # depth: every heavy item finds an isolating row almost always
    budget = 25
    cols = 64 * budget
    depth = math.ceil(2 + math.log2(5.1 * budget))
    heavy = np.arange(1, math.ceil(5.1 * budget) + 1, dtype=np.int64)
    ok = 0
    for seed in range(200):
        hashes = [
            KWiseHash.from_seed(seeds.derive_key(seeds.master_key(3000 + seed), "nohvy", j),
                                t=8, n=10**4, range_size=cols)
            for j in range(depth)
        ]
        buckets = np.stack([h.eval_many(heavy) for h in hashes])
        isolated = np.zeros(heavy.size, dtype=bool)
        for j in range(depth):
            counts = np.bincount(buckets[j], minlength=cols + 1)
            isolated |= counts[buckets[j]] == 1
        ok += bool(isolated.all())
    assert ok >= 180


def test_isolation_index_matches_vectorized_table():
    est = build(n=500, seed=8)
    rng = np.random.default_rng(4)
    items = rng.choice(np.arange(1, 501), size=40, replace=False)
    est.update_many(items, np.full(40, 50, dtype=np.int64))
    cls = est.classify()
    heavy = cls.heavy_items
    first, _ = est._isolation_table(heavy)
    for col, item in enumerate(heavy):
        want = expected_isolation_row(est.countsketch.hashes, int(item), heavy)
        got = int(first[col]) + 1 if first[col] >= 0 else None
        assert got == want


# -- heavy estimator ----------------------------------------------------------


def test_heavy_estimate_empty_set():
    assert build().heavy_estimate(Classification.empty()) == 0.0


def test_heavy_estimate_clean_single_item():
    est = build(seed=16)
    est.update(23, -77)
    cls = est.classify()
    assert list(cls.heavy_items) == [23]
    contributions = est.heavy_contributions(cls)
    assert list(contributions) == [77.0]


def forced_heavy(items, signs) -> Classification:
    items = np.asarray(items, dtype=np.int64)
    return Classification(items=items, estimates=np.array(signs, dtype=float),
                          heavy_mask=np.ones(items.size, dtype=bool),
                          threshold=0.0, f2_residual=0.0)


def test_heavy_contribution_mean_matches_magnitude():
    # one heavy item over a light tail with the heavy set pinned to it;
    # isolation is then trivially forced and the read is conditionally
    # unbiased for |f|
    n, heavy_f = 200, 500
    items = np.arange(1, n + 1, dtype=np.int64)
    deltas = np.ones(n, dtype=np.int64)
    deltas[0] = heavy_f
    rng = np.random.default_rng(1)
    deltas[1:] = rng.integers(1, 6, size=n - 1)
    cls = forced_heavy([1], [+1.0])
    ys = []
    for seed in range(400):
        est = build(n=n, seed=20_000 + seed)
        est.update_many(items, deltas)
        ys.append(est.heavy_contributions(cls)[0])
    ys = np.array(ys)
    se = ys.std() / math.sqrt(ys.size)
    assert abs(ys.mean() - heavy_f) <= 3 * max(se, 1e-9)


def test_heavy_pairwise_product_mean():
    # two pinned heavy items: E[Y_i Y_k] = |f_i| |f_k| conditioned on both
    # finding an isolating row, which at this width almost always happens
    n = 200
    items = np.arange(1, n + 1, dtype=np.int64)
    deltas = np.ones(n, dtype=np.int64)
    deltas[0], deltas[1] = 500, -600
    rng = np.random.default_rng(2)
    deltas[2:] = rng.integers(1, 6, size=n - 2)
    cls = forced_heavy([1, 2], [+1.0, -1.0])
    prods = []
    for seed in range(400):
        est = build(n=n, seed=30_000 + seed)
        est.update_many(items, deltas)
        hashes = est.countsketch.hashes
        if (expected_isolation_row(hashes, 1, [1, 2]) is None
                or expected_isolation_row(hashes, 2, [1, 2]) is None):
            continue
        y = est.heavy_contributions(cls)
        prods.append(y[0] * y[1])
    prods = np.array(prods)
    assert prods.size >= 390
    se = prods.std() / math.sqrt(prods.size)
    assert abs(prods.mean() - 500 * 600) <= 3 * max(se, 1e-9)


# -- collision-free buckets and light estimator --------------------------------


def test_collision_free_buckets_empty_heavy_set():
    est = build(seed=17)
    assert est._collision_free_mask(np.zeros(0, dtype=np.int64)).sum() == est.config.width


def test_collision_free_buckets_lower_bound():
    est = build(n=5000, seed=18)
    rng = np.random.default_rng(3)
    heavy = rng.choice(np.arange(1, 5001), size=300, replace=False)
    free = est._collision_free_mask(heavy)
    assert free.sum() >= est.config.width - 300


def test_collision_free_buckets_pigeonhole_exhaustion():
    # one preimage per bucket empties the collision-free set
    est = build(n=400_000, seed=19)
    buckets = est.table.bucket_hash.eval_many(np.arange(1, 400_001, dtype=np.int64))
    first_hit = {}
    for item, b in enumerate(buckets, start=1):
        first_hit.setdefault(int(b), item)
    assert len(first_hit) == est.config.width, "seed does not cover every bucket"
    heavy = np.array(sorted(first_hit.values()), dtype=np.int64)
    assert not est._collision_free_mask(heavy).any()


def test_light_estimate_empty_stream():
    est = build()
    assert est.light_estimate(Classification.empty()) == 0.0


def test_light_estimate_formula_on_tiny_stream():
    est = build(n=50, seed=22)
    est.update(7, 3)
    est.update(31, -4)
    est.flush()
    cells = est.table.cells
    prod = np.abs(cells.prod(axis=1))
    want = stability_constant(1.0, 1.0 / 3.0) ** -3 * (prod ** (1.0 / 3.0)).sum()
    assert est.light_estimate(Classification.empty()) == pytest.approx(want, rel=1e-12)


def test_light_estimate_column_product_equals_row_prod():
    stream = generate("zipf(1.1)", n=2000, m=20000, seed=5)
    est = build(n=stream.n, seed=25)
    est.update_many(stream.items, stream.deltas)
    est.flush()
    cells = est.table.cells
    assert np.count_nonzero(cells.any(axis=1)) > 1000
    assert np.array_equal(cells[:, 0] * cells[:, 1] * cells[:, 2], cells.prod(axis=1))
    cls = est.classify()
    mask = np.ones(est.config.width, dtype=bool)
    mask[est.table.bucket_hash.eval_many(cls.heavy_items) - 1] = False
    total = (np.abs(cells.prod(axis=1))[mask] ** (1.0 / 3.0)).sum()
    want = (est.config.light_correction(cls.heavy_count)
            * stability_constant(1.0, 1.0 / 3.0) ** -3 * total)
    assert est.light_estimate(cls) == want


def test_light_estimate_excludes_heavy_buckets():
    est = build(n=50, seed=23)
    est.update(7, 1000)
    est.update(31, 2)
    est.flush()
    cls = forced_heavy([7], [+1.0])
    bucket_of_heavy = expected_hash(est.table.bucket_hash, 7)
    free = est._collision_free_mask(np.array([7]))
    assert not free[bucket_of_heavy - 1] and free.sum() == est.config.width - 1
    light = est.light_estimate(cls)
    width = est.config.width
    corr = (1 - 1 / width) ** -1
    cells = est.table.cells.copy()
    cells[bucket_of_heavy - 1] = 0.0
    prod = np.abs(cells.prod(axis=1))
    want = corr * stability_constant(1.0, 1.0 / 3.0) ** -3 * (prod ** (1.0 / 3.0)).sum()
    assert light == pytest.approx(want, rel=1e-12)


def test_light_correction_uses_heavy_count():
    est = build(n=5000, seed=24)
    est.update(4999, 3)
    est.flush()
    width = est.config.width
    heavy = np.arange(1, 10, dtype=np.int64)
    cls = forced_heavy(heavy, np.ones(9))
    free = est._collision_free_mask(heavy)
    prod = np.abs(est.table.cells.prod(axis=1))
    base_sum = (prod[free] ** (1.0 / 3.0)).sum()
    want = (1 - 1 / width) ** -9 * stability_constant(1.0, 1.0 / 3.0) ** -3 * base_sum
    assert est.light_estimate(cls) == pytest.approx(want, rel=1e-12)


def test_light_correction_clamped_for_runaway_heavy_set():
    est = build(n=5000, seed=24)
    est.update(4999, 3)
    est.flush()
    clamp = est.config.heavy_clamp
    assert clamp == math.ceil(5.1 * est.config.budget)
    heavy = np.arange(1, clamp + 62, dtype=np.int64)  # above the clamp
    cls = forced_heavy(heavy, np.ones(heavy.size))
    width = est.config.width
    free = est._collision_free_mask(heavy)
    prod = np.abs(est.table.cells.prod(axis=1))
    base_sum = (prod[free] ** (1.0 / 3.0)).sum()
    want = (1 - 1 / width) ** -clamp * stability_constant(1.0, 1.0 / 3.0) ** -3 * base_sum
    assert est.light_estimate(cls) == pytest.approx(want, rel=1e-12)


# -- full estimate ------------------------------------------------------------


def test_estimate_additivity_and_idempotence():
    est = build(n=300, seed=25)
    rng = np.random.default_rng(7)
    est.update_many(rng.integers(1, 301, size=2000), rng.integers(-5, 6, size=2000))
    r1 = est.estimate()
    r2 = est.estimate()
    assert r1.total == r1.heavy + r1.light
    assert (r1.total, r1.heavy, r1.light, r1.heavy_count) == (
        r2.total, r2.heavy, r2.light, r2.heavy_count)


def test_estimate_diagnostics_present():
    est = build(seed=26)
    est.update(1, 5)
    d = est.estimate().diagnostics
    for key in ("updates", "ingest_ns", "classify_ns", "heavy_ns", "light_ns",
                "stable_bytes", "countsketch_bytes", "heavy_hitter_bytes",
                "heavy_clamped", "isolation_failures", "threshold", "f2_residual_estimate"):
        assert key in d
    assert d["updates"] == 1
    assert d["stable_bytes"] == est.config.width * 3 * 8
    assert d["heavy_clamped"] is False
    # the heavy-hitter table alone: an int64 id plus a uint32 cell per row
    assert d["touched_bytes"] == 8 + 4 * est.config.hh_depth


def test_sign_flip_leaves_light_estimate_unchanged():
    rng = np.random.default_rng(9)
    items = rng.integers(1, 201, size=500)
    deltas = rng.integers(1, 6, size=500)
    a = build(n=200, seed=27)
    b = build(n=200, seed=27)
    a.update_many(items, deltas)
    b.update_many(items, -deltas)
    a.flush()
    b.flush()
    assert np.array_equal(np.abs(a.table.cells), np.abs(b.table.cells))
    la = a.light_estimate(Classification.empty())
    lb = b.light_estimate(Classification.empty())
    assert la == lb


def test_scale_homogeneity():
    rng = np.random.default_rng(10)
    items = rng.integers(1, 201, size=400)
    deltas = rng.integers(-4, 5, size=400)
    base = build(n=200, seed=28)
    base.update_many(items, deltas)
    base.flush()
    r_base = base.estimate()
    # powers of two scale even the float accumulators bitwise
    doubled = build(n=200, seed=28)
    doubled.update_many(items, 2 * deltas)
    doubled.flush()
    assert doubled.table.cells.tobytes() == (2.0 * base.table.cells).tobytes()
    assert (doubled.countsketch.cells == 2 * base.countsketch.cells).all()
    r2 = doubled.estimate()
    assert r2.heavy == 2.0 * r_base.heavy
    assert r2.light == pytest.approx(2.0 * r_base.light, rel=1e-12)
    # a general integer factor is exact for counters, 1-ulp for floats
    tripled = build(n=200, seed=28)
    tripled.update_many(items, 3 * deltas)
    tripled.flush()
    assert (tripled.countsketch.cells == 3 * base.countsketch.cells).all()
    assert np.allclose(tripled.table.cells, 3.0 * base.table.cells, rtol=1e-12)
    r3 = tripled.estimate()
    assert r3.heavy == 3.0 * r_base.heavy
    assert r3.light == pytest.approx(3.0 * r_base.light, rel=1e-12)


def test_heap_candidate_mode_end_to_end():
    stream = generate("planted(3,1000,5)", n=100, m=100, seed=12)
    exact = ExactState(stream.n)
    exact.update_many(stream.items, stream.deltas)
    est = Estimator(EstimatorConfig(accuracy=0.5, n=stream.n, seed=99))
    for i, v in zip(stream.items, stream.deltas):
        est.update(int(i), int(v))
    rep = est.estimate()
    f1 = exact.moment(1.0)
    assert abs(rep.total - f1) / f1 <= 0.5
    assert rep.heavy_count >= 3


record = st.tuples(st.integers(1, 40), st.integers(-3, 3))


@given(st.lists(st.one_of(record, st.lists(record, max_size=10), st.just("flush")),
                max_size=30))
@settings(max_examples=40, deadline=None)
def test_touched_items_is_every_item_ever_passed(ops):
    # any mix of update, update_many and flush; item 41 nets to zero
    est = build(n=41, seed=33)
    seen = [41]
    est.update_many(np.array([41, 41]), np.array([5, -5]))
    for op in ops:
        if op == "flush":
            est.flush()
        elif isinstance(op, tuple):
            est.update(*op)
            seen.append(op[0])
        else:
            est.update_many(np.array([i for i, _ in op], dtype=np.int64),
                            np.array([v for _, v in op], dtype=np.int64))
            seen += [i for i, _ in op]
    want = np.unique(np.array(seen, dtype=np.int64))
    got = est.touched_items()
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    got[:] = 0
    assert np.array_equal(est.touched_items(), want)


def hashed_cells(table) -> np.ndarray:
    """Packed cells of a table's touched items worked out from scratch with
    each row's own hash: bucket << 1 | (sign == -1), one row per item, where
    w = hash - 1 has bucket w mod cols and sign -1 exactly when w >= cols."""
    items = table.touched_items()
    return np.stack([(w % table.cols) << 1 | (w >= table.cols)
                     for w in (h.eval_many(items) - 1 for h in table.hashes)],
                    axis=1).astype(np.uint32)


PATHS = [k for k in (hashing._kernel,) if k is not None] + [None]
direct = st.lists(st.tuples(st.integers(1, 41), st.integers(-3, 3)), min_size=1, max_size=10)


@pytest.mark.parametrize("kernel", PATHS)
@given(st.lists(st.one_of(record, st.lists(record, max_size=10), st.just("flush"),
                          st.tuples(st.just("direct"), direct),
                          st.tuples(st.just("overflow"), st.integers(1, 41))),
                max_size=30))
@settings(max_examples=40, deadline=None)
def test_cached_cells_are_the_touched_items_hashed(kernel, ops):
    # any mix of update, update_many and flush, direct table calls with
    # unsorted repeats, and batches the cell guard refuses after writing;
    # item 41 nets to zero
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hashing, "_kernel", kernel)
        est = build(n=41, seed=34)
        est.update_many(np.array([41, 41]), np.array([5, -5]))
        for op in ops:
            if op == "flush":
                est.flush()
            elif isinstance(op, list):
                est.update_many(np.array([i for i, _ in op], dtype=np.int64),
                                np.array([v for _, v in op], dtype=np.int64))
            elif op[0] == "direct":
                est.heavy_hitters.update_many(np.array([i for i, _ in op[1]], dtype=np.int64),
                                              np.array([v for _, v in op[1]], dtype=np.int64))
            elif op[0] == "overflow":
                est.flush()
                table = est.heavy_hitters
                before, saved = table.touched_items(), table.cells.copy()
                table.cells[:] = CELL_LIMIT  # every cell a zero delta writes is over
                with pytest.raises(SketchInvariantError):
                    table.update_many(np.array([op[1], 1]), np.array([0, 0]))
                table.cells[:] = saved
                assert np.array_equal(table.touched_items(), before)
            else:
                est.update(*op)
        est.flush()
        table = est.heavy_hitters
        got = table.touched_cells()
        assert got.dtype == np.uint32 and got.flags.c_contiguous
        assert got.tobytes() == hashed_cells(table).tobytes()
        assert table.touched_nbytes() == table.touched_items().size * (8 + 4 * table.rows)
        with pytest.raises(ValueError):
            got[0, 0] = 1  # a read-only view of the cache
        # the isolation table keeps no touched items: it hashes the heavy set
        assert est.countsketch.touched_nbytes() == 0


@pytest.mark.parametrize("kernel", PATHS)
def test_heavy_contributions_match_the_oracle_on_a_narrow_table(kernel, monkeypatch):
    # a 4 x 8 isolation table under 12 forced-heavy items, touched or not:
    # some settle past the first row and some in none
    monkeypatch.setattr(hashing, "_kernel", kernel)
    n = 200
    est = build(n=n, seed=36)
    est.countsketch = cs = CountSketchTable.from_seed(seeds.master_key(37), 4, 8, n)
    rng = np.random.default_rng(5)
    est.update_many(rng.integers(1, n + 1, size=600), rng.integers(-9, 10, size=600))
    heavy = rng.choice(np.arange(1, n + 1), size=12, replace=False)
    signs = rng.choice([-1.0, 1.0], size=12)
    got = est.heavy_contributions(forced_heavy(heavy, signs))
    rows = [expected_isolation_row(cs.hashes, int(i), heavy) for i in heavy]
    assert None in rows and any(r is not None and r >= 2 for r in rows)
    want = [0.0 if r is None else float(
        cs.cells[r - 1, expected_bucket(cs.hashes[r - 1], int(i)) - 1]
        * expected_sign(cs.hashes[r - 1], int(i)) * int(sgn))
        for i, r, sgn in zip(heavy, rows, signs)]
    # both signs are read, so a sign taken from the wrong side of cols shows
    assert {expected_sign(cs.hashes[r - 1], int(i)) for i, r in zip(heavy, rows) if r} == {-1, 1}
    assert got.tolist() == want
    first, _ = est._isolation_table(heavy)
    assert [r - 1 if r else -1 for r in rows] == first.tolist()


# -- overflow guard, hashing per estimate, numpy reference path ---------------


def test_overflow_guard_runs_before_aggregation_scalar():
    # four 2**62 deltas to one item sum to 0 mod 2**64; the guard must see
    # the raw records, not the wrapped sum
    est = build(n=10)
    for _ in range(4):
        est.update(1, 1 << 62)
    est.update(2, 5)
    with pytest.raises(SketchInvariantError):
        est.estimate()
    assert not est.countsketch.cells.any() and not est.table.cells.any()


def test_update_many_rejects_non_integer_input():
    est = build(n=10)
    with pytest.raises(ValueError, match="items"):
        est.update_many(np.array([1.9, 2.2]), np.array([2, 1]))
    with pytest.raises(ValueError, match="deltas"):
        est.update_many(np.array([1, 2]), np.array([2.7, -0.5]))
    for bad in (np.nan, np.inf, 2.0**63):
        with pytest.raises(ValueError, match="deltas"):
            est.update_many(np.array([1, 2]), np.array([1.0, bad]))
    with pytest.raises(ValueError, match="deltas"):
        est.update_many(np.array([1]), np.array([2**63], dtype=np.uint64))
    # whole-valued floats and every integer dtype are accepted as they are
    est.update_many(np.array([1.0, 2.0]), np.array([3.0, -4.0]))
    est.update_many(np.array([3], dtype=np.uint8), np.array([5], dtype=np.int16))
    est.update_many([4], [True])
    assert est.touched_items().tolist() == [1, 2, 3, 4]
    assert est.estimate().total > 0


def test_update_many_refuses_a_batch_of_unequal_lengths_at_the_call():
    # refused when passed, so the batch buffered before it is kept
    est = build(n=10)
    est.update_many([4, 5], [1, 1])
    with pytest.raises(ValueError, match="one delta per item"):
        est.update_many([1, 2, 3], [1, 2])
    rep = est.estimate()
    assert est.touched_items().tolist() == [4, 5] and rep.diagnostics["updates"] == 2
    assert rep.heavy_count == 2 and rep.total == 2.0


def test_update_many_refuses_broadcast_and_multi_dimensional_arrays():
    # a scalar delta would be broadcast past the 2**62 guard, which sums
    # the deltas as passed: four 2**61 deltas wrap int64
    est = build(n=10)
    for items, deltas in (([1, 1, 1, 1], 2**61), (4, 1), ([[1, 2]], [[1, 1]]),
                          ([1, 2], [[1, 1]])):
        with pytest.raises(ValueError, match="1-D arrays of one shape"):
            est.update_many(items, deltas)
    est.flush()
    assert est.touched_items().size == 0 and est.estimate().diagnostics["updates"] == 0
    assert not est.table.cells.any() and not est.countsketch.cells.any()


def test_scalar_update_rejects_non_integer_at_flush(record_paths):
    for cls in record_paths:
        est = build(n=10, cls=cls)
        est.update(1, 2.7)
        est.update(2, 5)
        with pytest.raises(ValueError, match="deltas"):
            est.flush()
        # the refused batch is dropped whole, like one that trips the overflow guard
        assert est.touched_items().size == 0 and not est.table.cells.any()
        est.update(1.5, 1)
        with pytest.raises(ValueError, match="items"):
            est.estimate()
        est.update(3, 4.0)
        est.update(np.int64(5), 2)
        assert est.touched_items().tolist() == [3, 5]


def test_updates_count_only_the_records_of_flushes_that_succeeded(record_paths):
    for cls in record_paths:
        est = build(n=10, cls=cls)
        est.update(1, 2.7)
        est.update(2, 5)
        with pytest.raises(ValueError, match="deltas"):
            est.flush()
        est.update_many([1, 2, 3, 4], [2**62] * 4)
        est.update(5, 1)
        with pytest.raises(SketchInvariantError):
            est.flush()
        rep = est.estimate()
        assert est.touched_items().size == 0 and rep.total == 0.0
        assert rep.diagnostics["updates"] == 0
        est.update(3, 4)
        est.update_many([5, 6], [1, -1])
        assert est.estimate().diagnostics["updates"] == 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_never_reach_the_parent(record_paths):
    # the parent's buffered record stays its own too: the child flushes it
    for cls in record_paths:
        est = build(n=100, seed=40, cls=cls)
        est.update(7, 3)
        pid = os.fork()
        if pid == 0:  # the child ingests into its copy and reports by exit code
            code = 1
            try:
                est.update_many(np.arange(1, 51), np.ones(50, dtype=np.int64))
                est.update(60, 2)
                est.flush()
                code = 0 if est.touched_items().tolist() == list(range(1, 51)) + [60] else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        for cells in (est.table.cells, est.countsketch.cells, est.heavy_hitters.cells):
            assert not cells.any()
        assert est.touched_items().tolist() == [7]
        assert est.estimate().diagnostics["updates"] == 1


def test_overflow_guard_runs_before_aggregation_batch():
    est = build(n=10)
    est.update_many(np.array([1, 1, 1, 1, 2]), np.array([1 << 62] * 4 + [5]))
    with pytest.raises(SketchInvariantError):
        est.flush()
    assert not est.heavy_hitters.cells.any()


def test_estimate_hashes_each_item_once_per_table(monkeypatch):
    s = generate("zipf(1.1)", n=3000, m=30_000, seed=12)
    est = build(n=s.n, seed=13)
    est.update_many(s.items, s.deltas)
    est.flush()
    calls = []
    original = KWiseHash.eval_many

    def counting(self, items):
        calls.append((self, int(np.size(items))))
        return original(self, items)

    monkeypatch.setattr(KWiseHash, "eval_many", counting)
    report = est.estimate()
    # the heavy-hitter table reads its touched items' cells from the cache
    # ingest filled; isolation and the stable buckets hash only the heavy
    # set, each isolation row at most once for bucket and sign together
    assert report.heavy_count > 0
    cs = est.countsketch
    assert {h for h, _ in calls} <= set(cs.hashes) | {est.table.bucket_hash}
    assert (est.table.bucket_hash, report.heavy_count) in calls
    assert all(size == report.heavy_count for _, size in calls)
    rows = [h for h, _ in calls if h in cs.hashes]
    assert rows and len(rows) == len(set(rows))


def test_numpy_path_gives_identical_answers(monkeypatch):
    s = generate("zipf(1.1)", n=5000, m=50_000, seed=14)

    def run():
        est = build(n=s.n, seed=15)
        est.update_many(s.items[:20_000], s.deltas[:20_000])
        for i, v in zip(s.items[20_000:20_100].tolist(), s.deltas[20_000:20_100].tolist()):
            est.update(i, v)
        est.update_many(s.items[20_100:], s.deltas[20_100:])
        r = est.estimate()
        fields = (r.total, r.heavy, r.light, r.heavy_count, r.light_correction,
                  r.diagnostics["threshold"], r.diagnostics["f2_residual_estimate"])
        cells = [est.table.cells, est.countsketch.cells, est.heavy_hitters.cells]
        return repr(fields), b"".join(c.tobytes() for c in cells)

    active = run()
    monkeypatch.setattr(hashing, "_kernel", None)
    assert run() == active


@given(st.lists(st.tuples(st.integers(1, 80), st.integers(-9, 9)), min_size=2, max_size=60),
       st.lists(st.integers(1, 59), max_size=8, unique=True))
@settings(max_examples=30, deadline=None)
def test_flush_partitions_keep_counters_and_near_stable_cells(records, cuts):
    # across flush boundaries the integer counters agree bitwise; the
    # float stable cells agree to within 1e-9 of the largest cell
    whole = build(n=80, seed=32)
    parted = build(n=80, seed=32)
    for i, v in records:
        whole.update(i, v)
    whole.flush()
    for lo, hi in zip([0] + sorted(cuts), sorted(cuts) + [len(records)]):
        for i, v in records[lo:hi]:
            parted.update(i, v)
        parted.flush()
    assert (whole.countsketch.cells == parted.countsketch.cells).all()
    assert (whole.heavy_hitters.cells == parted.heavy_hitters.cells).all()
    scale = np.abs(whole.table.cells).max()
    assert np.abs(whole.table.cells - parted.table.cells).max() <= 1e-9 * scale


# -- dense aggregation and the per-update cell count ----------------------------


def numpy_dense_sums(items, deltas, n):
    """`estimator._dense_sums` through the numpy twin of `dense_sums64`."""
    kernel = hashing._kernel
    hashing._kernel = None
    try:
        return estimator._dense_sums(items, deltas, n)
    finally:
        hashing._kernel = kernel


INT64 = st.integers(-2**63, 2**63 - 1)


@given(st.lists(st.tuples(st.integers(1, 300), st.one_of(st.integers(-5, 5), INT64)),
                min_size=1, max_size=120),
       st.integers(0, 2000))
@settings(max_examples=80, deadline=None)
def test_dense_and_sorted_aggregation_agree(records, extra):
    # n = largest item + extra falls on both sides of flush's n <= 4 * records
    # cut-over; small deltas make cancelling (net-zero) items common, and
    # full-range ones make int64 sums wrap
    items = np.array([i for i, _ in records], dtype=np.int64)
    deltas = np.array([v for _, v in records], dtype=np.int64)
    n = int(items.max()) + extra
    dense = estimator._dense_sums(items, deltas, n)
    ordered = estimator._sorted_sums(items, deltas)
    reference = numpy_dense_sums(items, deltas, n)
    assert [a.dtype for a in dense] == [a.dtype for a in ordered] == [np.int64] * 2
    assert [a.tobytes() for a in dense] == [a.tobytes() for a in ordered]
    assert [a.tobytes() for a in dense] == [a.tobytes() for a in reference]
    sums = {}
    for i, v in records:
        sums[i] = (sums.get(i, 0) + v + 2**63) % 2**64 - 2**63
    assert ordered[0].tolist() == sorted(sums)
    assert ordered[1].tolist() == [sums[i] for i in sorted(sums)]


def test_kernel_dense_sums_refuse_items_outside_the_arrays():
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            for items in ([1, 5], [-1, 2]):
                with pytest.raises(ValueError, match="outside"):
                    hashing.dense_sums(np.array(items), np.array([1, 1]), 5)
            with pytest.raises(ValueError, match="one delta per item"):
                hashing.dense_sums(np.array([1, 2]), np.array([1]), 5)


@pytest.mark.parametrize("accuracy", [0.5, 0.3])
@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_one_update_changes_a_fixed_number_of_cells(accuracy, path, monkeypatch):
    # the paper's claim on update work: one record changes 3 stable cells and
    # one cell per CountSketch row, however wide (eps^-2) the tables grow
    if path == "kernel" and hashing._kernel is None:
        pytest.skip("needs the C kernel")
    if path == "numpy":
        monkeypatch.setattr(hashing, "_kernel", None)
    s = generate("zipf(1.1)", n=2000, m=20_000, seed=21)
    est = build(n=s.n, seed=22, accuracy=accuracy)
    est.update_many(s.items, s.deltas)
    est.flush()
    tables = (est.table, est.countsketch, est.heavy_hitters)
    before = [t.cells.copy() for t in tables]
    est.update(1234, -3)
    est.flush()
    changed = [int((t.cells != b).sum()) for t, b in zip(tables, before)]
    assert changed == [3, est.config.table_depth, est.config.hh_depth]


def horner_multiplications(est: Estimator) -> int:
    """Field multiplications that hashing one distinct item takes: one per
    Horner step, so the degree of the stable table's bucket hash and of
    every row's one hash, for bucket and sign, of both CountSketch tables."""
    hashes = [est.table.bucket_hash]
    for table in (est.countsketch, est.heavy_hitters):
        hashes += table.hashes
    return sum(len(h.coefficients) - 1 for h in hashes)


def test_one_polynomial_per_countsketch_row():
    # accuracy 0.5 at n = 1e4: 1 + 11 + 16 polynomials of degree 7
    est = build(n=10**4)
    assert (est.countsketch.rows, est.heavy_hitters.rows) == (11, 16)
    assert horner_multiplications(est) == 196


def test_update_work_grows_polylogarithmically_while_width_grows_quadratically():
    # the paper's claim on update time: hashing work per distinct item is
    # O(log^2 1/eps) while the tables widen as eps^-2. Construction touches
    # no cell, so even the 105 MB of accuracy 0.05 costs address space only.
    accuracies = (0.5, 0.3, 0.2, 0.1, 0.05)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ests = [build(n=1000, accuracy=a) for a in accuracies]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    cell_pages = sum(e.table.nbytes() + e.countsketch.nbytes() + e.heavy_hitters.nbytes()
                     for e in ests) // 4096
    assert faults < cell_pages // 100
    work = [horner_multiplications(e) for e in ests]
    squared_logs = [math.log2(1 / e.config.eps) ** 2 for e in ests]
    assert ests[-1].config.width == 100 * ests[0].config.width
    assert work == sorted(work)
    assert all(w / sq <= work[0] / squared_logs[0] for w, sq in zip(work, squared_logs))


# -- isolation failures, scalar records, compiled reads ---------------------------


def test_isolation_failures_count_heavy_items_no_row_isolates(monkeypatch):
    # constant row hashes put every item in one bucket of every isolation
    # row, so two or more heavy items are never alone in a cell
    def stream(est):
        est.update_many(np.array([1, 2, 3, 4]), np.array([900, -700, 2, 1]))
        return est

    est = build(n=50, seed=40)
    cs = est.countsketch
    est.countsketch = CountSketchTable(cs.rows, cs.cols, hashes=[
        KWiseHash([5 + j], range_size=2 * cs.cols) for j in range(cs.rows)])
    stream(est).flush()
    calls = []
    original = Estimator._isolation_table

    def counting(self, heavy):
        calls.append(heavy.size)
        return original(self, heavy)

    monkeypatch.setattr(Estimator, "_isolation_table", counting)
    r = est.estimate()
    assert calls == [r.heavy_count] and r.heavy_count >= 2
    assert r.diagnostics["isolation_failures"] == r.heavy_count and r.heavy == 0.0
    assert stream(build(n=50, seed=40)).estimate().diagnostics["isolation_failures"] == 0


def test_scalar_updates_take_numpy_ints_bools_and_mixed_lists():
    # each list is read as `update_many` reads the same values as an array
    records = [(np.int64(3), np.int32(-2)), (True, 5), (4, True), (np.uint64(5), np.int8(7)),
               (6, 2**60), (7, -(2**60)), (3, np.False_)]
    for extra in ([], [(8, 4.0)], [(np.uint8(9), np.float64(-3.0))]):
        scalar, batch = build(n=10, seed=41), build(n=10, seed=41)
        for i, v in records + extra:
            scalar.update(i, v)
        items, deltas = zip(*records, *extra)
        batch.update_many(np.array([int(i) for i in items]), np.array([int(v) for v in deltas]))
        scalar.flush()
        batch.flush()
        assert scalar.heavy_hitters.cells.tobytes() == batch.heavy_hitters.cells.tobytes()
        assert scalar.touched_items().tolist() == batch.touched_items().tolist()
    for bad in (2**63, 2.5):
        est = build(n=10, seed=41)
        est.update(1, 3)
        est.update(2, bad)
        with pytest.raises(ValueError, match="deltas"):
            est.flush()


@given(st.lists(st.tuples(st.integers(1, 2000), st.integers(-300, 300)), min_size=1,
                max_size=400),
       st.sampled_from([0.5, 0.3]), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_kernel_and_numpy_reads_give_identical_reports_at_13_rows(records, accuracy, seed):
    # n = 2000: 13 heavy-hitter rows, so the skim's last block is a short one
    def run():
        est = build(n=2000, seed=seed, accuracy=accuracy)
        items, deltas = zip(*records)
        est.update_many(np.array(items), np.array(deltas))
        r, c = est.estimate(), est.classify()
        return (repr((r.total, r.heavy, r.light, r.heavy_count, r.diagnostics["threshold"],
                      r.diagnostics["f2_residual_estimate"])), c.estimates.tobytes())

    assert build(n=2000).heavy_hitters.rows == 13
    active = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hashing, "_kernel", None)
        assert run() == active


# -- compiled stable adds, the exact guard and exact integer input ------------


def stable_table(cols: int, seed: int = 5) -> estimator.StableTable:
    key = seeds.master_key(seed)
    return estimator.StableTable(cols, KWiseHash.from_seed(seeds.derive_key(key, "b"), 8, 10**6,
                                                           cols),
                                 StableVariateSource(seeds.derive_key(key, "v")))


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@pytest.mark.parametrize("cols", [1, 5, 4096])
def test_kernel_stable_add_matches_np_add_at_bitwise(cols):
    # repeated buckets, deltas large enough to round as doubles, two batches
    rng = np.random.default_rng(cols)
    items = rng.integers(1, 10**6, size=300)
    items[150:] = items[:150]
    deltas = rng.integers(-2**61, 2**61, size=300) >> rng.integers(0, 60, size=300)
    cells = []
    for kernel in (hashing._kernel, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            t = stable_table(cols)
            t.update_many(items, deltas)
            t.update_many(items[::-1], -deltas // 3)
            cells.append(t.cells.tobytes())
    assert cells[0] == cells[1]


def test_kernel_stable_add_takes_non_finite_products_as_np_add_at_does():
    buckets = np.array([1, 2, 1, 3])
    deltas = np.array([1, -2, 3, 0])
    variates = np.array([[np.inf, 1.0, 2.0], [np.nan, -np.inf, 0.5], [-np.inf, 3.0, 1e308],
                         [np.inf, 1.0, 1.0]])  # 0 * inf is nan
    want = np.zeros((3, 3))
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(want, buckets - 1, deltas[:, None] * variates)
    for kernel in PATHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            got = np.zeros((3, 3))
            with np.errstate(invalid="ignore", over="ignore"):
                hashing.stable_add(got, buckets, deltas, variates)
            assert got.tobytes() == want.tobytes() and not np.isfinite(got).all()
            for bad in ((got, buckets, deltas[:3], variates),
                        (got, buckets, deltas, variates[:, :2]),
                        (np.zeros((3, 4)), buckets, deltas, variates),
                        (got.astype(np.float32), buckets, deltas, variates)):
                with pytest.raises(ValueError, match="stable_add needs"):
                    hashing.stable_add(*bad)
            with pytest.raises(ValueError, match="bucket outside"):
                hashing.stable_add(np.zeros((3, 3)), np.array([4]), np.array([1]),
                                   np.ones((1, 3)))


@pytest.mark.parametrize("kernel", [k for k in (hashing._kernel,) if k is not None] + [None])
def test_non_finite_stable_product_raises_on_both_paths(kernel, monkeypatch):
    monkeypatch.setattr(hashing, "_kernel", kernel)
    class Infinite:
        def variates_for(self, buckets, items):
            return np.full((len(items), 3), np.inf)

    t = stable_table(7)
    t.source = Infinite()
    with pytest.raises(SketchInvariantError, match="not finite"):
        t.update_many(np.array([1, 2]), np.array([1, -1]))


@pytest.mark.parametrize("kernel", PATHS)
def test_stable_add_reports_only_the_cells_it_writes(kernel, monkeypatch):
    # the guard judges the rows a batch writes, not the whole table
    monkeypatch.setattr(hashing, "_kernel", kernel)
    cells = np.zeros((4, 3))
    assert hashing.stable_add(cells, np.array([1, 2]), np.array([1, -1]), np.ones((2, 3))) is False
    with np.errstate(over="ignore"):
        assert hashing.stable_add(cells, np.array([2, 1]), np.array([2**62, 3]),
                                  np.array([[1e300, 1.0, 1.0], [1.0, 1.0, 1.0]])) is True
    assert not np.isfinite(cells[1, 0]) and np.isfinite(np.delete(cells, 1, axis=0)).all()
    assert hashing.stable_add(cells, np.array([3, 4]), np.array([1, 1]), np.ones((2, 3))) is False
    assert hashing.stable_add(cells, np.array([3, 2]), np.array([1, 1]), np.ones((2, 3))) is True


@pytest.mark.parametrize("kernel", PATHS)
def test_flush_after_a_refused_non_finite_flush_still_raises(kernel, monkeypatch):
    # a later batch that writes only finite cells leaves the earlier
    # infinite one in the table, so its flush is refused too
    monkeypatch.setattr(hashing, "_kernel", kernel)
    est = build(n=100)
    source = est.table.source

    class Infinite:
        def variates_for(self, buckets, items):
            return np.full((len(items), 3), np.inf)

    est.table.source = Infinite()
    est.update(1, 1)
    with pytest.raises(SketchInvariantError, match="not finite"):
        est.flush()
    est.table.source = source
    for item in (2, 3):
        est.update(item, 1)
        with pytest.raises(SketchInvariantError, match="not finite"):
            est.flush()


@pytest.mark.parametrize("kernel", [k for k in (hashing._kernel,) if k is not None] + [None])
def test_flush_guard_is_exact_at_its_boundary(kernel, monkeypatch):
    # a delta of 2**62 - 1 was refused when float64 summed it; a batch whose
    # exact sum of |delta| is 2**62, or that holds -2**63, still is
    monkeypatch.setattr(hashing, "_kernel", kernel)
    est = build(n=10)
    est.update(3, CELL_LIMIT - 1)
    est.flush()
    assert est.touched_items().tolist() == [3]
    assert np.abs(est.heavy_hitters.cells).max() == CELL_LIMIT - 1
    for deltas in ([CELL_LIMIT - 1, 1], [-(1 << 61), 1 << 61], [-(1 << 63)]):
        est = build(n=10)
        est.update_many(np.arange(1, len(deltas) + 1), np.array(deltas))
        with pytest.raises(SketchInvariantError, match="batch magnitude"):
            est.flush()
        assert est.touched_items().size == 0 and not est.table.cells.any()


def test_whole_floats_next_to_large_ints_do_not_round_them():
    # float64 holds 2**60 + 1 as 2**60: a float in the batch once sent every
    # int in it through float64, so the counters differed from the int batch
    big = 2**60 + 1
    want = build(n=10, seed=43)
    want.update_many(np.array([1, 2, 3]), np.array([big, 3, -big]))
    want.flush()
    scalar, listed = build(n=10, seed=43), build(n=10, seed=43)
    for i, v in ((1, big), (2, 3.0), (3, -big)):
        scalar.update(i, v)
    listed.update_many([1.0, 2, 3], [big, np.float64(3.0), -big])
    for est in (scalar, listed):
        est.flush()
        for name in ("heavy_hitters", "countsketch"):
            assert getattr(est, name).cells.tobytes() == getattr(want, name).cells.tobytes()
        assert est.table.cells.tobytes() == want.table.cells.tobytes()
    with pytest.raises(ValueError, match="deltas"):
        listed.update_many([1, 2], [big, 2.5])


def test_ints_beyond_int64_are_refused_with_value_error():
    # below -2**63 numpy made an object array whose conversion raised
    # OverflowError; both ends, on both ways in, now raise ValueError
    for bad in (-(2**63) - 1, 2**63, 2**64, -(2**70)):
        est = build(n=10)
        est.update(1, 3)
        est.update(2, bad)
        with pytest.raises(ValueError, match="deltas"):
            est.flush()
        with pytest.raises(ValueError, match="deltas"):
            est.update_many([1, 2], [3, bad])
        with pytest.raises(ValueError, match="deltas"):
            est.update_many(np.array([1, 2]), np.array([3, bad], dtype=object))
        with pytest.raises(ValueError, match="items"):
            est.update_many([1, bad], [3, 4])
        assert est.touched_items().size == 0


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
def test_flush_of_scalar_records_and_arrays_gives_identical_cells_on_both_paths():
    rng = np.random.default_rng(44)
    items = rng.integers(1, 3000, size=2500)
    deltas = rng.integers(-2**40, 2**40, size=2500)
    states = []
    for kernel in (hashing._kernel, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            est = build(n=3000, seed=45)
            for i, v in zip(items[:1200].tolist(), deltas[:1200].tolist()):
                est.update(i, v)
            est.update_many(items[1200:], deltas[1200:])
            est.flush()
            states.append([a.tobytes() for a in (est.table.cells, est.countsketch.cells,
                                                 est.heavy_hitters.cells, est.touched_items(),
                                                 est.heavy_hitters.touched_cells())])
    assert states[0] == states[1]
