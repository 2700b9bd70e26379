"""Acceptance suite: every guarantee the estimator ships with, checked at
its stated tolerance. One printed line per criterion (run with -s to see
them on success)."""

import math

import numpy as np
import pytest

from f1sketch import Estimator, EstimatorConfig
from f1sketch.oracle import ExactState, expected_countsketch_cells, expected_stable_cells
from f1sketch.stable import kp_constant, stability_constant


def report(num: int, name: str, detail: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_end_to_end_accuracy(zipf_battery):
    exact = zipf_battery["exact"]["f1"]
    errs = np.array([abs(r["total"] - exact) / max(exact, 1.0)
                     for r in zipf_battery["rows"]])
    frac = float((errs <= 0.5).mean())
    report(1, "end-to-end accuracy",
           f"success fraction {frac:.3f} at rel err <= 0.5 (need >= 0.55), "
           f"median rel err {np.median(errs):.4f}", frac >= 0.55)


def test_criterion_02_light_unbiasedness(light_battery):
    ests = light_battery["estimates"]
    n = light_battery["n"]
    se = ests.std(ddof=1) / math.sqrt(ests.size)
    dev = abs(ests.mean() - n)
    report(2, "light unbiasedness",
           f"mean {ests.mean():.2f} vs {n}, |dev| {dev:.2f} <= 3 SE = {3 * se:.2f}",
           dev <= 3 * se)


def test_criterion_03_light_variance(light_battery):
    ests = light_battery["estimates"]
    n, width = light_battery["n"], light_battery["width"]
    k1 = kp_constant(1.0)
    # all-ones vector with the heavy set empty: correction is exactly 1
    bound = (k1 - 1.0) * n + (k1 / width) * n**2
    sample_var = float(ests.var(ddof=1))
    report(3, "light variance",
           f"sample var {sample_var:.1f} <= 1.1 * bound = {1.1 * bound:.1f}",
           sample_var <= 1.1 * bound)


def test_criterion_04_heavy_estimator(planted_battery):
    eps = planted_battery["eps"]
    f1 = planted_battery["exact_f1"]
    tol = 3.6 * eps * f1
    ok = np.array([abs(r["heavy_hat"] - r["heavy_true"]) <= tol
                   for r in planted_battery["rows"]])
    frac = float(ok.mean())
    report(4, "heavy estimator",
           f"|heavy_hat - heavy_true| <= {tol:.1f} in {frac:.3f} of trials "
           f"(need >= 0.60)", frac >= 0.60)


def test_criterion_05_heavy_set_bound(zipf_battery):
    clamp = 5.1 * zipf_battery["budget"]
    counts = np.array([r["heavy_count"] for r in zipf_battery["rows"]])
    frac = float((counts <= clamp).mean())
    report(5, "heavy-set bound",
           f"|H| <= {clamp:.0f} in {frac:.3f} of trials (need >= 0.95), "
           f"max |H| {counts.max()}", frac >= 0.95)


def test_criterion_06_tail_bound():
    rng = np.random.default_rng(20240906)
    checks = total = 0
    for trial in range(1000):
        size = int(rng.integers(1, 200))
        kind = trial % 3
        if kind == 0:
            f = rng.integers(-100, 101, size=size)
        elif kind == 1:
            ranks = np.arange(1, size + 1, dtype=float)
            f = np.round(500 / ranks ** 1.1).astype(np.int64)
            f *= rng.choice([-1, 1], size=size)
        else:
            f = rng.integers(0, 3, size=size)
        state = ExactState.from_frequencies(f)
        budget = int(rng.integers(1, 50))
        for p, q in ((1.0, 2.0), (0.5, 1.0), (1.0, 3.0)):
            total += 1
            checks += state.check_tail_bound(p, q, budget).holds
    report(6, "tail bound",
           f"inequality held in {checks}/{total} checks (need all)",
           checks == total)


def test_criterion_07_residual_sandwich(zipf_battery):
    k = zipf_battery["budget"]
    exact_res = zipf_battery["exact"]["res_b"]
    upper = exact_res * (1.0 + 2.0 * math.sqrt(k) + k)
    vals = np.array([r["set_residual_b"] for r in zipf_battery["rows"]])
    ok = (exact_res <= vals) & (vals <= upper)
    frac = float(ok.mean())
    report(7, "residual sandwich",
           f"res(top-{k} set) in [{exact_res:.3g}, {upper:.3g}] in {frac:.3f} "
           f"of trials (need >= 0.95)", frac >= 0.95)


def test_criterion_08_point_guarantee(zipf_battery):
    fracs = np.array([r["point_ok_fraction"] for r in zipf_battery["rows"][:50]])
    med = float(np.median(fracs))
    report(8, "point-estimate guarantee",
           f"median per-trial in-bound fraction {med:.4f} over 50 trials "
           f"(need >= 0.99)", med >= 0.99)


def test_criterion_09_constants():
    c = stability_constant(1.0, 2.0 / 3.0)
    k = kp_constant(1.0)
    ok = abs(c - 2.0) <= 1e-9 and abs(k - 3.375) <= 1e-9
    report(9, "moment constants",
           f"C(1,2/3) = {c!r}, K_1 = {k!r} (each to 1e-9)", ok)


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(31415)
    bad = 0
    for seed in range(20):
        n = int(rng.integers(5, 51))
        est = Estimator(EstimatorConfig(accuracy=0.5, n=n, seed=90_000 + seed))
        state = ExactState(n)
        items = rng.integers(1, n + 1, size=1000)
        deltas = rng.integers(-20, 21, size=1000)
        est.update_many(items, deltas)
        state.update_many(items, deltas)
        est.flush()
        for table in (est.countsketch, est.heavy_hitters):
            if not (table.cells == expected_countsketch_cells(state, table)).all():
                bad += 1
        want = expected_stable_cells(state, est.table)
        scale = max(np.abs(want).max(), 1.0)
        if not np.allclose(est.table.cells, want, rtol=1e-9, atol=1e-9 * scale):
            bad += 1
    report(10, "oracle equivalence",
           f"{bad} structure mismatches over 20 seeds (need 0)", bad == 0)


def test_criterion_11_order_invariance():
    rng = np.random.default_rng(27182)
    mismatches = comparisons = 0
    for trial in range(20):
        n = int(rng.integers(10, 80))
        count = int(rng.integers(5, 120))
        items = rng.integers(1, n + 1, size=count)
        deltas = rng.integers(-9, 10, size=count)
        ref = Estimator(EstimatorConfig(accuracy=0.5, n=n, seed=50_000 + trial))
        ref.update_many(items, deltas)
        ref.flush()
        for _ in range(5):
            perm = rng.permutation(count)
            other = Estimator(EstimatorConfig(accuracy=0.5, n=n, seed=50_000 + trial))
            other.update_many(items[perm], deltas[perm])
            other.flush()
            comparisons += 1
            same = (
                other.table.cells.tobytes() == ref.table.cells.tobytes()
                and (other.countsketch.cells == ref.countsketch.cells).all()
                and (other.heavy_hitters.cells == ref.heavy_hitters.cells).all()
            )
            mismatches += not same
    report(11, "order invariance",
           f"{mismatches}/{comparisons} permuted replays diverged (need 0)",
           mismatches == 0)
