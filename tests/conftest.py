"""Shared trial batteries.

The expensive Monte-Carlo suites are session fixtures so the acceptance
criteria and the module-level statistical tests share one run each.
"""

from __future__ import annotations

import numpy as np
import pytest

from f1sketch import Estimator, EstimatorConfig, generate, hashing, records
from f1sketch.estimator import Classification
from f1sketch.oracle import ExactState

ZIPF_TRIALS = 200
PLANTED_TRIALS = 200
LIGHT_TRIALS = 500


def pytest_report_header(config):
    return (f"f1sketch kernel routines ({', '.join(hashing._ROUTINES)}): "
            f"{hashing.KWISE_BACKEND}; record buffer: {records.RECORDS_BACKEND}")


class TwinEstimator(Estimator):
    """An estimator whose `update` takes the record buffer's Python path,
    `records.TwinBuffer`, for every record, whichever buffer is loaded."""

    update = records.TwinBuffer.push
    _take = records.TwinBuffer._take


@pytest.fixture(scope="session")
def record_paths():
    """The estimator classes of both record-buffer paths: the one in use
    (compiled when it loaded) and the Python twin."""
    return [Estimator, TwinEstimator]


@pytest.fixture(scope="session")
def zipf_battery():
    """200 independent estimators over one Zipf(1.1) stream, n=1e4, m=1e5,
    accuracy 0.5, with per-trial sketch readouts and exact ground truth."""
    stream = generate("zipf(1.1)", n=10**4, m=10**5, seed=20240901)
    state = ExactState(stream.n)
    state.update_many(stream.items, stream.deltas)
    f = state.frequencies
    cfg0 = EstimatorConfig(accuracy=0.5, n=stream.n, seed=0)
    budget, width = cfg0.budget, cfg0.width
    exact = {
        "f1": float(state.moment(1.0)),
        "f2": float(state.moment(2.0)),
        "res_b": float(state.residual(2.0, budget)),
        "res_4b": float(state.residual(2.0, 4 * budget)),
        "res_8b": float(state.residual(2.0, 8 * budget)),
    }
    point_bound = 8.0 * np.sqrt(exact["res_8b"] / width)
    rows = []
    for trial in range(ZIPF_TRIALS):
        est = Estimator(EstimatorConfig(accuracy=0.5, n=stream.n, seed=10_000 + trial))
        est.update_many(stream.items, stream.deltas)
        cls = est.classify()
        heavy = est.heavy_estimate(cls)
        light = est.light_estimate(cls)
        top_b = est.heavy_hitters.top_k(budget)
        top_set = np.array([i for i, _ in top_b], dtype=np.int64)
        set_residual = exact["f2"] - float((f[top_set - 1].astype(float) ** 2).sum())
        errors = np.abs(cls.estimates - f[cls.items - 1])
        rows.append({
            "seed": 10_000 + trial,
            "total": heavy + light,
            "heavy": heavy,
            "light": light,
            "heavy_count": cls.heavy_count,
            "set_residual_b": set_residual,
            "point_ok_fraction": float((errors <= point_bound).mean()),
        })
    return {
        "stream": stream,
        "state": state,
        "budget": budget,
        "width": width,
        "exact": exact,
        "point_bound": point_bound,
        "rows": rows,
    }


@pytest.fixture(scope="session")
def planted_battery():
    """200 estimators over a planted stream: 10 heavy items at 1e4 above
    1e4 light items with frequencies in [1, 10]."""
    n = 10 + 10**4
    stream = generate("planted(10,10000,10)", n=n, m=n, seed=77)
    state = ExactState(n)
    state.update_many(stream.items, stream.deltas)
    f = state.frequencies
    exact_f1 = float(state.moment(1.0))
    eps = EstimatorConfig(accuracy=0.5, n=n, seed=0).eps
    rows = []
    for trial in range(PLANTED_TRIALS):
        est = Estimator(EstimatorConfig(accuracy=0.5, n=n, seed=40_000 + trial))
        est.update_many(stream.items, stream.deltas)
        cls = est.classify()
        heavy_hat = est.heavy_estimate(cls)
        heavy_true = float(np.abs(f[cls.heavy_items - 1]).sum())
        rows.append({
            "seed": 40_000 + trial,
            "heavy_hat": heavy_hat,
            "heavy_true": heavy_true,
            "heavy_count": cls.heavy_count,
        })
    return {
        "stream": stream,
        "state": state,
        "exact_f1": exact_f1,
        "eps": eps,
        "rows": rows,
    }


@pytest.fixture(scope="session")
def light_battery():
    """500 light-only estimates of the all-ones vector on n=1e3 with the
    heavy set forced empty (so the collision correction is exactly 1)."""
    n = 10**3
    items = np.arange(1, n + 1, dtype=np.int64)
    ones = np.ones(n, dtype=np.int64)
    estimates = np.empty(LIGHT_TRIALS)
    for trial in range(LIGHT_TRIALS):
        est = Estimator(EstimatorConfig(accuracy=0.5, n=n, seed=70_000 + trial))
        est.update_many(items, ones)
        estimates[trial] = est.light_estimate(Classification.empty())
    cfg = EstimatorConfig(accuracy=0.5, n=n, seed=0)
    return {"n": n, "width": cfg.width, "estimates": estimates}
