"""Tests of the benchmark's own checks and span accounting.

    PYTHONPATH=src python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Span, Tracer, self_seconds_by_name, self_times  # noqa: E402

from f1sketch import Estimator, EstimatorConfig  # noqa: E402
from f1sketch.streams import read_stream  # noqa: E402


def small_estimator(items, deltas, n=500, seed=3):
    est = Estimator(EstimatorConfig(accuracy=0.5, n=n, seed=seed))
    est.update_many(np.asarray(items), np.asarray(deltas))
    est.flush()
    return est


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(11)
    items = rng.integers(1, 501, size=5_000)
    deltas = rng.choice([-3, -1, 1, 2], size=5_000)
    return items.astype(np.int64), deltas.astype(np.int64)


def test_accuracy_check_rejects_an_estimate_off_by_two():
    assert checks.within_accuracy(1_050.0, 1_000, 0.5)
    assert not checks.within_accuracy(2_000.1, 1_000, 0.5)
    assert not checks.within_accuracy(499.9, 1_000, 0.5)
    assert not checks.within_accuracy(float("nan"), 1_000, 0.5)


def test_additivity_check_rejects_a_wrong_total():
    assert checks.additive(0.1 + 0.2, 0.1, 0.2)
    assert not checks.additive(0.3, 0.1, 0.2 + 1e-12)


def test_same_report_rejects_any_changed_field(records):
    est = small_estimator(*records)
    a, b = est.estimate(), est.estimate()
    assert checks.same_report(a, b)
    for field, value in (("total", a.total * 2), ("heavy_count", a.heavy_count + 1)):
        changed = type(a)(**{**a.__dict__, field: value})
        assert not checks.same_report(a, changed)


def test_counter_check_rejects_a_perturbed_counter(records):
    a = small_estimator(*records)
    b = small_estimator(*records)
    assert checks.counters_equal(a, b)
    b.heavy_hitters.cells[3, 7] += 1
    assert not checks.counters_equal(a, b)
    b.heavy_hitters.cells[3, 7] -= 1
    b.countsketch.cells[0, 0] -= 1
    assert not checks.counters_equal(a, b)


def test_turnstile_premise_holds_and_the_check_sees_a_missing_record(records):
    items, deltas = records
    freqs = inputs.net_frequencies(500, items, deltas)
    net_items = np.flatnonzero(freqs) + 1
    net = small_estimator(net_items, freqs[net_items - 1])
    assert checks.counters_equal(small_estimator(items, deltas), net)
    assert not checks.counters_equal(small_estimator(items[1:], deltas[1:]), net)


def test_stable_check_tolerates_rounding_but_not_a_perturbed_cell(records):
    a = small_estimator(*records)
    b = small_estimator(*records)
    b.table.cells *= 1 + 1e-12
    assert checks.stable_close(a, b)
    b.table.cells[5, 1] += 1e-6 * np.abs(b.table.cells).max()
    assert not checks.stable_close(a, b)


def test_parse_run_row_reads_the_cli_csv():
    out = ("trial,seed,exact_f1,est_f1\n0,7,0.0,123.5\nestimate       : 123.5\n")
    assert checks.parse_run_row(out)["est_f1"] == "123.5"


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a.child", 15, 25, 1),
        Span("b", 50, 70, 0),
        Span("b", 80, 90, 0),
    ]
    assert self_times(spans) == [40, 20, 10, 20, 10]
    assert self_seconds_by_name(spans)["b"] == pytest.approx(30e-9)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 100, -1), Span("c", 10, 60, 0), Span("c", 40, 120, 0)]
    assert self_times(spans)[0] == 10


def test_tracer_records_parents_counts_and_restores_the_original():
    class Box:
        def outer(self, xs):
            return self.inner(xs) + 1

        def inner(self, xs):
            return len(xs)

    tracer = Tracer()
    original = Box.inner
    tracer.patch(Box, "outer", "outer")
    tracer.patch(Box, "inner", "inner", count=("items", lambda args, result: len(args[1])))
    assert Box().outer([1, 2, 3]) == 4
    (outer, inner) = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", -1, "inner", 0)
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert tracer.counts["items"] == 3
    tracer.uninstall()
    assert Box.inner is original


def test_written_streams_parse_back_with_the_package_reader(tmp_path, records):
    items, deltas = records
    for writer, binary in ((inputs.write_text, False), (inputs.write_binary, True)):
        path = str(tmp_path / f"s{int(binary)}")
        writer(path, 500, items, deltas)
        stream = read_stream(path, binary=binary)
        assert stream.n == 500
        assert np.array_equal(stream.items, items)
        assert np.array_equal(stream.deltas, deltas)


def test_inputs_are_a_function_of_the_seed():
    spec = inputs.Spec("zipf", n=1_000, m=2_000, binary=False, query_every=0)
    a, b, c = inputs.draw(spec, 5), inputs.draw(spec, 5), inputs.draw(spec, 6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
