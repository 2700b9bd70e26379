"""The benchmark's span tracer against the real package.

`benchmark/tracing.py` wraps package methods by name; a method renamed or
moved off its class would make traced benchmark runs fail or lose a layer.
"""

import importlib.util
import pathlib

import f1sketch.cli as cli
from f1sketch import Estimator, EstimatorConfig, generate, write_stream

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_estimate_layer(tmp_path):
    path = str(tmp_path / "zipf.txt")
    stream = generate("zipf(1.1)", n=500, m=5000, seed=3)
    write_stream(path, stream)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["run", path, "--epsilon", "0.5"]) == 0
        est = Estimator(EstimatorConfig(accuracy=0.5, n=stream.n, seed=4))
        est.update_many(stream.items, stream.deltas)
        est.estimate()
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"countsketch.touched_items", "countsketch.point_estimate",
            "countsketch.f2_residual", "estimator.classify", "estimator.heavy",
            "estimator.light", "stable.variates"} <= names
    assert not hasattr(Estimator.__dict__["classify"], "__wrapped__")
