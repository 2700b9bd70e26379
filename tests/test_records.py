import os
import shutil
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f1sketch import Estimator, EstimatorConfig, SketchInvariantError, records

N = 10

compiled_only = pytest.mark.skipif(records.RECORDS_BACKEND != "c-type",
                                   reason="needs the compiled record buffer")

# the domain's ends and the items just past them, int64 extremes and past
# them, and the types the compiled buffer hands to the Python path
ITEMS = st.sampled_from([1, N, 0, N + 1, 2, 5, -1, (1 << 63) - 1, -(1 << 63), 1 << 63, True,
                         False, 3.0, 2.5, np.int64(4), np.uint8(N), np.int64(N + 1)])
DELTAS = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([(1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1, 1 << 61, True, False,
                     4.0, -2.0, 0.5, np.int64(-3), np.int32(7), np.uint64(1 << 63)]))
OPS = st.lists(st.one_of(st.tuples(ITEMS, DELTAS), st.just("flush")), max_size=40)


def outcome(call):
    try:
        call()
        return None
    except (ValueError, TypeError, SketchInvariantError) as exc:
        return type(exc), str(exc)


def run_ops(cls, ops):
    """Everything a caller can see of `ops` fed to an estimator of `cls`."""
    est = cls(EstimatorConfig(accuracy=0.5, n=N, seed=5))
    seen = [outcome(est.flush if op == "flush" else lambda: est.update(*op)) for op in ops]
    seen.append(outcome(est.flush))
    cells = [t.cells.tobytes() for t in (est.table, est.countsketch, est.heavy_hitters)]
    return seen, cells, est.touched_items().tolist(), est.estimate().diagnostics["updates"]


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_compiled_and_twin_paths_agree(record_paths, ops):
    compiled, twin = (run_ops(cls, ops) for cls in record_paths)
    assert compiled == twin


def test_both_paths_equal_one_batched_update_many(record_paths):
    s_items = np.arange(1, 2001) % 997 + 1
    s_deltas = np.arange(2000) % 7 - 3
    want = Estimator(EstimatorConfig(accuracy=0.5, n=1000, seed=6))
    want.update_many(s_items, s_deltas)
    want.flush()
    for cls in record_paths:
        est = cls(EstimatorConfig(accuracy=0.5, n=1000, seed=6))
        for i, v in zip(s_items.tolist(), s_deltas.tolist()):
            est.update(i, v)
        est.flush()
        for name in ("table", "countsketch", "heavy_hitters"):
            assert getattr(est, name).cells.tobytes() == getattr(want, name).cells.tobytes()


def test_update_is_a_class_attribute_that_a_class_patch_reaches(monkeypatch):
    # the benchmark's tracer counts records by wrapping `Estimator.update`
    # and `update_many` on the class
    assert Estimator.__dict__["update"] is records.RecordBuffer.push
    assert Estimator.__dict__["update_many"] is records.RecordBuffer.push_many
    est = Estimator(EstimatorConfig(accuracy=0.5, n=N, seed=1))
    assert "update" not in vars(est) and "update_many" not in vars(est)
    pushed = []
    original = Estimator.__dict__["update"]
    original_many = Estimator.__dict__["update_many"]

    def counting(self, i, v):
        pushed.append(i)
        return original(self, i, v)

    def counting_many(self, items, deltas):
        pushed.extend(items)
        return original_many(self, items, deltas)

    monkeypatch.setattr(Estimator, "update", counting)
    monkeypatch.setattr(Estimator, "update_many", counting_many)
    est.update(3, 1)
    est.update(4, 2.0)
    est.update_many([7, 5], [1, 1])
    assert pushed == [3, 4, 7, 5] and est.touched_items().tolist() == [3, 4, 5, 7]


def test_record_buffer_is_not_built_without_python_h(tmp_path, monkeypatch):
    # an include directory with no Python.h, and an empty cache: no build
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(tmp_path)})
    assert records._load() is None
    assert not (tmp_path / "cache").exists()


def test_cache_key_is_the_interpreters_extension_suffix():
    assert records._EXT_SUFFIX == sysconfig.get_config_var("EXT_SUFFIX")
    source, flags = records._SOURCE, records._CFLAGS
    assert (records.hashing._library_path("records", source, flags, ".cpython-399-x.so")
            != records.hashing._library_path("records", source, flags, records._EXT_SUFFIX))


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_record_buffer_loads_where_python_h_exists():
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("needs Python.h")
    assert records.RECORDS_BACKEND == "c-type"
    assert issubclass(Estimator, records.RecordBuffer)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
def test_record_buffer_source_compiles_without_warnings(tmp_path):
    source = tmp_path / "records.c"
    source.write_text(records._SOURCE, encoding="ascii")
    proc = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror", *records._CFLAGS,
                           "-I", sysconfig.get_paths()["include"],
                           "-o", str(tmp_path / "records.so"), str(source)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@compiled_only
@pytest.mark.parametrize("old, new", [
    ("if (i < 1 || i > self->n)", "if (0)"),               # skips the domain check
    ("i > self->n", "i >= self->n"),                        # refuses item n
    ("self->deltas[self->size] = v;", "self->deltas[self->size] = 0;"),  # drops a delta
])
def test_record_buffer_that_disagrees_is_refused(old, new, tmp_path, monkeypatch):
    # the mutated source builds, but the check in `records._load` refuses it;
    # the unchanged source still loads
    source = records._SOURCE
    assert source.count(old) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(records, "_SOURCE", source.replace(old, new))
    assert records._load() is None
    assert len(os.listdir(tmp_path / "f1sketch")) == 1  # built, then refused
    monkeypatch.setattr(records, "_SOURCE", source)
    assert records._load() is not None
