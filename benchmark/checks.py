"""Correctness checks the benchmark applies to the package's outputs.

Each check compares against a value the benchmark computed itself (exact
F1 from `np.bincount`) or against a property the method must have; none
compares against a stored copy of earlier output. Every function returns
True when the output passes.
"""

from __future__ import annotations

import numpy as np


def within_accuracy(estimate: float, exact: float, accuracy: float) -> bool:
    """|estimate - F1| <= accuracy * F1, the guarantee the user asked for."""
    return bool(np.isfinite(estimate)) and abs(estimate - exact) <= accuracy * exact


def additive(total: float, heavy: float, light: float) -> bool:
    """The reported total is exactly the heavy part plus the light part."""
    return total == heavy + light


def same_report(a, b) -> bool:
    """Two estimate() results are identical (estimate() is read-only)."""
    return (a.total, a.heavy, a.light, a.heavy_count, a.light_correction) == (
        b.total, b.heavy, b.light, b.heavy_count, b.light_correction)


def counters_equal(a, b) -> bool:
    """Both CountSketch structures of two estimators hold the same counters."""
    return (np.array_equal(a.countsketch.cells, b.countsketch.cells)
            and np.array_equal(a.heavy_hitters.cells, b.heavy_hitters.cells))


def stable_close(a, b, rtol: float = 1e-9) -> bool:
    """Stable cells agree to `rtol`, relative to the largest cell magnitude
    (the tolerance the package's oracle-equivalence criterion uses)."""
    scale = max(float(np.abs(b.table.cells).max()), 1.0)
    return bool(np.allclose(a.table.cells, b.table.cells, rtol=rtol, atol=rtol * scale))


def parse_run_row(output: str) -> dict:
    """The per-trial CSV row that `f1sketch run` prints under its header."""
    lines = output.splitlines()
    header = lines[0].split(",")
    return dict(zip(header, lines[1].split(",")))
