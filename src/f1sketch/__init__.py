"""Streaming estimation of the first frequency moment of turnstile streams.

The estimator splits items into heavy and light by CountSketch frequency
estimates, reads heavy items out of isolated CountSketch cells, estimates
the light mass with a table of three-way Cauchy sketches, and returns the
sum. An exact oracle and stream tooling support desk-scale verification.
"""

from .countsketch import CountSketchTable, SketchInvariantError
from .estimator import (
    Classification,
    EstimateReport,
    Estimator,
    EstimatorConfig,
    StableTable,
)
from .hashing import KWiseHash, MERSENNE61
from .oracle import ExactState, TailBoundCheck, expected_countsketch_cells, expected_stable_cells
from .stable import TRUNCATION_CAP, StableVariateSource, kp_constant, stability_constant
from .streams import Distribution, Stream, StreamParseError, generate, read_stream, write_stream

__version__ = "0.1.0"

__all__ = [
    "CountSketchTable",
    "Classification",
    "Distribution",
    "EstimateReport",
    "Estimator",
    "EstimatorConfig",
    "ExactState",
    "KWiseHash",
    "MERSENNE61",
    "SketchInvariantError",
    "StableTable",
    "StableVariateSource",
    "Stream",
    "StreamParseError",
    "TRUNCATION_CAP",
    "TailBoundCheck",
    "expected_countsketch_cells",
    "expected_stable_cells",
    "generate",
    "kp_constant",
    "read_stream",
    "stability_constant",
    "write_stream",
    "__version__",
]
