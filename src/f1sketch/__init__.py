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
from .hashing import KWiseHash, MERSENNE61, SignHash
from .oracle import ExactState, TailBoundCheck, expected_countsketch_cells, expected_stable_cells
from .stable import (
    DEFAULT_TRUNCATION_CAP,
    StableVariateSource,
    cauchy_variate,
    geometric_means_estimate,
    kp_constant,
    median_estimate,
    stability_constant,
    stable_variate,
)
from .streams import Distribution, Stream, StreamParseError, generate, read_stream, write_stream

__version__ = "0.1.0"

__all__ = [
    "CountSketchTable",
    "Classification",
    "DEFAULT_TRUNCATION_CAP",
    "Distribution",
    "EstimateReport",
    "Estimator",
    "EstimatorConfig",
    "ExactState",
    "KWiseHash",
    "MERSENNE61",
    "SignHash",
    "SketchInvariantError",
    "StableTable",
    "StableVariateSource",
    "Stream",
    "StreamParseError",
    "TailBoundCheck",
    "cauchy_variate",
    "expected_countsketch_cells",
    "expected_stable_cells",
    "generate",
    "geometric_means_estimate",
    "kp_constant",
    "median_estimate",
    "read_stream",
    "stability_constant",
    "stable_variate",
    "write_stream",
    "__version__",
]
