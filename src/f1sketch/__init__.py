"""Streaming estimation of the first frequency moment of turnstile streams.

The estimator splits items into heavy and light by CountSketch frequency
estimates, reads heavy items out of isolated CountSketch cells, estimates
the light mass with a table of three-way Cauchy sketches, and returns the
sum. An exact oracle (`f1sketch.oracle`) and stream tooling support
desk-scale verification. The top level holds the public API; everything
else is imported from its module.
"""

from .countsketch import SketchInvariantError
from .estimator import EstimateReport, Estimator, EstimatorConfig
from .streams import generate, read_stream, write_stream

__version__ = "0.1.0"

__all__ = [
    "EstimateReport",
    "Estimator",
    "EstimatorConfig",
    "SketchInvariantError",
    "generate",
    "read_stream",
    "write_stream",
    "__version__",
]
