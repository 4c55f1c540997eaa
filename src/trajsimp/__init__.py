"""Streaming trajectory simplification with a guaranteed error bound.

The core is a one-pass encoder that fits directed segments to incoming
points in constant space, plus batch baselines, quality metrics,
deterministic data generators, and a CSV/CLI harness around them.
"""

from .baselines import dp_simplify, fbqs_simplify, opw_simplify
from .datagen import (
    SplitMix64,
    figure_fixture,
    gen_grid_route,
    gen_random_walk,
    gen_stepwise_adversarial,
    optimal_segments,
)
from .errors import DataError, InvariantError
from .fitting import FitConfig
from .geometry import Point
from .harness import ALGORITHMS, RunConfig, compress_corpus, format_report, run_compare
from .io import emit_segments, ingest_csv, write_corpus
from .metrics import (
    CompressionStats,
    compute_stats,
    verify_error_bound,
)
from .onepass import (
    Mode,
    OperbEncoder,
    PiecewiseRepresentation,
    Segment,
    simplify,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "CompressionStats",
    "DataError",
    "FitConfig",
    "InvariantError",
    "Mode",
    "OperbEncoder",
    "PiecewiseRepresentation",
    "Point",
    "RunConfig",
    "Segment",
    "SplitMix64",
    "compress_corpus",
    "compute_stats",
    "dp_simplify",
    "emit_segments",
    "fbqs_simplify",
    "figure_fixture",
    "format_report",
    "gen_grid_route",
    "gen_random_walk",
    "gen_stepwise_adversarial",
    "ingest_csv",
    "opw_simplify",
    "optimal_segments",
    "run_compare",
    "simplify",
    "verify_error_bound",
    "write_corpus",
    "__version__",
]
