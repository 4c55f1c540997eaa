"""Streaming trajectory simplification with a guaranteed error bound.

The core is a one-pass encoder that fits directed segments to incoming
points in constant space, plus batch baselines, quality metrics,
deterministic data generators, and a CSV/CLI harness around them.

``import trajsimp`` loads the streaming core alone (``errors``,
``fitting``, ``geometry``, ``onepass``), which needs no numpy.  Every
other layer loads on first use: reading one of its public names from the
package, or the submodule itself, imports it (PEP 562).
"""

from importlib import import_module

from .errors import DataError, InvariantError
from .fitting import FitConfig
from .geometry import Point
from .onepass import Mode, OperbEncoder, PiecewiseRepresentation, Segment, simplify

__version__ = "0.1.0"

# The layers loaded on first use, with the public names each one gives.
_LAZY = {
    "baselines": ("dp_simplify", "fbqs_simplify", "opw_simplify"),
    "cli": (),
    "datagen": ("SplitMix64", "figure_fixture", "gen_grid_route",
                "gen_random_walk", "gen_stepwise_adversarial"),
    "harness": ("ALGORITHMS", "RunConfig", "compress_corpus", "format_report",
                "run_compare"),
    "io": ("emit_segments", "ingest_csv", "write_corpus"),
    "metrics": ("CompressionStats", "compute_stats", "verify_error_bound"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "DataError", "FitConfig", "InvariantError", "Mode", "OperbEncoder",
    "PiecewiseRepresentation", "Point", "Segment", "simplify", "__version__",
    *_HOME,
]


def __getattr__(name):
    if name in _LAZY:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})
