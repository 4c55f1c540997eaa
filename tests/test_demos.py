"""The demo scripts run cleanly and the package's public names resolve.

Demos import from the package top level, so they break first when a name
leaves ``trajsimp.__all__``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajsimp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's own directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("trajsimp-demo-*")) == []


def test_every_public_name_resolves():
    missing = [name for name in trajsimp.__all__ if not hasattr(trajsimp, name)]
    assert missing == []


def test_public_names_are_pinned():
    # A name joining or leaving the public API is a deliberate edit here.
    assert sorted(trajsimp.__all__) == [
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
        "__version__",
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
        "optimal_segments",
        "opw_simplify",
        "run_compare",
        "simplify",
        "verify_error_bound",
        "write_corpus",
    ]
