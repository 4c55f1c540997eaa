"""The demo scripts run cleanly, the package's public names and config
fields are the pinned ones, and ``import trajsimp`` loads the streaming
core alone.

Demos import from the package top level, so they break first when a name
leaves ``trajsimp.__all__``.
"""

import dataclasses
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


def test_import_star_binds_every_public_name():
    names = {}
    exec("from trajsimp import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(trajsimp.__all__)
    assert len(names) == 29 and set(names) <= set(dir(trajsimp))


CORE = ["trajsimp.errors", "trajsimp.fitting", "trajsimp.geometry", "trajsimp.onepass"]
STREAM = """
from trajsimp import FitConfig, Mode, OperbEncoder, Point, simplify
pts = [Point(0, 0, 0), Point(1, 0, 1), Point(2, 0, 2), Point(3, 1, 3), Point(3, 3, 5)]
enc = OperbEncoder(FitConfig(zeta=0.5), Mode.OPERB_A, pts[0])
segs = [seg for p in pts[1:] for seg in enc.push(p)] + list(enc.finish())
assert segs == simplify(pts, FitConfig(zeta=0.5), Mode.OPERB_A).segments
"""
GEN = """
from trajsimp.cli import main
assert main(["gen", "--kind", {kind!r}, "--n", "50", "--output", "c.csv"]) == 0
"""


def loaded(code, cwd):
    """The trajsimp submodules and numpy in sys.modules after code runs in
    a fresh interpreter."""
    probe = code + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('trajsimp.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_streaming_loads_the_core_alone(tmp_path):
    """Push, finish and simplify on a list load neither numpy nor the
    batch, CSV, metrics, harness, datagen or cli layers."""
    assert loaded(STREAM, tmp_path) == CORE


@pytest.mark.parametrize("kind", ["random-walk", "grid-route", "stepwise",
                                  "figure-route", "figure-corner"])
def test_gen_loads_no_numpy(tmp_path, kind):
    mods = loaded(GEN.format(kind=kind), tmp_path)
    assert "numpy" not in mods and "trajsimp.harness" not in mods
    assert (tmp_path / "c.csv").stat().st_size > 0


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
        "opw_simplify",
        "run_compare",
        "simplify",
        "verify_error_bound",
        "write_corpus",
    ]


def test_config_fields_are_pinned():
    # A knob joining or leaving a config is a deliberate edit here.
    assert [f.name for f in dataclasses.fields(trajsimp.FitConfig)] == [
        "zeta", "opt1", "opt2", "opt3", "opt4", "opt5", "gamma_m",
    ]
    assert [f.name for f in dataclasses.fields(trajsimp.RunConfig)] == [
        "input", "output", "algorithms", "zeta_list", "gamma_m", "opts", "geo",
    ]
