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
