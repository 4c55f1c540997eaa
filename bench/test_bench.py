"""Tests of the benchmark itself: the oracle, the span arithmetic, and every
workload end to end at smoke size.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import oracle
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# An L: three points east along y=0, then north along x=20; zeta = 1.
XS = [0.0, 10.0, 20.0, 20.0, 20.0]
YS = [0.0, 0.0, 0.0, 10.0, 20.0]
TS = [0.0, 1.0, 2.0, 3.0, 4.0]
EAST = (0.0, 0.0, 0.0, 20.0, 0.0, 2.0, 3, False)
NORTH = (20.0, 0.0, 2.0, 20.0, 20.0, 4.0, 3, False)


def test_oracle_accepts_the_exact_representation():
    assert oracle.check(XS, YS, TS, [EAST, NORTH], 1.0) == []
    assert oracle.check(XS, YS, TS, [EAST, NORTH], 1.0, by_time=False) == []


def test_oracle_rejects_a_point_two_zeta_off_its_line():
    ys = [0.0, 2.0, 0.0, 10.0, 20.0]
    problems = oracle.check(XS, ys, TS, [EAST, NORTH], 1.0)
    assert len(problems) == 1 and "beyond zeta" in problems[0]


def test_oracle_rejects_a_gap_in_the_chain():
    north = (20.0, 0.5, 2.0) + NORTH[3:]
    assert any("gap" in p for p in oracle.check(XS, YS, TS, [EAST, north], 1.0))


def test_oracle_rejects_counts_that_add_up_on_the_wrong_segments():
    east = EAST[:6] + (4, False)
    north = NORTH[:6] + (2, False)
    problems = oracle.check(XS, YS, TS, [east, north], 1.0)
    assert problems == ["2 segments' covered counts disagree with their time spans"]


def test_oracle_credits_a_patched_start_in_full():
    # The corner sample at t=2 is dropped and replaced by a patch point.
    xs, ys, ts = [0.0, 10.0, 20.0, 20.0], [0.0, 0.0, 10.0, 20.0], [0.0, 1.0, 3.0, 4.0]
    east = (0.0, 0.0, 0.0, 20.0, 0.0, 2.0, 2, False)
    north = (20.0, 0.0, 2.0, 20.0, 20.0, 4.0, 2, True)
    assert oracle.check(xs, ys, ts, [east, north], 1.0) == []


def test_self_time_subtracts_what_children_cover():
    tr = Tracer()
    tr.names, tr.parents = ["job", "a", "b", "b"], [-1, 0, 0, -1]
    tr.starts, tr.ends = [0, 10, 30, 100], [100, 40, 50, 110]
    # a and b overlap on [30, 40]: the union of job's children is [10, 50].
    assert tr.self_ns() == {"job": 60, "a": 30, "b": 30}


def test_sampler_times_the_loop_and_scales_by_it():
    with hostspeed.Sampler() as host:
        time.sleep(0.25)
    assert len(host.samples) >= 2 and host.spent >= sum(host.samples)
    host.samples = [2 * hostspeed.REF_S] * 3  # a host at half the reference speed
    assert host.at_reference(1.0) == pytest.approx(0.5)


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "fleet-csv", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
