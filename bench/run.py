"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fleet-csv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The input is generated from the seed in
one child process; set-up time is sampled by starting the program several
times, each start scaled to the host's reference speed by the loop of
hostspeed.py; then a fresh, single-threaded child runs the workload for
``--seconds`` and checks its outputs (see workloads.py).  The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  ``--smoke`` runs the same code at tiny sizes.
Scratch files live under ``.bench_work/`` in the checkout and are removed
afterwards, except the last span dump of each workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fleet-csv", "stream-push", "compare-baselines")
SETUP_SAMPLES = 7
TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start(mode: str, workload: str, work: Path, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, str(BENCH / "workloads.py"), mode, "--workload", workload]
    return subprocess.Popen(
        cmd + ["--dir", str(work), *extra], stdout=subprocess.PIPE, text=True, env=child_env()
    )


def timed_start(mode: str, workload: str, work: Path, *extra: str):
    """Start a child and wait for its 'ready' line; returns (proc, set-up s)."""
    t0 = time.perf_counter()
    proc = start(mode, workload, work, *extra)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"{mode} child did not get ready: {line!r}")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Wait for a child, killing it on timeout; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        gen = start("gen", workload, work, "--seed", str(seed), *(["--smoke"] if smoke else []))
        finish(gen)
        setups = []
        if not trace:
            ref = hostspeed.sample()
            for _ in range(2 if smoke else SETUP_SAMPLES):
                proc, setup = timed_start("setup", workload, work)
                finish(proc)
                ref_before, ref = ref, hostspeed.sample()
                setups.append(hostspeed.at_reference(setup, ref_before, ref))
        proc, _ = timed_start(
            "job", workload, work, "--seconds", str(seconds), "--trace", str(int(trace))
        )
        result = json.loads(finish(proc).strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trajsimp" / "__init__.py").is_file():
        print(f"no trajsimp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
