"""The three benchmark workloads, run as child processes of ``run.py``.

    python3 bench/workloads.py gen   --workload W --seed S --dir D [--smoke]
    python3 bench/workloads.py setup --workload W --dir D
    python3 bench/workloads.py job   --workload W --dir D --seconds N --trace 0|1

``gen`` writes the workload's input into D from the seed.  ``setup``
imports the package and builds the run's configs, prints ``ready`` and
exits; ``job`` does the same, then runs whole passes of the workload until
``--seconds`` of timed passes have gone by, checks the outputs with the
clock stopped and prints one JSON line of results.  Every pass must give
the same output, so the last pass is checked in full and the others by
hash.  Pass 0 warms the process up and is not timed: the first pass in a
process measured about 35% slower than later ones.

Each pass's wall time is scaled to the host's reference speed by the
reference loop of hostspeed.py, sampled every 25 ms during the pass.
Throughput is the points of one pass over the median scaled pass time.
"""

import argparse
import array
import csv
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import oracle
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# vehicles x points per vehicle, then the same at smoke size.
SIZES = {
    "fleet-csv": ((200, 2000), (4, 200)),
    "stream-push": ((64, 10_000), (4, 300)),
    "compare-baselines": ((50, 2000), (3, 200)),
}
FLEET_ZETA = 10.0
STREAM_ZETA = 40.0
COMPARE_ZETAS = (10.0, 40.0)
GRID_STEP = 20.0
ALGOS = ("dp", "opw", "fbqs", "operb", "operb-a")
BASELINES = ("dp", "opw", "fbqs")

# The canary: one fixed trajectory, independent of --seed, whose operb-a
# output the time-assigned oracle rejects because opt5 credits absorbed
# points to a segment that ends before them.  It runs once per pass on the
# workloads that skip that part of the oracle for onepass output.
CANARY = dict(n=2000, seed=0, zeta=40.0)


def import_program():
    """Import trajsimp from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import trajsimp

    if SRC.resolve() not in Path(trajsimp.__file__).resolve().parents:
        raise SystemExit(f"trajsimp imported from {trajsimp.__file__}, not {SRC}")
    return trajsimp


# -- input generation --------------------------------------------------------


def vehicle_seeds(seed: int, workload: str, count: int, SplitMix64):
    salt = sorted(SIZES).index(workload)
    rng = SplitMix64(seed * len(SIZES) + salt)
    return [rng.next_u64() for _ in range(count)]


def write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("traj_id", "t", "x", "y"))
        for t, v, x, y in rows:
            writer.writerow((f"v{v:03d}", "%.9g" % t, "%.9g" % x, "%.9g" % y))


def gen(workload: str, seed: int, smoke: bool, out: Path) -> None:
    trajsimp = import_program()
    vehicles, points = SIZES[workload][1 if smoke else 0]
    seeds = vehicle_seeds(seed, workload, vehicles, trajsimp.SplitMix64)
    if workload == "fleet-csv":
        trajs = [trajsimp.gen_grid_route(points, s, step=GRID_STEP) for s in seeds]
    else:
        trajs = [trajsimp.gen_random_walk(points, s) for s in seeds]
    rows = [(p.t, v, p.x, p.y) for v, pts in enumerate(trajs) for p in pts]
    if workload == "compare-baselines":
        write_rows(out / "input.csv", rows)  # grouped by trajectory
        return
    rows.sort()  # interleaved by timestamp, as a live feed delivers them
    if workload == "fleet-csv":
        write_rows(out / "input.csv", rows)
        return
    with open(out / "vid.bin", "wb") as fh:
        array.array("H", [r[1] for r in rows]).tofile(fh)
    for col, name in ((0, "t"), (2, "x"), (3, "y")):
        with open(out / f"{name}.bin", "wb") as fh:
            array.array("d", [r[col] for r in rows]).tofile(fh)
    (out / "vehicles.txt").write_text(str(vehicles))


def read_csv_points(path: Path):
    """traj_id -> (xs, ys, ts), parsed with the csv module alone."""
    trajs = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for tid, t, x, y in reader:
            xs, ys, ts = trajs.setdefault(tid, ([], [], []))
            xs.append(float(x))
            ys.append(float(y))
            ts.append(float(t))
    return trajs


def read_stream(d: Path):
    vid = array.array("H")
    with open(d / "vid.bin", "rb") as fh:
        vid.frombytes(fh.read())
    cols = []
    for name in ("x", "y", "t"):
        col = array.array("d")
        with open(d / f"{name}.bin", "rb") as fh:
            col.frombytes(fh.read())
        cols.append(col)
    return int((d / "vehicles.txt").read_text()), vid, *cols


# -- the workloads -----------------------------------------------------------


class Fleet:
    """ingest -> compress(operb-a) -> emit -> stats -> verify, each once."""

    canary = False
    durations = None

    def __init__(self, ts, d: Path):
        self.ts = ts
        self.path = str(d / "input.csv")
        self.out = str(d / "segments.csv")
        self.cfg = ts.harness.RunConfig(input=self.path).fit_config(FLEET_ZETA)

    def load(self):
        pass

    def run_pass(self, tracer):
        ts = self.ts
        corpus = ts.io.ingest_csv(self.path)
        reps = ts.harness.compress_corpus(corpus, "operb-a", self.cfg)
        rows = ts.io.emit_segments(reps.values(), self.out)
        stats = ts.metrics.compute_stats(list(reps.values()), list(corpus.values()))
        unverified = {
            tid
            for tid, pts in corpus.items()
            if not ts.metrics.verify_error_bound(reps[tid], pts, FLEET_ZETA)[0]
        }
        return stats.input_points, rows, (reps, stats, unverified)

    def digest(self, result) -> str:
        with open(self.out, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()

    def check(self, result, log):
        """(failed trajectory ids, ops per pass, global checks passed)."""
        reps, stats, unverified = result
        failed = set(unverified)
        inputs = read_csv_points(Path(self.path))
        for tid, (xs, ys, ts_) in inputs.items():
            problems = oracle.check(xs, ys, ts_, oracle.segments_of(reps[tid].segments), FLEET_ZETA)
            if problems:
                log(f"fleet-csv {tid}: {problems[:2]}")
                failed.add(tid)
        ok = stats.output_segments == sum(len(r.segments) for r in reps.values())
        with open(self.out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ok &= len(rows) == stats.output_segments
        by_traj = {}
        for row in rows:
            by_traj.setdefault(row[0], []).append(row)
        ok &= list(by_traj) == list(inputs)
        for tid, trows in by_traj.items():
            xs, ys, ts_ = inputs[tid]
            segs = [tuple(map(float, r[2:8])) + (int(r[8]), r[9] == "true") for r in trows]
            problems = oracle.check_chain(xs, ys, ts_, segs)
            if [int(r[1]) for r in trows] != list(range(len(trows))):
                problems.append("seg_index does not count up from 0")
            if problems:
                log(f"fleet-csv {tid} emitted rows: {problems[:2]}")
                failed.add(tid)
        return failed, len(inputs), ok


class Stream:
    """One OperbEncoder(operb-a) per vehicle, fed point by point in
    timestamp order from flat arrays; a closed loop with one caller."""

    canary = True

    def __init__(self, ts, d: Path):
        self.ts = ts
        self.cfg = ts.fitting.FitConfig(zeta=STREAM_ZETA)
        self.d = d
        self.durations = None

    def load(self):
        self.vehicles, self.vid, self.xs, self.ys, self.tt = read_stream(self.d)

    def run_pass(self, tracer):
        Point = self.ts.geometry.Point
        Encoder = self.ts.onepass.OperbEncoder
        mode = self.ts.onepass.Mode.OPERB_A
        cfg = self.cfg
        vid, xs, ys, tt = self.vid, self.xs, self.ys, self.tt
        encs = [None] * self.vehicles
        outs = [[] for _ in range(self.vehicles)]
        n = len(vid)
        if tracer is None:
            for k in range(n):
                v = vid[k]
                p = Point(xs[k], ys[k], tt[k])
                enc = encs[v]
                if enc is None:
                    encs[v] = Encoder(cfg, mode, p)
                else:
                    outs[v].extend(enc.push(p))
        else:
            # Push durations go into one preallocated array per pass.
            durations = array.array("q", bytes(8 * (n - self.vehicles)))
            clock = time.perf_counter_ns
            j = 0
            for k in range(n):
                v = vid[k]
                p = Point(xs[k], ys[k], tt[k])
                enc = encs[v]
                if enc is None:
                    encs[v] = Encoder(cfg, mode, p)
                else:
                    t0 = clock()
                    segs = enc.push(p)
                    durations[j] = clock() - t0
                    j += 1
                    outs[v].extend(segs)
            self.durations = durations
        for v in range(self.vehicles):
            outs[v].extend(encs[v].finish())
        if tracer is not None:
            tracer.counts["onepass.anomalous"] += sum(e.n_anomalous for e in encs)
            tracer.counts["onepass.patches"] += sum(e.n_patched for e in encs)
        return n, sum(map(len, outs)), outs

    def digest(self, outs) -> str:
        h = hashlib.sha256()
        for segs in outs:
            h.update(repr(segs).encode())
        return h.hexdigest()

    def check(self, outs, log):
        Point = self.ts.geometry.Point
        pts = [[] for _ in range(self.vehicles)]
        for k in range(len(self.vid)):
            pts[self.vid[k]].append(Point(self.xs[k], self.ys[k], self.tt[k]))
        failed = set()
        for v in range(self.vehicles):
            batch = self.ts.onepass.simplify(pts[v], self.cfg, self.ts.onepass.Mode.OPERB_A)
            if batch.segments != outs[v]:
                log(f"stream-push vehicle {v}: pushed output differs from simplify()")
                failed.add(v)
            xs, ys, ts_ = zip(*((p.x, p.y, p.t) for p in pts[v]))
            problems = oracle.check(xs, ys, ts_, oracle.segments_of(outs[v]), STREAM_ZETA, by_time=False)
            if problems:
                log(f"stream-push vehicle {v}: {problems[:2]}")
                failed.add(v)
        return failed, self.vehicles, True


class Compare:
    """run_compare over all five algorithms at both zetas."""

    canary = True
    durations = None

    def __init__(self, ts, d: Path):
        self.ts = ts
        self.path = d / "input.csv"
        self.cfg = ts.harness.RunConfig(
            input=str(self.path), algorithms=ALGOS, zeta_list=COMPARE_ZETAS
        )

    def load(self):
        pass

    def run_pass(self, tracer):
        report = self.ts.harness.run_compare(self.cfg)
        results = report["results"]
        segments = sum(r["output_segments"] for r in results)
        return report["corpus"]["points"] * len(results), segments, report

    def digest(self, report) -> str:
        results = [{k: v for k, v in r.items() if k != "wall_time"} for r in report["results"]]
        return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()

    def check(self, report, log):
        ts = self.ts
        inputs = read_csv_points(self.path)
        corpus = ts.io.ingest_csv(str(self.path))
        failed = set()
        ok = list(corpus) == list(inputs)
        results = iter(report["results"])
        for algo in ALGOS:
            for zeta in COMPARE_ZETAS:
                reps = ts.harness.compress_corpus(corpus, algo, self.cfg.fit_config(zeta))
                entry = next(results)
                total = sum(len(r.segments) for r in reps.values())
                ok &= (entry["algo"], entry["zeta"], entry["output_segments"]) == (algo, zeta, total)
                for tid, (xs, ys, ts_) in inputs.items():
                    segs = oracle.segments_of(reps[tid].segments)
                    # Onepass output skips the time-assigned checks; see CANARY.
                    problems = oracle.check(xs, ys, ts_, segs, zeta, by_time=algo in BASELINES)
                    if problems:
                        log(f"compare-baselines {algo} zeta={zeta:g} {tid}: {problems[:2]}")
                        failed.add((algo, zeta, tid))
        return failed, len(ALGOS) * len(COMPARE_ZETAS) * len(inputs), ok


WORKLOADS = {"fleet-csv": Fleet, "stream-push": Stream, "compare-baselines": Compare}


def canary_fails(ts) -> bool:
    pts = ts.datagen.gen_random_walk(CANARY["n"], CANARY["seed"])
    rep = ts.onepass.simplify(pts, ts.fitting.FitConfig(zeta=CANARY["zeta"]), ts.onepass.Mode.OPERB_A)
    xs, ys, tt = zip(*((p.x, p.y, p.t) for p in pts))
    return bool(oracle.check(xs, ys, tt, oracle.segments_of(rep.segments), CANARY["zeta"]))


# -- traced runs -------------------------------------------------------------


def install_tracing(tracer, ts) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    work, counts = tracer.work, tracer.counts

    def points(label, args, rep):
        work[label] += len(args[0])
        counts[label + "_segments"] += len(rep.segments)
        if label == "onepass.operb-a":
            counts["onepass.anomalous"] += rep.anomalous_candidates
            counts["onepass.patches"] += rep.patches

    def rows(label, args, corpus):
        work[label] += sum(map(len, corpus.values()))

    def emitted(label, args, n):
        work[label] += n

    def stats_points(label, args, stats):
        work[label] += stats.input_points

    def verified(label, args, result):
        work[label] += len(args[1])

    for module in (ts.io, ts.harness):
        tracer.wrap(module, "ingest_csv", "io.ingest", rows)
    tracer.wrap(ts.io, "emit_segments", "io.emit", emitted)
    for module in (ts.metrics, ts.harness):
        tracer.wrap(module, "compute_stats", "metrics.stats", stats_points)
    tracer.wrap(ts.metrics, "verify_error_bound", "metrics.verify", verified)
    tracer.wrap(ts.harness, "run_compare", "harness.run_compare")
    tracer.wrap(ts.harness, "compress_corpus", "harness.compress_corpus")
    for algo in BASELINES:
        tracer.wrap(ts.harness, f"{algo}_simplify", f"baselines.{algo}", points)
    mode_of = ts.onepass.Mode
    tracer.wrap(
        ts.harness,
        "simplify",
        lambda traj, cfg, mode=mode_of.OPERB: "onepass." + mode_of(mode).value,
        points,
    )
    tracer.wrap(ts.onepass, "try_patch", "onepass.try_patch")


def layer_metrics(tracer, passes: int, pts_per_s: float, durations) -> dict:
    self_ns = tracer.self_ns()
    work, counts, calls = tracer.work, tracer.counts, tracer.calls

    def per(span, unit_count):
        return self_ns[span] / unit_count if unit_count else 0.0

    m = {
        "io.ingest_ns_per_row": (per("io.ingest", work["io.ingest"]), "ns"),
        "io.emit_ns_per_seg": (per("io.emit", work["io.emit"]), "ns"),
    }
    for algo in ("operb", "operb-a"):
        m[f"onepass.{algo}_ns_per_pt"] = (per(f"onepass.{algo}", work[f"onepass.{algo}"]), "ns")
    if durations:
        import numpy as np

        pooled = np.concatenate([np.frombuffer(d, dtype=np.int64) for d in durations])
        push = (float(pooled.mean()), float(np.percentile(pooled, 50)), float(np.percentile(pooled, 99)))
    else:
        push = (0.0, 0.0, 0.0)
    m["onepass.push_ns_per_pt"] = (push[0], "ns")
    m["onepass.push_p50_ns"] = (push[1], "ns")
    m["onepass.push_p99_ns"] = (push[2], "ns")
    anomalous = counts["onepass.anomalous"] / passes
    patches = counts["onepass.patches"] / passes
    m["onepass.anomalous"] = (anomalous, "count")
    m["onepass.patches"] = (patches, "count")
    m["onepass.patch_yield"] = (patches / anomalous if anomalous else 0.0, "ratio")
    m["onepass.try_patch_calls"] = (calls["onepass.try_patch"] / passes, "count")
    m["onepass.try_patch_ns_per_call"] = (per("onepass.try_patch", calls["onepass.try_patch"]), "ns")
    m["metrics.stats_ns_per_pt"] = (per("metrics.stats", work["metrics.stats"]), "ns")
    m["metrics.verify_ns_per_pt"] = (per("metrics.verify", work["metrics.verify"]), "ns")
    for algo in BASELINES:
        m[f"baselines.{algo}_ns_per_pt"] = (per(f"baselines.{algo}", work[f"baselines.{algo}"]), "ns")
    m["harness.compare_self_s"] = (self_ns["harness.run_compare"] / passes / 1e9, "s")
    for algo in ALGOS:
        layer = "baselines" if algo in BASELINES else "onepass"
        m[f"{layer}.{algo}_segments"] = (counts[f"{layer}.{algo}_segments"] / passes, "count")
    m["trace.pts_per_s"] = (pts_per_s, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- the measured process ----------------------------------------------------


def job(workload: str, d: Path, seconds: float, trace: bool, setup_only: bool) -> int:
    ts = import_program()
    bench = WORKLOADS[workload](ts, d)
    print("ready", flush=True)
    if setup_only:
        return 0
    bench.load()

    tracer = None
    if trace:
        tracer = Tracer()
        install_tracing(tracer, ts)
    rates, scaled, refs, digests, durations = [], [], [], [], []
    timed = 0.0
    while True:
        with hostspeed.Sampler() as host:
            start = time.perf_counter()
            points, segments, result = bench.run_pass(tracer)
            elapsed = time.perf_counter() - start - host.spent
        digests.append(bench.digest(result))
        warm_up = len(digests) == 1
        done = not warm_up and timed + elapsed >= seconds
        if not done:
            result = None  # the last pass's output is kept for the checks
        if warm_up:
            if tracer is not None:
                tracer.clear()
            continue
        timed += elapsed
        rates.append(points / elapsed)
        scaled.append(host.at_reference(elapsed))
        refs.append(statistics.median(host.samples))
        if tracer is not None and bench.durations is not None:
            durations.append(bench.durations)
        if done:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pts_per_s = points / statistics.median(scaled)
    print(
        "pass rates:", json.dumps([round(r) for r in rates]),
        "median reference loop us:", json.dumps([round(r * 1e6) for r in refs]),
        "at reference speed:", round(pts_per_s),
        file=sys.stderr,
    )

    out = {}
    if tracer is not None:
        tracer.restore()
        out = layer_metrics(tracer, len(rates), pts_per_s, durations)
        tracer.dump(str(d.parent / f"trace-{workload}.json"))

    def log(msg):
        print(msg, file=sys.stderr)

    # Every pass must give the same output, so checking the last one
    # settles them all.
    failed_ops, ops_per_pass, ok = bench.check(result, log)
    ok &= len(set(digests)) == 1
    passes = len(digests)
    attempted = passes * ops_per_pass
    failed = passes * len(failed_ops)
    if bench.canary:
        attempted += passes
        failed += sum(canary_fails(ts) for _ in range(passes))
    if not trace:
        out = {
            "pts_per_s": {"value": pts_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "segments_out": {"value": segments, "unit": "count"},
        }
    print(json.dumps({"correct": bool(ok) and not failed_ops, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("gen", "setup", "job"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "gen":
        gen(args.workload, args.seed, args.smoke, args.dir)
        return 0
    return job(args.workload, args.dir, args.seconds, bool(args.trace), args.mode == "setup")


if __name__ == "__main__":
    sys.exit(main())
