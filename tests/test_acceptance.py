"""End-to-end gates for the whole toolkit.

One test per shipping guarantee: the error bound across every algorithm
and option combination, one-pass point access, the adversarial angle
drift, batch-reference equivalence, optimality floors, ratio orderings,
patching behavior, scaling, and the committed figure fixtures.  Corpus
parameters are frozen; regenerating them yields identical inputs.
"""

import gc
import itertools
import math
import statistics
import time
from collections import Counter

from trajsimp.baselines import dp_simplify, fbqs_simplify, opw_simplify
from trajsimp.datagen import (
    SplitMix64,
    figure_fixture,
    gen_grid_route,
    gen_random_walk,
    gen_stepwise_adversarial,
)
from trajsimp.fitting import FitConfig
from trajsimp.metrics import compute_stats, verify_error_bound
from trajsimp.onepass import Mode, OperbEncoder, simplify

from oracles import optimal_segments

ZETAS = (5.0, 20.0, 40.0, 100.0)

ALL_OFF = dict(opt1=False, opt2=False, opt3=False, opt4=False, opt5=False)


def _mixture_size(rng: SplitMix64) -> int:
    # Mostly short trajectories, a fat tail up to the 2000-point cap.
    u = rng.next_float()
    if u < 0.85:
        return rng.randint(2, 80)
    if u < 0.97:
        return rng.randint(80, 400)
    return rng.randint(400, 2000)


def test_criterion_01_error_bound():
    """Every algorithm and option combination stays within its bound."""
    start = time.perf_counter()
    combos = list(itertools.product((False, True), repeat=5))
    checked = 0
    for seed in range(1000):
        rng = SplitMix64(seed ^ 0xA11CE)
        n = _mixture_size(rng)
        gen = gen_random_walk if seed < 500 else gen_grid_route
        traj = gen(n, seed)
        zeta = ZETAS[seed % 4]
        reps = [
            dp_simplify(traj, zeta),
            opw_simplify(traj, zeta),
            fbqs_simplify(traj, zeta),
            simplify(traj, FitConfig(zeta=zeta), Mode.OPERB_A),
        ]
        for o1, o2, o3, o4, o5 in combos:
            cfg = FitConfig(zeta=zeta, opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
            reps.append(simplify(traj, cfg, Mode.OPERB))
        for rep in reps:
            ok, violations = verify_error_bound(rep, traj, zeta)
            assert ok, f"seed {seed} n {n} zeta {zeta}: {violations[:3]}"
            checked += 1
    assert checked == 1000 * 36
    assert time.perf_counter() - start < 120.0


class _CountingList(list):
    """List that counts every integer __getitem__ by normalized index."""

    def __init__(self, pts):
        super().__init__(pts)
        self.fetches = Counter()

    def __getitem__(self, idx):
        if isinstance(idx, int):
            self.fetches[idx if idx >= 0 else len(self) + idx] += 1
        return super().__getitem__(idx)


def test_criterion_02_one_pass_reads():
    """Both streaming modes fetch each input index exactly once."""
    corpus = []
    for seed in range(30):
        rng = SplitMix64(seed ^ 0xFE7C)
        corpus.append(gen_random_walk(rng.randint(2, 600), seed))
        corpus.append(gen_grid_route(rng.randint(2, 600), seed + 1000))
    corpus.append(figure_fixture("route"))
    corpus.append(figure_fixture("corner"))
    corpus.append(gen_stepwise_adversarial(500, 10.0))
    for i, traj in enumerate(corpus):
        cfg = FitConfig(zeta=ZETAS[i % 4])
        for mode in (Mode.OPERB, Mode.OPERB_A):
            src = _CountingList(traj)
            simplify(src, cfg, mode)
            assert dict(src.fetches) == {k: 1 for k in range(len(traj))}


def test_criterion_03_angle_drift_bound():
    """Cumulative fitted-angle drift on the adversarial spiral.

    The drift must stay under the 0.8123 rad cap and match the direct
    summation of the per-step corrections arcsin(1/i)/i.  All options are
    off: the raised first-active threshold would merge the first two steps
    and shift the sum by more than the comparison tolerance.
    """
    start = time.perf_counter()
    k = 100_000
    pts = gen_stepwise_adversarial(k, zeta=1.0)
    cfg = FitConfig(zeta=1.0, **ALL_OFF)
    enc = OperbEncoder(cfg, first=pts[0])
    push = enc.push
    # With opt5 off a break would return the closed segment at once.
    assert push(pts[1]) == []
    theta_1 = enc.fit.fit_theta
    for p in pts[2:]:
        assert not push(p)
    drift = abs(enc.fit.fit_theta - theta_1)
    expected = sum(math.asin(1.0 / i) / i for i in range(2, k + 1))
    assert drift <= 0.8123
    assert abs(drift - expected) <= 1e-6
    assert time.perf_counter() - start < 10.0


def _reference_split(pts, zeta, lo, hi, out):
    """Plain recursion mirroring the split predicate: farthest interior
    point by |cross|, first index on ties, emit when within zeta*length."""
    if hi - lo < 2:
        out.append((lo, hi))
        return
    xi, yi = pts[lo].x, pts[lo].y
    dx = pts[hi].x - xi
    dy = pts[hi].y - yi
    length = math.hypot(dx, dy)
    best = -1.0
    split = lo
    if length == 0.0:
        for k in range(lo + 1, hi):
            c = math.hypot(pts[k].x - xi, pts[k].y - yi)
            if c > best:
                best = c
                split = k
        limit = zeta
    else:
        for k in range(lo + 1, hi):
            c = dx * (pts[k].y - yi) - dy * (pts[k].x - xi)
            if c < 0.0:
                c = -c
            if c > best:
                best = c
                split = k
        limit = zeta * length
    if best <= limit:
        out.append((lo, hi))
        return
    _reference_split(pts, zeta, lo, split, out)
    _reference_split(pts, zeta, split, hi, out)


def test_criterion_04_dp_reference_match():
    """dp_simplify equals the recursive reference: same bounds, same points."""
    zetas = (0.5, 2.0, 5.0, 20.0)
    for seed in range(200):
        rng = SplitMix64(seed ^ 0xD0)
        n = rng.randint(2, 64)
        gen = gen_random_walk if seed % 2 == 0 else gen_grid_route
        traj = gen(n, seed)
        zeta = zetas[seed % 4]
        expected: list = []
        _reference_split(traj, zeta, 0, n - 1, expected)
        rep = dp_simplify(traj, zeta)
        got = []
        pos = 0
        for seg in rep.segments:
            end = pos + seg.covered - 1
            got.append((pos, end))
            assert seg.start == traj[pos]
            assert seg.end == traj[end]
            pos = end
        assert got == expected, f"seed {seed} zeta {zeta}"
        assert pos == n - 1


def test_criterion_05_optimal_floor():
    """No algorithm beats the exact minimum segment count."""
    for seed in range(100):
        rng = SplitMix64(seed ^ 0x5EED)
        n = rng.randint(2, 500)
        traj = gen_random_walk(n, seed)
        zeta = ZETAS[seed % 4]
        floor = optimal_segments(traj, zeta)
        cfg = FitConfig(zeta=zeta)
        counts = {
            "dp": len(dp_simplify(traj, zeta).segments),
            "opw": len(opw_simplify(traj, zeta).segments),
            "fbqs": len(fbqs_simplify(traj, zeta).segments),
            "operb": len(simplify(traj, cfg, Mode.OPERB).segments),
            "operb-a": len(simplify(traj, cfg, Mode.OPERB_A).segments),
        }
        for name, count in counts.items():
            assert count >= floor, f"{name} seed {seed}: {count} < {floor}"


def test_criterion_06_ratio_ordering():
    """Patching never loses to plain output; both stay close to batch DP."""
    corpus = [gen_grid_route(400, seed, step=20.0) for seed in range(40)]
    totals = {"dp": 0, "fbqs": 0, "operb": 0, "operb-a": 0}
    for traj in corpus:
        for zeta in ZETAS:
            cfg = FitConfig(zeta=zeta)
            plain = len(simplify(traj, cfg, Mode.OPERB).segments)
            patched = len(simplify(traj, cfg, Mode.OPERB_A).segments)
            assert patched <= plain, f"zeta {zeta}"
            if zeta == 40.0:
                totals["operb"] += plain
                totals["operb-a"] += patched
        totals["dp"] += len(dp_simplify(traj, 40.0).segments)
        totals["fbqs"] += len(fbqs_simplify(traj, 40.0).segments)
    points = 400 * len(corpus)
    assert totals["operb-a"] / points <= 1.05 * (totals["dp"] / points)
    print(
        "zeta=40 segment totals: operb {operb}, fbqs {fbqs} "
        "(ratio {r:.4f}, informational)".format(
            r=totals["operb"] / totals["fbqs"], **totals
        )
    )


def test_criterion_07_patching_profile():
    """Patching rate is high at permissive corner angles, zero at pi, and
    never increases as the minimum corner angle grows."""
    corpus = [gen_grid_route(400, seed, step=80.0) for seed in range(40)]
    zeta = 40.0  # half the lattice step

    def patching_ratio(gamma_m):
        cfg = FitConfig(zeta=zeta, gamma_m=gamma_m)
        reps = [simplify(traj, cfg, Mode.OPERB_A) for traj in corpus]
        return compute_stats(reps, corpus).patching_ratio

    assert patching_ratio(math.pi / 3) >= 0.3
    assert patching_ratio(math.pi) == 0.0
    sweep = [
        patching_ratio(g)
        for g in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)
    ]
    assert all(a >= b for a, b in zip(sweep, sweep[1:])), sweep


def test_criterion_08_linear_scaling():
    """Doubling the input roughly doubles the wall time, and the stream
    encoder beats batch DP on the same input.

    The small, big and DP runs take turns and the size ratio is taken per
    round, so a drift of host speed moves both sides of a ratio alike. A
    collection before each timed call keeps the collector's passes over
    objects left by earlier tests out of the timings."""
    zeta = 40.0
    cfg = FitConfig(zeta=zeta)
    small = gen_random_walk(100_000, 42)
    big = gen_random_walk(200_000, 42)

    def wall(fn):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    rounds = [
        (
            wall(lambda: simplify(small, cfg)),
            wall(lambda: simplify(big, cfg)),
            wall(lambda: dp_simplify(small, zeta)),
        )
        for _ in range(5)
    ]
    ratio = statistics.median(t_big / t_small for t_small, t_big, _ in rounds)
    assert 1.5 <= ratio <= 2.6, rounds
    t_small = statistics.median(r[0] for r in rounds)
    t_dp = statistics.median(r[2] for r in rounds)
    assert t_small < t_dp, rounds


def test_criterion_09_optimization_efficacy():
    """The option stack never produces more segments than the bare fit."""
    corpus = [gen_grid_route(400, seed, step=20.0) for seed in range(40)]
    for zeta in ZETAS:
        on_cfg = FitConfig(zeta=zeta)
        off_cfg = FitConfig(zeta=zeta, **ALL_OFF)
        on = sum(len(simplify(t, on_cfg, Mode.OPERB).segments) for t in corpus)
        off = sum(len(simplify(t, off_cfg, Mode.OPERB).segments) for t in corpus)
        assert on <= off, f"zeta {zeta}: {on} > {off}"


def test_criterion_10_fixture_counts():
    """The committed route fixture compresses to the published topology."""
    traj = figure_fixture("route")
    cfg = FitConfig(zeta=1.0)
    plain = simplify(traj, cfg, Mode.OPERB)
    patched = simplify(traj, cfg, Mode.OPERB_A)
    batch = dp_simplify(traj, 1.0)
    assert len(plain.segments) == 5
    assert len(patched.segments) == 4
    assert sum(1 for s in patched.segments if s.patched_start) == 1
    assert len(batch.segments) == 4
