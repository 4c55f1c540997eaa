"""Deterministic synthetic trajectories and an exact segment-count oracle.

All randomness flows through SplitMix64 so corpora are reproducible across
platforms and Python versions; nothing here touches the stdlib RNG.
"""

import math
from importlib import resources
from typing import List

import numpy as np

from .fitting import check_zeta
from .geometry import Point
from .io import ingest_csv

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix generator (Steele, Lea, Flood 2014 constants).

    State advances by the golden-gamma increment; output is the state run
    through two xor-multiply finalizer rounds.  Doubles take the top 53
    bits, so next_float() is uniform on [0, 1).
    """

    _GAMMA = 0x9E3779B97F4A7C15
    _MUL1 = 0xBF58476D1CE4E5B9
    _MUL2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self._GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * self._MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * self._MUL2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends included."""
        return lo + int(self.next_float() * (hi - lo + 1))


def _check_walk(n: int, step: float) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and > 0")


def gen_random_walk(n: int, seed: int, step: float = 5.0) -> List[Point]:
    """Constant-speed walk whose heading drifts by uniform(-pi/8, pi/8)
    per sample.  Starts at the origin with t = 0, 1, 2, ...; the polyline
    length is exactly (n - 1) * step."""
    _check_walk(n, step)
    rng = SplitMix64(seed)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    x = y = 0.0
    pts = [Point(0.0, 0.0, 0.0)]
    for i in range(1, n):
        heading += rng.uniform(-math.pi / 8.0, math.pi / 8.0)
        x += step * math.cos(heading)
        y += step * math.sin(heading)
        pts.append(Point(x, y, float(i)))
    return pts


def gen_grid_route(n: int, seed: int, step: float = 5.0) -> List[Point]:
    """Axis-aligned route: legs of 5..20 unit steps joined by +-90 degree
    turns.  Each corner sample is dropped with probability 1/2; the step
    clock keeps ticking, so dropped corners leave timestamp gaps."""
    _check_walk(n, step)
    rng = SplitMix64(seed)
    dirs = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    d = rng.randint(0, 3)
    x = y = 0.0
    t = 0
    pts = [Point(0.0, 0.0, 0.0)]
    while len(pts) < n:
        leg = rng.randint(5, 20)
        for s in range(leg):
            x += dirs[d][0] * step
            y += dirs[d][1] * step
            t += 1
            at_corner = s == leg - 1
            if at_corner and rng.next_float() < 0.5:
                continue
            pts.append(Point(x, y, float(t)))
            if len(pts) == n:
                return pts
        d = (d + 1) % 4 if rng.next_float() < 0.5 else (d - 1) % 4
    return pts


def gen_stepwise_adversarial(k: int, zeta: float = 1.0) -> List[Point]:
    """Worst-case spiral for the fitting update: point i sits at radius
    i * zeta / 2, bearing arcsin(1/i) past the previous fitted direction,
    so every step lands a half-width off the fitted line and the direction
    creeps by arcsin(1/i) / i.  Feed it with every optimization off; the
    shortcut paths change the arithmetic it is built to pin down.

    The off-line distance is backed off by a factor (1 - 1e-8): exactly on
    the boundary, rounding decides the accept test one ulp at a time and
    the spiral cannot survive even a handful of steps.  The inset moves
    the cumulative drift by under 1e-8 of a radian while the radii stay
    exactly i * zeta / 2, so zone indices are unaffected.
    """
    if not 2 <= k <= 100_000:
        raise ValueError("k must be in [2, 100000]")
    check_zeta(zeta)
    inset = 1.0 - 1e-8
    half = zeta / 2.0
    pts = [Point(0.0, 0.0, 0.0), Point(half, 0.0, 1.0)]
    theta = 0.0
    for i in range(2, k + 1):
        gamma = math.asin(inset / i)
        phi = theta + gamma
        r = i * half
        pts.append(Point(r * math.cos(phi), r * math.sin(phi), float(i)))
        theta += gamma / i
    return pts


def stepwise_drift(k: int) -> float:
    """Closed-form fitted-direction drift after the k-step spiral."""
    return sum(math.asin(1.0 / i) / i for i in range(2, k + 1))


def figure_fixture(name: str) -> List[Point]:
    """Committed reference routes: 'route' (15 points) and 'corner'
    (9 points), stored as CSV next to the package."""
    if name not in ("route", "corner"):
        raise ValueError("name must be 'route' or 'corner'")
    path = resources.files("trajsimp").joinpath(f"data/figure_{name}.csv")
    return ingest_csv(str(path))[name]


def optimal_segments(traj: List[Point], zeta: float) -> int:
    """Fewest segments over all representations whose endpoints are input
    samples, each span staying within zeta of its chord.  Exact via
    shortest path on the span-validity graph; quadratic memory, so capped
    at 2000 points.  A point may also be a plain (x, y, t) tuple or list."""
    n = len(traj)
    if n > 2000:
        raise ValueError("optimal_segments is O(n^2) per anchor, n capped at 2000")
    if n == 0:
        raise ValueError("need at least one point")
    check_zeta(zeta)
    if n <= 2:
        return 1
    xs = np.fromiter((p[0] for p in traj), dtype=np.float64, count=n)
    ys = np.fromiter((p[1] for p in traj), dtype=np.float64, count=n)

    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    frontier = [0]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for i in frontier:
            dx = xs[i + 1 :] - xs[i]
            dy = ys[i + 1 :] - ys[i]
            lengths = np.hypot(dx, dy)
            # cross[j, k] = how far interior point k strays off chord (i, j),
            # scaled by chord length; prefix max gives the worst interior.
            cross = np.abs(np.outer(dx, dy) - np.outer(dy, dx))
            worst = np.empty(len(dx))
            worst[0] = 0.0
            if len(dx) > 1:
                run = np.maximum.accumulate(cross, axis=1)
                worst[1:] = run[np.arange(1, len(dx)), np.arange(len(dx) - 1)]
            ok = worst <= zeta * lengths
            # Degenerate chords (duplicate position) compare distances to
            # the shared point instead.
            zero = lengths == 0.0
            if np.any(zero):
                for j_rel in np.nonzero(zero)[0]:
                    if j_rel == 0:
                        ok[j_rel] = True
                        continue
                    ok[j_rel] = bool(
                        np.all(np.hypot(dx[:j_rel], dy[:j_rel]) <= zeta)
                    )
            for j_rel in np.nonzero(ok)[0]:
                j = i + 1 + j_rel
                if dist[j] < 0:
                    dist[j] = hops
                    if j == n - 1:
                        return hops
                    nxt.append(j)
        frontier = nxt
    raise AssertionError("unreachable: adjacent samples always span validly")
