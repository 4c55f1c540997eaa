"""Deterministic synthetic trajectories and the committed figure fixtures.

All randomness flows through SplitMix64 so corpora are reproducible across
platforms and Python versions; nothing here touches the stdlib RNG.
"""

import math
from importlib import resources
from typing import List

from .fitting import check_zeta
from .geometry import Point, rows_view
from .io import _checked_rows

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


STEPWISE_MAX_K = 100_000


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
    if not 2 <= k <= STEPWISE_MAX_K:
        raise ValueError(f"k must be in [2, {STEPWISE_MAX_K}]")
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


def figure_fixture(name: str) -> List[Point]:
    """Committed reference routes: 'route' (15 points) and 'corner'
    (9 points), stored as CSV next to the package.

    Read by ingest's row loop, with all its checks, and not by its block
    path, so that no numpy is loaded to write a figure."""
    if name not in ("route", "corner"):
        raise ValueError("name must be 'route' or 'corner'")
    path = resources.files("trajsimp").joinpath(f"data/figure_{name}.csv")
    bufs = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        _checked_rows(str(path), fh, 0, None, bufs)
    return [Point(*row) for row in rows_view(bufs[name]).tolist()]
