"""Test-only oracles: the exact segment-count floor, the stepwise
spiral's closed-form drift and the vertices of an FBQS hull.

They serve the tests alone, so the package does not carry them: the
floor is O(n^2) and needs numpy, which the streaming path does not load.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from trajsimp.baselines import HullState
from trajsimp.fitting import check_zeta
from trajsimp.geometry import Point, columns


def hull_vertices(hull: HullState) -> List[Tuple[float, float]]:
    """The vertices of hull's clipped quadrant polygons, quadrant by
    quadrant, clipped through ``HullState._clipped`` as ``exceeds`` clips
    them."""
    return [v for box in hull.quads.values() for v in HullState._clipped(box)]


def stepwise_drift(k: int) -> float:
    """Closed-form fitted-direction drift after the k-step spiral."""
    return sum(math.asin(1.0 / i) / i for i in range(2, k + 1))


def optimal_segments(traj: Sequence[Point], zeta: float) -> int:
    """Fewest segments over all representations whose endpoints are input
    samples, each span staying within zeta of its chord.  Exact via
    shortest path on the span-validity graph; quadratic memory, so capped
    at 2000 points.  traj may also hold plain (x, y, t) tuples or lists, or
    be a trajectory view."""
    n = len(traj)
    if n > 2000:
        raise ValueError("optimal_segments is O(n^2) per anchor, n capped at 2000")
    if n == 0:
        raise ValueError("need at least one point")
    check_zeta(zeta)
    if n <= 2:
        return 1
    xs, ys, _ = columns(traj)
    xs = np.array(xs, dtype=np.float64)
    ys = np.array(ys, dtype=np.float64)

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
