"""Test-only oracles: the exact segment-count floor, the stepwise
spiral's closed-form drift, the vertices of an FBQS hull and the scalar
Douglas-Peucker split.

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


def reference_split(pts: Sequence[Point], zeta: float) -> List[Tuple[int, int]]:
    """The (start, end) index pairs of Douglas-Peucker on pts, in order:
    split a span at its farthest interior point by |cross| with the chord
    (first index on ties) until every span is within zeta * length, or,
    for a zero-length chord, every interior point is within zeta of the
    shared end. A plain scalar loop over each span, one span at a time
    from an explicit stack, so spans of thousands of points do not reach
    the recursion limit. pts may hold Points or plain (x, y, t) tuples."""
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    out = []
    todo = [(0, len(pts) - 1)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            out.append((lo, hi))
            continue
        xi, yi = xs[lo], ys[lo]
        dx = xs[hi] - xi
        dy = ys[hi] - yi
        length = math.hypot(dx, dy)
        best = -1.0
        split = lo
        if length == 0.0:
            for k in range(lo + 1, hi):
                c = math.hypot(xs[k] - xi, ys[k] - yi)
                if c > best:
                    best = c
                    split = k
            limit = zeta
        else:
            for k in range(lo + 1, hi):
                c = dx * (ys[k] - yi) - dy * (xs[k] - xi)
                if c < 0.0:
                    c = -c
                if c > best:
                    best = c
                    split = k
            limit = zeta * length
        if best <= limit:
            out.append((lo, hi))
            continue
        # The left half first, as the recursion visits it.
        todo.append((split, hi))
        todo.append((lo, split))
    return out


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
