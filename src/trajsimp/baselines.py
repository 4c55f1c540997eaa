"""Batch and sliding-window baselines to compare the one-pass encoder against.

All three return the same ``PiecewiseRepresentation`` as the streaming
encoder: consecutive segments share their endpoint sample, and covered
counts include both endpoints.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Point
from .onepass import PiecewiseRepresentation, Segment


def _points(traj: Sequence[Point], zeta: float) -> List[Point]:
    """traj as a list; a single point leaves every loop as one (p0, p0)."""
    if zeta <= 0.0:
        raise ValueError("zeta must be > 0")
    pts = list(traj)
    if not pts:
        raise ValueError("need at least one point")
    return pts


def _finalize(pts: Sequence[Point], bounds: List[Tuple[int, int]]) -> PiecewiseRepresentation:
    segs = [Segment(pts[i], pts[j], j - i + 1) for i, j in bounds]
    anomalous = sum(1 for s in segs if s.covered == 2)
    return PiecewiseRepresentation(segs, anomalous_candidates=anomalous)


def _span_distances(
    xs: np.ndarray, ys: np.ndarray, i: int, j: int
) -> Optional[np.ndarray]:
    """Distances of points i+1..j-1 to the line through points i and j,
    or None when the span has no interior."""
    if j - i < 2:
        return None
    dx = xs[j] - xs[i]
    dy = ys[j] - ys[i]
    length = math.hypot(dx, dy)
    sx = xs[i + 1 : j] - xs[i]
    sy = ys[i + 1 : j] - ys[i]
    if length == 0.0:
        return np.hypot(sx, sy)
    return np.abs(dx * sy - dy * sx) / length


def dp_simplify(traj: Sequence[Point], zeta: float) -> PiecewiseRepresentation:
    """Recursive split at the farthest point (first index on ties) until
    every span's deviation is within zeta.

    Scalar on purpose: this is the reference baseline the tests pin
    against a brute-force recursion, and the wall-clock comparisons with
    the streaming encoder only mean something when both run in the same
    execution model. A chord of zero length (identical endpoints) falls
    back to radial distances from the shared point.
    """
    pts = _points(traj, zeta)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    bounds: List[Tuple[int, int]] = []
    stack = [(0, len(pts) - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            bounds.append((i, j))
            continue
        xi = xs[i]
        yi = ys[i]
        dx = xs[j] - xi
        dy = ys[j] - yi
        length = math.hypot(dx, dy)
        best = -1.0
        split = i
        if length == 0.0:
            for k in range(i + 1, j):
                c = math.hypot(xs[k] - xi, ys[k] - yi)
                if c > best:
                    best = c
                    split = k
            limit = zeta
        else:
            # |cross| / length <= zeta, with the division hoisted out.
            for k in range(i + 1, j):
                c = dx * (ys[k] - yi) - dy * (xs[k] - xi)
                if c < 0.0:
                    c = -c
                if c > best:
                    best = c
                    split = k
            limit = zeta * length
        if best <= limit:
            bounds.append((i, j))
            continue
        stack.append((split, j))
        stack.append((i, split))
    return _finalize(pts, bounds)


def opw_simplify(traj: Sequence[Point], zeta: float) -> PiecewiseRepresentation:
    """Open-window: grow [P_s..P_k] while every window point stays within
    zeta of line(P_s, P_k); on violation emit line(P_s, P_{k-1}) and restart
    the window at P_{k-1} (P_k is re-examined there)."""
    pts = _points(traj, zeta)
    n = len(pts)
    xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=n)
    bounds: List[Tuple[int, int]] = []
    s = 0
    for k in range(1, n):
        dists = _span_distances(xs, ys, s, k)
        if dists is None or float(np.max(dists)) <= zeta:
            continue
        bounds.append((s, k - 1))
        s = k - 1
    bounds.append((s, n - 1))
    return _finalize(pts, bounds)


class HullState:
    """Per-quadrant certificate for the simplified quadrant-hull window.

    Each quadrant keeps a bounding box plus the extreme bearings seen from
    the window anchor; the box clipped by the two bearing lines is a convex
    region (at most eight vertices) containing every buffered point, so the
    max vertex distance upper-bounds every buffered point's distance.
    """

    __slots__ = ("quads",)

    def __init__(self):
        # quadrant -> [minx, maxx, miny, maxy, th_low, th_high]
        self.quads = {}

    def add(self, dx: float, dy: float) -> None:
        if dx >= 0.0:
            q = 0 if dy >= 0.0 else 3
        else:
            q = 1 if dy >= 0.0 else 2
        th = math.atan2(dy, dx)
        box = self.quads.get(q)
        if box is None:
            self.quads[q] = [dx, dx, dy, dy, th, th]
            return
        if dx < box[0]:
            box[0] = dx
        elif dx > box[1]:
            box[1] = dx
        if dy < box[2]:
            box[2] = dy
        elif dy > box[3]:
            box[3] = dy
        if th < box[4]:
            box[4] = th
        elif th > box[5]:
            box[5] = th

    @staticmethod
    def _clip(poly: List[Tuple[float, float]], cx: float, cy: float, keep_sign: float):
        """Keep the side where keep_sign * cross((cx, cy), v) >= 0.

        The boundary is kept with a tolerance scaled by the vertex
        magnitude: the extreme-bearing point sits exactly on its own clip
        line, but (cx, cy) carries the rounding of cos/sin(atan2(...)), so
        the cross product is off by up to ~1e-16 per unit of |v| even for
        that defining point. Scaling the slack by |cx*ay| + |cy*ax| instead
        would collapse it to nothing whenever the clip direction is nearly
        axis-parallel, clipping away the very point that defined the wedge
        (and with it the conservativeness of the certificate)."""
        m = len(poly)
        vals = []
        keep = []
        for ax, ay in poly:
            c = keep_sign * (cx * ay - cy * ax)
            vals.append(c)
            keep.append(c >= -1e-12 * (abs(ax) + abs(ay)))
        out = []
        for idx in range(m):
            nxt = (idx + 1) % m
            ax, ay = poly[idx]
            bx, by = poly[nxt]
            if keep[idx]:
                out.append((ax, ay))
            if keep[idx] != keep[nxt]:
                t = vals[idx] / (vals[idx] - vals[nxt])
                t = min(1.0, max(0.0, t))
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
        return out

    def vertices(self) -> List[Tuple[float, float]]:
        verts: List[Tuple[float, float]] = []
        for box in self.quads.values():
            minx, maxx, miny, maxy, th_l, th_h = box
            poly = [(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy)]
            # Bearing wedge about the anchor: angle(v) <= th_h and >= th_l.
            # cross((cos th, sin th), v) = |v| sin(angle(v) - th).
            poly = self._clip(poly, math.cos(th_h), math.sin(th_h), -1.0)
            if poly:
                poly = self._clip(poly, math.cos(th_l), math.sin(th_l), 1.0)
            verts.extend(poly)
        return verts

    def max_distance_to(self, dx: float, dy: float) -> float:
        """Upper bound on any buffered point's distance to the line through
        the anchor with direction (dx, dy); degenerate direction falls back
        to the distance to the anchor itself."""
        length = math.hypot(dx, dy)
        worst = 0.0
        if length == 0.0:
            for vx, vy in self.vertices():
                d = math.hypot(vx, vy)
                if d > worst:
                    worst = d
            return worst
        ux = dx / length
        uy = dy / length
        for vx, vy in self.vertices():
            d = abs(vx * uy - vy * ux)
            if d > worst:
                worst = d
        return worst


def fbqs_simplify(traj: Sequence[Point], zeta: float) -> PiecewiseRepresentation:
    """Simplified quadrant-hull window: a new point is accepted while the
    hull certificate keeps every buffered point within zeta of
    line(P_s, P_k); any indeterminate or exceeded bound emits and restarts
    at P_{k-1}."""
    pts = _points(traj, zeta)
    n = len(pts)
    bounds: List[Tuple[int, int]] = []
    s = 0
    anchor = pts[0]
    hull = HullState()
    for k in range(1, n):
        p = pts[k]
        if not hull.max_distance_to(p.x - anchor.x, p.y - anchor.y) <= zeta:
            bounds.append((s, k - 1))
            s = k - 1
            anchor = pts[s]
            hull = HullState()
        hull.add(p.x - anchor.x, p.y - anchor.y)
    bounds.append((s, n - 1))
    return _finalize(pts, bounds)
