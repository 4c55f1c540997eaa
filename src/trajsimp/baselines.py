"""Batch and sliding-window baselines to compare the one-pass encoder against.

All three return the same ``PiecewiseRepresentation`` as the streaming
encoder: consecutive segments share their endpoint sample, and covered
counts include both endpoints.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from .fitting import check_zeta
from .geometry import Point
from .onepass import PiecewiseRepresentation, Segment


def _points(traj: Sequence[Point], zeta: float) -> List[Point]:
    """traj as a list; a single point leaves every loop as one (p0, p0).

    The loops read coordinates by index, so a point may also be a plain
    (x, y, t) tuple or list; ``_finalize`` turns the segment ends into
    Points."""
    check_zeta(zeta)
    pts = list(traj)
    if not pts:
        raise ValueError("need at least one point")
    return pts


def _point(p) -> Point:
    return p if type(p) is Point else Point._make(p)


def _finalize(pts: Sequence[Point], bounds: List[Tuple[int, int]]) -> PiecewiseRepresentation:
    segs = [Segment(_point(pts[i]), _point(pts[j]), j - i + 1) for i, j in bounds]
    anomalous = sum(1 for s in segs if s.covered == 2)
    return PiecewiseRepresentation(segs, anomalous_candidates=anomalous)


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
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
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


# Window ends opw_simplify tests per numpy pass, and the cap on ends x
# interior points per pass; see its docstring.
_OPW_BLOCK = 32
_OPW_CELLS = 1 << 16
# _OPW_TAIL[r, c] is True where column c of the block's last interior
# columns lies at or past the end of row r: those are not row r's points.
_OPW_TAIL = np.arange(_OPW_BLOCK - 1) >= np.arange(_OPW_BLOCK)[:, None]


def opw_simplify(traj: Sequence[Point], zeta: float) -> PiecewiseRepresentation:
    """Open-window: grow [P_s..P_k] while every window point stays within
    zeta of line(P_s, P_k); on violation emit line(P_s, P_{k-1}) and restart
    the window at P_{k-1} (P_k is re-examined there).

    Cost model: each numpy pass tests a block of 32 window ends at once,
    as one (ends x interior) matrix of the distances of the points
    s+1..e-2 to the chords P_s->P_e for the ends e in the block; each row
    is masked to its own interior and the first row over zeta ends the
    window. The windows of a walk hold a few dozen points, so a pass per
    end would pay about ten numpy calls for a tiny array; a block of 32
    spans such a window in one or two passes, while the rows computed past
    the first violation cost little next to those calls (blocks of 16 and
    64 were both slower on walks and grid routes). Once a window holds
    more than 2048 points, fewer ends go into a pass, so that one pass
    holds about 2**16 distances (512 kB) and memory stays linear in the
    window, as with one end per pass. The work stays
    quadratic in the window length, as OPW's is by definition. Every
    distance is the expression the one-end-per-pass loop used (math.hypot
    chord length, |cross| / length, radial np.hypot for a zero-length
    chord, NaN counting as a violation), so the segments are the same.
    """
    pts = _points(traj, zeta)
    n = len(pts)
    xs = np.fromiter((p[0] for p in pts), dtype=np.float64, count=n)
    ys = np.fromiter((p[1] for p in pts), dtype=np.float64, count=n)
    bounds: List[Tuple[int, int]] = []
    s = 0
    k = 2  # the first end with an interior point
    while k < n:
        e = min(k + max(1, min(_OPW_BLOCK, _OPW_CELLS // (k - s))), n)
        rows = e - k
        x0 = xs[s]
        y0 = ys[s]
        cx = xs[k:e] - x0
        cy = ys[k:e] - y0
        sx = xs[s + 1 : e - 1] - x0
        sy = ys[s + 1 : e - 1] - y0
        length = np.array(list(map(math.hypot, cx.tolist(), cy.tolist())))
        zero = length == 0.0
        length[zero] = 1.0  # rows of radial distances, set below
        d = cx[:, None] * sy
        d -= cy[:, None] * sx
        np.abs(d, out=d)
        d /= length[:, None]
        if zero.any():
            d[zero] = np.hypot(sx, sy)
        # Row r (end k + r) owns the interior columns before k + r - s - 1.
        d[:, k - s - 1 :][_OPW_TAIL[:rows, : rows - 1]] = 0.0
        bad = ~(d.max(axis=1) <= zeta)
        if not bad.any():
            k = e
            continue
        end = k + int(bad.argmax())
        bounds.append((s, end - 1))
        s = end - 1
        k = end + 1
    bounds.append((s, n - 1))
    return _finalize(pts, bounds)


_HALF_PI = 0.5 * math.pi


class HullState:
    """Per-quadrant certificate for the simplified quadrant-hull window.

    Each quadrant keeps a bounding box plus the extreme bearings seen from
    the window anchor; the box clipped by the two bearing lines is a convex
    region (at most eight vertices) containing every buffered point, so the
    max vertex distance upper-bounds every buffered point's distance.

    Cost model: ``add`` updates one quadrant's box and bearings and clips
    nothing; when one of them moved, it drops that quadrant's clipped
    polygon. ``exceeds`` settles most quadrants with a bound of a few
    multiplications and clips a dropped polygon only when that bound cannot
    settle the query, at most once per move; ``vertices`` clips every
    dropped polygon.
    """

    __slots__ = ("quads", "polys")

    def __init__(self):
        # quadrant -> [minx, maxx, miny, maxy, th_low, th_high]
        self.quads = {}
        # quadrant -> its clipped polygon, or None once add moved the
        # quadrant; in the same key order as quads
        self.polys = {}

    def add(self, dx: float, dy: float) -> None:
        if dx >= 0.0:
            q = 0 if dy >= 0.0 else 3
        else:
            q = 1 if dy >= 0.0 else 2
        th = math.atan2(dy, dx)
        box = self.quads.get(q)
        if box is None:
            self.quads[q] = [dx, dx, dy, dy, th, th]
            self.polys[q] = None
            return
        moved = False
        if dx < box[0]:
            box[0] = dx
            moved = True
        elif dx > box[1]:
            box[1] = dx
            moved = True
        if dy < box[2]:
            box[2] = dy
            moved = True
        elif dy > box[3]:
            box[3] = dy
            moved = True
        if th < box[4]:
            box[4] = th
            moved = True
        elif th > box[5]:
            box[5] = th
            moved = True
        if moved:
            self.polys[q] = None

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
        out = []
        first = poly[0]
        ax, ay = first
        ca = c0 = keep_sign * (cx * ay - cy * ax)
        ka = k0 = ca >= -1e-12 * (abs(ax) + abs(ay))
        if ka:
            out.append(first)
        # One pass over the edges a -> b: the crossing (if any), then b.
        for b in poly[1:]:
            bx, by = b
            cb = keep_sign * (cx * by - cy * bx)
            kb = cb >= -1e-12 * (abs(bx) + abs(by))
            if ka is not kb:
                t = min(1.0, max(0.0, ca / (ca - cb)))
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
            if kb:
                out.append(b)
            ax = bx
            ay = by
            ca = cb
            ka = kb
        if ka is not k0:
            bx, by = first
            t = min(1.0, max(0.0, ca / (ca - c0)))
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
        return out

    @classmethod
    def _polygon(cls, box: List[float]) -> List[Tuple[float, float]]:
        """The box clipped to the bearing wedge about the anchor."""
        minx, maxx, miny, maxy, th_l, th_h = box
        poly = [(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy)]
        # Bearing wedge about the anchor: angle(v) <= th_h and >= th_l.
        # cross((cos th, sin th), v) = |v| sin(angle(v) - th).
        poly = cls._clip(poly, math.cos(th_h), math.sin(th_h), -1.0)
        if poly:
            poly = cls._clip(poly, math.cos(th_l), math.sin(th_l), 1.0)
        return poly

    def _clipped(self, q: int) -> List[Tuple[float, float]]:
        poly = self.polys[q]
        if poly is None:
            poly = self.polys[q] = self._polygon(self.quads[q])
        return poly

    def vertices(self) -> List[Tuple[float, float]]:
        verts: List[Tuple[float, float]] = []
        for q in self.quads:
            verts.extend(self._clipped(q))
        return verts

    def exceeds(self, dx: float, dy: float, zeta: float) -> bool:
        """Whether some polygon vertex lies more than zeta (finite, > 0)
        from the line through the anchor with direction (dx, dy), by the
        distance abs(vx * uy - vy * ux), (ux, uy) = (dx, dy) / hypot(dx, dy).
        A NaN distance exceeds nothing; a zero direction tests every
        vertex's distance hypot(vx, vy) to the anchor instead.

        A quadrant is settled when either bound below is at most
        zeta - (5e-12 * R + 1e-300), R the distance of its box corner
        farthest from the anchor; only otherwise is its polygon clipped
        (once per move) and every vertex tested, so the answer is that of
        the exact test.

        * Box: uy * x - ux * y is linear, so over the box it peaks and
          bottoms out at the corners picked by the signs of uy and -ux.
        * Wedge, when the bearings span at most pi/2: the region lies
          within R of the anchor and between the extreme bearings, so its
          distance is at most R * F, F the largest |sin| between (ux, uy)
          and a bearing in the wedge: 1 when the wedge holds the line's
          normal (the bearings' dot products with (ux, uy) differ in sign;
          a wedge narrower than pi meets at most one normal), else the
          larger |sin| at the two bearings, |sin| being monotone between.

        Slack: the bounds hold for the exact region, the test runs on the
        computed vertices. Each vertex is a rounded convex combination of
        box corners, so it lies within a few ulps of the box. ``_clip``
        keeps a vertex up to tau = 1e-12 * (|x| + |y|) <= 1.5e-12 * R
        across a bearing line, and with the bearings at most pi/2 apart no
        vertex lies more than tau behind a bearing either. Such a point is
        within sqrt(2) * tau of the wedge (within tau of a bearing's ray
        when less than a right angle past it, else within sqrt(2) * tau of
        the anchor), which moves its distance by at most 2.2e-12 * R.
        Rounding in ux, uy, the distances, cos, sin and R adds about
        1e-14 * R; 1e-300 covers subnormal coordinates, whose rounding is
        absolute. A NaN or infinity fails both bounds.
        """
        length = math.hypot(dx, dy)
        if length == 0.0:
            for vx, vy in self.vertices():
                if math.hypot(vx, vy) > zeta:
                    return True
            return False
        ux = dx / length
        uy = dy / length
        # Box indices of the corners where uy * x - ux * y peaks (hi) and
        # bottoms out (lo).
        xh, xl = (1, 0) if uy >= 0.0 else (0, 1)
        yh, yl = (2, 3) if ux >= 0.0 else (3, 2)
        for q, box in self.quads.items():
            minx, maxx, miny, maxy, th_l, th_h = box
            r = math.hypot(maxx if maxx > -minx else minx,
                           maxy if maxy > -miny else miny)
            limit = zeta - (5e-12 * r + 1e-300)
            if (uy * box[xh] - ux * box[yh] <= limit
                    and ux * box[yl] - uy * box[xl] <= limit):
                continue
            if th_h - th_l <= _HALF_PI:
                cl = math.cos(th_l)
                sl = math.sin(th_l)
                ch = math.cos(th_h)
                sh = math.sin(th_h)
                if (cl * ux + sl * uy) * (ch * ux + sh * uy) <= 0.0:
                    f = 1.0
                else:
                    f = max(abs(cl * uy - sl * ux), abs(ch * uy - sh * ux))
                if r * f <= limit:
                    continue
            for vx, vy in self._clipped(q):
                if abs(vx * uy - vy * ux) > zeta:
                    return True
        return False


def fbqs_simplify(traj: Sequence[Point], zeta: float) -> PiecewiseRepresentation:
    """Simplified quadrant-hull window: a new point is accepted while the
    hull certificate keeps every buffered point within zeta of
    line(P_s, P_k); any indeterminate or exceeded bound emits and restarts
    at P_{k-1}.

    Cost model: one ``HullState.add`` and one ``HullState.exceeds`` per
    point. Most quadrants are settled by the box or wedge bound there, and
    a quadrant's polygon is clipped only when neither bound settles it, so
    a window along a straight line, where the box bound fails, clips
    almost nothing."""
    pts = _points(traj, zeta)
    n = len(pts)
    bounds: List[Tuple[int, int]] = []
    s = 0
    ax, ay = pts[0][0], pts[0][1]
    hull = HullState()
    for k in range(1, n):
        p = pts[k]
        if hull.exceeds(p[0] - ax, p[1] - ay, zeta):
            bounds.append((s, k - 1))
            s = k - 1
            ax, ay = pts[s][0], pts[s][1]
            hull = HullState()
        hull.add(p[0] - ax, p[1] - ay)
    bounds.append((s, n - 1))
    return _finalize(pts, bounds)
