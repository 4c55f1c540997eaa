"""Batch and sliding-window baselines to compare the one-pass encoder against.

All three return the same ``PiecewiseRepresentation`` as the streaming
encoder: consecutive segments share their endpoint sample, and covered
counts include both endpoints.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from .fitting import check_zeta, coord_error, coord_limit
from .geometry import Point, as_array
from .onepass import PiecewiseRepresentation, Segment


def _xyt(traj: Sequence[Point], zeta: float) -> np.ndarray:
    """traj as ``as_array``'s (n, 3) float64 array of x, y, t rows, once
    zeta and traj pass the checks every baseline makes: at least one point
    (a single point leaves every loop as one (p0, p0)), and each x and y
    within the bound of ``coord_limit`` (NaN included), tested in one
    numpy pass that refuses the first bad point with a DataError. t is
    read as float64 and never checked.

    A point may be a Point, a plain (x, y, t) tuple or list, or a row of a
    trajectory view, which is read in place."""
    check_zeta(zeta)
    xyt = as_array(traj)
    if not len(xyt):
        raise ValueError("need at least one point")
    lim = coord_limit(zeta)
    ok = (np.abs(xyt[:, :2]) < lim).all(axis=1)
    if not ok.all():
        k = int(ok.argmin())
        raise coord_error(k, xyt[k, 0], xyt[k, 1], lim)
    return xyt


def _finalize(xyt: np.ndarray,
              bounds: List[Tuple[int, int]]) -> PiecewiseRepresentation:
    """The segments over the chained (start, end) index pairs bounds, with
    their vertices taken from the rows of xyt.

    Each end is one ``Point``, built in C, that is also the next segment's
    start object, as in the encoder's output, so ``emit_segments`` formats
    each shared vertex once."""
    make = tuple.__new__  # make(Point, row) builds a Point in C
    rows = iter(xyt[[bounds[0][0], *(j for _, j in bounds)]].tolist())
    start = make(Point, next(rows))
    segs = []
    for (i, j), row in zip(bounds, rows):
        end = make(Point, row)
        segs.append(Segment(start, end, j - i + 1))
        start = end
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
    xyt = _xyt(traj, zeta)
    xs = xyt[:, 0].tolist()
    ys = xyt[:, 1].tolist()
    bounds: List[Tuple[int, int]] = []
    stack = [(0, len(xs) - 1)]
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
    return _finalize(xyt, bounds)


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
    as one (ends x interior) matrix of |cross| of the points s+1..e-2 with
    the chords P_s->P_e for the ends e in the block; each row is masked to
    its own interior and reduced to its maximum, and only those maxima
    are divided by their chord lengths. The first row over zeta ends the
    window. The windows of a walk hold a few dozen points, so a pass per
    end would pay about ten numpy calls for a tiny array; a block of 32
    spans such a window in one or two passes, while the rows computed past
    the first violation cost little next to those calls (blocks of 16 and
    64 were both slower on walks and grid routes). Once a window holds
    more than 2048 points, fewer ends go into a pass, so that one pass
    holds about 2**16 distances (512 kB) and memory stays linear in the
    window, as with one end per pass. The work stays quadratic in the
    window length, as OPW's is by definition. The window reads x and y
    as columns of ``_xyt``'s array, so a trajectory view is read in place.

    Every distance is the one the one-end-per-pass loop took (math.hypot
    chord length, |cross| / length, radial np.hypot for a zero-length
    chord, NaN counting as a violation), so the segments are the same:
    for a positive length L, correctly rounded division is monotone in
    the numerator, so max(|c| / L) = max(|c|) / L bit for bit. A block
    holding a zero-length chord divides the whole matrix and writes the
    radial rows before it reduces.
    """
    xyt = _xyt(traj, zeta)
    xs = xyt[:, 0]
    ys = xyt[:, 1]
    n = len(xs)
    bounds: List[Tuple[int, int]] = []
    s = 0
    k = 2  # the first end with an interior point
    while k < n:
        e = min(k + max(1, min(_OPW_BLOCK, _OPW_CELLS // (k - s))), n)
        rows = e - k
        # Offsets from P_s of the points s+1..e-1: the interior, then the ends.
        wx = xs[s + 1 : e] - xs[s]
        wy = ys[s + 1 : e] - ys[s]
        sx = wx[:-1]
        sy = wy[:-1]
        cx = wx[k - s - 1 :]
        cy = wy[k - s - 1 :]
        lens = list(map(math.hypot, cx.tolist(), cy.tolist()))
        d = cx[:, None] * sy
        d -= cy[:, None] * sx
        np.abs(d, out=d)
        radial = 0.0 in lens
        if radial:
            length = np.array(lens)
            zero = length == 0.0
            length[zero] = 1.0  # rows of radial distances, set below
            d /= length[:, None]
            d[zero] = np.hypot(sx, sy)
        # Row r (end k + r) owns the interior columns before k + r - s - 1.
        d[:, k - s - 1 :][_OPW_TAIL[:rows, : rows - 1]] = 0.0
        worst = np.maximum.reduce(d, axis=1)
        if not radial:
            worst /= lens
        ok = worst <= zeta
        r = int(ok.argmin())  # the first row over zeta, if there is one
        if ok[r]:
            k = e
            continue
        end = k + r
        bounds.append((s, end - 1))
        s = end - 1
        k = end + 1
    bounds.append((s, n - 1))
    return _finalize(xyt, bounds)


_HALF_PI = 0.5 * math.pi


class HullState:
    """Per-quadrant certificate for the simplified quadrant-hull window.

    Each quadrant keeps a bounding box plus the extreme bearings seen from
    the window anchor; the box clipped by the two bearing lines is a convex
    region (at most eight vertices) containing every buffered point, so the
    max vertex distance upper-bounds every buffered point's distance.

    Cost model: ``add`` updates one quadrant's box and bearings and clips
    nothing. ``exceeds`` settles a quadrant with the box bound or the
    region's exact extreme, a few dozen multiplications in all, and clips
    its polygon only when the extreme lies within the rounding band about
    zeta. The extreme needs the cosine
    and sine of both bearings: ``exceeds`` takes them once per bearing
    move and keeps them in the quadrant's record.
    """

    __slots__ = ("quads",)

    def __init__(self):
        # quadrant -> [minx, maxx, miny, maxy, th_low, th_high, trig], trig
        # (cos th_low, sin th_low, cos th_high, sin th_high) or None until
        # exceeds needs it.
        self.quads = {}

    def add(self, dx: float, dy: float) -> None:
        # Quadrants split the bearing range: none spans over pi/2 (see exceeds).
        th = math.atan2(dy, dx)
        if th >= 0.0:
            q = 0 if th <= _HALF_PI else 1
        else:
            q = 3 if th >= -_HALF_PI else 2
        box = self.quads.get(q)
        if box is None:
            self.quads[q] = [dx, dx, dy, dy, th, th, None]
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
            box[6] = None
        elif th > box[5]:
            box[5] = th
            box[6] = None

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
        n = len(poly)
        ax, ay = poly[0]
        ca = keep_sign * (cx * ay - cy * ax)
        ka = ca >= -1e-12 * (abs(ax) + abs(ay))
        if ka:
            out.append(poly[0])
        # Each edge a -> b, the closing one last: its crossing, then b.
        for i in range(1, n + 1):
            b = poly[i % n]
            bx, by = b
            cb = keep_sign * (cx * by - cy * bx)
            kb = cb >= -1e-12 * (abs(bx) + abs(by))
            if ka is not kb:
                # Equal cross values under different tolerances put the
                # crossing on the dropped vertex: the region only grows.
                t = min(1.0, max(0.0, ca / (ca - cb))) if ca != cb else float(ka)
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
            if kb and i < n:
                out.append(b)
            ax = bx
            ay = by
            ca = cb
            ka = kb
        return out

    @classmethod
    def _clipped(cls, box: list) -> List[Tuple[float, float]]:
        """The box clipped to the bearing wedge."""
        minx, maxx, miny, maxy, th_l, th_h, _ = box
        poly = [(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy)]
        # Bearing wedge about the anchor: angle(v) <= th_h and >= th_l.
        # cross((cos th, sin th), v) = |v| sin(angle(v) - th).
        poly = cls._clip(poly, math.cos(th_h), math.sin(th_h), -1.0)
        if poly:
            poly = cls._clip(poly, math.cos(th_l), math.sin(th_l), 1.0)
        return poly

    def exceeds(self, dx: float, dy: float, zeta: float) -> bool:
        """Whether some polygon vertex lies more than zeta (finite, > 0)
        from the line through the anchor with direction (dx, dy), by the
        distance abs(vx * uy - vy * ux), (ux, uy) = (dx, dy) / hypot(dx, dy).
        A NaN distance exceeds nothing; a zero direction tests every
        vertex's distance hypot(vx, vy) to the anchor instead.

        With R the distance of a quadrant's box corner farthest from the
        anchor and slack = 5e-12 * R + 1e-300, the quadrant is settled
        False when the box bound or the region's extreme is at most
        zeta - slack, True when the extreme exceeds zeta + slack, and only
        otherwise is its polygon clipped and every vertex tested, so the
        answer is that of the exact test.

        * Box: uy * x - ux * y is linear, so over the box it peaks and
          bottoms out at the corners picked by the signs of uy and -ux
          (for a zero direction, R bounds every distance).
        * Extreme: the region, box within the wedge, is convex, so a
          distance peaks at one of its vertices: a box corner inside the
          wedge, the anchor (distance 0), or where a bearing ray leaves
          the box (along a ray the distance grows away from the anchor).
          The extreme is the largest distance over the corners that pass
          both of ``_clip``'s keep tests and over each ray's far end,
          found by intersecting the ray's x and y slabs.

        Slack: the bounds hold for the exact region, the test runs on the
        computed vertices. Each vertex is a rounded convex combination of
        box corners, so it lies within a few ulps of the box. ``_clip``
        keeps a vertex up to tau = 1e-12 * (|x| + |y|) <= 1.5e-12 * R
        across a bearing line (a degenerate crossing sits on a vertex whose
        cross value equals a kept one's), and with the bearings at most
        pi/2 apart no vertex lies more than tau behind a bearing either.
        Such a point is within sqrt(2) * tau of the wedge (within tau of a
        bearing's ray when less than a right angle past it, else within
        sqrt(2) * tau of the anchor), which moves its distance by at most
        2.2e-12 * R. The other way, every vertex of the exact region has a
        computed vertex within rounding of it, or a run of them whose hull
        holds it: the clip keeps everything on the kept side, with its
        tolerance, and puts each crossing on the bearing line or on the
        dropped vertex. The corners of the extreme are computed vertices
        themselves, tested by the same expressions, and a ray whose slabs
        miss by rounding only grazes a corner the keep tests admit.
        Rounding in ux, uy, the distances, the slabs, cos, sin and R adds
        about 1e-14 * R; 1e-300 covers subnormal coordinates, whose
        rounding is absolute. A NaN or infinity settles nothing.
        """
        length = math.hypot(dx, dy)
        radial = length == 0.0
        if not radial:
            ux = dx / length
            uy = dy / length
            # Box indices of the corners where uy * x - ux * y peaks (hi)
            # and bottoms out (lo).
            xh, xl = (1, 0) if uy >= 0.0 else (0, 1)
            yh, yl = (2, 3) if ux >= 0.0 else (3, 2)
        for box in self.quads.values():
            minx, maxx, miny, maxy, th_l, th_h, trig = box
            r = math.hypot(maxx if maxx > -minx else minx,
                           maxy if maxy > -miny else miny)
            slack = 5e-12 * r + 1e-300
            limit = zeta - slack
            if (r <= limit if radial else
                    uy * box[xh] - ux * box[yh] <= limit
                    and ux * box[yl] - uy * box[xl] <= limit):
                continue
            if trig is None:
                trig = box[6] = (math.cos(th_l), math.sin(th_l),
                                 math.cos(th_h), math.sin(th_h))
            cl, sl, ch, sh = trig
            # The corners, unrolled (a loop over them costs about a third
            # more here), each with _clip's tolerance tau.
            ext = 0.0
            ax0 = abs(minx)
            ax1 = abs(maxx)
            ay0 = abs(miny)
            ay1 = abs(maxy)
            tau = 1e-12 * (ax0 + ay0)
            if ch * miny - sh * minx <= tau and cl * miny - sl * minx >= -tau:
                d = math.hypot(minx, miny) if radial else abs(minx * uy - miny * ux)
                if not d <= ext:
                    ext = d
            tau = 1e-12 * (ax1 + ay0)
            if ch * miny - sh * maxx <= tau and cl * miny - sl * maxx >= -tau:
                d = math.hypot(maxx, miny) if radial else abs(maxx * uy - miny * ux)
                if not d <= ext:
                    ext = d
            tau = 1e-12 * (ax1 + ay1)
            if ch * maxy - sh * maxx <= tau and cl * maxy - sl * maxx >= -tau:
                d = math.hypot(maxx, maxy) if radial else abs(maxx * uy - maxy * ux)
                if not d <= ext:
                    ext = d
            tau = 1e-12 * (ax0 + ay1)
            if ch * maxy - sh * minx <= tau and cl * maxy - sl * minx >= -tau:
                d = math.hypot(minx, maxy) if radial else abs(minx * uy - maxy * ux)
                if not d <= ext:
                    ext = d
            # A bearing's cosine is never 0; its sine is for bearing 0.
            for c, s in ((cl, sl), (ch, sh)):
                if c > 0.0:
                    t_in = minx / c
                    t_out = maxx / c
                else:
                    t_in = maxx / c
                    t_out = minx / c
                if s > 0.0:
                    t_y = miny / s
                    if t_y > t_in:
                        t_in = t_y
                    t_y = maxy / s
                    if t_y < t_out:
                        t_out = t_y
                elif s < 0.0:
                    t_y = maxy / s
                    if t_y > t_in:
                        t_in = t_y
                    t_y = miny / s
                    if t_y < t_out:
                        t_out = t_y
                if t_in <= t_out:
                    d = t_out if radial else t_out * abs(c * uy - s * ux)
                    if not d <= ext:
                        ext = d
            if ext <= limit:
                continue
            if ext > zeta + slack:
                return True
            for vx, vy in self._clipped(box):
                d = math.hypot(vx, vy) if radial else abs(vx * uy - vy * ux)
                if d > zeta:
                    return True
        return False


def fbqs_simplify(traj: Sequence[Point], zeta: float) -> PiecewiseRepresentation:
    """Simplified quadrant-hull window: a new point is accepted while the
    hull certificate keeps every buffered point within zeta of
    line(P_s, P_k); once it does not, emits and restarts at P_{k-1}.

    Cost model: one ``HullState.add`` and one ``HullState.exceeds`` per
    point, O(1) each. Most quadrants are settled by the box bound there
    and the rest by the region's extreme; a polygon is clipped only
    when the extreme lies within the rounding band about zeta, as when a
    grid route puts a point exactly zeta off the line, so walks and grid
    routes clip next to nothing."""
    xyt = _xyt(traj, zeta)
    xs = xyt[:, 0].tolist()
    ys = xyt[:, 1].tolist()
    n = len(xs)
    bounds: List[Tuple[int, int]] = []
    s = 0
    ax, ay = xs[0], ys[0]
    hull = HullState()
    for k in range(1, n):
        px = xs[k]
        py = ys[k]
        if hull.exceeds(px - ax, py - ay, zeta):
            bounds.append((s, k - 1))
            s = k - 1
            ax, ay = xs[s], ys[s]
            hull = HullState()
        hull.add(px - ax, py - ay)
    bounds.append((s, n - 1))
    return _finalize(xyt, bounds)
