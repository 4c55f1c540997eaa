"""The fast ingest, distance and window-baseline paths against the plain
code they replaced.

``ingest_csv`` parses with ``csv.reader`` and positional columns, and
``_segment_distances`` gathers per-segment line parameters in one pass and
measures every point with whole-array numpy.  ``opw_simplify`` tests a
block of window ends per numpy pass, reading a trajectory view in place,
and ``HullState`` clips a quadrant's polygon only when neither a cheap
bound nor the region's extreme can settle a query.  The references
below are the earlier ``DictReader`` ingest, per-segment distance loop
(with its own walk of the covered counts, sharing no code with the one it
checks), one-end-per-pass OPW and rebuild-every-query hull, kept here
verbatim in behaviour: the fast paths must give the same corpus (values and key order),
the same error messages, bit-identical distances and hull vertices, the
same hull decisions, and the same segments.
"""

import csv
import math
import random
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trajsimp import baselines
from trajsimp.baselines import HullState, dp_simplify, fbqs_simplify, opw_simplify
from trajsimp.datagen import gen_grid_route, gen_random_walk
from trajsimp.errors import DataError, InvariantError
from trajsimp.fitting import FitConfig, coord_limit
from trajsimp.geometry import Point, rows_view
from trajsimp.harness import ALGORITHMS
from trajsimp.io import INPUT_COLUMNS, ingest_csv
from trajsimp.metrics import _segment_distances
from trajsimp.onepass import PiecewiseRepresentation, Segment

from oracles import hull_vertices, reference_split

# -- references --------------------------------------------------------------


def reference_ingest(path):
    """The DictReader ingest; row numbers count non-blank records."""
    corpus = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected header {INPUT_COLUMNS}")
        missing = set(INPUT_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise DataError(f"{path}: header is missing columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise DataError(
                    f"{path} row {lineno}: expected {len(reader.fieldnames)} "
                    "fields"
                )
            traj_id = row["traj_id"]
            if traj_id is None or traj_id == "":
                raise DataError(f"{path} row {lineno}: empty traj_id")
            try:
                t = float(row["t"])
                x = float(row["x"])
                y = float(row["y"])
            except (TypeError, ValueError):
                raise DataError(f"{path} row {lineno}: non-numeric t/x/y") from None
            pts = corpus.setdefault(traj_id, [])
            if pts:
                if t == pts[-1].t:
                    continue
                if t < pts[-1].t:
                    raise DataError(
                        f"{path} row {lineno}: trajectory {traj_id!r} timestamp "
                        f"{t!r} goes backwards from {pts[-1].t!r}"
                    )
            pts.append(Point(x, y, t))
    if not corpus:
        raise DataError(f"{path}: no data rows")
    return corpus


def reference_distances(traj, rep):
    """The per-segment distance loop, over its own covered-count walk: the
    first segment and a patched start own every point they cover, and any
    other segment shares its first point with the segment before it."""
    xs = np.fromiter((p.x for p in traj), dtype=np.float64, count=len(traj))
    ys = np.fromiter((p.y for p in traj), dtype=np.float64, count=len(traj))
    out = np.zeros(len(xs))
    hi = 0
    for i, seg in enumerate(rep.segments):
        lo = hi
        shared = 0 if i == 0 or seg.patched_start else 1
        if seg.covered < shared:
            raise InvariantError(
                f"segment {i} covers {seg.covered} points but shares its start"
            )
        hi = lo + seg.covered - shared
        if lo == hi:
            continue
        dx = seg.end.x - seg.start.x
        dy = seg.end.y - seg.start.y
        length = math.hypot(dx, dy)
        if length < 2.0 ** -1000:
            # A subnormal chord, scaled by a power of two so that its
            # hypot is not rounded absolutely.
            dx *= 2.0 ** 1000
            dy *= 2.0 ** 1000
            length = math.hypot(dx, dy)
        px = xs[lo:hi] - seg.start.x
        py = ys[lo:hi] - seg.start.y
        if length == 0.0:
            out[lo:hi] = np.hypot(px, py)
        else:
            out[lo:hi] = np.abs(dx * py - dy * px) / length
    if hi != len(xs):
        raise InvariantError(f"covered counts consume {hi} points, input has {len(xs)}")
    return out


def fast_distances(traj, rep):
    return _segment_distances(rep, traj)


def _span_distances(xs, ys, i, j):
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


def as_points(traj):
    """traj as a list of Points; a trajectory view's rows become Points."""
    if isinstance(traj, memoryview):
        return [Point(*row) for row in traj.tolist()]
    return list(traj)


def as_view(traj):
    """traj as a trajectory view over its own buffer."""
    return rows_view(array("d", [c for p in traj for c in p]))


def reference_opw(traj, zeta):
    """The open window tested one end per numpy pass."""
    pts = as_points(traj)
    n = len(pts)
    xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=n)
    bounds = []
    s = 0
    for k in range(1, n):
        dists = _span_distances(xs, ys, s, k)
        if dists is None or float(np.max(dists)) <= zeta:
            continue
        bounds.append((s, k - 1))
        s = k - 1
    bounds.append((s, n - 1))
    return reference_rep(pts, bounds)


def reference_rep(pts, bounds):
    """The representation of the (start, end) index pairs bounds."""
    segs = [Segment(pts[i], pts[j], j - i + 1) for i, j in bounds]
    return PiecewiseRepresentation(
        segs, anomalous_candidates=sum(s.covered == 2 for s in segs)
    )


class ReferenceHull:
    """The quadrant hull that rebuilds and clips every quadrant's polygon
    on each query. A point's quadrant comes from its bearing, and a clip
    edge whose ends have equal cross values but different keep flags puts
    its crossing on the dropped end."""

    def __init__(self):
        self.quads = {}

    def add(self, dx, dy):
        th = math.atan2(dy, dx)
        if 0.0 <= th <= math.pi / 2:
            q = 0
        elif th > math.pi / 2:
            q = 1
        elif th < -math.pi / 2:
            q = 2
        else:
            q = 3
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
    def _clip(poly, cx, cy, keep_sign):
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
                if vals[idx] == vals[nxt]:
                    t = 1.0 if keep[idx] else 0.0  # on the dropped vertex
                else:
                    t = vals[idx] / (vals[idx] - vals[nxt])
                    t = min(1.0, max(0.0, t))
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
        return out

    def vertices(self):
        verts = []
        for box in self.quads.values():
            minx, maxx, miny, maxy, th_l, th_h = box
            poly = [(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy)]
            poly = self._clip(poly, math.cos(th_h), math.sin(th_h), -1.0)
            if poly:
                poly = self._clip(poly, math.cos(th_l), math.sin(th_l), 1.0)
            verts.extend(poly)
        return verts

    def max_distance_to(self, dx, dy):
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


def reference_fbqs(traj, zeta):
    """The quadrant-hull window over ReferenceHull."""
    pts = as_points(traj)
    n = len(pts)
    bounds = []
    s = 0
    anchor = pts[0]
    hull = ReferenceHull()
    for k in range(1, n):
        p = pts[k]
        if not hull.max_distance_to(p.x - anchor.x, p.y - anchor.y) <= zeta:
            bounds.append((s, k - 1))
            s = k - 1
            anchor = pts[s]
            hull = ReferenceHull()
        hull.add(p.x - anchor.x, p.y - anchor.y)
    bounds.append((s, n - 1))
    return reference_rep(pts, bounds)


# -- distances ---------------------------------------------------------------


def parked(traj, every, stay):
    """Copy of traj where the vehicle stops for ``stay`` extra samples at
    every ``every``-th point, so some output segments have zero length."""
    out = []
    t = 0.0
    for i, p in enumerate(traj):
        repeats = 1 + (stay if i % every == 0 else 0)
        for _ in range(repeats):
            out.append(Point(p.x, p.y, t))
            t += 1.0
    return out


trajectories = st.builds(
    lambda kind, n, seed, park: (
        parked(kind(n, seed, step=20.0), *park) if park else kind(n, seed, step=20.0)
    ),
    st.sampled_from([gen_random_walk, gen_grid_route]),
    st.integers(2, 400),
    st.integers(0, 2**32),
    st.none() | st.tuples(st.integers(1, 50), st.integers(1, 8)),
)


@given(
    trajectories,
    st.sampled_from(sorted(ALGORITHMS)),
    st.sampled_from([0.5, 3.0, 10.0, 40.0, 250.0]),
)
def test_distances_match_the_loop_on_every_algorithm(traj, algo, zeta):
    rep = ALGORITHMS[algo](traj, FitConfig(zeta=zeta))
    assert np.array_equal(fast_distances(traj, rep), reference_distances(traj, rep))


@st.composite
def hand_built(draw):
    """A trajectory plus a representation whose segments are drawn freely:
    zero-length lines, patched starts and segments that take no fresh
    point, all consistent with the covered-count walk."""
    coord = st.floats(-1e6, 1e6, allow_nan=False)
    k = draw(st.integers(1, 12))
    segs = []
    total = 0
    for i in range(k):
        patched = i > 0 and draw(st.booleans())
        fresh = draw(st.integers(0 if i else 1, 6))
        covered = fresh if (i == 0 or patched) else fresh + 1
        start = Point(draw(coord), draw(coord), 0.0)
        end = start if draw(st.booleans()) else Point(draw(coord), draw(coord), 0.0)
        segs.append(Segment(start, end, covered, patched))
        total += fresh
    traj = [Point(draw(coord), draw(coord), float(t)) for t in range(total)]
    return traj, PiecewiseRepresentation(segs)


@given(hand_built())
# A chord with subnormal components, whose hypot rounds absolutely.
@example(([Point(60.0, 100.0, 0.0)], PiecewiseRepresentation(
    [Segment(Point(0.0, 0.0, 0.0), Point(1e-323, -5e-324, 0.0), 1)])))
def test_distances_match_the_loop_on_hand_built_segments(case):
    traj, rep = case
    assert np.array_equal(fast_distances(traj, rep), reference_distances(traj, rep))


def test_the_algorithm_cases_reach_patches_and_zero_length_segments():
    patched = gen_grid_route(400, 3, step=20.0)
    rep = ALGORITHMS["operb-a"](patched, FitConfig(zeta=10.0))
    assert any(s.patched_start for s in rep.segments)
    still = parked(gen_random_walk(50, 1, step=20.0), 1, 3)
    rep = ALGORITHMS["dp"](still[:4], FitConfig(zeta=1.0))
    assert any(s.start[:2] == s.end[:2] for s in rep.segments)
    for traj in (patched, still):
        for algo in ALGORITHMS:
            rep = ALGORITHMS[algo](traj, FitConfig(zeta=10.0))
            assert np.array_equal(
                fast_distances(traj, rep), reference_distances(traj, rep)
            )


# -- window baselines ----------------------------------------------------------

BLOCK = baselines._OPW_BLOCK


def straight(n, heading, park):
    """n samples 7 units apart along one heading, every one repeated
    ``park`` extra times: a single OPW window once n passes two blocks."""
    c, s = math.cos(heading), math.sin(heading)
    out = []
    for i in range(n):
        for _ in range(1 + park):
            out.append(Point(7.0 * i * c, 7.0 * i * s, float(len(out))))
    return out


def revisits(cells):
    """A path over the corners of a coarse lattice, so that positions recur
    far apart in time: zero-length chords with interior points off them."""
    return [Point(25.0 * i, 25.0 * j, float(t)) for t, (i, j) in enumerate(cells)]


def shifted(traj, off):
    """traj moved off along x and -off/2 along y, as projected coordinates
    far from their origin are."""
    return [Point(p.x + off, p.y - 0.5 * off, p.t) for p in traj]


def jittered(traj, seed, amp):
    """traj with every coordinate moved by up to amp, reproducibly."""
    rng = random.Random(seed)
    return [Point(p.x + rng.uniform(-amp, amp), p.y + rng.uniform(-amp, amp), p.t)
            for p in traj]


OBLIQUE = [math.pi / 6, math.pi / 4, -3 * math.pi / 4]

revisit_cases = st.builds(
    revisits,
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=3 * BLOCK),
)

window_cases = st.one_of(
    trajectories,
    revisit_cases,
    st.builds(
        lambda kind, n, seed: kind(n, seed, step=20.0),
        st.sampled_from([gen_random_walk, gen_grid_route]),
        st.sampled_from([1, 2, 3, BLOCK + 1, BLOCK + 2]),
        st.integers(0, 2**32),
    ),
    st.builds(
        straight,
        st.integers(2 * BLOCK + 1, 5 * BLOCK),
        st.sampled_from([0.0, math.pi / 2, 1.0] + OBLIQUE),
        st.integers(0, 2),
    ),
    # Oblique lines, where the hull's box bound fails, with and without
    # jitter; far from the origin; and long parked runs.
    st.builds(
        jittered,
        st.builds(straight, st.integers(2, 5 * BLOCK), st.sampled_from(OBLIQUE),
                  st.just(0)),
        st.integers(0, 2**32),
        st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    ),
    st.builds(shifted, trajectories, st.sampled_from([1e7, -2.5e7])),
    st.builds(
        parked,
        st.builds(gen_random_walk, st.integers(2, 60), st.integers(0, 2**32)),
        st.integers(5, 30),
        st.integers(50, 300),
    ),
    # Trajectory views, whose x and y opw_simplify reads in place.
    st.builds(as_view, st.one_of(trajectories, revisit_cases)),
)


@given(
    window_cases,
    # 1e-6 to 1e6 of the 20-unit step most cases take
    st.sampled_from([2e-5, 1.0, 2.0, 10.0, 40.0, 100.0, 2e7]),
    # A small cap on distances per pass stands in for a window of
    # thousands of points: fewer ends go into each pass.
    st.sampled_from([baselines._OPW_CELLS, 100]),
)
@example(straight(3 * BLOCK, 0.0, 0), 1.0, baselines._OPW_CELLS)
@example(straight(2 * BLOCK + 5, 1.0, 2), 10.0, 100)
@example(parked(gen_random_walk(BLOCK + 2, 9, step=20.0), 2, 5), 10.0, 100)
@example(revisits([(0, 0), (1, 0), (2, 0), (3, 0)] * 12), 40.0, baselines._OPW_CELLS)
# A coordinate just inside the bound the baselines accept (they refuse NaN).
@example(
    [Point(-9.9e99, 0.0, 0.0) if i == 40 else p
     for i, p in enumerate(gen_random_walk(2 * BLOCK, 4, step=20.0))],
    100.0,
    baselines._OPW_CELLS,
)
@example(jittered(straight(5 * BLOCK, math.pi / 6, 0), 3, 0.5), 1.0, baselines._OPW_CELLS)
@example(straight(5 * BLOCK, math.pi / 4, 0), 2e-5, baselines._OPW_CELLS)
@example(shifted(gen_random_walk(400, 11, step=20.0), 1e7), 2e-5, baselines._OPW_CELLS)
@example(shifted(gen_grid_route(400, 12, step=20.0), -2.5e7), 2e7, baselines._OPW_CELLS)
@example(parked(gen_random_walk(40, 13), 10, 300), 10.0, baselines._OPW_CELLS)
@example(as_view(parked(gen_random_walk(BLOCK + 2, 9, step=20.0), 2, 5)), 10.0, 100)
@example(as_view(revisits([(0, 0), (1, 0), (2, 0), (3, 0)] * 12)), 40.0,
         baselines._OPW_CELLS)
def test_window_baselines_match_the_one_end_loops(traj, zeta, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_OPW_CELLS", cells)
        assert opw_simplify(traj, zeta) == reference_opw(traj, zeta)
    assert fbqs_simplify(traj, zeta) == reference_fbqs(traj, zeta)


def opw_blocks(n, rep, cells):
    """(s, ends) for each block of window ends opw_simplify tests on n
    points to give rep: the window from s tests the ends from s + 2 on, in
    blocks of up to BLOCK and about cells distances, through the block
    holding the end that closed it."""
    s = 0
    for seg in rep.segments:
        last = min(s + seg.covered, n - 1)
        k = s + 2
        while k <= last:
            e = min(k + max(1, min(BLOCK, cells // (k - s))), n)
            yield s, range(k, e)
            k = e
        s += seg.covered - 1


def test_the_window_cases_reach_long_windows_and_zero_length_chords():
    rep = opw_simplify(straight(3 * BLOCK, 0.0, 0), 1.0)
    assert [s.covered for s in rep.segments] == [3 * BLOCK]
    # A parked run puts tested window ends on the window start's position,
    # in blocks that also test ends off it: rows of radial distances next
    # to rows divided by their chord lengths.
    still = parked(gen_random_walk(BLOCK + 2, 9, step=20.0), 2, 5)
    rep = opw_simplify(still, 10.0)
    mixed = 0
    for s, ends in opw_blocks(len(still), rep, baselines._OPW_CELLS):
        on = [still[k][:2] == still[s][:2] for k in ends]
        mixed += any(on) and not all(on)
    assert len(rep) > 1 and mixed > 0
    # Shuttling back to the window start: the zero-length chord's interior
    # lies up to 75 from it, so that end closes the window.
    shuttle = revisits([(0, 0), (1, 0), (2, 0), (3, 0)] * 12)
    assert opw_simplify(shuttle, 40.0).segments[0].end == shuttle[3]


def boundary_zetas(ref):
    """zeta at the reference bound, one ulp either side of it and 1e-9 of
    it either side, keeping only the finite positive ones."""
    zetas = [ref, math.nextafter(ref, math.inf), math.nextafter(ref, 0.0),
             ref * (1.0 + 1e-9), ref * (1.0 - 1e-9)]
    return [z for z in zetas if 0.0 < z < math.inf]


@given(
    st.lists(
        st.tuples(st.floats(-100, 100, allow_nan=False),
                  st.floats(-100, 100, allow_nan=False)),
        min_size=1,
        max_size=40,
    ),
    st.floats(-math.pi, math.pi),
    # 1e-6 to 1e7 spans projected coordinates; at 1e-318 every offset is
    # subnormal, where rounding is absolute rather than relative.
    st.sampled_from([1e-318, 1e-6, 1e-3, 1.0, 1e3, 1e5, 1e7]),
)
@example([(3.0, 4.0)], 0.0, 1.0)
@example([(10.0, 1.0), (1.0, 10.0)], -math.pi / 4, 1e7)
@example([(-5.0, 0.0), (0.0, -5.0), (5.0, 5.0), (-5.0, 5.0)], 0.3, 1e-6)
@example([(-54.0, 96.0), (-1.0, -60.0)], 0.3, 1e-318)
# A -0.0 offset (bearing -pi), then equal cross values under different
# tolerances at a clip edge.
@example([(-1.0, -0.0), (-5.0, 3.0), (-10.0, 0.0)], 0.0, 1.0)
@example([(0.0, 0.0), (60.0, 1e-323), (0.0, 83.0)], 0.0, 1.0)
def test_hull_matches_the_rebuilding_one(offsets, theta, scale):
    """After every add, the hull's vertices and its decision at zeta on
    and around the reference bound equal the rebuilding hull's, for a line
    at theta, for the zero-length query and for a subnormal direction."""
    hull, ref = HullState(), ReferenceHull()
    # hypot(1e-323, -5e-324) rounds to 1e-323, so that direction divides
    # to (1, -0.5), which is not of unit length.
    queries = [(math.cos(theta), math.sin(theta)), (0.0, 0.0),
               (1e-323, -5e-324)]
    for dx, dy in offsets:
        hull.add(dx * scale, dy * scale)
        ref.add(dx * scale, dy * scale)
        for qx, qy in queries:
            bound = ref.max_distance_to(qx, qy)
            for zeta in boundary_zetas(bound):
                assert hull.exceeds(qx, qy, zeta) == (bound > zeta)
        assert hull_vertices(hull) == ref.vertices()


def test_the_hull_cases_reach_the_polygon(clip_calls):
    """On the reference bound the region's extreme lies within the rounding
    band, so the hull cases reach the clipped polygon, for a line and for
    the zero-length query, and decide as the rebuilding hull does."""
    cases = [
        ([(3.0, 4.0)], 0.0, 1.0),
        ([(10.0, 1.0), (1.0, 10.0)], -math.pi / 4, 1e7),
        ([(-5.0, 0.0), (0.0, -5.0), (5.0, 5.0), (-5.0, 5.0)], 0.3, 1e-6),
        ([(-54.0, 96.0), (-1.0, -60.0)], 0.3, 1e-318),
    ]
    reached = {"line": 0, "zero-length": 0}
    for offsets, theta, scale in cases:
        hull, ref = HullState(), ReferenceHull()
        queries = {"line": (math.cos(theta), math.sin(theta)),
                   "zero-length": (0.0, 0.0)}
        for dx, dy in offsets:
            hull.add(dx * scale, dy * scale)
            ref.add(dx * scale, dy * scale)
            for name, (qx, qy) in queries.items():
                bound = ref.max_distance_to(qx, qy)
                before = len(clip_calls)
                assert not hull.exceeds(qx, qy, bound)
                reached[name] += len(clip_calls) > before
    assert reached["line"] > 0 and reached["zero-length"] > 0


def test_a_subnormal_direction_is_measured_as_the_reference_measures_it():
    # hypot(1e-323, -5e-324) rounds to 1e-323, so the direction (1, -0.5)
    # is not of unit length: the hull must measure the point (60, 100) by
    # it, at 130, as the rebuilding one does, and cut at zeta 120.
    traj = [Point(0.0, 0.0, 0.0), Point(40.0, 100.0, 1.0),
            Point(60.0, 100.0, 2.0), Point(1e-323, -5e-324, 3.0)]
    rep = fbqs_simplify(traj, 120.0)
    assert rep == reference_fbqs(traj, 120.0)
    assert len(rep) == 2


@pytest.mark.parametrize(
    "segs, n, msg",
    [
        ([Segment(Point(0, 0), Point(1, 0), 2), Segment(Point(1, 0), Point(2, 0), 0)],
         2, "segment 1 covers 0 points but shares its start"),
        ([Segment(Point(0, 0), Point(1, 0), 2), Segment(Point(1, 0), Point(2, 0), 2)],
         5, "covered counts consume 3 points, input has 5"),
    ],
)
def test_distance_errors_match_the_loop(segs, n, msg):
    traj = [Point(float(i), 0.0, float(i)) for i in range(n)]
    rep = PiecewiseRepresentation(segs)
    for fn in (fast_distances, reference_distances):
        with pytest.raises(InvariantError, match=re.escape(msg)):
            fn(traj, rep)


# -- Douglas-Peucker ----------------------------------------------------------

SPAN = baselines._DP_SPAN


def reference_dp(traj, zeta):
    """Douglas-Peucker through the scalar split of ``oracles``."""
    pts = as_points(traj)
    return reference_rep(pts, reference_split(pts, zeta))


def looped(traj):
    """traj, then back along itself to its start: the whole trajectory is
    one span over a zero-length chord."""
    t = traj[-1].t
    return list(traj) + [Point(p.x, p.y, t + k) for k, p in enumerate(traj[-2::-1], 1)]


def far(traj, at, sign):
    """traj with point at moved to x = sign times the largest coordinate
    the baselines accept, one ulp inside ``coord_limit``."""
    x = sign * math.nextafter(coord_limit(1.0), 0.0)
    return [Point(x, p.y, p.t) if k == at else p for k, p in enumerate(traj)]


def as_tuples(traj):
    return [tuple(p) for p in traj]


def top_bound(traj):
    """The least zeta at which the span over all of traj fits its chord,
    by the split's own |cross| <= zeta * length; None for a zero-length
    chord or when every point lies on the chord."""
    (x0, y0, _), (x1, y1, _) = traj[0], traj[-1]
    dx = x1 - x0
    dy = y1 - y0
    length = math.hypot(dx, dy)
    best = max(abs(dx * (p.y - y0) - dy * (p.x - x0)) for p in traj[1:-1])
    if length == 0.0 or best == 0.0:
        return None
    zeta = best / length
    while zeta * length < best:
        zeta = math.nextafter(zeta, math.inf)
    while math.nextafter(zeta, 0.0) * length >= best:
        zeta = math.nextafter(zeta, 0.0)
    return zeta


# A small span constant stands in for the real one on shorter input: most
# cases then take numpy passes at every depth of the split.
SPANS = [SPAN, 16]
DP_KINDS = {"walk": gen_random_walk, "grid": gen_grid_route}
DP_FORMS = {"points": list, "tuples": as_tuples, "view": as_view}


def dp_case(kind, n, seed, shape=None, off=0.0, far_at=None, zeta=10.0,
            form="points"):
    """(traj, zeta) for the recipe: a walk or grid route of n points,
    perhaps parked for stretches, ("parked", every, stay), or run back to
    its start, ("looped",) (long spans over zero-length chords); moved off
    from the origin; with the coordinate far_at, (index, sign), one ulp
    inside ``coord_limit``; at zeta, or, for ("bound", below), on the
    first span's bound or one ulp below it; as Points, tuples or a view.
    A recipe rather than its thousands of points is what a failing case
    shows."""
    traj = DP_KINDS[kind](n, seed, step=20.0)
    if shape and shape[0] == "parked":
        traj = parked(traj, *shape[1:])
    elif shape:
        traj = looped(traj[: n // 2 + 1])
    traj = shifted(traj, off)
    if far_at:
        traj = far(traj, far_at[0] % len(traj), far_at[1])
    if isinstance(zeta, tuple):
        # Where |cross| rounded in another order would decide the other way.
        below = zeta[1]
        zeta = top_bound(traj) or 10.0
        if below:
            zeta = math.nextafter(zeta, 0.0)
    return DP_FORMS[form](traj), zeta


@st.composite
def dp_recipes(draw):
    """A span constant and the recipe of a trajectory of more than four
    times as many points; a third of an offset leaves the coordinates
    inexact, which grid routes' exact ties then show, and zeta runs from
    1e-6 to 1e6 of the 20-unit step."""
    span = draw(st.sampled_from(SPANS))
    shape = draw(st.sampled_from([None, "parked", ("looped",)]))
    if shape == "parked":
        shape = ("parked", draw(st.integers(span, 3 * span)), draw(st.integers(1, span + 8)))
    return span, dict(
        kind=draw(st.sampled_from(sorted(DP_KINDS))),
        n=draw(st.integers(4 * span + 1, 5 * span)),
        seed=draw(st.integers(0, 2**32)),
        shape=shape,
        off=draw(st.sampled_from([0.0, 1e4 / 3, 1e7, -1e7 / 3])),
        far_at=draw(st.none() | st.tuples(st.integers(0, 2**16), st.sampled_from([1, -1]))),
        zeta=draw(st.sampled_from([2e-5, 0.5, 10.0, 40.0, 100.0, 2e7])
                  | st.tuples(st.just("bound"), st.booleans())),
        form=draw(st.sampled_from(sorted(DP_FORMS))),
    )


@given(dp_recipes())
# Exact ties in |cross| (the first index must win), at zeta on them.
@example((SPAN, dict(kind="grid", n=5 * SPAN, seed=3, zeta=40.0)))
@example((SPAN, dict(kind="grid", n=5 * SPAN, seed=7, off=1e7 / 3, form="tuples")))
@example((SPAN, dict(kind="walk", n=5 * SPAN, seed=5, shape=("looped",), zeta=40.0)))
@example((SPAN, dict(kind="walk", n=4 * SPAN, seed=9, shape=("parked", SPAN, SPAN + 8),
                     form="view")))
@example((SPAN, dict(kind="walk", n=5 * SPAN, seed=11, far_at=(2 * SPAN, -1), zeta=100.0)))
@example((SPAN, dict(kind="walk", n=5 * SPAN, seed=13, off=1e7, zeta=2e-5)))
@example((SPAN, dict(kind="walk", n=5 * SPAN, seed=13, off=1e7, zeta=("bound", False))))
@example((SPAN, dict(kind="walk", n=5 * SPAN, seed=13, off=1e7, zeta=("bound", True))))
def test_dp_matches_its_scalar_recursion(recipe):
    span, how = recipe
    traj, zeta = dp_case(**how)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_DP_SPAN", span)
        assert dp_simplify(traj, zeta) == reference_dp(traj, zeta)


def test_dp_measures_long_spans_in_numpy_and_short_ones_in_its_loop(monkeypatch):
    """dp_simplify passes a span of more than SPAN interior points over a
    chord to numpy, as one array of |cross| values; a span of SPAN and a
    zero-length chord of any length stay in the loop. Lines within zeta
    end the split at the first span."""
    passes = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def abs(a, out=None):
            if np.ndim(a) == 1:  # not the coordinate check's (n, 2) array
                passes.append(len(a))
            return np.abs(a, out=out)

    monkeypatch.setattr(baselines, "np", Counting())
    for n, expected in ((SPAN + 2, []), (SPAN + 3, [SPAN + 1])):
        line = straight(n, 1.0, 0)
        assert len(dp_simplify(line, 1.0)) == 1
        assert passes == expected
        passes.clear()
    loop = looped(straight(2 * SPAN, 1.0, 0))
    assert dp_simplify(loop, 1e6) == reference_dp(loop, 1e6)
    assert passes == []


# -- ingest ------------------------------------------------------------------


def as_rows(corpus):
    """The fast ingest's corpus of (n, 3) views as lists of (x, y, t)
    tuples, which compare equal to the same values as Points."""
    return {tid: list(map(tuple, view.tolist())) for tid, view in corpus.items()}


def both(path):
    """(result or error message) of the fast and the reference ingest."""
    out = []
    for fn in (ingest_csv, reference_ingest):
        try:
            out.append(fn(path))
        except DataError as exc:
            out.append(str(exc))
    return out


def write_rows(tmp_path, header, rows, eol="\n", blank_after=()):
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=eol)
        writer.writerow(header)
        for i, row in enumerate(rows):
            writer.writerow(row)
            if i in blank_after:
                fh.write(eol)
    return str(path)


QUIRKS = {
    "reordered and extra columns": (
        ["speed", "y", "traj_id", "note", "x", "t"],
        [["3", "2", "a", "n", "1", "0"], ["4", "5", "b", "", "6", "0"],
         ["9", "8", "a", "z", "7", "1"]],
    ),
    "quoted ids with commas and quotes": (
        list(INPUT_COLUMNS),
        [["a,b", "0", "1", "2"], ['say "hi"', "0", "3", "4"], ["a,b", "1", "5", "6"]],
    ),
    "duplicate timestamps": (
        list(INPUT_COLUMNS),
        [["a", "0", "1", "1"], ["a", "0", "9", "9"], ["b", "2", "0", "0"],
         ["a", "1", "2", "2"], ["a", "1", "3", "3"]],
    ),
    "repeated header name, last wins": (
        ["traj_id", "x", "t", "x", "y"],
        [["a", "100", "0", "1", "2"], ["a", "200", "1", "3", "4"]],
    ),
    "numeric spellings": (
        list(INPUT_COLUMNS),
        [["a", " 1e0", "1_0", "-0"], ["a", "2.", "+.5", "1E-3"]],
    ),
}


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("blanks", [(), (0, 1)], ids=["dense", "blank-lines"])
@pytest.mark.parametrize("case", sorted(QUIRKS))
def test_ingest_matches_dictreader_on_csv_quirks(tmp_path, case, eol, blanks):
    header, rows = QUIRKS[case]
    fast, ref = both(write_rows(tmp_path, header, rows, eol, blanks))
    assert isinstance(ref, dict)
    assert as_rows(fast) == ref
    assert list(fast) == list(ref)
    for tid in ref:
        view = fast[tid]
        assert type(view) is memoryview
        assert (view.format, view.shape) == ("d", (len(ref[tid]), 3))


BAD = {
    "short row": ["a", "1", "2"],
    "long row": ["a", "1", "2", "3", "4"],
    "empty id": ["", "1", "2", "3"],
    "non-numeric": ["a", "one", "2", "3"],
    "backwards": ["a", "-1", "2", "3"],
}


@pytest.mark.parametrize("blanks", [(), (0, 1)], ids=["dense", "blank-lines"])
@pytest.mark.parametrize("case", sorted(BAD))
def test_ingest_errors_match_dictreader_up_to_the_line_number(tmp_path, case, blanks):
    rows = [["a", "0", "0", "0"], ["b", "0", "1", "1"], BAD[case], ["a", "9", "9", "9"]]
    fast, ref = both(write_rows(tmp_path, list(INPUT_COLUMNS), rows, "\n", blanks))
    # The bad record is the fourth line of the file, after any blank ones.
    assert ref == re.sub(r"row \d+", "row 4", fast)
    assert f"row {4 + len(blanks)}:" in fast


@pytest.mark.parametrize(
    "text", ["", "traj_id,t,x\na,0,1\n", "traj_id,t,x,y\n", "traj_id,t,x,y\n\n\n"]
)
def test_file_level_errors_match_dictreader(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    fast, ref = both(str(path))
    assert isinstance(fast, str) and fast == ref


ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"),
    min_size=1,
    max_size=6,
)
finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.tuples(st.sampled_from(["a", "b,c", '"q"']) | ids,
                       st.integers(-3, 3), finite, finite), max_size=40),
    st.permutations(range(5)),
    st.sampled_from(["\n", "\r\n"]),
    st.sets(st.integers(0, 40), max_size=4),
)
def test_ingest_matches_dictreader_on_random_files(
    tmp_path_factory, rows, order, eol, blanks
):
    header = [(*INPUT_COLUMNS, "extra")[i] for i in order]
    records = []
    for tid, t, x, y in rows:
        values = dict(traj_id=tid, t=repr(float(t)), x=repr(x), y=repr(y), extra="e")
        records.append([values[name] for name in header])
    path = write_rows(tmp_path_factory.mktemp("rand"), header, records, eol, blanks)
    fast, ref = both(path)
    if isinstance(ref, dict):
        assert as_rows(fast) == ref and list(fast) == list(ref)
        return
    line = re.search(r"row (\d+)", ref)
    if line is None:
        assert fast == ref
        return
    # Only the record count before the failing record may differ: the
    # fast path reports the physical line, counting skipped blank lines.
    assert re.sub(r"row \d+", "row N", fast) == re.sub(r"row \d+", "row N", ref)
    bad = int(line.group(1)) - 2  # index into records
    assert f"row {2 + bad + sum(1 for b in blanks if b < bad)}:" in fast
