"""The fast ingest, distance and window-baseline paths against the plain
code they replaced.

``ingest_csv`` parses with ``csv.reader`` and positional columns, and
``_segment_distances`` gathers per-segment line parameters in one pass and
measures every point with whole-array numpy.  ``opw_simplify`` tests a
block of window ends per numpy pass, and ``HullState`` clips a quadrant's
polygon only when a cheap bound cannot settle a query.  The references
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

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trajsimp import baselines
from trajsimp.baselines import HullState, fbqs_simplify, opw_simplify
from trajsimp.datagen import gen_grid_route, gen_random_walk
from trajsimp.errors import DataError, InvariantError
from trajsimp.fitting import FitConfig
from trajsimp.geometry import Point
from trajsimp.harness import ALGORITHMS
from trajsimp.io import INPUT_COLUMNS, ingest_csv
from trajsimp.metrics import _segment_distances
from trajsimp.onepass import PiecewiseRepresentation, Segment

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


def reference_opw(traj, zeta):
    """The open window tested one end per numpy pass."""
    pts = list(traj)
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
    return baselines._finalize(pts, bounds)


class ReferenceHull:
    """The quadrant hull that rebuilds and clips every quadrant's polygon
    on each query."""

    def __init__(self):
        self.quads = {}

    def add(self, dx, dy):
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
    pts = list(traj)
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
    return baselines._finalize(pts, bounds)


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

window_cases = st.one_of(
    trajectories,
    st.builds(
        revisits,
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=1, max_size=3 * BLOCK),
    ),
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
@example(
    [Point(math.nan, 0.0, 0.0) if i == 40 else p
     for i, p in enumerate(gen_random_walk(2 * BLOCK, 4, step=20.0))],
    100.0,
    baselines._OPW_CELLS,
)
@example(jittered(straight(5 * BLOCK, math.pi / 6, 0), 3, 0.5), 1.0, baselines._OPW_CELLS)
@example(straight(5 * BLOCK, math.pi / 4, 0), 2e-5, baselines._OPW_CELLS)
@example(shifted(gen_random_walk(400, 11, step=20.0), 1e7), 2e-5, baselines._OPW_CELLS)
@example(shifted(gen_grid_route(400, 12, step=20.0), -2.5e7), 2e7, baselines._OPW_CELLS)
@example(parked(gen_random_walk(40, 13), 10, 300), 10.0, baselines._OPW_CELLS)
def test_window_baselines_match_the_one_end_loops(traj, zeta, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_OPW_CELLS", cells)
        assert opw_simplify(traj, zeta) == reference_opw(traj, zeta)
    assert fbqs_simplify(traj, zeta) == reference_fbqs(traj, zeta)


def test_the_window_cases_reach_long_windows_and_zero_length_chords():
    rep = opw_simplify(straight(3 * BLOCK, 0.0, 0), 1.0)
    assert [s.covered for s in rep.segments] == [3 * BLOCK]
    # A parked run puts tested window ends on the window start's position.
    still = parked(gen_random_walk(BLOCK + 2, 9, step=20.0), 2, 5)
    rep = opw_simplify(still, 10.0)
    zero_chords = s = 0
    for seg in rep.segments:
        e = s + seg.covered - 1
        ends = range(s + 2, min(e + 2, len(still)))
        zero_chords += sum(still[k][:2] == still[s][:2] for k in ends)
        s = e
    assert len(rep) > 1 and zero_chords > 0
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
def test_hull_matches_the_rebuilding_one(offsets, theta, scale):
    """After every add, the hull's vertices and its decision at zeta on
    and around the reference bound equal the rebuilding hull's, for a line
    at theta and for the zero-length query."""
    hull, ref = HullState(), ReferenceHull()
    queries = [(math.cos(theta), math.sin(theta)), (0.0, 0.0)]
    for dx, dy in offsets:
        hull.add(dx * scale, dy * scale)
        ref.add(dx * scale, dy * scale)
        for qx, qy in queries:
            bound = ref.max_distance_to(qx, qy)
            for zeta in boundary_zetas(bound):
                assert hull.exceeds(qx, qy, zeta) == (bound > zeta)
        assert hull.vertices() == ref.vertices()


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


# -- ingest ------------------------------------------------------------------


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
    assert fast == ref
    assert list(fast) == list(ref)
    for tid in ref:
        assert all(type(p) is Point for p in fast[tid])


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
        assert fast == ref and list(fast) == list(ref)
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
