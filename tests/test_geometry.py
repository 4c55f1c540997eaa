"""Planar primitives: angles, distances, intersections, projection."""

import math

import pytest
from hypothesis import given, strategies as st

from trajsimp.geometry import (
    M_PER_DEG_LAT,
    M_PER_DEG_LON,
    TWO_PI,
    DirectedSegment,
    Point,
    angle_of,
    included_angle,
    line_intersection,
    norm_angle,
    point_line_distance,
    project_equirectangular,
    segment_between,
)

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
seg_lengths = st.floats(min_value=1.0, max_value=1000.0, allow_nan=False)


def _ray(theta: float) -> DirectedSegment:
    return DirectedSegment(Point(0.0, 0.0), 1.0, theta)


def test_norm_angle_folds_into_range():
    assert norm_angle(0.0) == 0.0
    assert norm_angle(TWO_PI) == 0.0
    assert norm_angle(-math.pi) == pytest.approx(math.pi)
    assert norm_angle(5 * math.pi) == pytest.approx(math.pi)


def test_norm_angle_never_returns_two_pi():
    # a tiny negative angle plus 2*pi rounds back to 2*pi in floats;
    # the fold must clamp that case to 0 to keep the range half-open
    assert norm_angle(-1e-18) == 0.0


@given(angles)
def test_norm_angle_range_property(a):
    r = norm_angle(a)
    assert 0.0 <= r < TWO_PI
    # same direction: unit vectors agree
    assert math.cos(r) == pytest.approx(math.cos(a), abs=1e-9)
    assert math.sin(r) == pytest.approx(math.sin(a), abs=1e-9)


def test_angle_of_basic_directions():
    a = Point(0.0, 0.0)
    assert angle_of(a, Point(1.0, 0.0)) == 0.0
    assert angle_of(a, Point(0.0, 2.0)) == pytest.approx(math.pi / 2)
    assert angle_of(a, Point(-3.0, 0.0)) == pytest.approx(math.pi)
    assert angle_of(a, Point(0.0, -1.0)) == pytest.approx(3 * math.pi / 2)


def test_angle_of_coincident_points_is_zero():
    p = Point(2.5, -1.0)
    assert angle_of(p, p) == 0.0


def test_segment_between_properties():
    seg = segment_between(Point(1.0, 1.0), Point(4.0, 5.0))
    assert seg.length == pytest.approx(5.0)
    assert seg.theta == pytest.approx(math.atan2(4.0, 3.0))
    assert seg.end.x == pytest.approx(4.0)
    assert seg.end.y == pytest.approx(5.0)


def test_directed_segment_end_derives_from_polar_form():
    seg = DirectedSegment(Point(0.0, 0.0), 2.0, math.pi / 2)
    assert seg.end.x == pytest.approx(0.0, abs=1e-15)
    assert seg.end.y == pytest.approx(2.0)


def test_point_line_distance_known_value():
    seg = segment_between(Point(0.0, 0.0), Point(3.0, 4.0))
    assert point_line_distance(Point(0.0, 5.0), seg) == pytest.approx(3.0)


def test_point_line_distance_zero_length_falls_back_to_point():
    seg = DirectedSegment(Point(1.0, 1.0), 0.0, 0.0)
    assert point_line_distance(Point(4.0, 5.0), seg) == pytest.approx(5.0)


def test_point_line_distance_measures_line_not_segment():
    # the foot of the perpendicular lies beyond the segment end; distance
    # is still measured to the infinite line
    seg = segment_between(Point(0.0, 0.0), Point(1.0, 0.0))
    assert point_line_distance(Point(10.0, 2.0), seg) == pytest.approx(2.0)


@given(coords, coords, angles, seg_lengths, coords, coords)
def test_point_line_distance_matches_search_oracle(ax, ay, theta, length, px, py):
    """Agrees with a ternary search for the closest point on the line."""
    a = Point(ax, ay)
    b = Point(ax + length * math.cos(theta), ay + length * math.sin(theta))
    seg = segment_between(a, b)
    p = Point(px, py)
    d = point_line_distance(p, seg)

    def dist_at(t):
        return math.hypot(px - (ax + t * (b.x - ax)), py - (ay + t * (b.y - ay)))

    # window wide enough to contain the perpendicular foot
    reach = math.hypot(px - ax, py - ay) / seg.length + 1.0
    lo, hi = -reach, reach
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if dist_at(m1) < dist_at(m2):
            hi = m2
        else:
            lo = m1
    assert d == pytest.approx(dist_at(0.5 * (lo + hi)), rel=1e-9, abs=1e-9)


@given(coords, coords, angles, seg_lengths, coords, coords, angles, coords, coords)
def test_point_line_distance_rigid_motion_invariant(
    ax, ay, theta, length, px, py, rot, tx, ty
):
    a = Point(ax, ay)
    b = Point(ax + length * math.cos(theta), ay + length * math.sin(theta))
    p = Point(px, py)
    d0 = point_line_distance(p, segment_between(a, b))

    c, s = math.cos(rot), math.sin(rot)

    def move(q):
        return Point(q.x * c - q.y * s + tx, q.x * s + q.y * c + ty)

    d1 = point_line_distance(move(p), segment_between(move(a), move(b)))
    scale = max(1.0, d0, math.hypot(px - ax, py - ay))
    assert abs(d0 - d1) <= 1e-8 * scale


def test_included_angle_is_raw_difference():
    l1 = _ray(0.25)
    l2 = _ray(6.0)
    assert included_angle(l1, l2) == pytest.approx(5.75)
    assert included_angle(l2, l1) == pytest.approx(-5.75)


def test_line_intersection_known_point():
    horiz = DirectedSegment(Point(0.0, 0.0), 1.0, 0.0)
    vert = DirectedSegment(Point(5.0, 1.0), 1.0, math.pi / 2)
    g = line_intersection(horiz, vert)
    assert g is not None
    assert g.x == pytest.approx(5.0)
    assert g.y == pytest.approx(0.0, abs=1e-12)


def test_line_intersection_parallel_returns_none():
    l1 = DirectedSegment(Point(0.0, 0.0), 1.0, 0.3)
    l2 = DirectedSegment(Point(0.0, 1.0), 1.0, 0.3)
    assert line_intersection(l1, l2) is None
    # antiparallel counts as parallel too
    l3 = DirectedSegment(Point(0.0, 1.0), 1.0, norm_angle(0.3 + math.pi))
    assert line_intersection(l1, l3) is None


def test_line_intersection_zero_length_raises():
    l1 = DirectedSegment(Point(0.0, 0.0), 0.0, 0.0)
    l2 = DirectedSegment(Point(1.0, 1.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        line_intersection(l1, l2)


@given(coords, coords, angles, coords, coords, angles)
def test_line_intersection_lies_on_both_lines(x1, y1, t1, x2, y2, t2):
    l1 = DirectedSegment(Point(x1, y1), 1.0, t1)
    l2 = DirectedSegment(Point(x2, y2), 1.0, t2)
    g = line_intersection(l1, l2)
    if g is None:
        return
    scale = max(1.0, abs(g.x), abs(g.y))
    assert point_line_distance(g, l1) <= 1e-6 * scale
    assert point_line_distance(g, l2) <= 1e-6 * scale


def test_project_equirectangular_scales_about_first_point():
    lat0, lon0 = 40.0, -74.0
    rows = [
        (lon0, lat0, 0.0),
        (lon0 + 0.01, lat0, 1.0),
        (lon0, lat0 + 0.01, 2.0),
    ]
    out = project_equirectangular(rows)
    assert out[0].x == 0.0 and out[0].y == 0.0
    kx = M_PER_DEG_LON * math.cos(math.radians(lat0))
    assert out[1].x == pytest.approx(0.01 * kx)
    assert out[1].y == pytest.approx(0.0, abs=1e-9)
    assert out[2].y == pytest.approx(0.01 * M_PER_DEG_LAT)
    assert [p.t for p in out] == [0.0, 1.0, 2.0]


def test_project_equirectangular_empty():
    assert project_equirectangular([]) == []
