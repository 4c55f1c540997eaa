"""Planar primitives shared by every simplification algorithm.

Distances are always measured to the infinite line through a directed
segment, not to the finite segment body; a zero-length segment falls back
to the distance to its start point.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

TWO_PI = 2.0 * math.pi

# Equirectangular scale, metres per degree near the reference latitude.
M_PER_DEG_LON = 111320.0
M_PER_DEG_LAT = 110540.0


class Point(NamedTuple):
    x: float
    y: float
    t: float = 0.0


@dataclass(frozen=True)
class DirectedSegment:
    """Directed segment anchored at ``start`` with polar extent (length, theta).

    theta is kept in [0, 2*pi). The end point is derived, never stored.
    """

    start: Point
    length: float
    theta: float

    @property
    def end(self) -> Point:
        return Point(
            self.start.x + self.length * math.cos(self.theta),
            self.start.y + self.length * math.sin(self.theta),
            self.start.t,
        )


def norm_angle(theta: float) -> float:
    """Fold an angle into [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
        # Adding 2*pi to a tiny negative rounds up to 2*pi itself; keep
        # the result strictly inside the half-open interval.
        if theta >= TWO_PI:
            theta = 0.0
    return theta


def angle_of(a: Point, b: Point) -> float:
    """Bearing of the ray a->b in [0, 2*pi); 0 when a == b."""
    dx = b.x - a.x
    dy = b.y - a.y
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return norm_angle(math.atan2(dy, dx))


def segment_between(a: Point, b: Point) -> DirectedSegment:
    return DirectedSegment(a, math.hypot(b.x - a.x, b.y - a.y), angle_of(a, b))


def point_line_distance(p: Point, seg: DirectedSegment) -> float:
    """Distance from p to the infinite line carrying seg.

    A zero-length segment has no line; the distance to its start point is
    returned instead.
    """
    dx = p.x - seg.start.x
    dy = p.y - seg.start.y
    if seg.length == 0.0:
        return math.hypot(dx, dy)
    # |cross(direction, p - start)| with a unit direction vector.
    return abs(dx * math.sin(seg.theta) - dy * math.cos(seg.theta))


def included_angle(l1: DirectedSegment, l2: DirectedSegment) -> float:
    """Turn from l1 to l2 as the raw difference l2.theta - l1.theta.

    Deliberately not renormalised: with both inputs in [0, 2*pi) the result
    spans (-2*pi, 2*pi), and the interval tests of the callers distinguish
    e.g. -pi/2 from +3*pi/2.
    """
    return l2.theta - l1.theta


def line_intersection(
    l1: DirectedSegment, l2: DirectedSegment, parallel_tol: float = 1e-9
) -> Optional[Point]:
    """Intersection of the two infinite lines, or None when near-parallel.

    Near-parallel means |sin(theta1 - theta2)| < parallel_tol, which also
    covers coincident lines. Zero-length input has no line and is a
    caller error.
    """
    if l1.length == 0.0 or l2.length == 0.0:
        raise ValueError("line_intersection requires non-degenerate segments")
    sin_d = math.sin(l1.theta - l2.theta)
    if abs(sin_d) < parallel_tol:
        return None
    c1, s1 = math.cos(l1.theta), math.sin(l1.theta)
    c2, s2 = math.cos(l2.theta), math.sin(l2.theta)
    # Solve start1 + u*dir1 = start2 + v*dir2 for u via the cross-product form.
    bx = l2.start.x - l1.start.x
    by = l2.start.y - l1.start.y
    u = (bx * s2 - by * c2) / (c1 * s2 - s1 * c2)
    return Point(l1.start.x + u * c1, l1.start.y + u * s1, l1.start.t)


def project_equirectangular(
    points: Sequence[Tuple[float, float, float]]
) -> list:
    """Map (lon, lat, t) rows to local metres about the first point.

    x grows east (scaled by cos of the reference latitude), y grows north.
    """
    if not points:
        return []
    lon0, lat0 = points[0][0], points[0][1]
    kx = M_PER_DEG_LON * math.cos(math.radians(lat0))
    ky = M_PER_DEG_LAT
    return [Point((lon - lon0) * kx, (lat - lat0) * ky, t) for lon, lat, t in points]
