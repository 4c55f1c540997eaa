"""Planar primitives shared by every simplification algorithm: the point
type, the bearing fold and the projection of lon/lat rows to metres."""

import math
from typing import NamedTuple, Sequence, Tuple

TWO_PI = 2.0 * math.pi

# Equirectangular scale, metres per degree near the reference latitude.
M_PER_DEG_LON = 111320.0
M_PER_DEG_LAT = 110540.0


class Point(NamedTuple):
    x: float
    y: float
    t: float = 0.0


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
