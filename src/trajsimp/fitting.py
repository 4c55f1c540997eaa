"""Parameters and helpers of the one-pass line-fitting rule.

This module holds no per-point code: the rule itself runs in
``OperbEncoder._kernel`` (``onepass``). A segment under construction is
summarised by the anchor, the fitted directed line L (length quantised to
multiples of zeta/2), the radial segment R_a to the last active point,
signed deviation extremes, and counters; ``FitState`` is a read-only
snapshot of them. Every incoming point is classified as Inactive (absorbed
without touching L), Active (L is re-fitted), or Break (the current
segment must be closed).

The five toggles on ``FitConfig``:

  opt1  first active point waits for |R| > zeta instead of zeta/4
  opt2  break test uses d_plus_max + d_minus_max <= zeta instead of a
        per-point d <= zeta/2
  opt3  the re-fit angle uses the applicable signed extreme instead of the
        current deviation, capped so the step never exceeds what the raw
        deviation would allow at full weight
  opt4  the re-fit angle is scaled by the number of zones skipped since the
        last active point
  opt5  consumed by the encoder (absorb points into a just-closed segment);
        carried here so one config object describes a whole run
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import Point

_HALF_PI = math.pi / 2.0
_PI = math.pi
_3_HALF_PI = 1.5 * math.pi

K_CAP_LIMIT = 400_000


def check_zeta(zeta: float) -> None:
    """Raise ValueError unless zeta is a finite error bound above zero."""
    if not (math.isfinite(zeta) and zeta > 0.0):
        raise ValueError(f"zeta must be finite and > 0, got {zeta}")


@dataclass(frozen=True)
class FitConfig:
    """Parameters shared by one compression run."""

    zeta: float
    k_cap: int = K_CAP_LIMIT
    opt1: bool = True
    opt2: bool = True
    opt3: bool = True
    opt4: bool = True
    opt5: bool = True
    gamma_m: float = math.pi / 3.0

    def __post_init__(self):
        check_zeta(self.zeta)
        if not (1 <= self.k_cap <= K_CAP_LIMIT):
            raise ValueError(f"k_cap must be in [1, {K_CAP_LIMIT}], got {self.k_cap}")
        if not (0.0 <= self.gamma_m <= math.pi):
            raise ValueError(f"gamma_m must be in [0, pi], got {self.gamma_m}")


def zone_index(r_len: float, zeta: float) -> int:
    """Index j of the radial zone ((j - 1/2)*zeta/2, (j + 1/2)*zeta/2].

    Values within 1e-12 of an integer are snapped before the ceiling so a
    radius computed as 1.0000000000000002 zones does not jump a zone.
    """
    x = 2.0 * r_len / zeta - 0.5
    n = math.floor(x + 0.5)
    if abs(x - n) < 1e-12:
        j = n
    else:
        j = math.ceil(x)
    return j if j > 0 else 0


class FitState(NamedTuple):
    """Snapshot of the segment under construction, as ``OperbEncoder.fit``
    returns it; the encoder's kernel keeps the live values in its locals.

    points_in_segment counts points consumed after the anchor, so it equals
    the index offset of the newest consumed point and stays <= k_cap.

    The fitted line and the radial segment to the last active point are
    kept unpacked (length, theta, direction cosines) because the per-point
    deviation test is the hottest code in the package; ra_len, which no
    per-point test reads, is derived from the anchor at snapshot time.
    """

    anchor: Point
    last_active: Point
    points_in_segment: int
    d_plus_max: float
    d_minus_max: float
    last_zone: int
    fit_len: float
    fit_theta: float
    fit_cos: float
    fit_sin: float
    ra_len: float
    ra_cos: float
    ra_sin: float


def _sign_from_diff(a: float) -> int:
    """Rotation sense (+1 counter-clockwise, -1 clockwise) that turns the
    fitted line toward a point whose bearing differs from it by a.

    a is the raw difference of two bearings in [0, 2*pi), so it spans
    (-2*pi, 2*pi). +1 exactly on (-2*pi, -3*pi/2] + [-pi, -pi/2] +
    [0, pi/2] + [pi, 3*pi/2), -1 otherwise. Interval endpoints are
    intentional: the half-open bounds make the map total and keep a turn of
    exactly pi counter-clockwise.
    """
    if 0.0 <= a <= _HALF_PI:
        return 1
    if _PI <= a < _3_HALF_PI:
        return 1
    if -_PI <= a <= -_HALF_PI:
        return 1
    if a <= -_3_HALF_PI:
        return 1
    return -1
