"""Incremental line fitting for the one-pass encoder.

A segment under construction is summarised by a fixed-size ``FitState``:
the anchor, the fitted directed line L (length quantised to multiples of
zeta/2), the radial segment R_a to the last active point, signed deviation
extremes, and counters. Every incoming point is classified as Inactive
(absorbed without touching L), Active (L is re-fitted), or Break (the
current segment must be closed).

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

from .geometry import Point, norm_angle

_HALF_PI = math.pi / 2.0
_PI = math.pi
_3_HALF_PI = 1.5 * math.pi

K_CAP_LIMIT = 400_000


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
    parallel_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and self.zeta > 0.0):
            raise ValueError(f"zeta must be finite and > 0, got {self.zeta}")
        if not (1 <= self.k_cap <= K_CAP_LIMIT):
            raise ValueError(f"k_cap must be in [1, {K_CAP_LIMIT}], got {self.k_cap}")
        if not (0.0 <= self.gamma_m <= math.pi):
            raise ValueError(f"gamma_m must be in [0, pi], got {self.gamma_m}")
        if not (math.isfinite(self.parallel_tol) and self.parallel_tol > 0.0):
            raise ValueError("parallel_tol must be finite and > 0")


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


class FitState:
    """Constant-size state of the segment under construction.

    points_in_segment counts points consumed after the anchor, so it equals
    the index offset of the newest consumed point and stays <= k_cap.

    The fitted line and the radial segment to the last active point are
    stored unpacked (length, theta, direction cosines) because the per-point
    deviation test is the hottest code in the package.
    """

    __slots__ = (
        "anchor",
        "last_active",
        "points_in_segment",
        "d_plus_max",
        "d_minus_max",
        "last_zone",
        "fit_len",
        "fit_theta",
        "fit_cos",
        "fit_sin",
        "ra_len",
        "ra_cos",
        "ra_sin",
    )

    def __init__(self, anchor: Point):
        self.anchor = anchor
        self.last_active = anchor
        self.points_in_segment = 0
        self.d_plus_max = 0.0
        self.d_minus_max = 0.0
        self.last_zone = 0
        self.fit_len = 0.0
        self.fit_theta = 0.0
        self.fit_cos = 1.0
        self.fit_sin = 0.0
        self.ra_len = 0.0
        self.ra_cos = 1.0
        self.ra_sin = 0.0

    def __repr__(self):
        return (
            f"FitState(anchor={self.anchor!r}, fit_len={self.fit_len}, "
            f"fit_theta={self.fit_theta}, "
            f"points_in_segment={self.points_in_segment}, "
            f"d_plus_max={self.d_plus_max}, d_minus_max={self.d_minus_max}, "
            f"last_zone={self.last_zone})"
        )


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


def _advance(state: FitState, p: Point, cfg: FitConfig) -> bool:
    """Consume p into the segment under construction and return True, or
    return False, leaving state untouched, when p breaks the segment."""
    if state.points_in_segment >= cfg.k_cap:
        return False
    zeta = cfg.zeta
    half = 0.5 * zeta
    dx = p.x - state.anchor.x
    dy = p.y - state.anchor.y
    r_len = math.sqrt(dx * dx + dy * dy)
    length = state.fit_len

    if length == 0.0:
        # No fitted line yet: every point inside the first-active radius is
        # within zeta of any line through the anchor, so no distance test.
        thr = zeta if cfg.opt1 else 0.25 * zeta
        if r_len <= thr:
            state.points_in_segment += 1
            return True
        # First active point: case (2), theta snaps to the radial bearing.
        j = zone_index(r_len, zeta)
        inv = 1.0 / r_len
        state.fit_len = j * half
        state.fit_theta = norm_angle(math.atan2(dy, dx))
        state.fit_cos = dx * inv
        state.fit_sin = dy * inv
        state.ra_len = r_len
        state.ra_cos = state.fit_cos
        state.ra_sin = state.fit_sin
        state.last_active = p
        state.last_zone = j
        state.points_in_segment += 1
        return True

    cos_l = state.fit_cos
    sin_l = state.fit_sin
    # Signed deviation from L: d_signed = -r*sin(theta_R - theta_L). Together
    # with the projection dot = r*cos(theta_R - theta_L), the product
    # d_signed*dot has the sign of -sin(2*(theta_R - theta_L))/2, which is
    # negative or zero exactly on the quarter-turn intervals where the
    # rotation sense is +1. A zero product is ambiguous (sin and cos repeat
    # at a half-turn apart) and falls back to the raw angle difference.
    d_signed = dx * sin_l - dy * cos_l
    d = -d_signed if d_signed < 0.0 else d_signed
    prod = d_signed * (dx * cos_l + dy * sin_l)
    if prod < 0.0:
        f = 1
    elif prod > 0.0:
        f = -1
    else:
        f = _sign_from_diff(norm_angle(math.atan2(dy, dx)) - state.fit_theta)

    if f > 0:
        plus = state.d_plus_max if state.d_plus_max > d else d
        minus = state.d_minus_max
    else:
        plus = state.d_plus_max
        minus = state.d_minus_max if state.d_minus_max > d else d
    ok_half = (plus + minus <= zeta) if cfg.opt2 else (d <= half)
    if not ok_half:
        return False

    gain = r_len - length
    if gain <= 0.25 * zeta:
        d_ra = dx * state.ra_sin - dy * state.ra_cos
        if d_ra < 0.0:
            d_ra = -d_ra
        if d_ra > zeta:
            return False
        state.points_in_segment += 1
        state.d_plus_max = plus
        state.d_minus_max = minus
        return True

    # Case (3): stretch to the new zone and rotate toward the point.
    j = zone_index(r_len, zeta)
    jl = j * half
    state.d_plus_max = plus
    state.d_minus_max = minus
    d_x = d
    if cfg.opt3:
        ex = plus if f > 0 else minus
        u = d / jl
        if u > 1.0:
            u = 1.0
        a_full = j * math.asin(u)
        cap = jl if a_full >= _HALF_PI else jl * math.sin(a_full)
        d_x = ex if ex < cap else cap
    dj = (j - state.last_zone) if cfg.opt4 else 1
    arg = d_x / jl
    if arg > 1.0:
        arg = 1.0
    theta = norm_angle(state.fit_theta + f * math.asin(arg) * (dj / j))
    inv = 1.0 / r_len
    state.fit_len = jl
    state.fit_theta = theta
    state.fit_cos = math.cos(theta)
    state.fit_sin = math.sin(theta)
    state.ra_len = r_len
    state.ra_cos = dx * inv
    state.ra_sin = dy * inv
    state.last_active = p
    state.last_zone = j
    state.points_in_segment += 1
    return True
