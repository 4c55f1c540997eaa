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
        deviation would allow at full weight: at jl*sin(j*asin(d/jl)) for
        zone j of length jl. As asin(u) >= u and sin(a) >= 2a/pi on
        [0, pi/2], the cap is at least min(jl, (2/pi)*j*d), so the kernel
        takes an extreme below jl and 0.6366*j*d, and a deviation of 0 as
        it is, without asin and sin; the bits are those of the full cap
        while d/jl stays a normal float
  opt4  the re-fit angle is scaled by the number of zones skipped since the
        last active point
  opt5  consumed by the encoder (absorb points into a just-closed segment);
        carried here so one config object describes a whole run
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DataError
from .geometry import Point


def check_zeta(zeta: float) -> None:
    """Raise ValueError unless zeta is a finite error bound above zero
    whose half, the fit's length unit, does not round to zero."""
    if not (math.isfinite(zeta) and zeta > 0.0):
        raise ValueError(f"zeta must be finite and > 0, got {zeta}")
    if 0.5 * zeta == 0.0:
        raise ValueError(f"zeta must be at least 1e-323, got {zeta}")


def coord_limit(zeta: float) -> float:
    """The bound on |x| and |y| of an input point at error bound zeta.

    1e100 keeps every product of two offsets finite, also those with a
    patch point, which may lie about 1e9 times farther out than its
    neighbours (``try_patch`` takes lines down to |sin| = 1e-9); 1e300 *
    zeta keeps radius / zeta, the kernel's zone, finite.
    """
    return min(1e100, 1e300 * zeta)


# try_patch takes a patch point G only while G and the two line starts it
# is computed from lie within PATCH_REACH * zeta of the origin: G's rounding
# grows with those coordinates, and on random walks and grid routes the
# patched lines missed the bound from about 2**53 * zeta on; 2**44 leaves a
# margin of 2**9.
PATCH_REACH = 2.0 ** 44


def coord_error(k: int, x: float, y: float, lim: float) -> DataError:
    """The error for point k, whose x or y is not within (-lim, lim)."""
    if math.isfinite(x) and math.isfinite(y):
        return DataError(
            f"point {k}: coordinate beyond {lim:g}, the bound zeta can carry"
        )
    return DataError(f"point {k}: non-finite coordinate")


@dataclass(frozen=True)
class FitConfig:
    """Parameters shared by one compression run."""

    zeta: float
    opt1: bool = True
    opt2: bool = True
    opt3: bool = True
    opt4: bool = True
    opt5: bool = True
    gamma_m: float = math.pi / 3.0

    def __post_init__(self):
        check_zeta(self.zeta)
        if not (0.0 <= self.gamma_m <= math.pi):
            raise ValueError(f"gamma_m must be in [0, pi], got {self.gamma_m}")


class FitState(NamedTuple):
    """Snapshot of the segment under construction, as ``OperbEncoder.fit``
    returns it; the encoder's kernel keeps the live values in its locals.

    points_in_segment counts points consumed after the anchor, so it equals
    the index offset of the newest consumed point.

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

