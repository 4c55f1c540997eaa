"""One-pass streaming simplification.

``OperbEncoder`` consumes points one at a time and emits finished segments
as soon as they are determined. State is constant-size: the segment under
construction, an optional just-closed segment still absorbing points
(opt5), and in patching mode a lazy buffer of at most two unemitted
segments. All of it lives in the locals of one generator,
``OperbEncoder._kernel``, which ``push`` and ``simplify`` both drive; its
local ``dispatch`` is the only route out for a finished segment.

Patching mode (``Mode.OPERB_A``) holds a closed two-point segment back in
that buffer until its successor closes, then tries to replace the pair
(predecessor, corner segment) with (predecessor extended to the line
intersection G, successor re-anchored at G); ``try_patch`` finds G. Both
replacement segments lie on the original lines, so the error bound is
untouched while one segment is saved.
"""

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .errors import DataError
from .fitting import (PATCH_REACH, FitConfig, FitState, coord_error,
                      coord_limit)
from .geometry import TWO_PI, Point, admits, iter_points, norm_angle


_INF = math.inf
_SNAPSHOT = object()  # sent to the kernel to read its fit state
_ADMITTED = object()  # sent to the kernel before rows that passed admits()


class Mode(enum.Enum):
    OPERB = "operb"
    OPERB_A = "operb-a"


@dataclass(slots=True)
class Segment:
    """One piece of the output representation.

    covered counts the original points this segment represents, shared
    endpoints included; patched_start marks a start point that is an
    interpolated patch point rather than an input sample.
    """

    start: Point
    end: Point
    covered: int
    patched_start: bool = False


@dataclass
class PiecewiseRepresentation:
    segments: List[Segment]
    traj_id: str = "0"
    anomalous_candidates: int = 0
    patches: int = 0

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


def _point_error(k: int, p: Point, last_t: float, lim: float) -> DataError:
    """The error for input point k, which failed the check that x and y
    lie within (-lim, lim) and t is finite and above last_t."""
    x, y, t = p
    if not (-lim < x < lim and -lim < y < lim):
        return coord_error(k, x, y, lim)
    if not -_INF < t < _INF:
        return DataError(f"point {k}: non-finite coordinate")
    return DataError(f"point {k}: timestamp {t!r} not greater than {last_t!r}")


def _refused(k: int, exc: Exception) -> DataError:
    """exc if it is a DataError, else one for point k with exc as cause."""
    if isinstance(exc, DataError):
        return exc
    err = DataError(f"point {k}: {exc}")
    err.__cause__ = exc
    return err


def _line(a: Point, b: Point) -> Tuple[float, float, float, float]:
    """Length, bearing in [0, 2*pi) and direction cosines of the ray a->b.

    The bearing of a zero vector is 0. cos and sin are taken of the folded
    bearing, not of the raw atan2, so every caller sees the same last bit.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    # atan2(0.0, -0.0) is pi, hence the zero-vector rule.
    theta = 0.0 if dx == 0.0 and dy == 0.0 else math.atan2(dy, dx)
    if theta < 0.0:
        theta = norm_angle(theta)
    return math.hypot(dx, dy), theta, math.cos(theta), math.sin(theta)


def try_patch(
    prev: Segment, anom: Segment, nxt: Segment, cfg: FitConfig
) -> Optional[Point]:
    """Patch point G for an anomalous segment between prev and nxt, or None.

    G is where the infinite lines through prev and nxt cross. It must sit
    forward of prev.start on prev's line, strictly behind nxt.start on
    nxt's line, reach at least to zeta/2 short of prev's end, and the turn
    between the two lines must be at least gamma_m away from collinear.
    G and both line starts must lie within PATCH_REACH * zeta of the origin.
    G's timestamp is the midpoint of the anomalous segment's endpoint times.
    """
    len1, th1, c1, s1 = _line(prev.start, prev.end)
    len2, th2, c2, s2 = _line(nxt.start, nxt.end)
    if len1 == 0.0 or len2 == 0.0:
        return None
    # Near-parallel lines, coincident ones included, have no usable crossing.
    if abs(math.sin(th1 - th2)) < 1e-9:
        return None
    x1, y1 = prev.start.x, prev.start.y
    x2, y2 = nxt.start.x, nxt.start.y
    # Solve start1 + u*dir1 = start2 + v*dir2 for u via the cross-product form.
    u = ((x2 - x1) * s2 - (y2 - y1) * c2) / (c1 * s2 - s1 * c2)
    gx = x1 + u * c1
    gy = y1 + u * s1
    reach = PATCH_REACH * cfg.zeta
    if not max(abs(gx), abs(gy), abs(x1), abs(y1), abs(x2), abs(y2)) < reach:
        return None
    # Directional membership: on the forward ray of prev, behind nxt.start.
    fwd = (gx - x1) * c1 + (gy - y1) * s1
    if fwd <= 0.0:
        return None
    back = (x2 - gx) * c2 + (y2 - gy) * s2
    if back <= 0.0:
        return None
    if fwd < len1 - 0.5 * cfg.zeta:
        return None
    # The raw difference of two bearings in [0, 2*pi) spans (-2*pi, 2*pi);
    # the intervals below tell e.g. -pi/2 from +3*pi/2.
    a = th2 - th1
    gm = cfg.gamma_m
    ok_turn = (
        (gm - math.pi <= a <= math.pi - gm)
        or (math.pi + gm <= a < 2.0 * math.pi)
        or (-2.0 * math.pi < a <= -math.pi - gm)
    )
    if not ok_turn:
        return None
    # Halved first, so the sum of two timestamps near the float range
    # cannot overflow.
    return Point(gx, gy, 0.5 * anom.start.t + 0.5 * anom.end.t)


class OperbEncoder:
    """Streaming encoder. Feed points with push(), drain with finish()."""

    def __init__(self, cfg: FitConfig, mode: Mode = Mode.OPERB, first: Point = None):
        if first is None:
            raise ValueError("encoder needs the first point up front")
        mode = Mode(mode)  # accept "operb"/"operb-a" strings too
        lim = coord_limit(cfg.zeta)
        try:
            x, y, t = first
            # "+ 0.0" turns away numbers that do not mix with floats (Decimal).
            if not (-_INF < t + 0.0 < _INF and -lim < x + 0.0 < lim
                    and -lim < y + 0.0 < lim):
                raise _point_error(0, first, -_INF, lim)
        except Exception as exc:  # what the kernel refuses for any later point
            raise _refused(0, exc)
        if type(first) is not Point:
            first = Point(x, y, t)
        self.cfg = cfg
        self.mode = mode
        self.n_anomalous = 0
        self.n_patched = 0
        self._error: Optional[DataError] = None
        kernel = self._kernel(first)
        next(kernel)
        self._send = kernel.send
        self._end = kernel.close

    def __reduce_ex__(self, protocol):
        # A copy would share the running kernel with the original.
        raise TypeError("an OperbEncoder cannot be copied or pickled")

    def _kernel(self, first: Point):
        """The fit rule, applied once to each point.

        A generator, so the whole per-point state lives in its locals
        between calls and entering the kernel costs one send(). Send it:
        - an iterable of points: it returns the list of segments that
          became final;
        - _SNAPSHOT: it returns the fit state as a FitState;
        - _ADMITTED: the next send's points skip the per-point check,
          because ``admits`` has already passed every one of them;
        - None: it runs the finish logic and returns the last segments.
        A rejected point makes it return None with a DataError in
        self._error and the state as it stood before that point. It never
        raises on bad input, because a generator that raises is dead.
        """
        cfg = self.cfg
        patching = self.mode is Mode.OPERB_A
        zeta = cfg.zeta
        half = 0.5 * zeta
        quarter = 0.25 * zeta
        half_pi = math.pi / 2.0
        thr0 = zeta if cfg.opt1 else quarter
        opt2 = cfg.opt2
        opt3 = cfg.opt3
        opt4 = cfg.opt4
        opt5 = cfg.opt5
        sqrt = math.sqrt
        asin = math.asin
        atan2 = math.atan2
        sin = math.sin
        cos = math.cos
        inf = math.inf
        # Coordinates past lim would overflow the fit's arithmetic.
        lim = coord_limit(zeta)
        nlim = -lim
        ceil = math.ceil
        norm = norm_angle
        two_pi = TWO_PI
        line = _line
        point = Point
        make = tuple.__new__  # make(point, xyt) builds a Point in C

        # The segment under construction: anchor, last active point, count
        # of points after the anchor, deviation extremes, the fitted line L
        # and the radial segment R_a to the last active point, kept as the
        # tuple it came in as until it ends a segment or leaves the kernel,
        # and its input index.
        anchor = la = first
        lak = 0
        ax = first.x
        ay = first.y
        cnt = lz = 0
        dplus = dminus = flen = fth = 0.0
        fcos = racos = 1.0
        fsin = rasin = 0.0
        # The newest consumed point's coordinates, and the next input index.
        lx = first.x
        ly = first.y
        last_t = first.t
        k = 1
        # opt5: the just-closed segment still absorbing points, and its line.
        ab = None
        # Patching mode's lazy buffer: a closed but unemitted predecessor,
        # plus at most one anomalous segment waiting for its successor.
        # anom implies prev.
        prev = anom = None
        out = None
        # Whether this send's points get the per-point check.
        checked = True

        def dispatch(seg):
            """The only route out for a segment whose covered count is
            final: straight to out in plain mode, through the lazy buffer
            in patching mode."""
            nonlocal prev, anom
            if seg.covered == 2:
                self.n_anomalous += 1
            if not patching:
                out.append(seg)
            elif anom is not None:
                g = try_patch(prev, anom, seg, cfg)
                if g is None:
                    out.append(prev)
                    out.append(anom)
                    prev = seg
                else:
                    out.append(Segment(prev.start, g, prev.covered, prev.patched_start))
                    self.n_patched += 1
                    prev = Segment(g, seg.end, seg.covered, True)
                anom = None
            elif seg.covered == 2 and prev is not None:
                anom = seg
            else:
                if prev is not None:
                    out.append(prev)
                prev = seg

        while True:
            pts = yield out
            if pts is None:
                break
            if pts is _SNAPSHOT:
                if type(la) is not point:
                    la = make(point, la)
                dx = la.x - ax
                dy = la.y - ay
                out = FitState(anchor, la, cnt, dplus, dminus, lz, flen, fth,
                               fcos, fsin, sqrt(dx * dx + dy * dy), racos, rasin)
                continue
            if pts is _ADMITTED:
                checked = False
                continue
            out = []
            for p in pts:
                if checked:
                    try:
                        px, py, pt = p
                        # "+ 0.0" turns away numbers that do not mix with
                        # floats.
                        if not (
                            last_t < pt + 0.0 < inf
                            and nlim < px + 0.0 < lim
                            and nlim < py + 0.0 < lim
                        ):
                            raise _point_error(k, p, last_t, lim)
                    except Exception as exc:
                        self._error = _refused(k, exc)
                        out = None
                        break
                else:
                    px, py, pt = p
                # Each pass ends with p consumed, absorbed or passed by the one
                # deviation test, unless p breaks the segment; the retry then
                # offers p to the closed segment (opt5) or the fresh fit,
                # which always takes it.
                while True:
                    if ab is not None:
                        d_ab = (px - ab_x) * ab_sin - (py - ab_y) * ab_cos
                        if d_ab < 0.0:
                            d_ab = -d_ab
                        if d_ab <= zeta:
                            ab.covered += 1
                            break
                        # p fell off the closed segment's line and seeds the
                        # fresh fit.
                        dispatch(ab)
                        ab = None
                    dx = px - ax
                    dy = py - ay
                    r_len = sqrt(dx * dx + dy * dy)
                    if flen == 0.0:
                        # No fitted line yet: a point inside the
                        # first-active radius is within zeta of any line
                        # through the anchor, so no distance test.
                        if r_len <= thr0:
                            cnt += 1
                            break
                    else:
                        d_signed = dx * fsin - dy * fcos
                        d = -d_signed if d_signed < 0.0 else d_signed
                        # Rotation sense toward p: d_signed*dot has the sign
                        # of -sin(2*(theta_R - theta_L))/2, which is negative
                        # exactly where the sense is +1. It is zero when p
                        # lies on L's line, where the sense changes nothing
                        # (d = 0, so the step is 0), or square to L, where
                        # p lies counter-clockwise of L if d_signed < 0.
                        prod = d_signed * (dx * fcos + dy * fsin)
                        fpos = prod < 0.0 or (prod == 0.0 and d_signed <= 0.0)
                        if fpos:
                            plus = dplus if dplus > d else d
                            minus = dminus
                        else:
                            plus = dplus
                            minus = dminus if dminus > d else d
                        fits = (plus + minus <= zeta) if opt2 else (d <= half)
                        if fits and r_len - flen <= quarter:
                            # Same zone: p is inactive if it also stays
                            # within zeta of R_a.
                            d_ra = dx * rasin - dy * racos
                            if d_ra < 0.0:
                                d_ra = -d_ra
                            if d_ra <= zeta:
                                cnt += 1
                                dplus = plus
                                dminus = minus
                                break
                            fits = False
                    if flen == 0.0 or fits:
                        # p is active. Its zone j: radius in
                        # ((j - 1/2)*zeta/2, (j + 1/2)*zeta/2], values less
                        # than 1e-12 above an integer snapped down so
                        # 1.0000000000000002 zones does not jump a zone.
                        # r_len > thr0 >= zeta/4 keeps zx >= 0. Below 2**52,
                        # zx - (j - 1) is exact; from there on zx is an
                        # integer, and j - 1 may round up to it as a float.
                        zx = 2.0 * r_len / zeta - 0.5
                        j = ceil(zx)
                        if zx < 2.0 ** 52 and zx - (j - 1) < 1e-12:
                            j -= 1
                        jl = j * half
                        inv = 1.0 / r_len
                        if flen == 0.0:
                            # First active point: L snaps to the radial
                            # bearing.
                            fth = atan2(dy, dx)
                            if fth < 0.0:
                                fth = norm(fth)
                            fcos = dx * inv
                            fsin = dy * inv
                        else:
                            # Case (3): stretch to the new zone and rotate
                            # toward p.
                            dplus = plus
                            dminus = minus
                            d_x = d
                            if opt3:
                                ex = plus if fpos else minus
                                u = d / jl
                                if u > 1.0:
                                    u = 1.0
                                a_full = j * asin(u)
                                cap = jl if a_full >= half_pi else jl * sin(a_full)
                                d_x = ex if ex < cap else cap
                            dj = (j - lz) if opt4 else 1
                            arg = d_x / jl
                            if arg > 1.0:
                                arg = 1.0
                            step = asin(arg) * (dj / j)
                            fth = fth + step if fpos else fth - step
                            if not 0.0 <= fth < two_pi:
                                fth = norm(fth)
                            fcos = cos(fth)
                            fsin = sin(fth)
                        flen = jl
                        racos = dx * inv
                        rasin = dy * inv
                        tp = type(p)
                        if tp is not point and tp is not tuple:
                            # A list or another triple the caller may
                            # change later: keep a copy.
                            p = point(px, py, pt)
                        la = p
                        lak = k
                        lz = j
                        cnt += 1
                        break
                    # p breaks the segment, which only a fitted line can do:
                    # close it at the last active point, more than thr0 from
                    # the anchor, and start a fresh fit there.
                    if type(la) is not point:
                        la = make(point, la)
                    seg = Segment(anchor, la, 1 + cnt)
                    if opt5:
                        ab = seg
                        ab_x = ax
                        ab_y = ay
                        _, _, ab_cos, ab_sin = line(anchor, la)
                    else:
                        dispatch(seg)
                    anchor = la
                    ax = la.x
                    ay = la.y
                    cnt = lz = 0
                    dplus = dminus = flen = fth = 0.0
                    fcos = racos = 1.0
                    fsin = rasin = 0.0
                lx = px
                ly = py
                last_t = pt
                k += 1
            checked = True

        out = []
        if type(la) is not point:
            la = make(point, la)
        lastp = la if lak == k - 1 else point(lx, ly, last_t)
        if ab is not None:
            # The stream ended mid-absorption: the last absorbed point
            # becomes the end of a two-point connector so the
            # representation still reaches the final input point.
            ab.covered -= 1
            dispatch(ab)
            dispatch(Segment(ab.end, lastp, 2))
        elif la is lastp or flen == 0.0:
            # The stream ended on the anchor or on an active point, or no
            # point went active: everything sits within the first-active
            # radius, hence within zeta of any line through the anchor.
            dispatch(Segment(anchor, lastp, 1 + cnt))
        else:
            # Trailing inactive points: close at the last active point
            # (the only line the break tests guarded) and bridge to the
            # final input point with a two-point connector.
            dispatch(Segment(anchor, la, cnt))
            dispatch(Segment(la, lastp, 2))
        if prev is not None:
            out.append(prev)
        if anom is not None:
            out.append(anom)
        yield out

    # -- public API --------------------------------------------------------

    @property
    def fit(self) -> FitState:
        """Snapshot of the segment under construction."""
        try:
            return self._send(_SNAPSHOT)
        except StopIteration:
            raise ValueError("fit read after finish") from None

    def push(self, p: Point) -> List[Segment]:
        try:
            out = self._send((p,))
        except StopIteration:
            raise ValueError("push after finish") from None
        if out is None:
            raise self._error
        return out

    def finish(self) -> List[Segment]:
        try:
            out = self._send(None)
        except StopIteration:
            raise ValueError("finish called twice") from None
        self._end()
        return out


def simplify(
    traj: Iterable[Point], cfg: FitConfig, mode: Mode = Mode.OPERB
) -> PiecewiseRepresentation:
    """Run the encoder over a whole trajectory in one send to its kernel.

    Each point is read exactly once: a list or tuple by index, a
    trajectory view row by row, any other iterable as it streams. A view
    whose rows all pass ``admits`` skips the kernel's per-point check; any
    other input, and a view that fails, is checked point by point, so the
    error names the first point refused.
    """
    pts = iter_points(traj)
    try:
        first = next(pts)
    except StopIteration:
        raise ValueError("simplify needs at least one point") from None
    enc = OperbEncoder(cfg, mode, first)
    if isinstance(traj, memoryview) and admits(traj, coord_limit(cfg.zeta)):
        enc._send(_ADMITTED)
    segments = enc._send(pts)
    if segments is None:
        raise enc._error
    segments.extend(enc.finish())
    return PiecewiseRepresentation(
        segments,
        anomalous_candidates=enc.n_anomalous,
        patches=enc.n_patched,
    )
