"""One-pass streaming simplification.

``OperbEncoder`` consumes points one at a time and emits finished segments
as soon as they are determined. State is constant-size: one ``FitState``,
an optional just-closed segment still absorbing points (opt5), and in
patching mode a lazy buffer of at most two unemitted segments.

Patching mode (``Mode.OPERB_A``) holds a closed two-point segment back until
its successor closes, then tries to replace the pair (predecessor, corner
segment) with (predecessor extended to the line intersection G, successor
re-anchored at G). Both replacement segments lie on the original lines, so
the error bound is untouched while one segment is saved.
"""

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .errors import DataError, InvariantError
from .fitting import FitConfig, FitState, _advance, _sign_from_diff, zone_index
from .geometry import (
    DirectedSegment,
    Point,
    included_angle,
    line_intersection,
    norm_angle,
    point_line_distance,
    segment_between,
)


_INF = math.inf


class Mode(enum.Enum):
    OPERB = "operb"
    OPERB_A = "operb-a"


@dataclass
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

    @property
    def anomalous(self) -> bool:
        return self.covered == 2


@dataclass
class PendingBuffer:
    """Lazy output buffer: a closed-but-unemitted predecessor, plus at most
    one anomalous segment waiting for its successor. anom implies prev."""

    prev: Optional[Segment] = None
    anom: Optional[Segment] = None


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


def _point_error(k: int, p: Point, last_t: float) -> DataError:
    """The error for input point k, which failed the finite-and-increasing
    check against the previous timestamp last_t."""
    x, y, t = p
    if not (-_INF < x < _INF and -_INF < y < _INF and -_INF < t < _INF):
        return DataError(f"point {k}: non-finite coordinate")
    return DataError(f"point {k}: timestamp {t!r} not greater than {last_t!r}")


def try_patch(
    prev: Segment, anom: Segment, nxt: Segment, cfg: FitConfig
) -> Optional[Point]:
    """Patch point G for an anomalous segment between prev and nxt, or None.

    G must sit forward of prev.start on prev's line, strictly behind
    nxt.start on nxt's line, reach at least to zeta/2 short of prev's end,
    and the turn between the two lines must be at least gamma_m away from
    collinear. G's timestamp is the midpoint of the anomalous segment's
    endpoint times.
    """
    l_prev = segment_between(prev.start, prev.end)
    l_next = segment_between(nxt.start, nxt.end)
    if l_prev.length == 0.0 or l_next.length == 0.0:
        return None
    g = line_intersection(l_prev, l_next, cfg.parallel_tol)
    if g is None:
        return None
    # Directional membership: on the forward ray of prev, behind nxt.start.
    fwd = (g.x - prev.start.x) * math.cos(l_prev.theta) + (
        g.y - prev.start.y
    ) * math.sin(l_prev.theta)
    if fwd <= 0.0:
        return None
    back = (nxt.start.x - g.x) * math.cos(l_next.theta) + (
        nxt.start.y - g.y
    ) * math.sin(l_next.theta)
    if back <= 0.0:
        return None
    if fwd < l_prev.length - 0.5 * cfg.zeta:
        return None
    a = included_angle(l_prev, l_next)
    gm = cfg.gamma_m
    ok_turn = (
        (gm - math.pi <= a <= math.pi - gm)
        or (math.pi + gm <= a < 2.0 * math.pi)
        or (-2.0 * math.pi < a <= -math.pi - gm)
    )
    if not ok_turn:
        return None
    return Point(g.x, g.y, 0.5 * (anom.start.t + anom.end.t))


class OperbEncoder:
    """Streaming encoder. Feed points with push(), drain with finish()."""

    def __init__(self, cfg: FitConfig, mode: Mode = Mode.OPERB, first: Point = None):
        if first is None:
            raise ValueError("encoder needs the first point up front")
        mode = Mode(mode)  # accept "operb"/"operb-a" strings too
        x, y, t = first
        if not (-_INF < t < _INF and -_INF < x < _INF and -_INF < y < _INF):
            raise _point_error(0, first, -_INF)
        self.cfg = cfg
        self.mode = mode
        self.fit = FitState(anchor=first)
        self.pending = PendingBuffer()
        self.absorb: Optional[Segment] = None
        self._absorb_line: Optional[DirectedSegment] = None
        self.n_anomalous = 0
        self.n_patched = 0
        self._last = first
        self._count = 1
        self._finished = False

    # -- internal plumbing -------------------------------------------------

    def _route(self, seg: Segment, out: List[Segment]) -> None:
        """Lazy-buffer routing for patching mode; covered must be final."""
        pb = self.pending
        if pb.anom is not None:
            g = try_patch(pb.prev, pb.anom, seg, self.cfg)
            if g is not None:
                out.append(
                    Segment(pb.prev.start, g, pb.prev.covered, pb.prev.patched_start)
                )
                self.n_patched += 1
                pb.prev = Segment(g, seg.end, seg.covered, True)
                pb.anom = None
                return
            out.append(pb.prev)
            out.append(pb.anom)
            pb.prev = seg
            pb.anom = None
            return
        if seg.covered == 2 and pb.prev is not None:
            pb.anom = seg
            return
        if pb.prev is not None:
            out.append(pb.prev)
        pb.prev = seg

    def _dispatch(self, seg: Segment, out: List[Segment]) -> None:
        """Hand a segment whose covered count is final to the output path of
        the current mode: straight out in plain mode, through the lazy
        buffer in patching mode. Nothing else appends a closed segment."""
        if seg.covered == 2:
            self.n_anomalous += 1
        if self.mode is Mode.OPERB:
            out.append(seg)
        else:
            self._route(seg, out)

    def _close(self) -> Segment:
        fit = self.fit
        seg = Segment(fit.anchor, fit.last_active, 1 + fit.points_in_segment)
        self.fit = FitState(anchor=fit.last_active)
        return seg

    def _absorbable(self, p: Point) -> bool:
        return point_line_distance(p, self._absorb_line) <= self.cfg.zeta

    def _consume_fresh(self, p: Point) -> None:
        if not _advance(self.fit, p, self.cfg):
            raise InvariantError("fresh fit state rejected a point")

    def _break_at(self, p: Point, out: List[Segment]) -> bool:
        """Close the running segment, then place the breaking point p.

        Returns True when p was absorbed into the just-closed segment
        (opt5) and absorption stays armed, False when p seeded the fresh
        fit state instead.
        """
        seg = self._close()
        if self.cfg.opt5:
            self.absorb = seg
            self._absorb_line = segment_between(seg.start, seg.end)
            if self._absorbable(p):
                seg.covered += 1
                return True
            self.absorb = None
            self._absorb_line = None
        self._dispatch(seg, out)
        self._consume_fresh(p)
        return False

    def _store(
        self,
        la,
        cnt,
        dplus,
        dminus,
        lz,
        flen,
        fth,
        fcos,
        fsin,
        ralen,
        racos,
        rasin,
        lastp,
        count,
    ) -> None:
        """Write the batch loop's local mirrors back into the real state."""
        fit = self.fit
        fit.last_active = la
        fit.points_in_segment = cnt
        fit.d_plus_max = dplus
        fit.d_minus_max = dminus
        fit.last_zone = lz
        fit.fit_len = flen
        fit.fit_theta = fth
        fit.fit_cos = fcos
        fit.fit_sin = fsin
        fit.ra_len = ralen
        fit.ra_cos = racos
        fit.ra_sin = rasin
        self._last = lastp
        self._count = count

    def _feed_fast(self, pts: Sequence[Point], out: List[Segment]) -> None:
        """Consume pts[1:] with the per-point work of push() inlined.

        Only called by simplify() on a fresh encoder, so the running input
        index doubles as the list index. Keeps all per-point state in
        locals, short-circuits inactive points whose deviation cannot move
        the running extremes, and falls back to the shared segment-boundary
        helpers only when a point breaks; results are identical to push()
        called in a loop (pinned by tests), and each list index is read
        exactly once (the newest consumed point rides along in a local).
        Exists because classification is the hot loop of the whole package
        and attribute traffic would otherwise dominate it.
        """
        if self._finished:
            raise ValueError("push after finish")
        cfg = self.cfg
        zeta = cfg.zeta
        half = 0.5 * zeta
        quarter = 0.25 * zeta
        half_pi = math.pi / 2.0
        thr0 = zeta if cfg.opt1 else 0.25 * zeta
        opt2 = cfg.opt2
        opt3 = cfg.opt3
        opt4 = cfg.opt4
        k_cap = cfg.k_cap
        sqrt = math.sqrt
        asin = math.asin
        atan2 = math.atan2
        sin = math.sin
        cos = math.cos
        hypot = math.hypot
        inf = math.inf
        ninf = -math.inf
        sign_from_diff = _sign_from_diff
        zone = zone_index
        norm = norm_angle

        last_t = self._last.t
        prevp = self._last  # newest consumed point; pts[k - 1] without refetching
        n = len(pts)
        i = 1
        while i < n:
            absorb_seg = self.absorb
            if absorb_seg is not None:
                # Drain phase: credit points to the just-closed segment
                # until one falls off its line. The fit state is untouched
                # while absorbing, so no mirror sync is needed here.
                line = self._absorb_line
                ab_x = line.start.x
                ab_y = line.start.y
                ab_deg = line.length == 0.0
                ab_cos = cos(line.theta)
                ab_sin = sin(line.theta)
                k = i
                while k < n:
                    p = pts[k]
                    px, py, pt = p
                    if not (last_t < pt < inf and ninf < px < inf and ninf < py < inf):
                        self._last = prevp
                        self._count = k
                        raise _point_error(k, p, last_t)
                    if ab_deg:
                        d_ab = hypot(px - ab_x, py - ab_y)
                    else:
                        d_ab = (px - ab_x) * ab_sin - (py - ab_y) * ab_cos
                        if d_ab < 0.0:
                            d_ab = -d_ab
                    if d_ab > zeta:
                        break
                    absorb_seg.covered += 1
                    last_t = pt
                    prevp = p
                    k += 1
                else:
                    self._last = prevp
                    self._count = n
                    return
                self.absorb = None
                self._absorb_line = None
                self._dispatch(absorb_seg, out)
                # p fell off the closed segment's line; it seeds the fresh
                # fit state directly (already fetched and validated, and a
                # fresh state never rejects its first point).
                self._consume_fresh(p)
                last_t = pt
                prevp = p
                self._last = p
                self._count = k + 1
                i = k + 1
                continue

            fit = self.fit
            ax = fit.anchor.x
            ay = fit.anchor.y
            la = fit.last_active
            cnt = fit.points_in_segment
            dplus = fit.d_plus_max
            dminus = fit.d_minus_max
            lz = fit.last_zone
            flen = fit.fit_len
            fth = fit.fit_theta
            fcos = fit.fit_cos
            fsin = fit.fit_sin
            ralen = fit.ra_len
            racos = fit.ra_cos
            rasin = fit.ra_sin
            # Cached views of the extremes; refreshed whenever they move.
            dmin_b = dplus if dplus < dminus else dminus
            ok_sum = dplus + dminus <= zeta
            breaker = None

            for k in range(i, n):
                p = pts[k]
                px, py, pt = p
                if not (last_t < pt < inf and ninf < px < inf and ninf < py < inf):
                    self._store(la, cnt, dplus, dminus, lz, flen, fth, fcos,
                                fsin, ralen, racos, rasin, prevp, k)
                    raise _point_error(k, p, last_t)
                if cnt >= k_cap:
                    breaker = p
                    break
                dx = px - ax
                dy = py - ay
                r_len = sqrt(dx * dx + dy * dy)
                if flen == 0.0:
                    if r_len <= thr0:
                        cnt += 1
                        last_t = pt
                        prevp = p
                        continue
                    j = zone(r_len, zeta)
                    inv = 1.0 / r_len
                    flen = j * half
                    fth = norm(atan2(dy, dx))
                    fcos = dx * inv
                    fsin = dy * inv
                    ralen = r_len
                    racos = fcos
                    rasin = fsin
                    la = p
                    lz = j
                    cnt += 1
                    last_t = pt
                    prevp = p
                    continue
                d_signed = dx * fsin - dy * fcos
                d = -d_signed if d_signed < 0.0 else d_signed
                gain = r_len - flen
                if d <= dmin_b and gain <= quarter:
                    # Neither extreme moves and the point cannot go active,
                    # so the rotation sense is not needed.
                    if (ok_sum if opt2 else d <= half):
                        d_ra = dx * rasin - dy * racos
                        if d_ra < 0.0:
                            d_ra = -d_ra
                        if d_ra <= zeta:
                            cnt += 1
                            last_t = pt
                            prevp = p
                            continue
                    breaker = p
                    break
                prod = d_signed * (dx * fcos + dy * fsin)
                if prod < 0.0:
                    fpos = True
                elif prod > 0.0:
                    fpos = False
                else:
                    fpos = sign_from_diff(norm(atan2(dy, dx)) - fth) > 0
                if fpos:
                    plus = dplus if dplus > d else d
                    minus = dminus
                else:
                    plus = dplus
                    minus = dminus if dminus > d else d
                if not ((plus + minus <= zeta) if opt2 else (d <= half)):
                    breaker = p
                    break
                if gain <= quarter:
                    d_ra = dx * rasin - dy * racos
                    if d_ra < 0.0:
                        d_ra = -d_ra
                    if d_ra > zeta:
                        breaker = p
                        break
                    cnt += 1
                    dplus = plus
                    dminus = minus
                    dmin_b = dplus if dplus < dminus else dminus
                    ok_sum = dplus + dminus <= zeta
                    last_t = pt
                    prevp = p
                    continue
                # Case (3): stretch to the new zone and rotate toward p.
                j = zone(r_len, zeta)
                jl = j * half
                dplus = plus
                dminus = minus
                dmin_b = dplus if dplus < dminus else dminus
                ok_sum = dplus + dminus <= zeta
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
                fth = norm(fth + step if fpos else fth - step)
                fcos = cos(fth)
                fsin = sin(fth)
                inv = 1.0 / r_len
                flen = jl
                ralen = r_len
                racos = dx * inv
                rasin = dy * inv
                la = p
                lz = j
                cnt += 1
                last_t = pt
                prevp = p
            else:
                self._store(la, cnt, dplus, dminus, lz, flen, fth, fcos,
                            fsin, ralen, racos, rasin, prevp, n)
                return

            # Segment boundary at pts[k]: write the mirrors back, let the
            # shared helper close/absorb/dispatch, then resync from scratch.
            self._store(la, cnt, dplus, dminus, lz, flen, fth, fcos,
                        fsin, ralen, racos, rasin, prevp, k)
            self._break_at(breaker, out)
            last_t = pt  # pt was unpacked from the breaker before the break
            prevp = breaker
            self._last = breaker
            self._count = k + 1
            i = k + 1

    # -- public API --------------------------------------------------------

    def push(self, p: Point) -> List[Segment]:
        if self._finished:
            raise ValueError("push after finish")
        x, y, t = p
        last_t = self._last.t
        if not (last_t < t < _INF and -_INF < x < _INF and -_INF < y < _INF):
            raise _point_error(self._count, p, last_t)
        out: List[Segment] = []

        if self.absorb is not None:
            if self._absorbable(p):
                self.absorb.covered += 1
                self._last = p
                self._count += 1
                return out
            seg = self.absorb
            self.absorb = None
            self._absorb_line = None
            self._dispatch(seg, out)

        if not _advance(self.fit, p, self.cfg):
            self._break_at(p, out)

        self._last = p
        self._count += 1
        return out

    def finish(self) -> List[Segment]:
        if self._finished:
            raise ValueError("finish called twice")
        self._finished = True
        out: List[Segment] = []
        closed_by_absorb = False

        if self.absorb is not None:
            # The stream ended mid-absorption: the last absorbed point
            # becomes the end of a two-point connector so the
            # representation still reaches the final input point.
            seg = self.absorb
            self.absorb = None
            self._absorb_line = None
            seg.covered -= 1
            self._dispatch(seg, out)
            self._dispatch(Segment(seg.end, self._last, 2), out)
            closed_by_absorb = True

        if not closed_by_absorb:
            fit = self.fit
            p_e = fit.last_active
            covered = 1 + fit.points_in_segment
            if fit.points_in_segment == 0 or p_e.t == self._last.t:
                # Single point, or the stream ended on an active point.
                end = self._last if fit.points_in_segment else fit.anchor
                segs = [Segment(fit.anchor, end, covered)]
            elif fit.fit_len == 0.0:
                # No active point: everything sits within the first-active
                # radius, hence within zeta of any line through the anchor.
                segs = [Segment(fit.anchor, self._last, covered)]
            else:
                # Trailing inactive points: close at the last active point
                # (the only line the break tests guarded) and bridge to the
                # final input point with a two-point connector.
                segs = [
                    Segment(fit.anchor, p_e, covered - 1),
                    Segment(p_e, self._last, 2),
                ]
            for seg in segs:
                self._dispatch(seg, out)

        pb = self.pending
        if pb.prev is not None:
            out.append(pb.prev)
            pb.prev = None
        if pb.anom is not None:
            out.append(pb.anom)
            pb.anom = None
        return out


def simplify(
    traj: Iterable[Point], cfg: FitConfig, mode: Mode = Mode.OPERB
) -> PiecewiseRepresentation:
    """Run the streaming encoder over a whole trajectory.

    List and tuple input takes a fused batch loop; any other iterable
    streams point by point through push(). Both paths give identical
    output.
    """
    if isinstance(traj, (list, tuple)):
        if not traj:
            raise ValueError("simplify needs at least one point")
        enc = OperbEncoder(cfg, mode, traj[0])
        segments: List[Segment] = []
        enc._feed_fast(traj, segments)
        segments.extend(enc.finish())
    else:
        it = iter(traj)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("simplify needs at least one point") from None
        enc = OperbEncoder(cfg, mode, first)
        segments = []
        for p in it:
            segments.extend(enc.push(p))
        segments.extend(enc.finish())
    return PiecewiseRepresentation(
        segments,
        anomalous_candidates=enc.n_anomalous,
        patches=enc.n_patched,
    )
