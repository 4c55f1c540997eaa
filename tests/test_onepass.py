"""Streaming encoder: segment boundaries, absorption, patching, both modes."""

import copy
import hashlib
import itertools
import math
import pickle
from array import array
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from trajsimp.datagen import SplitMix64, gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import FitConfig, coord_limit
from trajsimp.geometry import TWO_PI, Point, admits, iter_points, rows_view
from trajsimp.metrics import _segment_distances, verify_error_bound
from trajsimp.onepass import (
    Mode,
    OperbEncoder,
    PiecewiseRepresentation,
    Segment,
    _line,
    simplify,
    try_patch,
)

P = Point

# sha256 of the text hashed by test_encoder_output_and_fit_match_the_pinned_digest.
ENCODER_SHA256 = "187570617ee8e9b7248b7d0d4838e63cc4e64c0e0f5f6251b8b22853c522508f"

RIGHT_ANGLE = [P(0, 0, 0), P(1, 0, 1), P(2, 0, 2), P(2, 1, 3), P(2, 2, 4)]
CORNER_CUT = [P(0, 0, 0), P(1, 0, 1), P(2, 0, 2), P(3, 1, 3), P(3, 2, 4), P(3, 3, 5)]


def opt_combos():
    return st.tuples(*(st.booleans() for _ in range(5)))


def traj_strategy(max_n=120):
    kinds = st.sampled_from((gen_random_walk, gen_grid_route))
    return st.builds(
        lambda gen, n, seed: gen(n, seed),
        kinds,
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0, max_value=2**32),
    )


class TestSegmentsAndReps:
    def test_segment_is_slotted_with_dataclass_copy_repr_and_equality(self):
        seg = Segment(P(0, 0), P(1, 0), 2)
        assert not hasattr(seg, "__dict__")
        dup = copy.copy(seg)
        assert dup == seg and dup is not seg
        assert repr(seg) == (
            "Segment(start=Point(x=0, y=0, t=0.0), end=Point(x=1, y=0, t=0.0), "
            "covered=2, patched_start=False)"
        )

    def test_representation_is_sized_iterable(self):
        segs = [Segment(P(0, 0), P(1, 0), 2)]
        rep = PiecewiseRepresentation(segs)
        assert len(rep) == 1
        assert list(rep) == segs
        assert rep.traj_id == "0"


class TestWorkedExamples:
    def test_right_angle_two_segments(self):
        rep = simplify(RIGHT_ANGLE, FitConfig(zeta=0.2))
        assert rep.segments == [
            Segment(P(0, 0, 0), P(2, 0, 2), 3),
            Segment(P(2, 0, 2), P(2, 2, 4), 3),
        ]
        assert rep.anomalous_candidates == 0 and rep.patches == 0

    def test_corner_cut_plain_mode_keeps_the_corner(self):
        rep = simplify(CORNER_CUT, FitConfig(zeta=0.2), Mode.OPERB)
        assert rep.segments == [
            Segment(P(0, 0, 0), P(2, 0, 2), 3),
            Segment(P(2, 0, 2), P(3, 1, 3), 2),
            Segment(P(3, 1, 3), P(3, 3, 5), 3),
        ]
        assert rep.anomalous_candidates == 1 and rep.patches == 0

    def test_corner_cut_patching_mode_interpolates_the_corner(self):
        rep = simplify(CORNER_CUT, FitConfig(zeta=0.2), Mode.OPERB_A)
        assert len(rep) == 2
        first, second = rep.segments
        # the patch point G sits where the two fitted lines cross, with the
        # anomalous segment's midpoint timestamp
        assert first.start == P(0, 0, 0)
        assert first.end == P(3.0, 0.0, 2.5)
        assert first.covered == 3 and not first.patched_start
        assert second.start is first.end
        assert second.end == P(3, 3, 5)
        assert second.covered == 3 and second.patched_start
        assert rep.anomalous_candidates == 1 and rep.patches == 1

    def test_single_point(self):
        rep = simplify([P(0, 0, 0)], FitConfig(zeta=0.2))
        assert rep.segments == [Segment(P(0, 0, 0), P(0, 0, 0), 1)]

    def test_two_points_form_one_anomalous_segment(self):
        rep = simplify([P(0, 0, 0), P(5, 0, 1)], FitConfig(zeta=0.2))
        assert rep.segments == [Segment(P(0, 0, 0), P(5, 0, 1), 2)]
        assert rep.anomalous_candidates == 1

    def test_trailing_inactive_points_bridge_with_connector(self):
        rep = simplify([P(0, 0, 0), P(2, 0, 1), P(2.1, 0, 2)], FitConfig(zeta=1.0))
        assert [(s.start.x, s.end.x, s.covered) for s in rep.segments] == [
            (0.0, 2.0, 2),
            (2.0, 2.1, 2),
        ]


class TestAbsorption:
    def test_stream_ending_mid_absorption_decredits_and_bridges(self):
        # (-3, 1) breaks the fit on (0, 0)->(-4, 3) and (-1, 1) follows it;
        # opt5 absorbs both into the closed segment, then the stream ends
        traj = [P(0, 0, 0), P(-4, 3, 1), P(-3, 1, 2), P(-1, 1, 3)]
        rep = simplify(traj, FitConfig(zeta=1.0))
        assert [(s.start, s.end, s.covered) for s in rep.segments] == [
            (P(0, 0, 0), P(-4, 3, 1), 3),
            (P(-4, 3, 1), P(-1, 1, 3), 2),
        ]
        assert len(_segment_distances(rep, traj)) == 4
        assert verify_error_bound(rep, traj, 1.0) == (True, [])
        rep = simplify(traj, FitConfig(zeta=1.0, opt5=False))
        assert [(s.start, s.end, s.covered) for s in rep.segments] == [
            (a, b, 2) for a, b in zip(traj, traj[1:])
        ]

    @pytest.mark.parametrize("mode", [Mode.OPERB, Mode.OPERB_A])
    def test_long_parked_run_is_one_segment(self, mode):
        # no point ever leaves the first-active radius, and no point count
        # closes a segment
        traj = [P((i % 7) * 1e-3, 0.0, float(i)) for i in range(400_002)]
        rep = simplify(traj, FitConfig(zeta=1.0), mode)
        assert rep.segments == [Segment(traj[0], traj[-1], 400_002)]
        assert verify_error_bound(rep, traj, 1.0) == (True, [])


class TestTryPatch:
    cfg = FitConfig(zeta=1.0)
    prev = Segment(P(0, 0, 0), P(4, 0, 4), 3)
    anom = Segment(P(4, 0, 4), P(5, 1, 5), 2)

    def test_right_angle_patch(self):
        nxt = Segment(P(5, 1, 5), P(5, 4, 8), 3)
        g = try_patch(self.prev, self.anom, nxt, self.cfg)
        assert g == P(5.0, 0.0, 4.5)

    def test_parallel_lines_cannot_patch(self):
        nxt = Segment(P(5, 1, 5), P(9, 1, 8), 3)
        assert try_patch(self.prev, self.anom, nxt, self.cfg) is None
        # antiparallel too: gamma_m = 0 lets a half turn through the turn
        # test, so only the parallel rule rejects this pair
        back = Segment(P(5, 1, 5), P(1, 1, 8), 3)
        cfg = FitConfig(zeta=1.0, gamma_m=0.0)
        assert try_patch(self.prev, self.anom, back, cfg) is None

    def test_intersection_behind_next_start(self):
        nxt = Segment(P(5, -1, 5), P(5, 4, 8), 3)
        assert try_patch(self.prev, self.anom, nxt, self.cfg) is None

    def test_intersection_cuts_previous_segment_short(self):
        # G at x=3 is more than zeta/2 inside the previous segment
        nxt = Segment(P(3, 1, 5), P(3, 4, 8), 3)
        assert try_patch(self.prev, self.anom, nxt, self.cfg) is None

    def test_turn_sharper_than_gamma_m(self):
        nxt = Segment(P(5, 1, 5), P(1, 2, 8), 3)
        assert try_patch(self.prev, self.anom, nxt, self.cfg) is None

    def test_gamma_pi_rejects_every_turn(self):
        nxt = Segment(P(5, 1, 5), P(5, 4, 8), 3)
        cfg = FitConfig(zeta=1.0, gamma_m=math.pi)
        assert try_patch(self.prev, self.anom, nxt, cfg) is None

    def test_zero_length_neighbor(self):
        nxt = Segment(P(5, 1, 5), P(5, 4, 8), 3)
        degenerate = Segment(P(0, 0, 0), P(0, 0, 1), 2)
        assert try_patch(degenerate, self.anom, nxt, self.cfg) is None

    def test_zero_length_next_segment(self):
        # the lines through prev and a zero-bearing nxt would cross at (5, 5)
        # and pass every other rule; a zero-length nxt has no line at all
        prev = Segment(P(0, 0, 0), P(4, 4, 4), 3)
        anom = Segment(P(4, 4, 4), P(6, 5, 5), 2)
        nxt = Segment(P(6, 5, 5), P(6, 5, 6), 2)
        assert try_patch(prev, anom, nxt, self.cfg) is None

    def test_oblique_patch_point(self):
        prev = Segment(P(0, 0, 0), P(3, 0, 3), 3)
        anom = Segment(P(3, 0, 3), P(5, 2, 4), 2)
        nxt = Segment(P(5, 2, 4), P(7, 6, 6), 3)
        g = try_patch(prev, anom, nxt, self.cfg)
        assert g is not None
        assert g.x == pytest.approx(4.0)
        assert g.y == pytest.approx(0.0, abs=1e-12)
        assert g.t == 3.5

    def test_patch_point_beyond_reach_is_not_taken(self):
        # The right-angle patch moved right until G = (5, 0) + shift sits
        # one unit short of PATCH_REACH * zeta = 2**44, then right on it.
        nxt = Segment(P(5, 1, 5), P(5, 4, 8), 3)
        for shift, expect in ((2.0**44 - 6, True), (2.0**44 - 5, False)):
            moved = [Segment(P(s.start.x + shift, s.start.y, s.start.t),
                             P(s.end.x + shift, s.end.y, s.end.t), s.covered)
                     for s in (self.prev, self.anom, nxt)]
            g = try_patch(*moved, self.cfg)
            assert (g == P(5.0 + shift, 0.0, 4.5)) if expect else g is None

    @pytest.mark.parametrize("th1, th2", [(0.25, 6.0), (6.0, 0.25)])
    def test_turn_reads_the_raw_bearing_difference(self, th1, th2):
        # bearings 0.25 and 6.0 differ by 5.75 raw, a turn of 2*pi - 5.75
        # (about 0.533 rad), so the pair patches while gamma_m <= pi - 0.533
        prev, anom, nxt = _pair_crossing_at(0.0, 0.0, th1, th2, 5.0, 1.0, 1.0, 5.0)
        assert try_patch(prev, anom, nxt, FitConfig(zeta=1.0, gamma_m=2.6))
        assert try_patch(prev, anom, nxt, FitConfig(zeta=1.0, gamma_m=2.7)) is None


def _pair_crossing_at(gx, gy, th1, th2, a, b, c, d):
    """(prev, anom, nxt) on lines with bearings th1 and th2 through (gx, gy):
    prev ends a reach b short of the crossing and starts a further a back,
    nxt starts c past it and runs on for d."""
    c1, s1, c2, s2 = math.cos(th1), math.sin(th1), math.cos(th2), math.sin(th2)
    p_end = P(gx - b * c1, gy - b * s1, 1.0)
    prev = Segment(P(p_end.x - a * c1, p_end.y - a * s1, 0.0), p_end, 3)
    n_start = P(gx + c * c2, gy + c * s2, 2.0)
    nxt = Segment(n_start, P(n_start.x + d * c2, n_start.y + d * s2, 3.0), 3)
    return prev, Segment(p_end, n_start, 2), nxt


def _along_and_off(g, seg):
    """Signed offset of g along seg's line from seg.start, and g's
    distance to that infinite line."""
    dx, dy = seg.end.x - seg.start.x, seg.end.y - seg.start.y
    n = math.hypot(dx, dy)
    gx, gy = g.x - seg.start.x, g.y - seg.start.y
    return (dx * gx + dy * gy) / n, abs(dx * gy - dy * gx) / n


coords = st.floats(min_value=-1000.0, max_value=1000.0)
# Whole degrees hit exact (anti)parallel pairs as well as the turns between.
bearings = st.integers(min_value=0, max_value=359).map(math.radians)
reaches = st.integers(min_value=-40, max_value=40).map(float)


@settings(max_examples=300)
@given(
    coords, coords, bearings, bearings, reaches, reaches, reaches,
    st.floats(min_value=0.1, max_value=200.0),
    st.sampled_from((10.0, 40.0)), st.sampled_from((0.0, math.pi / 3)),
)
# the crossing lies behind the start of a prev shorter than zeta/2
@example(0.0, 0.0, 0.0, math.pi / 2, 4.0, -6.0, 5.0, 10.0, 40.0, 0.0)
def test_patch_point_lies_on_both_lines(gx, gy, th1, th2, a, b, c, d, zeta, gm):
    """Lines built to cross near (gx, gy). Whenever try_patch returns G, G
    sits on both lines, forward of prev.start, behind nxt.start and no more
    than zeta/2 short of prev's end."""
    prev, anom, nxt = _pair_crossing_at(gx, gy, th1, th2, a, b, c, d)
    g = try_patch(prev, anom, nxt, FitConfig(zeta=zeta, gamma_m=gm))
    if g is None:
        return
    scale = max(1.0, abs(g.x), abs(g.y))
    along_prev, off_prev = _along_and_off(g, prev)
    along_next, off_next = _along_and_off(g, nxt)
    prev_len = math.hypot(prev.end.x - prev.start.x, prev.end.y - prev.start.y)
    assert off_prev <= 1e-6 * scale
    assert off_next <= 1e-6 * scale
    assert along_prev > -1e-6 * scale
    assert along_next < 1e-6 * scale
    assert along_prev >= prev_len - 0.5 * zeta - 1e-6 * scale
    assert g.t == 1.5


class TestLine:
    def test_bearing_of_basic_directions(self):
        a = P(0.0, 0.0)
        assert _line(a, P(1.0, 0.0))[1] == 0.0
        assert _line(a, P(0.0, 2.0))[1] == pytest.approx(math.pi / 2)
        assert _line(a, P(-3.0, 0.0))[1] == pytest.approx(math.pi)
        assert _line(a, P(0.0, -1.0))[1] == pytest.approx(3 * math.pi / 2)

    def test_coincident_points_have_bearing_zero(self):
        p = P(2.5, -1.0)
        assert _line(p, p) == (0.0, 0.0, 1.0, 0.0)
        # atan2(0.0, -0.0) is pi: a signed zero is still a zero vector
        assert _line(P(0.0, 0.0), P(-0.0, 0.0)) == (0.0, 0.0, 1.0, 0.0)

    def test_length_bearing_and_direction(self):
        length, theta, c, s = _line(P(1.0, 1.0), P(4.0, 5.0))
        assert length == pytest.approx(5.0)
        assert theta == pytest.approx(math.atan2(4.0, 3.0))
        assert c == pytest.approx(0.6)
        assert s == pytest.approx(0.8)

    @given(coords, coords, coords, coords)
    def test_polar_form_reaches_the_end(self, ax, ay, bx, by):
        length, _, c, s = _line(P(ax, ay), P(bx, by))
        scale = max(1.0, abs(ax), abs(ay), abs(bx), abs(by))
        assert abs(ax + length * c - bx) <= 1e-12 * scale
        assert abs(ay + length * s - by) <= 1e-12 * scale

    @given(coords, coords, coords, coords)
    def test_direction_is_taken_of_the_folded_bearing(self, ax, ay, bx, by):
        length, theta, c, s = _line(P(ax, ay), P(bx, by))
        assert 0.0 <= theta < TWO_PI
        assert length == math.hypot(bx - ax, by - ay)
        # bit for bit: cos(theta) and cos(atan2(...)) can differ in the last
        # bit, and try_patch and the opt5 set-up must agree on it
        assert (c, s) == (math.cos(theta), math.sin(theta))


class TestEncoderContract:
    def test_requires_first_point(self):
        with pytest.raises(ValueError):
            OperbEncoder(FitConfig(zeta=1.0))

    def test_rejects_non_finite_first_point(self):
        with pytest.raises(DataError, match="point 0"):
            OperbEncoder(FitConfig(zeta=1.0), first=P(math.nan, 0, 0))

    def test_first_point_is_refused_like_any_later_point(self):
        class Boom:
            def __iter__(self):
                raise KeyError("boom")

        cfg = FitConfig(zeta=1.0)
        with pytest.raises(DataError, match="^point 0: 'boom'$") as first:
            OperbEncoder(cfg, first=Boom())
        with pytest.raises(DataError, match="^point 0: 'boom'$"):
            simplify([Boom()], cfg)
        enc = OperbEncoder(cfg, first=P(0, 0, 0))
        with pytest.raises(DataError, match="^point 1: 'boom'$") as later:
            enc.push(Boom())
        assert type(first.value.__cause__) is KeyError
        assert type(later.value.__cause__) is KeyError

    def test_mode_accepts_plain_strings(self):
        enc = OperbEncoder(FitConfig(zeta=1.0), "operb-a", P(0, 0, 0))
        assert enc.mode is Mode.OPERB_A
        rep = simplify(CORNER_CUT, FitConfig(zeta=0.2), "operb-a")
        assert rep.patches == 1

    def test_push_after_finish(self):
        enc = OperbEncoder(FitConfig(zeta=1.0), first=P(0, 0, 0))
        enc.finish()
        with pytest.raises(ValueError, match="push after finish"):
            enc.push(P(1, 0, 1))

    def test_finish_twice(self):
        enc = OperbEncoder(FitConfig(zeta=1.0), first=P(0, 0, 0))
        enc.finish()
        with pytest.raises(ValueError, match="finish called twice"):
            enc.finish()

    def test_non_finite_point_is_a_data_error(self):
        enc = OperbEncoder(FitConfig(zeta=1.0), first=P(0, 0, 0))
        with pytest.raises(DataError, match="point 1: non-finite"):
            enc.push(P(math.inf, 0, 1))

    def test_non_increasing_timestamp_is_a_data_error(self):
        enc = OperbEncoder(FitConfig(zeta=1.0), first=P(0, 0, 0))
        with pytest.raises(DataError, match="point 1: timestamp"):
            enc.push(P(1, 0, 0.0))

    def test_batch_path_reports_the_offending_index(self):
        bad = [P(0, 0, 0), P(1, 0, 1), P(2, 0, 0.5)]
        with pytest.raises(DataError, match="point 2: timestamp"):
            simplify(bad, FitConfig(zeta=1.0))
        nan = [P(0, 0, 0), P(1, 0, 1), P(math.nan, 0, 2)]
        with pytest.raises(DataError, match="point 2: non-finite"):
            simplify(nan, FitConfig(zeta=1.0))
        # a bad point anywhere reads the same through push() as in a batch
        bad_values = (math.nan, math.inf, -math.inf, None)  # None: backwards t
        for seed in range(40):
            rng = SplitMix64(seed)
            traj = gen_random_walk(60, seed)
            k = rng.randint(1, len(traj) - 1)
            field = rng.randint(0, 2)
            bad = bad_values[rng.randint(0, 3)]
            row = list(traj[k])
            if bad is None:
                row[2] = traj[k - 1].t - rng.randint(0, 1)
            else:
                row[field] = bad
            traj[k] = P(*row)
            cfg = FitConfig(zeta=8.0, opt5=bool(seed % 2))
            with pytest.raises(DataError) as batch:
                simplify(traj, cfg)
            enc = OperbEncoder(cfg, first=traj[0])
            with pytest.raises(DataError) as pushed:
                for p in traj[1:]:
                    enc.push(p)
            assert str(batch.value) == str(pushed.value)
            assert str(batch.value).startswith(f"point {k}: ")

    @pytest.mark.parametrize("mode", [Mode.OPERB, Mode.OPERB_A])
    def test_refuses_a_coordinate_the_arithmetic_cannot_carry(self, mode):
        """A finite coordinate past coord_limit(zeta) is refused before any
        state changes, so the encoder goes on as if it never came; a far
        point that would first break the segment is refused the same way."""
        cfg = FitConfig(zeta=1.0)
        enc = OperbEncoder(cfg, mode, (0.0, 0.0, 0.0))
        with pytest.raises(DataError, match="^point 1: coordinate beyond 1e\\+100"):
            enc.push((1e308, 1e308, 1.0))
        assert enc.push((1.0, 0.0, 1.0)) == []
        with pytest.raises(DataError, match="^point 0: coordinate beyond"):
            OperbEncoder(cfg, mode, (0.0, -1e101, 0.0))
        with pytest.raises(DataError, match="^point 1: coordinate beyond 1e-08"):
            simplify([(0, 0, 0), (1, 0, 1), (2, 1, 2)], FitConfig(zeta=1e-308), mode)
        traj = gen_random_walk(80, seed=4)
        expect = simplify(traj, FitConfig(zeta=8.0), mode).segments
        enc = OperbEncoder(FitConfig(zeta=8.0), mode, traj[0])
        segs = []
        for i, p in enumerate(traj[1:], 1):
            for far in ((1e200, p.y, p.t), (p.x, -1e200, p.t)):
                with pytest.raises(DataError, match=f"^point {i}: coordinate"):
                    enc.push(far)
            segs.extend(enc.push(p))
        segs.extend(enc.finish())
        assert segs == expect

    @pytest.mark.parametrize("mode", [Mode.OPERB, Mode.OPERB_A])
    def test_smallest_zeta_keeps_its_bound(self, mode):
        # At 5e-324 half of zeta is 0, no line could be fitted and one
        # segment would cover every point; such a zeta is refused.
        traj = [P(0, 0, 0), P(1e-30, 0, 1), P(2e-30, 1e-30, 2),
                P(3e-30, -1e-30, 3), P(0, 5e-30, 4)]
        with pytest.raises(ValueError, match="zeta must be at least 1e-323"):
            simplify(traj, FitConfig(zeta=5e-324), mode)
        rep = simplify(traj, FitConfig(zeta=1e-323), mode)
        assert verify_error_bound(rep, traj, 1e-323)[0]

    def test_empty_input(self):
        with pytest.raises(ValueError):
            simplify([], FitConfig(zeta=1.0))
        with pytest.raises(ValueError):
            simplify(iter(()), FitConfig(zeta=1.0))

    def test_encoder_cannot_be_copied(self):
        enc = OperbEncoder(FitConfig(zeta=1.0), first=P(0, 0, 0))
        for dup in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="cannot be copied"):
                dup(enc)

    @pytest.mark.parametrize("mode", [Mode.OPERB, Mode.OPERB_A])
    def test_encoder_survives_rejected_points(self, mode):
        """Bad points leave the encoder as it was: the rest of the stream
        gives the same output as a trajectory that never held them. Cuts
        land both in a running fit and in an opt5 absorption."""
        fields = (
            "anchor", "last_active", "points_in_segment", "d_plus_max",
            "d_minus_max", "last_zone", "fit_len", "fit_theta", "fit_cos",
            "fit_sin", "ra_len", "ra_cos", "ra_sin",
        )
        traj = gen_random_walk(120, seed=11)
        cfg = FitConfig(zeta=8.0)
        expect = simplify(traj, cfg, mode).segments
        # Decimal passes the finite-and-increasing comparisons but does not
        # mix with float arithmetic; an int past the float range overflows.
        for bad in (P(Decimal(0), 0.0, 0.0), P(10**400, 0.0, 0.0)):
            with pytest.raises(DataError, match="point 0: ") as refused:
                OperbEncoder(cfg, mode, bad)
            assert isinstance(refused.value.__cause__, (TypeError, OverflowError))
        for cut in range(1, len(traj), 7):
            enc = OperbEncoder(cfg, mode, traj[0])
            segs = []
            for p in traj[1:cut]:
                segs.extend(enc.push(p))
            before = tuple(getattr(enc.fit, f) for f in fields)
            last = traj[cut - 1]
            with pytest.raises(DataError, match=f"point {cut}: non-finite"):
                enc.push(P(math.nan, last.y, last.t + 0.5))
            with pytest.raises(DataError, match=f"point {cut}: timestamp"):
                enc.push(P(last.x, last.y, last.t))
            decimal_x = P(Decimal(3), last.y, last.t + 0.5)
            decimal_t = P(last.x, last.y, Decimal(last.t + 0.5))
            huge_x = P(10**400, last.y, last.t + 0.5)
            for bad in ((last.x, last.y), None, decimal_x, decimal_t, huge_x):
                with pytest.raises(DataError, match=f"point {cut}: ") as refused:
                    enc.push(bad)
                assert isinstance(
                    refused.value.__cause__, (TypeError, ValueError, OverflowError)
                )
            for bad in (decimal_x, decimal_t):
                with pytest.raises(DataError, match=f"point {cut}: ") as refused:
                    simplify(traj[:cut] + [bad], cfg, mode)
                assert isinstance(refused.value.__cause__, TypeError)
            assert tuple(getattr(enc.fit, f) for f in fields) == before, cut
            for p in traj[cut:]:
                segs.extend(enc.push(p))
            segs.extend(enc.finish())
            assert segs == expect, cut
        # A plain (x, y, t) tuple is taken as a Point: it used to end the
        # kernel with an AttributeError once it became the last active point.
        enc = OperbEncoder(FitConfig(zeta=5.0), mode, P(0.0, 0.0, 0.0))
        segs = enc.push((100.0, 0.0, 1.0)) + enc.push((100.0, 100.0, 2.0))
        assert enc.fit.last_active == P(100.0, 100.0, 2.0)
        segs += enc.push(P(100.0, 200.0, 3.0)) + enc.finish()
        assert [(s.start, s.end) for s in segs] == [
            (P(0.0, 0.0, 0.0), P(100.0, 0.0, 1.0)),
            (P(100.0, 0.0, 1.0), P(100.0, 200.0, 3.0)),
        ]
        assert all(type(s.end) is P for s in segs)

    @pytest.mark.parametrize("mode", [Mode.OPERB, Mode.OPERB_A])
    def test_plain_triples_give_the_same_segments(self, mode):
        """A trajectory of tuples or lists (x, y, t) simplifies like one of
        Points, and every endpoint comes back as a Point."""
        for traj in (gen_random_walk(200, seed=3), gen_grid_route(200, seed=3)):
            for zeta in (2.0, 10.0, 40.0):
                cfg = FitConfig(zeta=zeta)
                expect = simplify(traj, cfg, mode).segments
                for plain in ([tuple(p) for p in traj], [list(p) for p in traj]):
                    got = simplify(plain, cfg, mode).segments
                    assert got == expect
                    assert all(type(s.start) is type(s.end) is P for s in got)


class _CountingList(list):
    """List that counts __getitem__ calls per index."""

    def __init__(self, items):
        super().__init__(items)
        self.fetches = Counter()

    def __getitem__(self, idx):
        self.fetches[idx] += 1
        return super().__getitem__(idx)


def test_batch_path_reads_each_point_exactly_once():
    cfg = FitConfig(zeta=1.0)
    for mode in (Mode.OPERB, Mode.OPERB_A):
        src = _CountingList(gen_grid_route(300, seed=7))
        simplify(src, cfg, mode)
        assert src.fetches == Counter({i: 1 for i in range(300)})


def test_generator_input_streams_through_push():
    traj = gen_random_walk(200, seed=3)
    cfg = FitConfig(zeta=8.0)
    via_list = simplify(traj, cfg)
    via_iter = simplify(iter(traj), cfg)
    assert via_list.segments == via_iter.segments
    assert via_list.anomalous_candidates == via_iter.anomalous_candidates


@settings(max_examples=60)
@given(
    traj_strategy(),
    opt_combos(),
    st.sampled_from((0.5, 2.0, 8.0, 25.0)),
    st.sampled_from((Mode.OPERB, Mode.OPERB_A)),
    st.sampled_from((0.0, math.pi / 3, math.pi)),
)
def test_push_loop_equals_batch_loop(traj, opts, zeta, mode, gamma_m):
    """The fused batch loop must be indistinguishable from push(), down to
    a zeta that closes a segment every two points or so, and at both ends
    of the gamma_m range."""
    o1, o2, o3, o4, o5 = opts
    cfg = FitConfig(
        zeta=zeta, gamma_m=gamma_m,
        opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5,
    )
    batch = simplify(traj, cfg, mode)
    enc = OperbEncoder(cfg, mode, traj[0])
    segs = []
    for p in traj[1:]:
        segs.extend(enc.push(p))
    segs.extend(enc.finish())
    assert batch.segments == segs
    assert batch.anomalous_candidates == enc.n_anomalous
    assert batch.patches == enc.n_patched
    ok, violations = verify_error_bound(batch, traj, zeta)
    assert ok, violations


def turning_walk():
    """Walks that turn by up to a half turn at every step, in steps from
    far inside to far outside one zone, so the fitted bearing crosses 0
    both ways."""
    steps = st.tuples(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.01, max_value=6.0),
    )
    return st.tuples(st.floats(min_value=0.0, max_value=TWO_PI),
                     st.lists(steps, min_size=1, max_size=60))


@pytest.mark.parametrize("opts", list(itertools.product((False, True), repeat=5)))
@settings(max_examples=25)
@given(turning_walk(), st.sampled_from((Mode.OPERB, Mode.OPERB_A)))
def test_fitted_bearing_stays_folded(opts, walk, mode):
    """fit_theta lies in [0, 2*pi) after every push, for every opt set."""
    heading, steps = walk
    o1, o2, o3, o4, o5 = opts
    cfg = FitConfig(zeta=1.0, opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
    x = y = 0.0
    enc = OperbEncoder(cfg, mode, P(x, y, 0.0))
    for t, (turn, length) in enumerate(steps, 1):
        heading += turn
        x += length * math.cos(heading)
        y += length * math.sin(heading)
        enc.push(P(x, y, float(t)))
        assert 0.0 <= enc.fit.fit_theta < TWO_PI


@settings(max_examples=100)
@given(
    traj_strategy(),
    opt_combos(),
    st.sampled_from((2.0, 8.0, 25.0)),
    st.sampled_from((Mode.OPERB, Mode.OPERB_A)),
)
def test_returned_segments_are_final(traj, opts, zeta, mode):
    """A segment handed out by push() or finish() never changes afterwards."""
    o1, o2, o3, o4, o5 = opts
    cfg = FitConfig(zeta=zeta, opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
    enc = OperbEncoder(cfg, mode, traj[0])
    returned = []
    as_returned = []

    def record(out):
        returned.extend(out)
        as_returned.extend(copy.copy(seg) for seg in out)

    for p in traj[1:]:
        record(enc.push(p))
    record(enc.finish())
    assert returned == as_returned


@settings(max_examples=60)
@given(
    traj_strategy(),
    opt_combos(),
    st.sampled_from((2.0, 8.0, 25.0)),
    st.sampled_from((Mode.OPERB, Mode.OPERB_A)),
)
def test_output_is_a_connected_chain_consuming_all_points(traj, opts, zeta, mode):
    o1, o2, o3, o4, o5 = opts
    cfg = FitConfig(zeta=zeta, opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
    rep = simplify(traj, cfg, mode)
    segs = rep.segments
    assert segs[0].start == traj[0]
    assert segs[-1].end == traj[-1]
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start
    # the walk over covered counts must consume exactly the input
    assert len(_segment_distances(rep, traj)) == len(traj)


@settings(max_examples=60)
@given(
    traj_strategy(),
    opt_combos(),
    st.sampled_from((2.0, 8.0, 25.0)),
)
def test_patching_never_costs_segments_or_accuracy(traj, opts, zeta):
    o1, o2, o3, o4, o5 = opts
    cfg = FitConfig(zeta=zeta, opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
    plain = simplify(traj, cfg, Mode.OPERB)
    patched = simplify(traj, cfg, Mode.OPERB_A)
    assert len(patched) <= len(plain)
    assert len(plain) - len(patched) == patched.patches
    ok, violations = verify_error_bound(patched, traj, zeta)
    assert ok, violations


@settings(max_examples=40)
@given(traj_strategy(), st.sampled_from((2.0, 8.0, 25.0)))
def test_error_bound_holds_with_defaults(traj, zeta):
    rep = simplify(traj, FitConfig(zeta=zeta))
    ok, violations = verify_error_bound(rep, traj, zeta)
    assert ok, violations


def test_patch_times_stay_finite_and_increasing():
    traj = [P(p.x, p.y, 1.70e308 + i * 1e305)
            for i, p in enumerate(gen_random_walk(60, 3, step=1.0))]
    rep = simplify(traj, FitConfig(zeta=0.2), Mode.OPERB_A)
    assert rep.patches > 0
    times = [rep.segments[0].start.t] + [s.end.t for s in rep]
    assert all(math.isfinite(t) for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(s.start.t == t for s, t in zip(rep, times))


@pytest.mark.parametrize("offset, zeta", [(1e6, 1e-12), (0.0, 1e-15)])
def test_patches_keep_the_bound_where_zeta_nears_an_ulp(offset, zeta):
    """Once the coordinates reach 2**44 * zeta, G's rounding could carry
    the patched lines past zeta, so such patches are not taken."""
    traj = [P(p.x + offset, p.y + offset, p.t)
            for p in gen_random_walk(2000, 3, step=1.0)]
    rep = simplify(traj, FitConfig(zeta=zeta), Mode.OPERB_A)
    assert verify_error_bound(rep, traj, zeta) == (True, [])


def _parked_route(n, seed):
    """A random walk that holds each position for 1..8 samples: repeated
    coordinates at rising timestamps, as a vehicle parked between moves."""
    rng = SplitMix64(seed)
    walk = gen_random_walk(n, seed)
    pts = []
    for p in walk:
        for _ in range(rng.randint(1, 8)):
            if len(pts) == n:
                return pts
            pts.append(P(p.x, p.y, float(len(pts))))
    return pts


def _render(v):
    """Text of a value with every float as %.9g, the precision of the CSV
    emitter, so last-bit differences between libm builds do not show."""
    if isinstance(v, float):
        return "%.9g" % v
    if isinstance(v, tuple):
        return "(" + ",".join(_render(x) for x in v) + ")"
    return repr(v)


def _digest_trajectories():
    return (
        gen_random_walk(200, 3),
        gen_grid_route(200, 3, step=20.0),
        gen_grid_route(200, 3, step=1.0),  # exactly collinear inactive points
        _parked_route(200, 3),
    )


def _encoder_digest(form):
    """sha256 of the segments, counters and the fit state after every push,
    for every opt set in both modes at a small and a large zeta. form(pts)
    gives the trajectory to simplify and the points to push, in one input
    form; every output point must be a Point whatever the form, and the
    pushed points must finish as simplify ends (not hashed)."""
    trajs = [form(traj) for traj in _digest_trajectories()]
    configs = [
        dict(opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
        for o1 in (False, True) for o2 in (False, True) for o3 in (False, True)
        for o4 in (False, True) for o5 in (False, True)
    ]
    configs += [dict(gamma_m=0.0), dict(gamma_m=math.pi)]
    digest = hashlib.sha256()
    for i, opts in enumerate(configs):
        for zeta in (2.0, 40.0):
            cfg = FitConfig(zeta=zeta, **opts)
            for mode in (Mode.OPERB, Mode.OPERB_A):
                for traj, _ in trajs:
                    rep = simplify(traj, cfg, mode)
                    for s in rep.segments:
                        assert type(s.start) is Point and type(s.end) is Point
                        digest.update(_render(
                            (s.start, s.end, s.covered, s.patched_start)
                        ).encode())
                    digest.update(_render(
                        (rep.anomalous_candidates, rep.patches)
                    ).encode())
                traj, pts = trajs[i % len(trajs)]
                enc = OperbEncoder(cfg, mode, pts[0])
                pushed = []
                for p in pts[1:]:
                    pushed += enc.push(p)
                    fit = enc.fit
                    assert type(fit.anchor) is Point and type(fit.last_active) is Point
                    digest.update(_render(tuple(fit)).encode())
                pushed += enc.finish()
                assert all(type(s.start) is Point and type(s.end) is Point
                           for s in pushed)
                assert pushed == simplify(traj, cfg, mode).segments
    return digest.hexdigest()


def test_encoder_output_and_fit_match_the_pinned_digest():
    """As the encoder's output was when the digest was pinned. Update the
    digest only for an intended change of output."""
    assert _encoder_digest(lambda pts: (pts, pts)) == ENCODER_SHA256


def _as_view(pts):
    view = rows_view(array("d", [float(v) for p in pts for v in p]))
    return view, list(iter_points(view))


@pytest.mark.parametrize("form", [
    _as_view,
    lambda pts: ([tuple(p) for p in pts],) * 2,
    lambda pts: ([list(p) for p in pts],) * 2,
], ids=["view", "tuples", "lists"])
def test_every_input_form_matches_the_pinned_digest(form):
    assert _encoder_digest(form) == ENCODER_SHA256


@pytest.mark.parametrize("mode", list(Mode))
def test_a_pushed_list_changed_after_push_leaves_the_output_as_it_was(mode):
    cfg = FitConfig(zeta=2.0)
    for traj in _digest_trajectories():
        enc = OperbEncoder(cfg, mode, list(traj[0]))
        segs = []
        for p in traj[1:]:
            q = list(p)
            segs += enc.push(q)
            q[:] = [1e9, -1e9, -1.0]
        segs += enc.finish()
        assert segs == simplify(traj, cfg, mode).segments


# Hostile rows for the admission test: a field and what goes in it. "prev"
# copies the predecessor's t, "below" steps under it; "lim" puts sign*lim
# into the field, "lim-" and "lim+" the floats just inside and outside.
HOSTILE_ROWS = [(f, v) for f in (0, 1, 2) for v in (math.nan, math.inf, -math.inf)]
HOSTILE_ROWS += [(2, "prev"), (2, "below")]
HOSTILE_ROWS += [(f, v) for f in (0, 1) for v in ("lim", "lim-", "lim+")]


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    idx=st.integers(0, 39),
    hostile=st.none() | st.sampled_from(HOSTILE_ROWS),
    sign=st.sampled_from([1.0, -1.0]),
    zeta=st.sampled_from([1e-250, 10.0, 40.0]),
    mode=st.sampled_from(list(Mode)),
)
@example(seed=3, n=5, idx=4, hostile=(2, math.inf), sign=1.0, zeta=10.0,
         mode=Mode.OPERB)
@example(seed=3, n=1, idx=0, hostile=None, sign=1.0, zeta=10.0, mode=Mode.OPERB_A)
def test_a_view_is_refused_and_simplified_as_its_rows_are(
    seed, n, idx, hostile, sign, zeta, mode
):
    """A view admitted in one pass skips the per-point check, so admission
    must pass exactly the views that check passes: with one hostile row
    injected, simplify on the view raises the DataError the checked path
    raises on the same rows as tuples, and a clean view gives the same
    output."""
    rows = [list(p) for p in gen_random_walk(n, seed)]
    lim = coord_limit(zeta)
    k = idx % n
    if hostile is not None:
        field, value = hostile
        if value in ("prev", "below"):
            k = max(k, 1) if n > 1 else None
            if k is not None:
                prev_t = rows[k - 1][2]
                value = prev_t if value == "prev" else math.nextafter(prev_t, -math.inf)
        elif isinstance(value, str):
            value = sign * {"lim": lim, "lim-": math.nextafter(lim, 0.0),
                            "lim+": math.nextafter(lim, math.inf)}[value]
        if k is not None:
            rows[k][field] = value
    view = rows_view(array("d", [v for row in rows for v in row]))
    cfg = FitConfig(zeta=zeta)
    try:
        expect = simplify([tuple(r) for r in rows], cfg, mode)
    except DataError as exc:
        expect = exc
    if k is not None and k > 0:
        assert admits(view, lim) is not isinstance(expect, DataError)
    if isinstance(expect, DataError):
        with pytest.raises(DataError) as got:
            simplify(view, cfg, mode)
        assert str(got.value) == str(expect)
        assert type(got.value.__cause__) is type(expect.__cause__)
    else:
        got = simplify(view, cfg, mode)
        assert got.segments == expect.segments
        assert got.anomalous_candidates == expect.anomalous_candidates
        assert got.patches == expect.patches


def _old_zone(zx):
    """The zone index as the kernel took it with two rounding calls."""
    j = math.floor(zx + 0.5)
    if not -1e-12 < zx - j < 1e-12:
        j = math.ceil(zx)
    return j


def _kernel_zone(target):
    """(zx, j): the kernel's zone fraction and index for the first active
    point, put on the x axis where zx comes out near target."""
    # A power-of-two zeta scales exactly; a large target takes a small one,
    # so r stays below 2**51 and inside coord_limit(zeta) = 1e300 * zeta.
    zeta = 2.0 ** (1 - max(0, math.frexp(target)[1] - 50))
    r = (target + 0.5) * zeta / 2.0
    enc = OperbEncoder(FitConfig(zeta=zeta, opt1=False), first=(0.0, 0.0, 0.0))
    enc.push((r, 0.0, 1.0))
    zx = 2.0 * math.sqrt(r * r + 0.0 * 0.0) / zeta - 0.5
    return zx, enc.fit.last_zone


def _zone_targets():
    """Values where one rounding call could go wrong: integers, a snap
    distance either side of them and half-way points, each give or take
    six ulps, the powers of two where zx - (j - 1) stops being exact, and
    the far end of the range."""
    bases = [b for m in (1.0, 2.0, 3.0, 7.0, 100.0, 2.0 ** 20 + 1, 2.0 ** 40,
                         2.0 ** 51 - 1)
             for b in (m, m + 1e-12, m - 1e-12, m + 0.5)]
    bases += [1e-12, 0.5, 2.0 ** 52, 2.0 ** 53, 2.0 ** 54, 1e100, 1e300]
    out = []
    for b in bases:
        lo = hi = b
        out.append(b)
        for _ in range(6):
            lo = math.nextafter(lo, 0.0)
            hi = math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


def test_zone_index_takes_one_rounding_call_to_the_same_zone():
    for target in _zone_targets():
        zx, j = _kernel_zone(target)
        assert j == _old_zone(zx), (target, zx)


@given(st.floats(min_value=1e-9, max_value=1e300))
def test_zone_index_matches_the_floor_snap_ceil_rule(target):
    zx, j = _kernel_zone(target)
    assert j == _old_zone(zx)
