"""Streaming encoder: segment boundaries, absorption, patching, both modes."""

import copy
import hashlib
import math
import pickle
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from trajsimp.datagen import SplitMix64, gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import K_CAP_LIMIT, FitConfig
from trajsimp.geometry import TWO_PI, Point
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
ENCODER_SHA256 = "518b48d44366bdb9dea2fa0ceb95a59b2a3df5c701ee12a6d0cf8b5e971073cb"

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
    def test_anomalous_is_covered_two(self):
        assert Segment(P(0, 0), P(1, 0), 2).anomalous
        assert not Segment(P(0, 0), P(1, 0), 3).anomalous

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


class TestKCapAndAbsorption:
    def test_k_cap_splits_a_collinear_run(self):
        cfg = FitConfig(zeta=1.0, k_cap=10, opt5=False)
        traj = [P(float(i), 0.0, float(i)) for i in range(31)]
        rep = simplify(traj, cfg)
        assert [(s.start.x, s.end.x, s.covered) for s in rep.segments] == [
            (0.0, 10.0, 11),
            (10.0, 20.0, 11),
            (20.0, 30.0, 11),
        ]

    def test_k_cap_with_no_active_point_emits_a_stub(self):
        # nothing ever leaves the first-active radius, so the closed piece
        # ends at its own anchor and the remainder drains into one segment
        cfg = FitConfig(zeta=1e9, k_cap=100, opt5=False)
        traj = [P(float(i), 0.0, float(i)) for i in range(150)]
        rep = simplify(traj, cfg)
        assert [(s.start.x, s.end.x, s.covered) for s in rep.segments] == [
            (0.0, 0.0, 101),
            (0.0, 149.0, 50),
        ]

    def test_stream_ending_mid_absorption_decredits_and_bridges(self):
        cfg = FitConfig(zeta=1e9, k_cap=2)
        traj = [P(float(i), 0.0, float(i)) for i in range(5)]
        rep = simplify(traj, cfg)
        assert [(s.start.x, s.end.x, s.covered) for s in rep.segments] == [
            (0.0, 0.0, 4),
            (0.0, 4.0, 2),
        ]
        assert len(_segment_distances(rep, traj)) == 5


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
    st.sampled_from((2.0, 8.0, 25.0)),
    st.sampled_from((Mode.OPERB, Mode.OPERB_A)),
    st.sampled_from((1, 2, 3, K_CAP_LIMIT)),
    st.sampled_from((0.0, math.pi / 3, math.pi)),
)
def test_push_loop_equals_batch_loop(traj, opts, zeta, mode, k_cap, gamma_m):
    """The fused batch loop must be indistinguishable from push(), down to
    the smallest k_cap and at both ends of the gamma_m range."""
    o1, o2, o3, o4, o5 = opts
    cfg = FitConfig(
        zeta=zeta, k_cap=k_cap, gamma_m=gamma_m,
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


def test_encoder_output_and_fit_match_the_pinned_digest():
    """Segments, counters and the fit state after every push, for every
    opt set in both modes at a small and a large zeta, as they were when
    the digest was pinned. Update the digest only for an intended change
    of output."""
    trajs = (
        gen_random_walk(200, 3),
        gen_grid_route(200, 3, step=20.0),
        gen_grid_route(200, 3, step=1.0),  # exactly collinear inactive points
        _parked_route(200, 3),
    )
    configs = [
        dict(opt1=o1, opt2=o2, opt3=o3, opt4=o4, opt5=o5)
        for o1 in (False, True) for o2 in (False, True) for o3 in (False, True)
        for o4 in (False, True) for o5 in (False, True)
    ]
    configs += [dict(k_cap=3, gamma_m=0.0), dict(gamma_m=math.pi)]
    digest = hashlib.sha256()
    for i, opts in enumerate(configs):
        for zeta in (2.0, 40.0):
            cfg = FitConfig(zeta=zeta, **opts)
            for mode in (Mode.OPERB, Mode.OPERB_A):
                for traj in trajs:
                    rep = simplify(traj, cfg, mode)
                    for s in rep.segments:
                        digest.update(_render(
                            (s.start, s.end, s.covered, s.patched_start)
                        ).encode())
                    digest.update(_render(
                        (rep.anomalous_candidates, rep.patches)
                    ).encode())
                traj = trajs[i % len(trajs)]
                enc = OperbEncoder(cfg, mode, traj[0])
                for p in traj[1:]:
                    enc.push(p)
                    digest.update(_render(tuple(enc.fit)).encode())
    assert digest.hexdigest() == ENCODER_SHA256
