"""Streaming encoder: segment boundaries, absorption, patching, both modes."""

import copy
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from trajsimp.datagen import SplitMix64, gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import K_CAP_LIMIT, FitConfig
from trajsimp.geometry import Point
from trajsimp.metrics import point_mapping, verify_error_bound
from trajsimp.onepass import (
    Mode,
    OperbEncoder,
    PiecewiseRepresentation,
    Segment,
    simplify,
    try_patch,
)

P = Point

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
        assert point_mapping(rep, 5) == [(0, 4), (4, 5)]


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
            for bad in ((last.x, last.y), None):
                with pytest.raises((TypeError, ValueError)):
                    enc.push(bad)
            assert tuple(getattr(enc.fit, f) for f in fields) == before, cut
            for p in traj[cut:]:
                segs.extend(enc.push(p))
            segs.extend(enc.finish())
            assert segs == expect, cut


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
    ranges = point_mapping(rep, len(traj))
    assert ranges[-1][1] == len(traj)


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
