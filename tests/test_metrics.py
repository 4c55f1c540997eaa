"""Error measurement, bound verification, and corpus statistics."""

import math

import pytest
from hypothesis import given, strategies as st

from trajsimp.baselines import dp_simplify
from trajsimp.errors import InvariantError
from trajsimp.geometry import Point
from trajsimp.metrics import (
    BOUND_SLACK,
    CompressionStats,
    _segment_distances,
    compute_stats,
    verify_error_bound,
)
from trajsimp.onepass import PiecewiseRepresentation, Segment

P = Point

TENT = [P(0, 0, 0), P(1, 1, 1), P(2, 0, 2)]


def rep_of(*segs, **kw):
    return PiecewiseRepresentation(list(segs), **kw)


class TestCoveredCountWalk:
    """Each trajectory point lies at a different distance from every
    segment's line, so the distances pin which segment each point maps
    to: a wrong split changes at least one of them."""

    def test_interior_segments_share_their_start(self):
        rep = rep_of(
            Segment(P(0, 0), P(2, 0), 3),
            Segment(P(2, 0), P(3, 1), 2),
            Segment(P(3, 1), P(3, 3), 3),
        )
        traj = [P(0, 0, 0), P(1, 1, 1), P(2, 2, 2), P(3, 0, 3), P(4, 3, 4), P(3, 3, 5)]
        # points 0-2 on y = 0, point 3 on y = x - 2, points 4-5 on x = 3
        assert _segment_distances(rep, traj) == pytest.approx(
            [0.0, 1.0, 2.0, math.sqrt(0.5), 1.0, 0.0]
        )

    def test_patched_start_keeps_full_credit(self):
        rep = rep_of(
            Segment(P(0, 0), P(3, 0), 3),
            Segment(P(3, 0), P(3, 3), 3, patched_start=True),
        )
        traj = [P(0, 0, 0), P(1, 1, 1), P(2, 2, 2), P(3, 2, 3), P(4, 2, 4), P(2, 3, 5)]
        # points 0-2 on y = 0, points 3-5 on x = 3
        assert _segment_distances(rep, traj) == pytest.approx(
            [0.0, 1.0, 2.0, 0.0, 1.0, 1.0]
        )

    def test_wrong_total_raises(self):
        rep = rep_of(Segment(P(0, 0), P(1, 0), 2), Segment(P(1, 0), P(2, 0), 2))
        traj = [P(float(i), 0.0, float(i)) for i in range(5)]
        with pytest.raises(InvariantError, match="consume 3 points, input has 5"):
            verify_error_bound(rep, traj, 1.0)

    def test_negative_share_raises(self):
        rep = rep_of(Segment(P(0, 0), P(1, 0), 2), Segment(P(1, 0), P(2, 0), 0))
        traj = [P(0, 0, 0), P(1, 0, 1)]
        with pytest.raises(InvariantError, match="covers 0 points but shares its start"):
            verify_error_bound(rep, traj, 1.0)


class TestErrors:
    def test_average_and_max_on_the_tent(self):
        rep = dp_simplify(TENT, 1.5)
        assert len(rep) == 1
        stats = compute_stats([rep], [TENT])
        assert stats.avg_error == pytest.approx(1.0 / 3.0)
        assert stats.max_error == pytest.approx(1.0)

    def test_zero_length_segment_measures_radially(self):
        traj = [P(0, 0, 0), P(3, 4, 1)]
        rep = rep_of(Segment(P(0, 0, 0), P(0, 0, 0), 2))
        assert _segment_distances(rep, traj) == pytest.approx([0.0, 5.0])

    def test_zero_length_segment_off_the_origin(self):
        traj = [P(1, 1, 0), P(4, 5, 1)]
        rep = rep_of(Segment(P(1, 1, 0), P(1, 1, 0), 2))
        assert _segment_distances(rep, traj) == pytest.approx([0.0, 5.0])

    def test_distance_to_an_oblique_line(self):
        traj = [P(0, 0, 0), P(0, 5, 1), P(3, 4, 2)]
        rep = rep_of(Segment(traj[0], traj[2], 3))
        assert _segment_distances(rep, traj) == pytest.approx([0.0, 3.0, 0.0])

    def test_distance_is_to_the_line_not_the_segment(self):
        # the foot of the perpendicular lies beyond the segment end
        traj = [P(0, 0, 0), P(10, 2, 1), P(1, 0, 2)]
        rep = rep_of(Segment(traj[0], traj[2], 3))
        assert _segment_distances(rep, traj) == pytest.approx([0.0, 2.0, 0.0])

    def test_empty_trajectory_raises(self):
        rep = rep_of(Segment(P(0, 0), P(1, 0), 2))
        with pytest.raises(InvariantError, match="consume 2 points, input has 0"):
            compute_stats([rep], [[]])


coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
seg_lengths = st.floats(min_value=1.0, max_value=1000.0, allow_nan=False)


def _probe_distance(a, b, p):
    """Distance the metrics measure from p to the line through a and b."""
    return float(_segment_distances(rep_of(Segment(a, b, 3)), [a, p, b])[1])


def _polar_ends(ax, ay, theta, length):
    """Start and end of a segment given in polar form."""
    end = P(ax + length * math.cos(theta), ay + length * math.sin(theta), 2.0)
    return P(ax, ay, 0.0), end


@given(coords, coords, angles, seg_lengths, coords, coords)
def test_distance_matches_a_search_oracle(ax, ay, theta, length, px, py):
    """Agrees with a ternary search for the closest point on the line."""
    a, b = _polar_ends(ax, ay, theta, length)
    d = _probe_distance(a, b, P(px, py, 1.0))

    def dist_at(t):
        return math.hypot(px - (ax + t * (b.x - ax)), py - (ay + t * (b.y - ay)))

    # window wide enough to contain the perpendicular foot
    reach = math.hypot(px - ax, py - ay) / math.hypot(b.x - ax, b.y - ay) + 1.0
    lo, hi = -reach, reach
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if dist_at(m1) < dist_at(m2):
            hi = m2
        else:
            lo = m1
    assert d == pytest.approx(dist_at(0.5 * (lo + hi)), rel=1e-9, abs=1e-9)


@given(coords, coords, angles, seg_lengths, coords, coords, angles, coords, coords)
def test_distance_is_rigid_motion_invariant(
    ax, ay, theta, length, px, py, rot, tx, ty
):
    a, b = _polar_ends(ax, ay, theta, length)
    p = P(px, py, 1.0)
    d0 = _probe_distance(a, b, p)

    c, s = math.cos(rot), math.sin(rot)

    def move(q):
        return P(q.x * c - q.y * s + tx, q.x * s + q.y * c + ty, q.t)

    d1 = _probe_distance(move(a), move(b), move(p))
    scale = max(1.0, d0, math.hypot(px - ax, py - ay))
    assert abs(d0 - d1) <= 1e-8 * scale


class TestVerifyErrorBound:
    def test_exact_boundary_passes(self):
        rep = dp_simplify(TENT, 1.5)
        ok, violations = verify_error_bound(rep, TENT, 1.0)
        assert ok and violations == []

    def test_slack_is_relative(self):
        rep = dp_simplify(TENT, 1.5)
        # just inside the slack band
        ok, _ = verify_error_bound(rep, TENT, 1.0 / (1.0 + 0.5 * BOUND_SLACK))
        assert ok

    def test_violations_list_index_and_distance(self):
        rep = dp_simplify(TENT, 1.5)
        ok, violations = verify_error_bound(rep, TENT, 0.5)
        assert not ok
        assert violations == [(1, pytest.approx(1.0))]

    def test_non_finite_distance_is_a_violation(self):
        traj = [P(0, 0, 0), P(math.nan, 1, 1), P(2, 0, 2)]
        rep = rep_of(Segment(traj[0], traj[2], 3))
        ok, violations = verify_error_bound(rep, traj, 1.0)
        assert not ok
        assert len(violations) == 1
        assert violations[0][0] == 1 and math.isnan(violations[0][1])


class TestCorpusStats:
    def test_compression_ratio(self):
        trajs = [TENT, [P(0, 0, 0), P(1, 0, 1)]]
        reps = [dp_simplify(TENT, 0.5), dp_simplify(trajs[1], 0.5)]
        assert compute_stats(reps, trajs).ratio == pytest.approx(3 / 5)
        with pytest.raises(ValueError):
            compute_stats([], [])

    def test_segment_histogram_merges_and_sorts(self):
        reps = [
            rep_of(Segment(P(0, 0), P(2, 0), 3), Segment(P(2, 0), P(3, 0), 2)),
            rep_of(Segment(P(0, 0), P(1, 0), 2)),
        ]
        trajs = [[P(float(i), 0.0, float(i)) for i in range(n)] for n in (4, 2)]
        histogram = compute_stats(reps, trajs).histogram
        assert histogram == {2: 2, 3: 1}
        assert list(histogram) == [2, 3]

    def test_patching_ratio_defaults_to_zero(self):
        stats = CompressionStats(10, 5, 0.5, 0.0, 0.0)
        assert stats.patching_ratio == 0.0
        stats = CompressionStats(10, 5, 0.5, 0.0, 0.0, anomalous=4, patched=3)
        assert stats.patching_ratio == pytest.approx(0.75)

    def test_compute_stats_aggregates_per_point(self):
        flat = [P(0, 0, 0), P(1, 0, 1)]
        trajs = [TENT, flat]
        reps = [
            dp_simplify(TENT, 1.5),  # errors 0, 1, 0
            rep_of(Segment(flat[0], flat[1], 2), anomalous_candidates=1),
        ]
        stats = compute_stats(reps, trajs, wall_time=2.5)
        assert stats.input_points == 5
        assert stats.output_segments == 2
        assert stats.ratio == pytest.approx(2 / 5)
        assert stats.avg_error == pytest.approx(1.0 / 5.0)
        assert stats.max_error == pytest.approx(1.0)
        assert stats.wall_time == 2.5
        assert stats.anomalous == 1
        assert stats.histogram == {2: 1, 3: 1}

    def test_compute_stats_requires_pairing(self):
        with pytest.raises(ValueError):
            compute_stats([dp_simplify(TENT, 1.5)], [])
