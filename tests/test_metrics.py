"""Error measurement, bound verification, and corpus statistics."""

import math

import pytest

from trajsimp.baselines import dp_simplify
from trajsimp.errors import InvariantError
from trajsimp.geometry import Point
from trajsimp.metrics import (
    BOUND_SLACK,
    CompressionStats,
    average_error,
    compute_stats,
    max_error,
    point_mapping,
    segment_histogram,
    verify_error_bound,
)
from trajsimp.onepass import PiecewiseRepresentation, Segment

P = Point

TENT = [P(0, 0, 0), P(1, 1, 1), P(2, 0, 2)]


def rep_of(*segs, **kw):
    return PiecewiseRepresentation(list(segs), **kw)


class TestPointMapping:
    def test_interior_segments_share_their_start(self):
        rep = rep_of(
            Segment(P(0, 0), P(2, 0), 3),
            Segment(P(2, 0), P(3, 1), 2),
            Segment(P(3, 1), P(3, 3), 3),
        )
        assert point_mapping(rep, 6) == [(0, 3), (3, 4), (4, 6)]

    def test_patched_start_keeps_full_credit(self):
        rep = rep_of(
            Segment(P(0, 0), P(3, 0), 3),
            Segment(P(3, 0), P(3, 3), 3, patched_start=True),
        )
        assert point_mapping(rep, 6) == [(0, 3), (3, 6)]

    def test_wrong_total_raises(self):
        rep = rep_of(Segment(P(0, 0), P(1, 0), 2), Segment(P(1, 0), P(2, 0), 2))
        with pytest.raises(InvariantError, match="consume 3 points"):
            point_mapping(rep, 5)

    def test_negative_share_raises(self):
        rep = rep_of(Segment(P(0, 0), P(1, 0), 2), Segment(P(1, 0), P(2, 0), 0))
        with pytest.raises(InvariantError):
            point_mapping(rep, 2)


class TestErrors:
    def test_average_and_max_on_the_tent(self):
        rep = dp_simplify(TENT, 1.5)
        assert len(rep) == 1
        assert average_error(rep, TENT) == pytest.approx(1.0 / 3.0)
        assert max_error(rep, TENT) == pytest.approx(1.0)

    def test_zero_length_segment_measures_radially(self):
        traj = [P(0, 0, 0), P(3, 4, 1)]
        rep = rep_of(Segment(P(0, 0, 0), P(0, 0, 0), 2))
        assert max_error(rep, traj) == pytest.approx(5.0)

    def test_empty_trajectory_raises(self):
        rep = rep_of(Segment(P(0, 0), P(1, 0), 2))
        with pytest.raises(ValueError):
            average_error(rep, [])
        with pytest.raises(ValueError):
            max_error(rep, [])


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
            rep_of(Segment(P(0, 0), P(1, 0), 2), Segment(P(1, 0), P(2, 0), 3)),
            rep_of(Segment(P(0, 0), P(1, 0), 2)),
        ]
        assert segment_histogram(reps) == {2: 2, 3: 1}
        assert list(segment_histogram(reps)) == [2, 3]

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
