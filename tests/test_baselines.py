"""Batch baselines: recursive split, open window, quadrant-hull window."""

import math
import random
from array import array
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from trajsimp.baselines import HullState, dp_simplify, fbqs_simplify, opw_simplify
from trajsimp.datagen import gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import FitConfig
from trajsimp.geometry import Point, rows_view
from trajsimp.metrics import verify_error_bound
from trajsimp.onepass import Segment, simplify as encode

from oracles import hull_vertices

P = Point

M_SHAPE = [P(0, 0, 0), P(1, 2, 1), P(2, 0, 2), P(3, 2, 3), P(4, 0, 4)]


def trajs(max_n=150):
    return st.builds(
        lambda gen, n, seed: gen(n, seed),
        st.sampled_from((gen_random_walk, gen_grid_route)),
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0, max_value=2**32),
    )


@pytest.mark.parametrize("algo", [dp_simplify, opw_simplify, fbqs_simplify])
class TestCommonContract:
    def test_empty_raises(self, algo):
        with pytest.raises(ValueError):
            algo([], 1.0)

    def test_bad_zeta_raises(self, algo):
        for zeta in (0.0, -2.0, float("nan"), math.inf):
            with pytest.raises(ValueError, match="zeta must be finite and > 0"):
                algo(M_SHAPE, zeta)

    def test_zeta_whose_half_is_zero_raises(self, algo):
        tiny = [P(0, 0, 0), P(1e-30, 0, 1), P(2e-30, 1e-30, 2),
                P(3e-30, -1e-30, 3), P(0, 5e-30, 4)]
        with pytest.raises(ValueError, match="zeta must be at least 1e-323"):
            algo(tiny, 5e-324)
        assert verify_error_bound(algo(tiny, 1e-323), tiny, 1e-323)[0]

    def test_single_point(self, algo):
        rep = algo([P(1, 2, 3)], 1.0)
        assert rep.segments == [Segment(P(1, 2, 3), P(1, 2, 3), 1)]

    def test_two_points(self, algo):
        rep = algo([P(0, 0, 0), P(9, 0, 1)], 1.0)
        assert rep.segments == [Segment(P(0, 0, 0), P(9, 0, 1), 2)]

    def test_collinear_run_is_one_segment(self, algo):
        traj = [P(float(i), 0.0, float(i)) for i in range(10)]
        rep = algo(traj, 1.0)
        assert rep.segments == [Segment(traj[0], traj[-1], 10)]

    def test_tuples_and_lists_give_the_same_segments(self, algo):
        small = [P(0.0, 0.0, 0.0), P(5.0, 1.0, 1.0), P(9.0, 0.0, 2.0)]
        for traj, zeta in ((small, 1.0), (gen_random_walk(80, seed=5), 10.0)):
            rep = algo(traj, zeta)
            for as_plain in (tuple, list):
                plain = algo([as_plain(p) for p in traj], zeta)
                assert plain == rep
                assert all(type(s.start) is P and type(s.end) is P for s in plain)

    @pytest.mark.parametrize("kind", ["walk", "grid", "parked"])
    def test_segments_share_their_vertices(self, algo, kind):
        """Each end is one Point equal to the input row it came from, and
        it is the next segment's start object."""
        if kind == "grid":
            traj = gen_grid_route(300, 3, step=20)
        else:
            traj = gen_random_walk(300, 3)
        if kind == "parked":
            # position i held for 1 + i % 3 samples
            traj = [P(p.x, p.y, float(3 * i + r))
                    for i, p in enumerate(traj) for r in range(1 + i % 3)]
        segs = algo(traj, 10.0).segments
        assert len(segs) > 10
        assert all(segs[i + 1].start is segs[i].end for i in range(len(segs) - 1))
        k = 0
        for seg in segs:
            k += seg.covered - 1
            assert type(seg.end) is P and seg.end == traj[k]
        assert k == len(traj) - 1

    def test_covered_counts_chain_across_all_points(self, algo):
        traj = gen_random_walk(80, seed=5)
        rep = algo(traj, 10.0)
        assert rep.segments[0].start == traj[0]
        assert rep.segments[-1].end == traj[-1]
        assert sum(s.covered for s in rep.segments) == len(traj) + len(rep) - 1


def parked_walk(n, seed, every, stay):
    """A walk that holds every ``every``-th position for ``stay`` more
    samples, so some chords have zero length."""
    spots = [p[:2] for i, p in enumerate(gen_random_walk(n, seed))
             for _ in range(1 + (stay if i % every == 0 else 0))]
    return [P(x, y, float(t)) for t, (x, y) in enumerate(spots)]


BASELINES = {"dp": dp_simplify, "opw": opw_simplify, "fbqs": fbqs_simplify}


@given(
    st.one_of(
        trajs(400),
        st.builds(parked_walk, st.integers(1, 200), st.integers(0, 2**32),
                  st.integers(1, 30), st.integers(1, 8)),
    ),
    st.sampled_from(sorted(BASELINES)),
    st.sampled_from((2.0, 10.0, 40.0)),
)
def test_points_tuples_and_views_give_the_same_segments(traj, algo, zeta):
    """A list of Points, the same rows as plain tuples and their trajectory
    view are one float64 array to every baseline."""
    simplify = BASELINES[algo]
    rep = simplify(traj, zeta)
    assert simplify([tuple(p) for p in traj], zeta) == rep
    assert simplify(rows_view(array("d", chain.from_iterable(traj))), zeta) == rep


class TestDp:
    def test_tent(self):
        tent = [P(0, 0, 0), P(1, 1, 1), P(2, 0, 2)]
        assert len(dp_simplify(tent, 0.5)) == 2
        assert len(dp_simplify(tent, 1.5)) == 1

    def test_tie_breaks_at_first_farthest_index(self):
        # both peaks of the M sit exactly 2.0 away from the base chord; the
        # split must pick index 1, leaving the right half within 1.2
        rep = dp_simplify(M_SHAPE, 1.2)
        assert rep.segments == [
            Segment(M_SHAPE[0], M_SHAPE[1], 2),
            Segment(M_SHAPE[1], M_SHAPE[4], 4),
        ]

    def test_closed_loop_splits_radially(self):
        # identical chord endpoints: the split uses distances to the shared
        # point, so the far corner of the square splits first
        loop = [P(0, 0, 0), P(2, 0, 1), P(2, 2, 2), P(0, 2, 3), P(0, 0, 4)]
        rep = dp_simplify(loop, 1.0)
        assert len(rep) == 4
        ok, violations = verify_error_bound(rep, loop, 1.0)
        assert ok, violations

    @settings(max_examples=40)
    @given(trajs(), st.sampled_from((2.0, 10.0, 40.0)))
    def test_bound_and_monotonicity(self, traj, zeta):
        rep = dp_simplify(traj, zeta)
        ok, violations = verify_error_bound(rep, traj, zeta)
        assert ok, violations
        # doubling the tolerance can only merge spans, never add any
        assert len(dp_simplify(traj, 2.0 * zeta)) <= len(rep)


@pytest.mark.parametrize("simplify", [dp_simplify, opw_simplify, fbqs_simplify])
@pytest.mark.parametrize("row, zeta, msg", [
    ((math.nan, 0.0, 1.0), 1.0, "non-finite coordinate"),
    ((0.0, math.inf, 1.0), 1.0, "non-finite coordinate"),
    ((1e308, 1e308, 1.0), 1.0, "coordinate beyond 1e\\+100"),
    ((-1e101, 0.0, 1.0), 1.0, "coordinate beyond 1e\\+100"),
    ((1.0, 0.0, 1.0), 1e-308, "coordinate beyond 1e-08"),
], ids=["nan", "inf", "huge", "past-1e100", "past-1e300-zeta"])
def test_baselines_refuse_what_the_encoder_refuses(simplify, row, zeta, msg):
    traj = [P(0, 0, 0), P(*row), P(2, 0, 2), P(3, 1, 3)]
    with pytest.raises(DataError, match=f"^point 1: {msg}") as refused:
        simplify(traj, zeta)
    with pytest.raises(DataError) as encoder:
        encode(traj, FitConfig(zeta))
    assert str(refused.value) == str(encoder.value)


class TestOpw:
    def test_window_restarts_at_the_previous_point(self):
        zigzag = [P(0, 0, 0), P(1, 0, 1), P(2, 2, 2), P(3, 0, 3)]
        rep = opw_simplify(zigzag, 0.5)
        assert [(s.start, s.end, s.covered) for s in rep.segments] == [
            (zigzag[0], zigzag[1], 2),
            (zigzag[1], zigzag[2], 2),
            (zigzag[2], zigzag[3], 2),
        ]
        assert rep.anomalous_candidates == 3

    @settings(max_examples=40)
    @given(trajs(), st.sampled_from((2.0, 10.0, 40.0)))
    def test_every_window_satisfies_the_bound(self, traj, zeta):
        rep = opw_simplify(traj, zeta)
        ok, violations = verify_error_bound(rep, traj, zeta)
        assert ok, violations


class TestHullState:
    def test_empty_hull_bounds_nothing(self):
        hull = HullState()
        assert not hull.exceeds(1.0, 0.0, 5e-324)
        assert not hull.exceeds(0.0, 0.0, 5e-324)
        assert hull_vertices(hull) == []

    def test_single_point(self):
        hull = HullState()
        hull.add(3.0, 4.0)
        assert hull.exceeds(1.0, 0.0, 3.999)
        assert not hull.exceeds(1.0, 0.0, 4.001)
        # degenerate direction: fall back to distance from the anchor
        assert hull.exceeds(0.0, 0.0, 4.999)
        assert not hull.exceeds(0.0, 0.0, 5.001)

    def test_the_cheap_bounds_settle_without_clipping(self, clip_calls):
        # Off a 30-degree line the box's corners lie far from it, so the box
        # bound fails; the region's extreme settles every query instead.
        hull = HullState()
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        for i in range(1, 50):
            hull.add(7.0 * i * c, 7.0 * i * s)
            assert not hull.exceeds(7.0 * (i + 1) * c, 7.0 * (i + 1) * s, 1.0)
            assert not clip_calls
        # The bearings span 45 degrees, but the box is 0.1 high: the box
        # bound settles this one.
        hull = HullState()
        hull.add(0.1, 0.1)
        hull.add(50.0, 0.0)
        assert not hull.exceeds(1.0, 0.0, 1.0)
        assert not clip_calls
        assert hull.exceeds(1.0, 0.0, 0.05)

    def test_the_region_extreme_settles_what_the_cheap_bounds_cannot(self, clip_calls):
        # Box [1, 10] x [0, 8], bearings 0 to 45 degrees: the corner (1, 8)
        # lies outside the wedge, and the 45-degree ray leaves the box at
        # (8, 8), not at a corner.
        hull = HullState()
        for x, y in [(8.0, 8.0), (1.0, 0.0), (10.0, 0.0)]:
            hull.add(x, y)
        cases = [
            # 30 degrees: the box bound sees (1, 8) at 6.43; the region
            # peaks at the corner (10, 0).
            (math.radians(30.0), 5.0),
            # 10 degrees: the region peaks at the ray's exit (8, 8), above
            # every corner the wedge keeps.
            (math.radians(10.0), 8.0 * (math.cos(math.radians(10.0))
                                        - math.sin(math.radians(10.0)))),
        ]
        # The zero-length query: the corner (10, 8), off both rays.
        queries = [((math.cos(phi), math.sin(phi)), d) for phi, d in cases]
        queries.append(((0.0, 0.0), math.hypot(10.0, 8.0)))
        for (qx, qy), d in queries:
            assert not hull.exceeds(qx, qy, d * (1 + 1e-9))
            assert hull.exceeds(qx, qy, d * (1 - 1e-9))
        assert not clip_calls
        # Within the rounding band only the polygon decides.
        for (qx, qy), d in queries:
            hull.exceeds(qx, qy, d)
        assert len(clip_calls) == len(queries)

    def test_a_corner_below_the_low_bearing_is_not_counted(self, clip_calls):
        # Box [2, 10] x [1, 8], bearings atan(1/2) to 45 degrees: the corner
        # (10, 1) lies below the low bearing, whose ray leaves the box
        # through its right side at (10, 5).
        hull = HullState()
        for x, y in [(8.0, 8.0), (2.0, 1.0), (10.0, 6.0)]:
            hull.add(x, y)
        # 60 degrees: (10, 1) would reach 8.16; the region peaks at the
        # ray's exit.
        phi = math.radians(60.0)
        ux, uy = math.cos(phi), math.sin(phi)
        d = abs(10.0 * uy - 5.0 * ux)
        assert not hull.exceeds(ux, uy, d * (1 + 1e-9))
        assert hull.exceeds(ux, uy, d * (1 - 1e-9))
        assert not clip_calls

    def test_the_band_is_closed_on_neither_side(self, clip_calls):
        """The extreme settles when it is at most zeta - slack or more than
        zeta + slack; on either edge of that band the polygon decides."""
        hull = HullState()
        for x, y in [(8.0, 8.0), (1.0, 0.0), (10.0, 0.0)]:
            hull.add(x, y)
        # Along (15, 8) / 17 the box bound sees the corner (1, 8) at 6.59;
        # the region peaks at (10, 0).
        ux, uy = 15.0 / 17.0, 8.0 / 17.0
        ext = abs(10.0 * uy - 0.0 * ux)
        slack = 5e-12 * math.hypot(10.0, 8.0) + 1e-300
        lower = ext - slack  # zeta + slack == ext: not more than it
        upper = ext + slack  # zeta - slack == ext: settled False
        assert lower + slack == ext and upper - slack == ext
        assert not hull.exceeds(15.0, 8.0, upper)
        assert not clip_calls
        assert not hull.exceeds(15.0, 8.0, math.nextafter(upper, 0.0))
        assert len(clip_calls) == 1
        assert hull.exceeds(15.0, 8.0, lower)
        assert len(clip_calls) == 2
        assert hull.exceeds(15.0, 8.0, math.nextafter(lower, 0.0))
        assert len(clip_calls) == 2

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_certificate_is_conservative(self, offsets, theta):
        """The hull must never accept a line that a buffered point misses
        by more than zeta."""
        hull = HullState()
        for dx, dy in offsets:
            hull.add(dx, dy)
        ux, uy = math.cos(theta), math.sin(theta)
        true_max = max(abs(dx * uy - dy * ux) for dx, dy in offsets)
        zeta = true_max - 1e-9 * max(1.0, true_max)
        if zeta > 0.0:
            assert hull.exceeds(ux, uy, zeta)


class TestFbqs:
    @pytest.mark.parametrize("rows", [
        # A -0.0 offset put bearing -pi in with bearings near pi, and the
        # wedge between them dropped (-5, 3).
        [(0.0, 0.0, 0.0), (-1.0, -0.0, 1.0), (-5.0, 3.0, 2.0), (-10.0, 0.0, 3.0)],
        # Two polygon vertices with equal cross values but different keep
        # flags made the clip divide by zero.
        [(-0.0, 0.0, 0.0), (-0.0, 0.0, 1.0), (60.0, 1e-323, 2.0), (0.0, 83.0, 3.0)],
    ], ids=["signed-zero-bearing", "equal-cross-values"])
    def test_signed_zeros_and_subnormals_keep_the_bound(self, rows):
        traj = [Point(*r) for r in rows]
        rep = fbqs_simplify(traj, 1.0)
        ok, violations = verify_error_bound(rep, traj, 1.0)
        assert ok, violations
        assert len(rep) == 2

    @pytest.mark.parametrize("zeta", [10.0, 40.0])
    @pytest.mark.parametrize("kind", ["walk", "grid", "parked"])
    def test_walks_grids_and_parked_walks_clip_next_to_nothing(self, kind, zeta,
                                                               clip_calls):
        """Away from the rounding band the region's extreme settles every
        quadrant, so no polygon is clipped. Grid routes put points exactly
        two 20-unit steps off axis-parallel lines, so at zeta 40 a query
        can land on the bound itself, where only the polygon decides."""
        n = 0
        for seed in range(3):
            if kind == "grid":
                traj = gen_grid_route(2000, seed, step=20)
            else:
                traj = gen_random_walk(2000, seed)
            if kind == "parked":
                # every position held for 1 to 8 samples
                rng = random.Random(seed)
                traj = [P(p.x, p.y, float(i)) for i, p in enumerate(
                    p for p in traj for _ in range(rng.randint(1, 8)))]
            fbqs_simplify(traj, zeta)
            n += len(traj)
        ties = n // 1000 if (kind, zeta) == ("grid", 40.0) else 0
        assert len(clip_calls) <= ties

    @settings(max_examples=40)
    @given(trajs(), st.sampled_from((2.0, 10.0, 40.0)))
    def test_bound_holds(self, traj, zeta):
        rep = fbqs_simplify(traj, zeta)
        ok, violations = verify_error_bound(rep, traj, zeta)
        assert ok, violations

    @settings(max_examples=30)
    @given(trajs(), st.sampled_from((2.0, 10.0)))
    def test_first_window_never_outgrows_the_exact_one(self, traj, zeta):
        # both windows open at point 0 and test the same quantity, one via
        # the over-estimating certificate, so the hull window closes first.
        # (Later windows start at different points and are not comparable.)
        first_hull = fbqs_simplify(traj, zeta).segments[0]
        first_exact = opw_simplify(traj, zeta).segments[0]
        assert first_hull.covered <= first_exact.covered
