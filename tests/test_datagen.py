"""Synthetic corpora, the shared RNG, and the exact segment-count oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from trajsimp.baselines import dp_simplify, opw_simplify
from trajsimp.datagen import (
    SplitMix64,
    figure_fixture,
    gen_grid_route,
    gen_random_walk,
    gen_stepwise_adversarial,
    optimal_segments,
    stepwise_drift,
)
from trajsimp.geometry import Point


class TestSplitMix64:
    def test_published_vectors_for_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_floats_live_in_the_unit_interval(self):
        rng = SplitMix64(123)
        vals = [rng.next_float() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert min(vals) < 0.05 and max(vals) > 0.95

    def test_randint_is_inclusive_of_both_ends(self):
        rng = SplitMix64(7)
        seen = {rng.randint(3, 6) for _ in range(500)}
        assert seen == {3, 4, 5, 6}

    def test_uniform_range(self):
        rng = SplitMix64(7)
        assert all(-2.0 <= rng.uniform(-2.0, 5.0) < 5.0 for _ in range(100))


class TestWalkAndGrid:
    def test_deterministic_per_seed(self):
        assert gen_random_walk(50, 9) == gen_random_walk(50, 9)
        assert gen_random_walk(50, 9) != gen_random_walk(50, 10)
        assert gen_grid_route(50, 9) == gen_grid_route(50, 9)

    def test_walk_shape(self):
        pts = gen_random_walk(40, 3, step=2.0)
        assert len(pts) == 40
        assert pts[0] == (0.0, 0.0, 0.0)
        assert [p.t for p in pts] == [float(i) for i in range(40)]
        for a, b in zip(pts, pts[1:]):
            assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(2.0)

    @pytest.mark.parametrize("gen", (gen_random_walk, gen_grid_route))
    @pytest.mark.parametrize("step", (math.nan, math.inf, 0.0, -5.0))
    def test_bad_step_raises(self, gen, step):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            gen(3, 0, step=step)

    @pytest.mark.parametrize("gen", (gen_random_walk, gen_grid_route))
    def test_n_below_one_raises(self, gen):
        with pytest.raises(ValueError, match="n must be >= 1"):
            gen(0, 0)

    def test_grid_stays_on_the_lattice(self):
        # consecutive samples may jump diagonally where a corner sample was
        # dropped, but every sample sits on the step lattice and the step
        # clock ticks once per unit of L1 distance
        pts = gen_grid_route(60, 11, step=4.0)
        assert len(pts) == 60
        for p in pts:
            assert p.x == pytest.approx(4.0 * round(p.x / 4.0), abs=1e-9)
            assert p.y == pytest.approx(4.0 * round(p.y / 4.0), abs=1e-9)
        for a, b in zip(pts, pts[1:]):
            l1 = abs(b.x - a.x) + abs(b.y - a.y)
            ticks = b.t - a.t
            assert ticks >= 1.0
            assert l1 <= 4.0 * ticks + 1e-9


class TestStepwise:
    def test_radii_grow_by_half_zeta(self):
        zeta = 2.0
        pts = gen_stepwise_adversarial(50, zeta)
        assert len(pts) == 51
        assert pts[0] == (0.0, 0.0, 0.0)
        for i, p in enumerate(pts[1:], start=1):
            assert math.hypot(p.x, p.y) == pytest.approx(i * zeta / 2, rel=1e-12)

    def test_bearing_steps_shrink_like_arcsin(self):
        pts = gen_stepwise_adversarial(10)
        bearings = [math.atan2(p.y, p.x) for p in pts[1:]]
        for i in range(2, 10):
            # bearing of point i = accumulated drift + asin(~1/i)
            drift = sum(math.asin((1 - 1e-8) / j) / j for j in range(2, i))
            gamma = math.asin((1 - 1e-8) / i)
            assert bearings[i - 1] == pytest.approx(drift + gamma, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_stepwise_adversarial(1)
        with pytest.raises(ValueError):
            gen_stepwise_adversarial(100_001)
        for zeta in (0.0, -1.0):
            with pytest.raises(ValueError, match="zeta must be finite and > 0"):
                gen_stepwise_adversarial(10, zeta=zeta)

    def test_drift_closed_form(self):
        assert stepwise_drift(2) == pytest.approx(math.pi / 12, abs=1e-15)
        assert stepwise_drift(4) == pytest.approx(
            math.asin(1 / 2) / 2 + math.asin(1 / 3) / 3 + math.asin(1 / 4) / 4
        )


class TestFigureFixtures:
    def test_shapes(self):
        route = figure_fixture("route")
        corner = figure_fixture("corner")
        assert len(route) == 15
        assert len(corner) == 9
        for pts in (route, corner):
            assert all(b.t > a.t for a, b in zip(pts, pts[1:]))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            figure_fixture("loop")


class TestOptimalSegments:
    def test_small_exact_counts(self):
        tent = [Point(0.0, 0.0, 0.0), Point(1.0, 1.0, 1.0), Point(2.0, 0.0, 2.0)]
        assert optimal_segments(tent, 0.5) == 2
        assert optimal_segments(tent, 1.5) == 1
        collinear = [Point(float(i), 0.0, float(i)) for i in range(30)]
        assert optimal_segments(collinear, 0.1) == 1

    def test_tiny_inputs(self):
        assert optimal_segments([Point(0, 0, 0)], 1.0) == 1
        assert optimal_segments([Point(0, 0, 0), Point(5, 5, 1)], 1.0) == 1
        with pytest.raises(ValueError):
            optimal_segments([], 1.0)

    def test_tuples_and_lists_count_as_points(self):
        traj = gen_random_walk(120, 3)
        for zeta in (2.0, 10.0):
            floor = optimal_segments(traj, zeta)
            for as_plain in (tuple, list):
                assert optimal_segments([as_plain(p) for p in traj], zeta) == floor

    def test_bad_zeta_raises_at_any_length(self):
        tent = [Point(0.0, 0.0, 0.0), Point(1.0, 1.0, 1.0), Point(2.0, 0.0, 2.0)]
        for zeta in (0.0, -1.0, float("nan"), math.inf):
            for traj in (tent[:1], tent):
                with pytest.raises(ValueError, match="zeta must be finite and > 0"):
                    optimal_segments(traj, zeta)

    def test_size_cap(self):
        traj = gen_random_walk(2001, 0)
        with pytest.raises(ValueError, match="2000"):
            optimal_segments(traj, 10.0)

    @settings(max_examples=30)
    @given(
        st.sampled_from((gen_random_walk, gen_grid_route)),
        st.integers(min_value=2, max_value=120),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from((2.0, 10.0, 40.0)),
    )
    def test_floors_every_heuristic(self, gen, n, seed, zeta):
        traj = gen(n, seed)
        floor = optimal_segments(traj, zeta)
        assert floor <= len(dp_simplify(traj, zeta))
        assert floor <= len(opw_simplify(traj, zeta))
