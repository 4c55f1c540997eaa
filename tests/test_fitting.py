"""Incremental fit state: zones, classification, and the re-fit update.

Points are fed through ``OperbEncoder.push`` and the fit state is read back
from ``enc.fit``; a break shows up as a closed segment returned by push,
which needs opt5 off so the breaking point is not absorbed instead."""

import math

import pytest
from hypothesis import given, strategies as st

from trajsimp.datagen import gen_stepwise_adversarial
from trajsimp.fitting import FitConfig
from trajsimp.geometry import Point
from trajsimp.onepass import OperbEncoder, Segment


def cfg_with(zeta=4.0, **kw):
    base = dict(opt1=False, opt2=True, opt3=True, opt4=True, opt5=True)
    base.update(kw)
    return FitConfig(zeta=zeta, **base)


def seeded_encoder(cfg):
    """Anchor at the origin, first active point (2, 0): with zeta=4 the
    fitted line is (length 2, theta 0) sitting in zone 1."""
    enc = OperbEncoder(cfg, first=Point(0.0, 0.0, 0.0))
    assert enc.push(Point(2.0, 0.0, 1.0)) == []
    assert enc.fit.fit_len == 2.0
    assert enc.fit.fit_theta == 0.0
    assert enc.fit.last_zone == 1
    return enc


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig(zeta=1.0)
        assert cfg.opt1 and cfg.opt2 and cfg.opt3 and cfg.opt4 and cfg.opt5
        assert cfg.gamma_m == pytest.approx(math.pi / 3)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, math.inf, math.nan, 5e-324])
    def test_bad_zeta(self, zeta):
        with pytest.raises(ValueError):
            FitConfig(zeta=zeta)

    @pytest.mark.parametrize("gm", [-0.1, math.pi + 0.1, math.nan])
    def test_bad_gamma(self, gm):
        with pytest.raises(ValueError):
            FitConfig(zeta=1.0, gamma_m=gm)


def first_fit(r, zeta=1.0):
    """The fit after one push at radius r from the origin, opt1 off."""
    enc = OperbEncoder(cfg_with(zeta=zeta), first=Point(0.0, 0.0, 0.0))
    enc.push(Point(r, 0.0, 1.0))
    return enc.fit


class TestZones:
    """The zone of the first active point, read from last_zone."""

    def test_known_value(self):
        enc = OperbEncoder(cfg_with(), first=Point(0.0, 0.0, 0.0))
        enc.push(Point(4.0, 1.0, 1.0))  # radius sqrt(17)
        assert enc.fit.last_zone == 2

    def test_zone_boundaries_are_half_open_above(self):
        # zone j ends at (j + 1/2) * zeta / 2, inclusive
        assert first_fit(0.75).last_zone == 1
        assert first_fit(0.75 + 1e-6).last_zone == 2
        assert first_fit(0.25 + 1e-6).last_zone == 1

    def test_snap_absorbs_float_noise(self):
        # a radius lying one ulp above a boundary must not jump a zone
        assert first_fit(0.75 * (1.0 + 1e-15)).last_zone == 1

    @given(st.floats(min_value=0.0, max_value=0.25), st.floats(min_value=1e-3, max_value=1e3))
    def test_inside_a_quarter_zeta_never_goes_active(self, frac, zeta):
        r = frac * zeta
        fit = first_fit(r, zeta)
        assert fit.fit_len == 0.0
        assert fit.last_zone == 0

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_partition_property(self, r, zeta):
        fit = first_fit(r, zeta)
        j = fit.last_zone
        half = 0.5 * zeta
        slack = 1e-9 * max(r, zeta)
        assert j >= 0
        assert fit.fit_len == j * half
        assert r > (j - 0.5) * half - slack
        assert r <= (j + 0.5) * half + slack


class TestClassify:
    def test_inactive_inside_first_active_radius(self):
        cfg = FitConfig(zeta=4.0)  # opt1 on: threshold is zeta itself
        enc = OperbEncoder(cfg, first=Point(0.0, 0.0))
        assert enc.push(Point(2.0, 0.0, 1.0)) == []
        assert enc.fit.fit_len == 0.0 and enc.fit.points_in_segment == 1
        enc = OperbEncoder(cfg_with(), first=Point(0.0, 0.0))
        assert enc.push(Point(2.0, 0.0, 1.0)) == []
        assert enc.fit.last_active == Point(2.0, 0.0, 1.0)

    def test_break_depends_on_opt2(self):
        # deviation 3 with zeta 4: the per-point test d <= zeta/2 fails,
        # the two-sided test d_plus + d_minus <= zeta does not
        p = Point(2.0, 3.0, 2.0)
        enc = seeded_encoder(cfg_with(opt2=False, opt5=False))
        assert len(enc.push(p)) == 1
        enc = seeded_encoder(cfg_with(opt2=True, opt5=False))
        assert enc.push(p) == []
        assert enc.fit.last_active == p


class TestFitStep:
    def test_first_active_point_snaps_to_radial_bearing(self):
        cfg = cfg_with()
        enc = OperbEncoder(cfg, first=Point(0.0, 0.0))
        enc.push(Point(3.0, 3.0, 1.0))
        state = enc.fit
        r = math.hypot(3.0, 3.0)
        assert state.fit_theta == pytest.approx(math.pi / 4)
        assert state.last_zone == 2
        assert state.fit_len == state.last_zone * 2.0
        assert state.ra_len == pytest.approx(r)
        assert state.last_active == Point(3.0, 3.0, 1.0)

    def test_refit_rotates_by_scaled_arcsin(self):
        # opt3/opt4 off: theta steps by asin(d / (j*zeta/2)) / j
        cfg = cfg_with(opt3=False, opt4=False)
        enc = seeded_encoder(cfg)
        enc.push(Point(4.0, 1.0, 2.0))
        state = enc.fit
        assert state.fit_len == 4.0
        assert state.last_zone == 2
        assert state.fit_theta == pytest.approx(0.12634012757103932, abs=1e-15)
        assert state.last_active == Point(4.0, 1.0, 2.0)

    def test_inactive_point_updates_extremes_only(self):
        cfg = cfg_with()
        enc = seeded_encoder(cfg)
        enc.push(Point(2.5, 1.0, 2.0))
        state = enc.fit
        assert state.fit_len == 2.0 and state.fit_theta == 0.0
        assert state.points_in_segment == 2
        assert state.d_plus_max == pytest.approx(1.0)
        assert state.d_minus_max == 0.0
        assert state.last_active == Point(2.0, 0.0, 1.0)

    def test_opt3_cap_limits_the_borrowed_extreme(self):
        # an inactive point parks d_plus_max at 1.0; the next active point
        # has raw deviation 0.4, so opt3 borrows the extreme but the cap
        # holds the step to the full-weight angle of the raw deviation
        for opt3, expect in ((True, 0.1001674211615598), (False, 0.0500837105807799)):
            cfg = cfg_with(opt3=opt3, opt4=False)
            enc = seeded_encoder(cfg)
            enc.push(Point(2.5, 1.0, 2.0))
            enc.push(Point(4.0, 0.4, 3.0))
            assert enc.fit.fit_theta == pytest.approx(expect, abs=1e-15), opt3

    def test_opt4_scales_by_zones_skipped(self):
        # jump straight from zone 1 to zone 4: opt4 multiplies the step by 3
        cfg_on = cfg_with(opt3=False, opt4=True)
        enc = seeded_encoder(cfg_on)
        enc.push(Point(8.0, 1.0, 2.0))
        th_on = enc.fit.fit_theta
        cfg_off = cfg_with(opt3=False, opt4=False)
        enc = seeded_encoder(cfg_off)
        enc.push(Point(8.0, 1.0, 2.0))
        assert enc.fit.last_zone == 4
        assert th_on == pytest.approx(3.0 * enc.fit.fit_theta, rel=1e-12)

    def test_breaking_point_leaves_state_alone(self):
        # the closed segment is the state as it stood before the breaking
        # point, which then seeds the next segment
        cfg = cfg_with(opt2=False, opt5=False)
        enc = seeded_encoder(cfg)
        p = Point(2.0, 3.0, 2.0)
        assert enc.push(p) == [Segment(Point(0.0, 0.0, 0.0), Point(2.0, 0.0, 1.0), 2)]
        assert enc.fit.anchor == Point(2.0, 0.0, 1.0)
        assert enc.fit.last_active == p
        assert enc.fit.points_in_segment == 1


def square_point_state(x):
    """Fit state after L points straight up from the origin and then the
    point (x, 0), square to L, is pushed."""
    cfg = FitConfig(zeta=1.0, opt1=False, opt3=False, opt4=False, opt5=False)
    enc = OperbEncoder(cfg, first=Point(0.0, 0.0, 0.0))
    assert enc.push(Point(0.0, 0.3, 1.0)) == []
    assert enc.fit.fit_theta == math.pi / 2
    assert enc.push(Point(x, 0.0, 2.0)) == []
    return enc.fit


def test_a_point_square_to_the_line_turns_it_toward_itself():
    # To the right of L: clockwise, and the deviation is booked on the
    # minus side; to the left: counter-clockwise, on the plus side.
    right = square_point_state(0.8)
    assert right.fit_theta < math.pi / 2
    assert right.d_minus_max == 0.8
    assert right.d_plus_max == 0.0
    left = square_point_state(-0.8)
    assert left.fit_theta > math.pi / 2
    assert left.d_plus_max == 0.8
    assert left.d_minus_max == 0.0


def test_stepwise_spiral_structure():
    """With every shortcut off, spiral point i is active in zone i and the
    fitted direction drifts one asin((1 - 1e-8)/i)/i notch per step."""
    k = 200
    traj = gen_stepwise_adversarial(k, zeta=1.0)
    assert len(traj) == k + 1
    cfg = FitConfig(
        zeta=1.0, opt1=False, opt2=False, opt3=False, opt4=False, opt5=False
    )
    enc = OperbEncoder(cfg, first=traj[0])
    assert enc.push(traj[1]) == []
    theta_1 = enc.fit.fit_theta
    assert theta_1 == 0.0
    assert enc.fit.last_zone == 1
    for i, p in enumerate(traj[2:], start=2):
        assert enc.push(p) == [], i
        assert enc.fit.last_active == p, i
        assert enc.fit.last_zone == i
    drift = abs(enc.fit.fit_theta - theta_1)
    closed = sum(math.asin(1.0 / i) / i for i in range(2, k + 1))
    # the generator's 1e-8 boundary inset shaves a hair off every step
    assert drift == pytest.approx(closed, abs=2e-8)
