"""Planar primitives: the bearing fold and the projection."""

import math

import pytest
from hypothesis import given, strategies as st

from trajsimp.geometry import (
    M_PER_DEG_LAT,
    M_PER_DEG_LON,
    TWO_PI,
    norm_angle,
    project_equirectangular,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_norm_angle_folds_into_range():
    assert norm_angle(0.0) == 0.0
    assert norm_angle(TWO_PI) == 0.0
    assert norm_angle(-math.pi) == pytest.approx(math.pi)
    assert norm_angle(5 * math.pi) == pytest.approx(math.pi)


def test_norm_angle_never_returns_two_pi():
    # a tiny negative angle plus 2*pi rounds back to 2*pi in floats;
    # the fold must clamp that case to 0 to keep the range half-open
    assert norm_angle(-1e-18) == 0.0


@given(angles)
def test_norm_angle_range_property(a):
    r = norm_angle(a)
    assert 0.0 <= r < TWO_PI
    # same direction: unit vectors agree
    assert math.cos(r) == pytest.approx(math.cos(a), abs=1e-9)
    assert math.sin(r) == pytest.approx(math.sin(a), abs=1e-9)


def test_project_equirectangular_scales_about_first_point():
    lat0, lon0 = 40.0, -74.0
    rows = [
        (lon0, lat0, 0.0),
        (lon0 + 0.01, lat0, 1.0),
        (lon0, lat0 + 0.01, 2.0),
    ]
    out = project_equirectangular(rows)
    assert out[0].x == 0.0 and out[0].y == 0.0
    kx = M_PER_DEG_LON * math.cos(math.radians(lat0))
    assert out[1].x == pytest.approx(0.01 * kx)
    assert out[1].y == pytest.approx(0.0, abs=1e-9)
    assert out[2].y == pytest.approx(0.01 * M_PER_DEG_LAT)
    assert [p.t for p in out] == [0.0, 1.0, 2.0]


def test_project_equirectangular_empty():
    assert project_equirectangular([]) == []
