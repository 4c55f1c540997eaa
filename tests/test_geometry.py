"""Planar primitives: the bearing fold and the projection."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trajsimp.baselines import dp_simplify, fbqs_simplify, opw_simplify
from trajsimp.fitting import FitConfig
from trajsimp.geometry import (
    M_PER_DEG_LAT,
    M_PER_DEG_LON,
    TWO_PI,
    norm_angle,
    project_equirectangular,
    rows_view,
)
from trajsimp.harness import ALGORITHMS
from trajsimp.metrics import compute_stats, verify_error_bound
from trajsimp.onepass import simplify

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


def view_of(rows):
    return rows_view(array("d", [v for row in rows for v in row]))


def test_project_equirectangular_scales_about_first_point():
    lat0, lon0 = 40.0, -74.0
    rows = [
        (lon0, lat0, 0.0),
        (lon0 + 0.01, lat0, 1.0),
        (lon0, lat0 + 0.01, 2.0),
    ]
    out = project_equirectangular(view_of(rows))
    assert type(out) is memoryview and len(out) == 3
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0
    kx = M_PER_DEG_LON * math.cos(math.radians(lat0))
    assert out[1, 0] == pytest.approx(0.01 * kx)
    assert out[1, 1] == pytest.approx(0.0, abs=1e-9)
    assert out[2, 1] == pytest.approx(0.01 * M_PER_DEG_LAT)
    assert [row[2] for row in out.tolist()] == [0.0, 1.0, 2.0]


def test_project_equirectangular_one_row_is_the_origin():
    assert project_equirectangular(view_of([(-74.0, 40.0, 5.0)])).tolist() == [
        [0.0, 0.0, 5.0]
    ]


ROWS = [(0.0, 0.0, 0.0), (5.0, 1.0, 1.0), (10.0, -1.0, 2.0), (15.0, 0.0, 3.0)]

# Each reader of a trajectory view, run on traj.
VIEW_READERS = {
    "operb": lambda traj: simplify(traj, FitConfig(zeta=2.0)),
    "dp": lambda traj: dp_simplify(traj, 2.0),
    "opw": lambda traj: opw_simplify(traj, 2.0),
    "fbqs": lambda traj: fbqs_simplify(traj, 2.0),
    "verify": lambda traj: verify_error_bound(simplify(ROWS, FitConfig(zeta=2.0)),
                                              traj, 2.0),
    "stats": lambda traj: compute_stats([simplify(ROWS, FitConfig(zeta=2.0))],
                                        [traj]),
}

# Memoryviews over ROWS's values, or as many, in another layout.
WRONG_LAYOUTS = {
    "float32": lambda: memoryview(np.array(ROWS, dtype=np.float32)),
    "1-D": lambda: memoryview(np.array(ROWS).ravel()),
    "(n, 2)": lambda: memoryview(np.array(ROWS).reshape(-1, 2)),
    "strided": lambda: memoryview(np.repeat(np.array(ROWS), 2, axis=0))[::2],
}


@pytest.mark.parametrize("reader", VIEW_READERS)
@pytest.mark.parametrize("layout", WRONG_LAYOUTS)
def test_a_memoryview_of_another_layout_is_refused(reader, layout):
    """Not read as x, y, t rows: a float32, flat, two-column or strided
    memoryview would give segments over reinterpreted bytes."""
    with pytest.raises(ValueError, match=r"C-contiguous \(n, 3\) memoryview"):
        VIEW_READERS[reader](WRONG_LAYOUTS[layout]())


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_an_empty_view_is_refused_as_an_empty_list_is(algo):
    """A (0, 3) view has no rows to cast; it gets the list's ValueError."""
    compress, cfg = ALGORITHMS[algo], FitConfig(zeta=2.0)
    with pytest.raises(ValueError) as as_list:
        compress([], cfg)
    with pytest.raises(ValueError) as as_view:
        compress(memoryview(np.empty((0, 3))), cfg)
    assert str(as_view.value) == str(as_list.value)


@pytest.mark.parametrize("reader", VIEW_READERS)
def test_a_float64_array_view_reads_as_its_rows(reader):
    read = VIEW_READERS[reader]
    assert read(memoryview(np.array(ROWS))) == read(view_of(ROWS)) == read(ROWS)
