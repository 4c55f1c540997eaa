"""Planar primitives shared by every simplification algorithm: the point
type, the trajectory buffer and its readers, the bearing fold and the
projection of lon/lat rows to metres.

A trajectory is a sequence of (x, y, t) points (``Point``s, plain tuples
or lists) or, as ``ingest_csv`` returns it, a *trajectory view*: an
``(n, 3)`` float64 ``memoryview`` of x, y, t rows over one ``array("d")``,
with ``len(view) == n``.  A view holds 24 bytes per row and no object per
row; read it with ``view.tolist()``, ``np.asarray(view)`` (no copy) or
``view[i, 0]``.  The three readers below take either form, so each layer
reads a trajectory in the form it needs: ``iter_points`` hands the encoder
a view's rows as plain ``(x, y, t)`` tuples, and the encoder builds a
``Point`` only for a row that becomes a segment endpoint; ``columns`` gives
x, y and t as three lists; ``as_array`` gives the numpy layers (the
baselines, ``metrics`` and ``admits``) one ``(n, 3)`` float64 array.

Each reader first calls ``check_view``, which refuses a memoryview of any
other layout (another format, shape or stride) with ``ValueError`` rather
than reinterpret its bytes as x, y, t rows.  ``admits`` tests a whole view
at once, in numpy, against the encoder's per-point check, so the encoder
can skip that check row by row.  numpy is imported only inside
``as_array`` and ``admits``, so the streaming path runs without it.
"""

import math
from array import array
from itertools import chain
from typing import Iterator, List, NamedTuple, Sequence, Tuple

TWO_PI = 2.0 * math.pi

# Equirectangular scale, metres per degree near the reference latitude.
M_PER_DEG_LON = 111320.0
M_PER_DEG_LAT = 110540.0


class Point(NamedTuple):
    x: float
    y: float
    t: float = 0.0


def rows_view(buf: array) -> memoryview:
    """The trajectory view over buf, an array("d") of x, y, t triples
    holding at least one row."""
    return memoryview(buf).cast("B").cast("d", (len(buf) // 3, 3))


def check_view(traj: Sequence[Point]) -> None:
    """Raise ValueError if traj is a memoryview but not a trajectory view:
    C-contiguous, format "d", shape (n, 3)."""
    if isinstance(traj, memoryview) and not (
        traj.format == "d" and traj.ndim == 2 and traj.shape[1] == 3
        and traj.c_contiguous
    ):
        raise ValueError(
            "a trajectory view must be a C-contiguous (n, 3) memoryview of"
            f" format 'd', got format {traj.format!r}, shape {traj.shape}"
            f"{'' if traj.c_contiguous else ', not C-contiguous'}"
        )


def _flat(view: memoryview) -> memoryview:
    """A trajectory view as one flat run of x, y, t values."""
    check_view(view)
    # cast refuses a shape with a zero in it, so an empty view gets its own.
    return view.cast("B").cast("d") if len(view) else memoryview(array("d"))


def admits(view: memoryview, lim: float) -> bool:
    """Whether every row of view, a trajectory view of at least one row,
    after the first passes the encoder's per-point check: |x| and |y|
    below lim, t above the previous row's t and below inf.

    One numpy pass over the view in place. NaN fails every comparison, so
    a row holding one is not admitted; the first row is the encoder's own
    to check."""
    import numpy as np

    xyt = as_array(view)
    t = xyt[:, 2]
    return bool(
        t[-1] < math.inf
        and (t[1:] > t[:-1]).all()
        and (np.abs(xyt[1:, :2]) < lim).all()
    )


def iter_points(traj: Sequence[Point]) -> Iterator[Tuple[float, float, float]]:
    """traj's points in order, each read once.

    A list or tuple is read by index and any other iterable as it streams;
    a view's rows come out as plain (x, y, t) tuples, not Points.
    """
    if isinstance(traj, memoryview):
        it = iter(_flat(traj))
        return zip(it, it, it)
    if isinstance(traj, (list, tuple)):
        return map(traj.__getitem__, range(len(traj)))
    return iter(traj)


def columns(traj: Sequence[Point]) -> Tuple[List[float], List[float], List[float]]:
    """x, y and t of traj as three lists."""
    if isinstance(traj, memoryview):
        flat = _flat(traj)
        return flat[0::3].tolist(), flat[1::3].tolist(), flat[2::3].tolist()
    pts = list(traj)
    return [p[0] for p in pts], [p[1] for p in pts], [p[2] for p in pts]


def as_array(traj: Sequence[Point]):
    """traj as an (n, 3) float64 numpy array of x, y, t rows: a trajectory
    view read in place, any other sequence copied from ``columns``."""
    import numpy as np

    if isinstance(traj, memoryview):
        check_view(traj)
        return np.asarray(traj)
    return np.array(columns(traj), dtype=np.float64).T


def norm_angle(theta: float) -> float:
    """Fold an angle into [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
        # Adding 2*pi to a tiny negative rounds up to 2*pi itself; keep
        # the result strictly inside the half-open interval.
        if theta >= TWO_PI:
            theta = 0.0
    return theta


def project_equirectangular(view: memoryview) -> memoryview:
    """Map a trajectory view of (lon, lat, t) rows to a view of new rows
    in local metres about the first row.

    x grows east (scaled by cos of the reference latitude), y grows north.
    """
    lons, lats, ts = columns(view)
    lon0, lat0 = lons[0], lats[0]
    kx = M_PER_DEG_LON * math.cos(math.radians(lat0))
    ky = M_PER_DEG_LAT
    xs = [(lon - lon0) * kx for lon in lons]
    ys = [(lat - lat0) * ky for lat in lats]
    return rows_view(array("d", chain.from_iterable(zip(xs, ys, ts))))
