"""Quality metrics over piecewise representations.

The covered counts on consecutive segments share endpoint samples, so the
walk that maps original points back to segments credits each segment with
``covered`` points for the first segment (and for any patched start, whose
shared sample was spent on the patch), and ``covered - 1`` otherwise.  The
walk must consume exactly the input length; anything else means the
representation lies about what it consumed and raises ``InvariantError``.

Distances are measured to the infinite line through a segment, not to the
finite segment body; a zero-length segment falls back to the distance to
its start point.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import InvariantError
from .fitting import check_zeta
from .geometry import Point, as_array
from .onepass import PiecewiseRepresentation

BOUND_SLACK = 1e-9


@dataclass
class CompressionStats:
    """Aggregate results of one algorithm run over a corpus."""

    input_points: int
    output_segments: int
    ratio: float
    avg_error: float
    max_error: float
    wall_time: float = 0.0
    anomalous: int = 0
    patched: int = 0
    histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def patching_ratio(self) -> float:
        if self.anomalous == 0:
            return 0.0
        return self.patched / self.anomalous


def _segment_distances(
    rep: PiecewiseRepresentation, traj: Sequence[Point]
) -> np.ndarray:
    """Distance from every input point to the line of the segment it maps
    to.  The walk assigns boundary samples to the earlier segment; they sit
    on both lines, so the choice does not affect any metric.  Raises
    InvariantError when the covered counts do not add up to len(traj), and
    ValueError for a memoryview that is not a trajectory view."""
    xyt = as_array(traj)  # a trajectory view is read in place
    # One Python pass over the segments walks the covered counts and gathers
    # their line parameters; the rest is whole-array numpy.  The length
    # comes from math.hypot because np.hypot can differ from it in the last
    # bit.
    table: List[float] = []
    idx = 0
    for i, seg in enumerate(rep.segments):
        fresh = seg.covered if (i == 0 or seg.patched_start) else seg.covered - 1
        if fresh < 0:
            raise InvariantError(
                f"segment {i} covers {seg.covered} points but shares its start"
            )
        idx += fresh
        start, end = seg.start, seg.end
        dx = end.x - start.x
        dy = end.y - start.y
        length = math.hypot(dx, dy)
        if length < 2.0 ** -1000:
            # hypot rounds absolutely where (dx, dy) is subnormal, so the
            # chord is scaled first; a power of two scales exactly.
            dx *= 2.0 ** 1000
            dy *= 2.0 ** 1000
            length = math.hypot(dx, dy)
        table += (fresh, start.x, start.y, dx, dy, length)
    if idx != len(xyt):
        raise InvariantError(
            f"covered counts consume {idx} points, input has {len(xyt)}"
        )
    cols = np.array(table, dtype=np.float64).reshape(-1, 6)
    counts = cols[:, 0].astype(np.intp)
    sx, sy, dx, dy, length = (np.repeat(cols[:, k], counts) for k in range(1, 6))
    px = xyt[:, 0] - sx
    py = xyt[:, 1] - sy
    out = np.abs(dx * py - dy * px)
    flat = length == 0.0
    np.divide(out, length, out=out, where=~flat)
    if flat.any():
        out[flat] = np.hypot(px[flat], py[flat])
    return out


def verify_error_bound(
    rep: PiecewiseRepresentation, traj: Sequence[Point], zeta: float
) -> Tuple[bool, List[Tuple[int, float]]]:
    """Check every point against the zeta bound with relative slack 1e-9.

    Returns (ok, violations) where violations lists (point_index, distance).
    Raises ValueError for a zeta that FitConfig refuses.
    """
    check_zeta(zeta)
    dists = _segment_distances(rep, traj)
    limit = zeta * (1.0 + BOUND_SLACK)
    # Written as "not within" so that a NaN distance counts as a violation.
    bad = np.nonzero(~(dists <= limit))[0]
    violations = [(int(i), float(dists[i])) for i in bad]
    return (len(violations) == 0), violations


def compute_stats(
    reps: Sequence[PiecewiseRepresentation],
    trajs: Sequence[Sequence[Point]],
    wall_time: float = 0.0,
) -> CompressionStats:
    """Corpus-level stats; avg_error weights every input point equally."""
    if len(reps) != len(trajs):
        raise ValueError("reps and trajs must pair up")
    total_pts = 0
    total_segs = 0
    err_sum = 0.0
    err_max = 0.0
    anomalous = 0
    patched = 0
    hist: Dict[int, int] = {}
    for rep, traj in zip(reps, trajs):
        dists = _segment_distances(rep, traj)
        total_pts += len(traj)
        total_segs += len(rep.segments)
        err_sum += float(np.sum(dists))
        if len(dists):  # np.max has no identity; an empty pair adds nothing
            err_max = max(err_max, float(np.max(dists)))
        anomalous += rep.anomalous_candidates
        patched += rep.patches
        for seg in rep.segments:
            hist[seg.covered] = hist.get(seg.covered, 0) + 1
    if total_pts == 0:
        raise ValueError("empty corpus")
    return CompressionStats(
        input_points=total_pts,
        output_segments=total_segs,
        ratio=total_segs / total_pts,
        avg_error=err_sum / total_pts,
        max_error=err_max,
        wall_time=wall_time,
        anomalous=anomalous,
        patched=patched,
        histogram=dict(sorted(hist.items())),
    )
