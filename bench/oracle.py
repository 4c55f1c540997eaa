"""Output oracle that trusts nothing the encoder reports about itself.

A representation is a sequence of segments, each a tuple
``(sx, sy, st, ex, ey, et, covered, patched_start)``.  ``check`` tests it
against the input points of one trajectory on three counts:

* chain: the first segment starts at the first input point, the last ends
  at the last input point, and each segment ends exactly (x, y and t) where
  the next one starts;
* bound: every input point is assigned to a segment and lies within
  zeta * (1 + 1e-9) of that segment's line (of its start point when the
  segment has zero length);
* counts: the ``covered`` counts add up to n under the shared-endpoint rule
  (the first segment and a patched start count ``covered`` fresh points,
  every other segment ``covered - 1``).

With ``by_time=True`` (the default) a point goes to the segment whose
``[st, et]`` span holds its timestamp, a point on a shared endpoint to the
later segment, and each segment's fresh count must equal the number of
points that assignment gives it.  With ``by_time=False`` the points are
walked out in index order by the fresh counts instead, which is what the
encoder's own bookkeeping claims.

Only numpy and the standard library are used, so the oracle stays
independent of the package's ``metrics`` module.
"""

from typing import List, Sequence, Tuple

import numpy as np

SLACK = 1e-9

Seg = Tuple[float, float, float, float, float, float, int, bool]


def segments_of(rep_segments) -> List[Seg]:
    """Plain tuples from the package's Segment objects."""
    return [
        (s.start.x, s.start.y, s.start.t, s.end.x, s.end.y, s.end.t, s.covered, s.patched_start)
        for s in rep_segments
    ]


def check_chain(xs, ys, ts, segs: Sequence[Seg]) -> List[str]:
    if not segs:
        return ["no segments"]
    problems = []
    if tuple(segs[0][0:3]) != (xs[0], ys[0], ts[0]):
        problems.append(f"first segment starts at {segs[0][0:3]}, not the first point")
    if tuple(segs[-1][3:6]) != (xs[-1], ys[-1], ts[-1]):
        problems.append(f"last segment ends at {segs[-1][3:6]}, not the last point")
    for i in range(len(segs) - 1):
        if tuple(segs[i][3:6]) != tuple(segs[i + 1][0:3]):
            problems.append(f"gap between segment {i} and {i + 1}")
            break
    return problems


def check(xs, ys, ts, segs: Sequence[Seg], zeta: float, by_time: bool = True) -> List[str]:
    """All problems found with one trajectory's representation; [] if none."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    n = len(xs)
    problems = check_chain(xs, ys, ts, segs)
    if problems:
        return problems
    a = np.array([s[0:6] for s in segs], dtype=np.float64)
    sx, sy, st, ex, ey, et = a.T
    covered = np.array([s[6] for s in segs], dtype=np.int64)
    patched = np.array([bool(s[7]) for s in segs])
    if np.any(et < st) or np.any(st[1:] < st[:-1]):
        return ["segment times run backwards"]

    fresh = np.where(patched, covered, covered - 1)
    fresh[0] = covered[0]
    if np.any(fresh < 0):
        problems.append("a segment covers fewer points than its shared start")
    if int(fresh.sum()) != n:
        problems.append(f"covered counts add up to {int(fresh.sum())}, input has {n}")

    if by_time:
        owner = np.searchsorted(st, ts, side="right") - 1
        if np.any(owner < 0) or np.any(ts > et[np.maximum(owner, 0)]):
            return problems + ["a point lies outside every segment's time span"]
        per_seg = np.bincount(owner, minlength=len(segs))
        # A point on a shared endpoint went to the later segment; the rule
        # credits it to the earlier one, which is where its fresh count is.
        shared = np.isin(st[1:], ts) & ~patched[1:]
        per_seg[:-1] += shared
        per_seg[1:] -= shared
        if not np.array_equal(per_seg, fresh):
            wrong = int(np.count_nonzero(per_seg != fresh))
            problems.append(f"{wrong} segments' covered counts disagree with their time spans")
    else:
        if problems:
            return problems
        owner = np.repeat(np.arange(len(segs)), fresh)

    dx = (ex - sx)[owner]
    dy = (ey - sy)[owner]
    px = xs - sx[owner]
    py = ys - sy[owner]
    length = np.hypot(dx, dy)
    on_line = np.abs(dx * py - dy * px) / np.where(length == 0.0, 1.0, length)
    dist = np.where(length == 0.0, np.hypot(px, py), on_line)
    bad = np.nonzero(dist > zeta * (1.0 + SLACK))[0]
    if len(bad):
        problems.append(
            f"{len(bad)} points beyond zeta={zeta:g}, worst {float(dist.max()):.6g} at point {int(bad[0])}"
        )
    return problems
