"""CSV ingest and emit for trajectory corpora.

Input schema: ``traj_id,t,x,y`` with a header row.  Rows may interleave
trajectories; within one trajectory timestamps must not decrease.  Rows
that repeat the previous timestamp of their trajectory are dropped
(first occurrence wins); a decrease, a non-finite t/x/y or a wrong field
count is a hard error naming the line.  Blank lines are skipped.

Output schema: ``traj_id,seg_index,sx,sy,st,ex,ey,et,covered,patched_start``
with floats printed to 9 significant digits, so files are byte-stable
across runs and platforms.
"""

import csv
import math
from array import array
from itertools import repeat
from typing import Dict, Iterable, List

from .errors import DataError
from .geometry import Point, project_equirectangular
from .onepass import PiecewiseRepresentation

INPUT_COLUMNS = ("traj_id", "t", "x", "y")
OUTPUT_COLUMNS = (
    "traj_id",
    "seg_index",
    "sx",
    "sy",
    "st",
    "ex",
    "ey",
    "et",
    "covered",
    "patched_start",
)

# Rows a trajectory stages before they become Points.  Building a run of
# one trajectory's Points at once keeps them, and their floats, together on
# the heap even when the feed interleaves vehicles; a larger run adds to
# peak memory, since freed staging arrays stay in the malloc heap.
_RUN = 256


def ingest_csv(path: str, geo: bool = False) -> Dict[str, List[Point]]:
    """Load a corpus keyed by traj_id, in order of first appearance.

    With geo=True, x is longitude and y latitude in degrees; each
    trajectory is projected to metres about its own first point.
    """
    corpus: Dict[str, List[Point]] = {}
    last_t: Dict[str, float] = {}
    staged: Dict[str, array] = {}  # x, y, t of rows not yet in corpus
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected header {INPUT_COLUMNS}")
        missing = set(INPUT_COLUMNS) - set(header)
        if missing:
            raise DataError(f"{path}: header is missing columns {sorted(missing)}")
        # A repeated column name resolves to its last occurrence.
        col = {name: i for i, name in enumerate(header)}
        i_id, i_t, i_x, i_y = (col[name] for name in INPUT_COLUMNS)
        width = len(header)
        isfinite = math.isfinite
        full = 3 * _RUN

        def bad_row(problem: str) -> DataError:
            # Physical line numbers, blank lines included, as editors show.
            return DataError(f"{path} row {reader.line_num}: {problem}")

        for row in reader:
            if not row:
                continue  # blank line
            if len(row) != width:
                raise bad_row(f"expected {width} fields")
            traj_id = row[i_id]
            if not traj_id:
                raise bad_row("empty traj_id")
            try:
                t = float(row[i_t])
                x = float(row[i_x])
                y = float(row[i_y])
            except ValueError:
                raise bad_row("non-numeric t/x/y") from None
            if not (isfinite(t) and isfinite(x) and isfinite(y)):
                raise bad_row("non-finite t/x/y")
            prev = last_t.get(traj_id)
            if prev is None:
                corpus[traj_id] = []
                staged[traj_id] = array("d")
            elif t == prev:
                continue
            elif t < prev:
                raise bad_row(
                    f"trajectory {traj_id!r} timestamp {t!r} goes backwards "
                    f"from {prev!r}"
                )
            last_t[traj_id] = t
            buf = staged[traj_id]
            buf.fromlist([x, y, t])
            if len(buf) == full:
                _build(corpus[traj_id], buf)
    if not corpus:
        raise DataError(f"{path}: no data rows")
    for traj_id, buf in staged.items():
        _build(corpus[traj_id], buf)
    if geo:
        corpus = {tid: project_equirectangular(pts) for tid, pts in corpus.items()}
    return corpus


def _build(pts: List[Point], buf: array) -> None:
    """Append buf's x, y, t triples to pts as Points and empty buf."""
    it = iter(buf)
    # tuple.__new__ gives equal Points without NamedTuple's Python __new__.
    pts.extend(map(tuple.__new__, repeat(Point), zip(it, it, it)))
    del buf[:]


def _fmt(v: float) -> str:
    return "%.9g" % v


def emit_segments(reps: Iterable[PiecewiseRepresentation], path: str) -> int:
    """Write one row per output segment; returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OUTPUT_COLUMNS)
        for rep in reps:
            for idx, seg in enumerate(rep.segments):
                writer.writerow(
                    (
                        rep.traj_id,
                        idx,
                        _fmt(seg.start.x),
                        _fmt(seg.start.y),
                        _fmt(seg.start.t),
                        _fmt(seg.end.x),
                        _fmt(seg.end.y),
                        _fmt(seg.end.t),
                        seg.covered,
                        "true" if seg.patched_start else "false",
                    )
                )
                rows += 1
    return rows


def write_corpus(corpus: Dict[str, List[Point]], path: str) -> int:
    """Inverse of ingest_csv for generated data; returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INPUT_COLUMNS)
        for tid, pts in corpus.items():
            for p in pts:
                writer.writerow((tid, _fmt(p.t), _fmt(p.x), _fmt(p.y)))
                rows += 1
    return rows
