"""CSV ingest and emit for trajectory corpora.

Input schema: ``traj_id,t,x,y`` with a header row.  Rows may interleave
trajectories; within one trajectory timestamps must not decrease.  Rows
that repeat the previous timestamp of their trajectory are dropped
(first occurrence wins); a decrease, a non-finite t/x/y, a traj_id, t, x
or y that is not UTF-8, a wrong field count or a row the csv module
refuses is a hard error naming the line.  Blank lines are skipped.

``ingest_csv`` keeps each trajectory as one flat float64 buffer and
returns it as a trajectory view (see ``geometry``): an ``(n, 3)``
``memoryview`` of x, y, t rows, 24 bytes per row and no object per row.
``view.tolist()`` gives the rows as lists, ``np.asarray(view)`` an array
over the same memory, and ``view[i, 0]`` the x of row i.

Output schema: ``traj_id,seg_index,sx,sy,st,ex,ey,et,covered,patched_start``
with floats printed to 9 significant digits, so files are byte-stable
across runs and platforms.
"""

import csv
import io
import math
from array import array
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .errors import DataError
from .geometry import Point, columns, project_equirectangular, rows_view
from .onepass import PiecewiseRepresentation, Segment

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
# Everything after traj_id in a row of each schema.
_SEGMENT_LINE = "%d,%s,%s,%d,%s\n"
_VERTEX = "%.9g,%.9g,%.9g"  # sx,sy,st or ex,ey,et
_CORPUS_LINE = "%.9g,%.9g,%.9g\n"


def ingest_csv(path: str, geo: bool = False) -> Dict[str, memoryview]:
    """Load a corpus keyed by traj_id, in order of first appearance; each
    trajectory is an (n, 3) float64 view of its x, y, t rows.

    With geo=True, x is longitude and y latitude in degrees; each
    trajectory is projected to metres about its own first point, and a
    latitude outside [-90, 90] is refused with a DataError naming the
    trajectory and its point.
    """
    bufs: Dict[str, array] = {}  # x, y, t of each trajectory's rows
    try:
        # Bytes that are not UTF-8 decode to lone surrogates, so that they
        # fail the checks below on the line they sit on.
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape",
                  newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        reader = csv.reader(fh)

        def bad_row(problem: str) -> DataError:
            # Physical line numbers, blank lines included, as editors show.
            return DataError(f"{path} row {reader.line_num}: {problem}")

        try:
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
                buf = bufs.get(traj_id)
                if buf is None:
                    try:
                        traj_id.encode("utf-8")
                    except UnicodeEncodeError:
                        raise bad_row("traj_id is not UTF-8") from None
                    bufs[traj_id] = buf = array("d")
                else:
                    prev = buf[-1]  # the trajectory's last timestamp
                    if t == prev:
                        continue
                    if t < prev:
                        raise bad_row(
                            f"trajectory {traj_id!r} timestamp {t!r} goes backwards "
                            f"from {prev!r}"
                        )
                buf.fromlist([x, y, t])
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise bad_row(str(exc)) from None
    if not bufs:
        raise DataError(f"{path}: no data rows")
    corpus = {tid: rows_view(buf) for tid, buf in bufs.items()}
    if geo:
        for tid, view in corpus.items():
            for k, lat in enumerate(columns(view)[1]):
                if not -90.0 <= lat <= 90.0:
                    raise DataError(f"{path}: trajectory {tid!r} point {k}: "
                                    f"latitude {lat!r} is outside [-90, 90]")
        corpus = {tid: project_equirectangular(v) for tid, v in corpus.items()}
    return corpus


def _write_csv(path: str, header: Sequence[str], line: str,
               groups: Iterable[Tuple[str, Iterable[tuple]]]) -> int:
    """Write header, then one line per row of each (traj_id, rows) group:
    the id as csv.writer quotes it, a comma, and ``line % row``; returns
    the row count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        write = fh.write
        for tid, rows in groups:
            # A second, empty field keeps an empty id unquoted, as in a row.
            ids = io.StringIO()
            csv.writer(ids, lineterminator="\n").writerow((tid, ""))
            fmt = ids.getvalue()[:-1].replace("%", "%%") + line
            for count, text in enumerate(map(fmt.__mod__, rows), count + 1):
                write(text)
    return count


def _segment_rows(segments: Iterable[Segment]) -> Iterator[tuple]:
    """The fields of each segment's row, each vertex formatted once: a
    start that is the previous row's end object reuses that row's text."""
    vertex = _VERTEX.__mod__
    end = end_text = None
    for idx, seg in enumerate(segments):
        # Identity, not equality, so -0.0 after 0.0 prints as itself.
        start_text = end_text if seg.start is end else vertex(seg.start)
        end = seg.end
        end_text = vertex(end)
        yield (idx, start_text, end_text, seg.covered,
               "true" if seg.patched_start else "false")


def emit_segments(reps: Iterable[PiecewiseRepresentation], path: str) -> int:
    """Write one row per output segment; returns the row count."""
    groups = ((rep.traj_id, _segment_rows(rep.segments)) for rep in reps)
    return _write_csv(path, OUTPUT_COLUMNS, _SEGMENT_LINE, groups)


def write_corpus(corpus: Dict[str, Sequence[Point]], path: str) -> int:
    """Inverse of ingest_csv, for its views or for lists of points;
    returns the row count. A traj_id that is empty or not UTF-8, which
    ingest_csv refuses, is refused here before the file is opened."""
    for tid in corpus:
        if not tid:
            raise ValueError("empty traj_id")
        try:
            tid.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"traj_id {tid!r} is not UTF-8") from None

    def groups():
        for tid, traj in corpus.items():
            x, y, t = columns(traj)
            yield tid, zip(t, x, y)

    return _write_csv(path, INPUT_COLUMNS, _CORPUS_LINE, groups())
