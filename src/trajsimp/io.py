"""CSV ingest and emit for trajectory corpora.

Input schema: ``traj_id,t,x,y`` with a header row.  Rows may interleave
trajectories; within one trajectory timestamps must not decrease.  Rows
that repeat the previous timestamp of their trajectory are dropped
(first occurrence wins); a decrease, a non-finite t/x/y, a traj_id, t, x
or y that is not UTF-8, a wrong field count or a row the csv module
refuses is a hard error naming the line.  Blank lines are skipped.

``ingest_csv`` reads the file once, as bytes, a block of about 64 KiB at
a time cut at a line end.  Each block is parsed by one ``np.loadtxt``
call and checked in numpy: widths, finite values, non-empty ids, and
timestamps that rise within each trajectory and above its last one.  A
``\\r\\n`` line end is read as ``\\n``.  The first block that holds a quote,
a ``\\r`` outside a ``\\r\\n``, a NUL, bytes that are not UTF-8, a line
longer than ``csv.field_size_limit()``, a field loadtxt cannot read or a
row that fails a check is not taken; from that block's first line to the
end of the file, ``csv.reader`` and ``float`` read each row and the
checks run row by row, as they always have.  The corpus, and every error
with its text and line number, are the same on either path.

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
from itertools import chain
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

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


# Bytes ingest_csv reads per block, each parsed by one np.loadtxt call;
# see the module docstring. Larger blocks cost peak memory for little speed.
_BLOCK = 1 << 16


def ingest_csv(path: str, geo: bool = False) -> Dict[str, memoryview]:
    """Load a corpus keyed by traj_id, in order of first appearance; each
    trajectory is an (n, 3) float64 view of its x, y, t rows.

    With geo=True, x is longitude and y latitude in degrees; each
    trajectory is projected to metres about its own first point, and a
    latitude outside [-90, 90] is refused with a DataError naming the
    trajectory and its point.

    The blocks go through ``_take_block`` until one is refused; that
    block and the rest of the file go through ``_checked_rows`` (see the
    module docstring).
    """
    bufs: Dict[str, array] = {}  # x, y, t of each trajectory's rows
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        line0, cols, head = _ingest_blocks(path, fh, bufs)
        # Bytes that are not UTF-8 decode to lone surrogates, so that they
        # fail the row checks on the line they sit on. head ends at a line
        # end, so no character or \r\n pair straddles the two parts.
        text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape",
                                newline="")
        lines = chain(io.StringIO(head.decode("utf-8", "surrogateescape"),
                                  newline=""), text)
        _checked_rows(path, lines, line0, cols, bufs)
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


def _header_columns(path: str, header) -> Tuple[int, int, int, int, int]:
    """The positions of traj_id, t, x and y in header, and its width."""
    if header is None:
        raise DataError(f"{path}: empty file, expected header {INPUT_COLUMNS}")
    missing = set(INPUT_COLUMNS) - set(header)
    if missing:
        raise DataError(f"{path}: header is missing columns {sorted(missing)}")
    # A repeated column name resolves to its last occurrence.
    col = {name: i for i, name in enumerate(header)}
    return (*(col[name] for name in INPUT_COLUMNS), len(header))


def _ingest_blocks(path: str, fh, bufs: Dict[str, array]):
    """Take fh's blocks into bufs for as long as each passes _take_block.

    Returns (line0, cols, head): the physical lines taken, the header's
    columns (None if the header was not taken) and the whole lines read
    but not taken, which the row loop reads before the rest of fh; head
    is empty at the end of the file."""
    import numpy as np

    limit = csv.field_size_limit()
    line0, cols, dtype = 0, None, None
    while True:
        block = fh.read(_BLOCK)
        if not block:
            return line0, cols, block
        block += fh.readline()  # up to the next line end
        if cols is None:
            header, nl, rows = block.partition(b"\n")
            text = _text(header + nl)  # with its line end, so \r\n is seen whole
            if text is None or len(text) - len(nl) > limit:
                return 0, None, block
            cols = _header_columns(path, next(csv.reader([text])))
            *named, width = cols
            # Fields by position: a repeated name is read at its last place.
            dtype = np.dtype([(f"c{i}", "f8" if i in named[1:] else object)
                              for i in range(width)])
            line0, block = 1, rows
        taken = _take_block(block, cols, dtype, limit, bufs)
        if taken is None:
            return line0, cols, block
        line0 += taken


def _text(block: bytes) -> Optional[str]:
    """block as text with each \\r\\n read as \\n, or None if it holds a
    quote, a NUL or a \\r that does not open a \\r\\n, which the csv module
    reads in its own way, or bytes that are not UTF-8."""
    if b'"' in block or b"\0" in block:
        return None
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):
            return None
        block = block.replace(b"\r\n", b"\n")
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _take_block(block: bytes, cols, dtype, limit: int,
                bufs: Dict[str, array]) -> Optional[int]:
    """Append block's rows to bufs and return the number of line ends in
    block; or return None, leaving bufs as they were, if a row needs the
    row loop: a line longer than the csv field limit, a field loadtxt
    cannot read, a wrong field count, a non-finite value, an empty
    traj_id, or a timestamp that does not rise above its trajectory's
    last one.

    block is whole lines without quotes, NUL or a lone \\r, so splitting a
    line at its commas gives csv.reader's fields, and loadtxt's float64
    parse takes a subset of what float() takes, to the same value."""
    import numpy as np

    text = _text(block)
    if text is None:
        return None
    lines = text.split("\n")
    del text
    newlines = len(lines) - 1
    rows = len(lines) - lines.count("")  # lines that are not blank
    if not rows:
        return newlines  # loadtxt warns on input with no rows
    if len(block) > limit and max(map(len, lines)) > limit:
        return None
    i_id, i_t, i_x, i_y, _ = cols
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                           ndmin=1)
    except ValueError:
        return None
    del lines
    if len(table) != rows:  # loadtxt skipped a line that csv.reader gives
        return None
    xyt = np.column_stack((table[f"c{i_x}"], table[f"c{i_y}"], table[f"c{i_t}"]))
    if not np.isfinite(xyt).all():
        return None
    ids = table[f"c{i_id}"].tolist()
    del table
    code = dict.fromkeys(ids)  # the block's ids in order of first appearance
    if "" in code:
        return None
    for k, tid in enumerate(code):
        code[tid] = k
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))
    # Each trajectory's rows together, in row order.
    xyt = xyt.take(np.argsort(codes, kind="stable"), axis=0)
    ends = np.cumsum(np.bincount(codes))
    starts = np.concatenate(([0], ends[:-1]))
    t = xyt[:, 2]
    rises = t[1:] > t[:-1]
    rises[ends[:-1] - 1] = True  # the step from one trajectory to the next
    last = [bufs[tid][-1] if tid in bufs else -math.inf for tid in code]
    if not (rises.all() and (t[starts] > last).all()):
        return None
    raw = memoryview(xyt).cast("B")  # 24 bytes a row
    for tid, a, b in zip(code, starts.tolist(), ends.tolist()):
        buf = bufs.get(tid)
        if buf is None:
            bufs[tid] = buf = array("d")
        buf.frombytes(raw[24 * a : 24 * b])
    return newlines


def _checked_rows(path: str, lines: Iterable[str], line0: int, cols,
                  bufs: Dict[str, array]) -> None:
    """Parse lines with csv.reader, checking each row, into bufs.

    line0 physical lines come before lines; cols is the header's columns,
    or None if lines start with the header."""
    reader = csv.reader(lines)

    def bad_row(problem: str) -> DataError:
        # Physical line numbers, blank lines included, as editors show.
        return DataError(f"{path} row {line0 + reader.line_num}: {problem}")

    try:
        if cols is None:
            cols = _header_columns(path, next(reader, None))
        i_id, i_t, i_x, i_y, width = cols
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
    """Write a corpus, its views or lists of points, in ingest_csv's input
    schema; returns the row count.

    t, x and y are printed to 9 significant digits, so ingest_csv reads
    the file back exactly only where 9 digits carry the values (small
    integers, or values already rounded to 9 digits); otherwise it reads
    rounded values, and timestamps that round to one value become
    duplicates, of which it keeps the first. A traj_id that is empty or
    not UTF-8, which ingest_csv refuses, is refused here before the file
    is opened."""
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
