"""CSV ingest/emit: schemas, row errors, and the numeric round trip."""

import csv
import hashlib
import io
import math
import os
import re
import tracemalloc
from array import array
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trajsimp.datagen import gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import FitConfig
from trajsimp.geometry import (
    M_PER_DEG_LAT,
    Point,
    project_equirectangular,
    rows_view,
)
from trajsimp.harness import ALGORITHMS, compress_corpus
from trajsimp.io import (
    _BLOCK,
    INPUT_COLUMNS,
    OUTPUT_COLUMNS,
    emit_segments,
    ingest_csv,
    write_corpus,
)
from trajsimp.metrics import compute_stats, verify_error_bound
from trajsimp.onepass import Mode, PiecewiseRepresentation, Segment, simplify

# sha256 of the files written by test_emitted_bytes_match_the_pinned_digest.
GOLDEN_SHA256 = "b48a20fe052c5d43d4cae293c65004afab8a230b264224041860285a1bb5a242"


def same_bits(got, want):
    """Equal floats with equal signs, so -0.0 differs from 0.0."""
    return all(
        g == w and math.copysign(1.0, g) == math.copysign(1.0, w)
        for g, w in zip(got, want, strict=True)
    )


def write(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestIngest:
    def test_reads_interleaved_trajectories_in_first_seen_order(self, tmp_path):
        path = write(
            tmp_path,
            "traj_id,t,x,y\n"
            "b,0,1,2\n"
            "a,0,5,6\n"
            "b,1,3,4\n",
        )
        corpus = ingest_csv(path)
        assert list(corpus) == ["b", "a"]
        assert corpus["b"].tolist() == [[1, 2, 0], [3, 4, 1]]
        assert corpus["a"].tolist() == [[5, 6, 0]]

    def test_column_order_is_free(self, tmp_path):
        path = write(tmp_path, "y,x,t,traj_id\n2,1,0,a\n")
        assert ingest_csv(path)["a"].tolist() == [[1, 2, 0]]

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            ingest_csv(write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="No such file"):
            ingest_csv(str(tmp_path / "nope.csv"))

    def test_missing_column(self, tmp_path):
        with pytest.raises(DataError, match="missing columns.*'y'"):
            ingest_csv(write(tmp_path, "traj_id,t,x\na,0,1\n"))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(write(tmp_path, "traj_id,t,x,y\n"))

    def test_row_arity_is_checked_both_ways(self, tmp_path):
        with pytest.raises(DataError, match="row 3: expected 4 fields"):
            ingest_csv(write(tmp_path, "traj_id,t,x,y\na,0,1,2\na,1,2\n"))
        with pytest.raises(DataError, match="row 2: expected 4 fields"):
            ingest_csv(write(tmp_path, "traj_id,t,x,y\na,0,1,2,9\n"))

    def test_empty_traj_id(self, tmp_path):
        with pytest.raises(DataError, match="row 2: empty traj_id"):
            ingest_csv(write(tmp_path, "traj_id,t,x,y\n,0,1,2\n"))

    def test_non_numeric(self, tmp_path):
        with pytest.raises(DataError, match="row 2: non-numeric"):
            ingest_csv(write(tmp_path, "traj_id,t,x,y\na,zero,1,2\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("col", ["t", "x", "y"])
    def test_non_finite(self, tmp_path, col, bad):
        values = {"t": "1", "x": "2", "y": "3", col: bad}
        text = "traj_id,t,x,y\na,0,0,0\na,{t},{x},{y}\n".format(**values)
        with pytest.raises(DataError, match="row 3: non-finite t/x/y"):
            ingest_csv(write(tmp_path, text))

    def test_oversized_field_names_its_line(self, tmp_path):
        text = "traj_id,t,x,y\na,0,0,0\na,1," + "1" * 131_073 + ",0\n"
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            ingest_csv(write(tmp_path, text))

    @pytest.mark.parametrize("row, problem", [
        (b"a,1,\xff\xfe,0", "non-numeric t/x/y"),
        (b"\xff\xfe,1,1,0", "traj_id is not UTF-8"),
    ])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, row, problem):
        path = tmp_path / "in.csv"
        path.write_bytes(b"traj_id,t,x,y\na,0,0,0\n" + row + b"\n")
        with pytest.raises(DataError, match=f"row 3: {problem}"):
            ingest_csv(str(path))

    def test_bytes_that_are_not_utf8_in_an_unread_column_are_ignored(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"traj_id,t,x,y,note\na,0,1,2,\xff\xfe\n")
        assert ingest_csv(str(path))["a"].tolist() == [[1, 2, 0]]

    def test_errors_name_the_physical_line(self, tmp_path):
        path = write(tmp_path, "traj_id,t,x,y\na,0,0,0\n\n\na,1,1,1\na,0.5,2,2\n")
        with pytest.raises(DataError, match="row 6: trajectory 'a' timestamp 0.5"):
            ingest_csv(path)
        path = write(tmp_path, "traj_id,t,x,y\r\n\r\na,0,0\r\n", name="crlf.csv")
        with pytest.raises(DataError, match="row 3: expected 4 fields"):
            ingest_csv(path)

    def test_duplicate_timestamp_first_wins(self, tmp_path):
        path = write(tmp_path, "traj_id,t,x,y\na,0,1,1\na,0,9,9\na,1,2,2\n")
        assert ingest_csv(path)["a"].tolist() == [[1, 1, 0], [2, 2, 1]]

    def test_backwards_timestamp(self, tmp_path):
        path = write(tmp_path, "traj_id,t,x,y\na,5,1,1\na,4,2,2\n")
        with pytest.raises(DataError, match="row 3.*goes backwards from 5.0"):
            ingest_csv(path)

    def test_geo_projects_about_each_first_point(self, tmp_path):
        path = write(
            tmp_path,
            "traj_id,t,x,y\n"
            "a,0,-74,40\n"
            "a,1,-74,40.01\n",
        )
        corpus = ingest_csv(path, geo=True)
        assert corpus["a"].tolist()[0] == [0.0, 0.0, 0.0]
        assert corpus["a"][1, 1] == pytest.approx(0.01 * M_PER_DEG_LAT)
        assert corpus["a"][1, 0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("lat", ["1000", "-90.000001", "90.5"])
    def test_geo_refuses_a_latitude_past_a_pole(self, tmp_path, lat):
        # Past a pole cos(lat) folds, scaling or mirroring x without a word.
        path = write(tmp_path, f"traj_id,t,x,y\nb,0,1,2\na,0,-74,40\na,1,-74,{lat}\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: trajectory 'a' point 1: latitude {float(lat)!r} "
                "is outside [-90, 90]")):
            ingest_csv(path, geo=True)
        assert len(ingest_csv(path)["a"]) == 2  # without --geo y is plain y

    def test_geo_takes_the_poles_and_any_longitude(self, tmp_path):
        path = write(tmp_path, "traj_id,t,x,y\na,0,500,-90\na,1,-720,90\n")
        corpus = ingest_csv(path, geo=True)
        assert corpus["a"][1, 1] == pytest.approx(180.0 * M_PER_DEG_LAT)

    def test_geo_corpus_stays_columnar(self, tmp_path):
        """Projecting each trajectory's view gives the numbers, and so the
        segments, that projecting a view of its rows alone and reading the
        result as a list of Points gives."""
        rows = [
            (f"v{k}", float(i), -74.0 + p.x * 1e-5, 40.0 + k + p.y * 1e-5)
            for k in range(3)
            for i, p in enumerate(gen_random_walk(400, seed=20 + k))
        ]
        rows.append(("solo", 3.0, -0.0, 89.5))
        rows.sort(key=lambda r: r[1])  # a feed that interleaves vehicles
        path = TestRowOrder.write_rows(tmp_path, "geo.csv", rows)
        views = ingest_csv(path, geo=True)
        bufs = {}
        for tid, t, x, y in rows:
            bufs.setdefault(tid, array("d")).extend((x, y, t))
        points = {
            tid: [Point(*r) for r in project_equirectangular(rows_view(buf)).tolist()]
            for tid, buf in bufs.items()
        }
        assert list(views) == list(points)
        for tid, pts in points.items():
            assert type(views[tid]) is memoryview
            rows_got = views[tid].tolist()
            assert all(same_bits(r, p) for r, p in zip(rows_got, pts, strict=True))
        for algo in sorted(ALGORITHMS):
            got = compress_corpus(views, algo, FitConfig(10.0))
            assert got == compress_corpus(points, algo, FitConfig(10.0)), algo

    def test_keeps_at_most_32_bytes_per_row(self, tmp_path):
        """An interleaved feed of 8 x 5,000 rows: what ingest keeps is the
        rows' float64 buffers (24 bytes a row) and little else, and what it
        holds on the way is a few blocks' worth, never the whole file."""
        n, vehicles = 5000, 8
        lines = [",".join(INPUT_COLUMNS)]
        for i in range(n):
            for k in range(vehicles):
                lines.append(f"v{k},{i},{i * 1.25 + k!r},{-i / 7!r}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        # The bound on what ingest holds at its peak, next to the file.
        transient = 10 * _BLOCK
        assert os.path.getsize(path) > 2 * transient
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            corpus = ingest_csv(path)
            now, peak = tracemalloc.get_traced_memory()
            kept = now - before
        finally:
            tracemalloc.stop()
        assert sum(map(len, corpus.values())) == n * vehicles
        assert kept <= 32 * n * vehicles, f"{kept / (n * vehicles):.1f} bytes per row"
        assert peak - now <= transient, f"{(peak - now) / _BLOCK:.1f} blocks"


class TestRowOrder:
    """Ingest keeps each trajectory's rows in one buffer; the order of the
    rows may not show, and every layer reads the buffer as it reads the
    same rows given as Points."""

    # Signed zeros and subnormals, which must keep their sign and value.
    ODD = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308)

    def rows(self):
        """(traj_id, t, x, y) of three 1,000-row trajectories and a 1-row one."""
        rows = []
        for k in range(3):
            for i in range(1000):
                x = self.ODD[i % 5] if i % 2 else k * 1000 + i / 3
                y = self.ODD[(i + k) % 5] if i % 3 == 0 else -i / 7
                rows.append((f"v{k}", i + k / 4, x, y))
        rows.append(("solo", 500.5, -0.0, 5e-324))
        return rows

    @staticmethod
    def write_rows(tmp_path, name, rows):
        lines = [",".join(INPUT_COLUMNS)]
        lines += [f"{tid},{t!r},{x!r},{y!r}" for tid, t, x, y in rows]
        return write(tmp_path, "\n".join(lines) + "\n", name)

    def test_grouped_and_interleaved_rows_give_the_same_corpus(self, tmp_path):
        rows = self.rows()
        grouped = ingest_csv(self.write_rows(tmp_path, "grouped.csv", rows))
        feed = sorted(rows, key=lambda r: r[1])
        interleaved = ingest_csv(self.write_rows(tmp_path, "feed.csv", feed))
        assert grouped == interleaved
        assert list(grouped) == list(interleaved) == ["v0", "v1", "v2", "solo"]
        for corpus in (grouped, interleaved):
            assert [len(pts) for pts in corpus.values()] == [1000, 1000, 1000, 1]
            assert all(type(v) is memoryview for v in corpus.values())
            got = [r for view in corpus.values() for r in view.tolist()]
            for (gx, gy, gt), (_, t, x, y) in zip(got, rows):
                assert same_bits((gx, gy, gt), (x, y, t))
        out = tmp_path / "segs.csv"
        for algo in sorted(ALGORITHMS):
            emitted = []
            for corpus in (grouped, interleaved):
                reps = compress_corpus(corpus, algo, FitConfig(10.0))
                emit_segments(reps.values(), str(out))
                emitted.append(out.read_bytes())
            assert emitted[0] == emitted[1], algo

    def test_every_layer_reads_the_view_as_the_points(self, tmp_path):
        """compress_corpus, compute_stats and verify_error_bound give the
        same results, bit for bit, on the ingested views as on the same
        rows as Points, for every algorithm."""
        rows = sorted(self.rows(), key=lambda r: r[1])
        views = ingest_csv(self.write_rows(tmp_path, "feed.csv", rows))
        points = {}
        for tid, t, x, y in rows:
            points.setdefault(tid, []).append(Point(x, y, t))
        for algo in sorted(ALGORITHMS):
            got = compress_corpus(views, algo, FitConfig(10.0))
            want = compress_corpus(points, algo, FitConfig(10.0))
            assert got == want, algo
            for rg, rw in zip(got.values(), want.values()):
                for sg, sw in zip(rg.segments, rw.segments):
                    assert same_bits(sg.start + sg.end, sw.start + sw.end), algo
            stats = compute_stats(list(got.values()), list(views.values()))
            assert stats == compute_stats(list(want.values()), list(points.values()))
            for tid, rep in got.items():
                for zeta in (10.0, 1.0):
                    assert (verify_error_bound(rep, views[tid], zeta)
                            == verify_error_bound(rep, points[tid], zeta))

    def run_then(self, tmp_path, t):
        """256 rows of one trajectory, then a row at t."""
        rows = [("a", float(i), float(i), 0.0) for i in range(256)]
        return self.write_rows(tmp_path, "run.csv", rows + [("a", t, -1.0, -1.0)])

    def test_duplicate_right_after_a_run_is_dropped(self, tmp_path):
        pts = ingest_csv(self.run_then(tmp_path, 255.0))["a"]
        assert pts.tolist() == [[float(i), 0.0, float(i)] for i in range(256)]

    def test_backwards_right_after_a_run_names_its_line(self, tmp_path):
        # Header on line 1, the run on lines 2 .. 257.
        with pytest.raises(DataError, match="row 258: .* goes backwards"):
            ingest_csv(self.run_then(tmp_path, 254.5))


class TestEmit:
    def test_schema_and_patched_flag(self, tmp_path):
        traj = [
            Point(0, 0, 0), Point(1, 0, 1), Point(2, 0, 2),
            Point(3, 1, 3), Point(3, 2, 4), Point(3, 3, 5),
        ]
        rep = simplify(traj, FitConfig(zeta=0.2), Mode.OPERB_A)
        rep.traj_id = "corner"
        out = tmp_path / "segs.csv"
        assert emit_segments([rep], str(out)) == 2
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(OUTPUT_COLUMNS)
        assert [r["traj_id"] for r in rows] == ["corner", "corner"]
        assert [r["seg_index"] for r in rows] == ["0", "1"]
        assert [r["patched_start"] for r in rows] == ["false", "true"]
        assert rows[1]["st"] == "2.5" and rows[1]["covered"] == "3"

    def test_accepts_any_iterable_of_reps(self, tmp_path):
        traj = [Point(0, 0, 0), Point(1, 0, 1)]
        rep = simplify(traj, FitConfig(zeta=1.0))
        one = tmp_path / "one.csv"
        many = tmp_path / "many.csv"
        assert emit_segments([rep], str(one)) == 1
        assert emit_segments((r for r in (rep, rep)), str(many)) == 2

    def test_ids_that_need_quoting_round_trip_and_emit_quoted(self, tmp_path):
        ids = ["a,b", 'say "hi"', "two\nlines"]
        corpus = {tid: [Point(0.0, 0.0, 0.0), Point(1.0, 2.0, 1.0)] for tid in ids}
        path = tmp_path / "corpus.csv"
        assert write_corpus(corpus, str(path)) == 6
        back = ingest_csv(str(path))
        assert list(back) == ids
        for tid in ids:
            assert back[tid].tolist() == [[0.0, 0.0, 0.0], [1.0, 2.0, 1.0]]
        reps = compress_corpus(back, "operb", FitConfig(zeta=1.0))
        out = tmp_path / "segs.csv"
        assert emit_segments(reps.values(), str(out)) == 3
        # csv.writer's minimal quoting: the field in double quotes, an
        # inner double quote doubled, the newline kept inside the quotes.
        row = ",0,0,0,0,1,2,1,2,false\n"
        assert out.read_bytes() == (
            ",".join(OUTPUT_COLUMNS) + "\n"
            + '"a,b"' + row + '"say ""hi"""' + row + '"two\nlines"' + row
        ).encode()

    def test_round_trip_preserves_nine_significant_digits(self, tmp_path):
        corpus = {"w": gen_random_walk(200, seed=12)}
        path = tmp_path / "corpus.csv"
        assert write_corpus(corpus, str(path)) == 200
        back = ingest_csv(str(path))
        assert list(back) == ["w"]
        for orig, (x, y, t) in zip(corpus["w"], back["w"].tolist()):
            assert t == orig.t  # small integers survive exactly
            assert x == pytest.approx(orig.x, rel=1e-8, abs=1e-8)
            assert y == pytest.approx(orig.y, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("name", ["figure_route.csv", "figure_corner.csv", "fleet"])
    def test_ingested_corpus_writes_back_byte_for_byte(self, tmp_path, name):
        """ingest_csv then write_corpus reproduces a file of 9-significant-
        digit rows; an interleaved feed comes back grouped by trajectory,
        as write_corpus writes the same rows given as Points."""
        if name == "fleet":
            fleet = {f"v{k}": gen_grid_route(300, k, step=20.0) for k in range(4)}
            src = tmp_path / "grouped.csv"
            write_corpus(fleet, str(src))
            lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
            # Stable on t, so each trajectory keeps its own row order.
            feed = lines[:1] + sorted(lines[1:], key=lambda r: float(r.split(",")[1]))
            inp = tmp_path / "feed.csv"
            inp.write_text("".join(feed), encoding="utf-8")
            assert inp.read_bytes() != src.read_bytes()
        else:
            src = inp = resources.files("trajsimp").joinpath("data", name)
        out = tmp_path / "out.csv"
        corpus = ingest_csv(str(inp))
        assert write_corpus(corpus, str(out)) == sum(map(len, corpus.values()))
        assert out.read_bytes() == src.read_bytes()

    def test_emitted_files_are_byte_stable(self, tmp_path):
        rep = simplify(gen_random_walk(300, seed=4), FitConfig(zeta=10.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_segments([rep], str(a))
        emit_segments([rep], str(b))
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_emitted_bytes_match_the_pinned_digest(self, tmp_path):
        """Every algorithm's output file, byte for byte, as it was when the
        digest was pinned. A change that moves a single emitted digit fails
        here; update the digest only for an intended change of output."""
        corpus = {f"walk-{s}": gen_random_walk(500, s) for s in range(4)}
        corpus.update(
            {f"route-{s}": gen_grid_route(500, s, step=20.0) for s in range(4)}
        )
        digest = hashlib.sha256()
        out = tmp_path / "segs.csv"
        for algo in sorted(ALGORITHMS):
            for zeta in (10.0, 40.0):
                reps = compress_corpus(corpus, algo, FitConfig(zeta=zeta))
                emit_segments(reps.values(), str(out))
                digest.update(out.read_bytes())
        assert digest.hexdigest() == GOLDEN_SHA256

    def test_empty_traj_id_is_refused_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "corpus.csv"
        with pytest.raises(ValueError, match="empty traj_id"):
            write_corpus({"a": [Point(0.0, 0.0, 0.0)], "": [Point(1.0, 1.0, 0.0)]},
                         str(path))
        assert not path.exists()

    def test_id_that_is_not_utf8_is_refused_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "corpus.csv"
        with pytest.raises(ValueError, match=r"traj_id '\\udcff' is not UTF-8"):
            write_corpus({"a": [Point(0.0, 0.0, 0.0)], "\udcff": [Point(1.0, 1.0, 0.0)]},
                         str(path))
        assert not path.exists()

    def test_input_columns_constant(self):
        assert INPUT_COLUMNS == ("traj_id", "t", "x", "y")


# Ids with every character csv.writer quotes for, a "%" the row format must
# not read, and non-ASCII text; numbers with signed zeros, subnormals, the
# far end of the range and plain integers.
IDS = st.text(
    st.sampled_from(',"\r\n %aü日') | st.characters(exclude_categories=("Cs",)),
    min_size=1, max_size=8,
)
NUMS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**9, max_value=10**9),
)
POINTS = st.builds(Point, NUMS, NUMS, NUMS)
WRITER_SETTINGS = settings(
    max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def csv_writer_bytes(header, rows):
    """What csv.writer makes of header and rows, encoded as the files are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _chain(linked):
    """The segments of (segment, link) pairs, each start replaced by the
    previous segment's end object where link is set, as the encoder
    shares them."""
    segs = []
    for seg, link in linked:
        if link and segs:
            seg.start = segs[-1].end
        segs.append(seg)
    return segs


@WRITER_SETTINGS
@given(st.dictionaries(IDS, st.lists(
    st.tuples(
        st.builds(Segment, POINTS, POINTS, st.integers(1, 10**6), st.booleans()),
        st.booleans(),
    ),
    max_size=4,
).map(_chain), max_size=4))
def test_emit_segments_writes_what_csv_writer_writes(tmp_path, segs_by_id):
    reps = [PiecewiseRepresentation(segs, tid) for tid, segs in segs_by_id.items()]
    rows = [
        [tid, idx, *("%.9g" % v for v in (*s.start, *s.end)), s.covered,
         "true" if s.patched_start else "false"]
        for tid, segs in segs_by_id.items()
        for idx, s in enumerate(segs)
    ]
    out = tmp_path / "segs.csv"
    assert emit_segments(reps, str(out)) == len(rows)
    assert out.read_bytes() == csv_writer_bytes(OUTPUT_COLUMNS, rows)


def test_emit_formats_an_equal_but_distinct_start_as_itself(tmp_path):
    # -0.0 == 0.0, so only an identity test tells the shared vertex apart.
    end = Point(-0.0, 0.0, 1.0)
    segs = [Segment(Point(2.0, 0.0, 0.0), end, 2),
            Segment(Point(0.0, 0.0, 1.0), Point(1.0, 0.0, 2.0), 2),
            Segment(Point(1.0, 0.0, 2.0), end, 3, True)]
    segs.append(Segment(segs[-1].end, Point(5.0, 5.0, 3.0), 2))
    out = tmp_path / "segs.csv"
    assert emit_segments([PiecewiseRepresentation(segs, "a")], str(out)) == 4
    assert out.read_text().splitlines()[1:] == [
        "a,0,2,0,0,-0,0,1,2,false",
        "a,1,0,0,1,1,0,2,2,false",
        "a,2,1,0,2,-0,0,1,3,true",
        "a,3,-0,0,1,5,5,3,2,false",
    ]


@WRITER_SETTINGS
@given(st.dictionaries(IDS, st.lists(POINTS, min_size=1, max_size=4), max_size=4))
def test_write_corpus_writes_what_csv_writer_writes(tmp_path, corpus):
    rows = [
        [tid, *("%.9g" % v for v in (p.t, p.x, p.y))]
        for tid, pts in corpus.items()
        for p in pts
    ]
    out = tmp_path / "corpus.csv"
    assert write_corpus(corpus, str(out)) == len(rows)
    assert out.read_bytes() == csv_writer_bytes(INPUT_COLUMNS, rows)
