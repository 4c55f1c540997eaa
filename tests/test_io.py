"""CSV ingest/emit: schemas, row errors, and the numeric round trip."""

import csv
import hashlib
import math

import pytest

from trajsimp.datagen import gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import FitConfig
from trajsimp.geometry import M_PER_DEG_LAT, Point
from trajsimp.harness import ALGORITHMS, compress_corpus
from trajsimp.io import (
    INPUT_COLUMNS,
    OUTPUT_COLUMNS,
    emit_segments,
    ingest_csv,
    write_corpus,
)
from trajsimp.onepass import Mode, simplify

# sha256 of the files written by test_emitted_bytes_match_the_pinned_digest.
GOLDEN_SHA256 = "b48a20fe052c5d43d4cae293c65004afab8a230b264224041860285a1bb5a242"


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
        assert corpus["b"] == [Point(1, 2, 0), Point(3, 4, 1)]
        assert corpus["a"] == [Point(5, 6, 0)]

    def test_column_order_is_free(self, tmp_path):
        path = write(tmp_path, "y,x,t,traj_id\n2,1,0,a\n")
        assert ingest_csv(path)["a"] == [Point(1, 2, 0)]

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

    def test_errors_name_the_physical_line(self, tmp_path):
        path = write(tmp_path, "traj_id,t,x,y\na,0,0,0\n\n\na,1,1,1\na,0.5,2,2\n")
        with pytest.raises(DataError, match="row 6: trajectory 'a' timestamp 0.5"):
            ingest_csv(path)
        path = write(tmp_path, "traj_id,t,x,y\r\n\r\na,0,0\r\n", name="crlf.csv")
        with pytest.raises(DataError, match="row 3: expected 4 fields"):
            ingest_csv(path)

    def test_duplicate_timestamp_first_wins(self, tmp_path):
        path = write(tmp_path, "traj_id,t,x,y\na,0,1,1\na,0,9,9\na,1,2,2\n")
        assert ingest_csv(path)["a"] == [Point(1, 1, 0), Point(2, 2, 1)]

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
        assert corpus["a"][0] == Point(0.0, 0.0, 0.0)
        assert corpus["a"][1].y == pytest.approx(0.01 * M_PER_DEG_LAT)
        assert corpus["a"][1].x == pytest.approx(0.0, abs=1e-9)


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

    def test_round_trip_preserves_nine_significant_digits(self, tmp_path):
        corpus = {"w": gen_random_walk(200, seed=12)}
        path = tmp_path / "corpus.csv"
        assert write_corpus(corpus, str(path)) == 200
        back = ingest_csv(str(path))
        assert list(back) == ["w"]
        for orig, rt in zip(corpus["w"], back["w"]):
            assert rt.t == orig.t  # small integers survive exactly
            assert rt.x == pytest.approx(orig.x, rel=1e-8, abs=1e-8)
            assert rt.y == pytest.approx(orig.y, rel=1e-8, abs=1e-8)

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

    def test_input_columns_constant(self):
        assert INPUT_COLUMNS == ("traj_id", "t", "x", "y")
