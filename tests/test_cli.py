"""End-to-end CLI runs through main(argv), checking exit codes and output."""

import csv
import json

import pytest

from trajsimp.cli import _KINDS, _parse_opts, main
from trajsimp.datagen import (
    figure_fixture,
    gen_grid_route,
    gen_random_walk,
    gen_stepwise_adversarial,
)
from trajsimp.io import OUTPUT_COLUMNS, write_corpus


@pytest.fixture()
def corpus_csv(tmp_path):
    """A small two-kind corpus written through the gen verb itself."""
    path = tmp_path / "corpus.csv"
    assert main([
        "gen", "--kind", "grid-route", "--n", "120", "--seed", "7",
        "--step", "10", "--output", str(path),
    ]) == 0
    return str(path)


class TestParseOpts:
    def test_accepts_five_binary_chars(self):
        assert _parse_opts("10110") == (True, False, True, True, False)
        assert _parse_opts("00000") == (False,) * 5

    @pytest.mark.parametrize("bad", ["", "1111", "111111", "1012a", "yes"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError, match="--opts wants 5 chars"):
            _parse_opts(bad)


class TestGen:
    def test_writes_ingestible_csv(self, tmp_path, capsys):
        out = tmp_path / "walk.csv"
        rc = main(["gen", "--kind", "random-walk", "--n", "50", "--seed", "3",
                   "--output", str(out)])
        assert rc == 0
        assert f"wrote 50 points to {out}" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["traj_id", "t", "x", "y"]
        assert len(rows) == 51

    # gen's kinds in --kind order, each with the call it must make for
    # --n 12 --seed 1 --step 2.5 --epsilon 3
    KIND_CALLS = [
        ("random-walk", lambda: gen_random_walk(12, 1, 2.5)),
        ("grid-route", lambda: gen_grid_route(12, 1, 2.5)),
        ("stepwise", lambda: gen_stepwise_adversarial(12, 3.0)),
        ("figure-route", lambda: figure_fixture("route")),
        ("figure-corner", lambda: figure_fixture("corner")),
    ]

    def test_kinds_keep_their_order(self):
        assert list(_KINDS) == [kind for kind, _ in self.KIND_CALLS]

    @pytest.mark.parametrize("kind, call", KIND_CALLS, ids=[k for k, _ in KIND_CALLS])
    def test_every_kind_writes_its_generator_output(self, kind, call, tmp_path):
        out = tmp_path / "gen.csv"
        ref = tmp_path / "ref.csv"
        assert main(["gen", "--kind", kind, "--n", "12", "--seed", "1", "--step",
                     "2.5", "--epsilon", "3", "--output", str(out)]) == 0
        write_corpus({"0": call()}, str(ref))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("kind", ["random-walk", "grid-route"])
    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-5"])
    def test_bad_step_exits_1(self, kind, step, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["gen", "--kind", kind, f"--step={step}", "--output", str(out)])
        assert rc == 1
        assert "error: step must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--kind", "spline", "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err


class TestCompress:
    def test_produces_segment_rows_and_a_summary(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "segs.csv"
        rc = main(["compress", "--input", corpus_csv, "--epsilon", "20",
                   "--algo", "operb-a", "--output", str(out)])
        assert rc == 0
        assert "operb-a: 1 trajectories, 120 points" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(OUTPUT_COLUMNS)
        assert 2 <= len(rows) - 1 < 120

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["compress", "--input", str(tmp_path / "absent.csv"),
                   "--epsilon", "5", "--output", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("traj_id,t,x,y\na,5,0,0\na,4,1,1\n")
        rc = main(["compress", "--input", str(bad), "--epsilon", "5",
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "goes backwards" in capsys.readouterr().err

    def test_bad_opts_exit_1(self, corpus_csv, tmp_path, capsys):
        rc = main(["compress", "--input", corpus_csv, "--epsilon", "5",
                   "--opts", "abc", "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "--opts wants 5 chars" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["compress", "--epsilon", "5", "--output", "o.csv"]) == 1
        assert "--input" in capsys.readouterr().err


class TestCompare:
    def test_table_plus_json_report(self, corpus_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["compare", "--input", corpus_csv,
                   "--epsilon-list", "5,20", "--algo", "dp", "--algo", "operb",
                   "--output", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algo" in out and "wall_s" in out
        assert f"report written to {report_path}" in out
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["corpus"]["points"] == 120
        assert report["config"]["opts"] == "11111"
        assert [(r["algo"], r["zeta"]) for r in report["results"]] == [
            ("dp", 5.0), ("dp", 20.0), ("operb", 5.0), ("operb", 20.0),
        ]
        for r in report["results"]:
            assert r["max_error"] <= r["zeta"] * (1 + 1e-9)

    def test_default_runs_every_algorithm(self, corpus_csv, capsys):
        rc = main(["compare", "--input", corpus_csv, "--epsilon-list", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("dp", "opw", "fbqs", "operb", "operb-a"):
            assert name in out

    def test_empty_epsilon_list_exits_1(self, corpus_csv, capsys):
        rc = main(["compare", "--input", corpus_csv, "--epsilon-list", " , "])
        assert rc == 1
        assert "--epsilon-list is empty" in capsys.readouterr().err


class TestVerify:
    def test_clean_corpus_passes(self, corpus_csv, capsys):
        rc = main(["verify", "--input", corpus_csv, "--epsilon", "20",
                   "--algo", "operb-a"])
        assert rc == 0
        assert "ok: all 120 points within 20 (operb-a)" in capsys.readouterr().out

    def test_violations_exit_3(self, corpus_csv, capsys, monkeypatch):
        # The shipped algorithms never break their own bound, so fake a
        # checker that reports violations to exercise the failure path.
        fake = [(i, 99.5) for i in range(8)]
        monkeypatch.setattr(
            "trajsimp.cli.verify_error_bound", lambda rep, pts, zeta: (False, fake)
        )
        rc = main(["verify", "--input", corpus_csv, "--epsilon", "20"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FAIL: 8 points exceed the bound" in err
        assert err.count("exceeds 20") == 5  # only the first five are itemized

    def test_invariant_errors_exit_3(self, corpus_csv, capsys, monkeypatch):
        from trajsimp.errors import InvariantError

        def boom(*a, **kw):
            raise InvariantError("segment accounting is off")

        monkeypatch.setattr("trajsimp.cli.compress_corpus", boom)
        rc = main(["verify", "--input", corpus_csv, "--epsilon", "20"])
        assert rc == 3
        assert "invariant violated" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize("verb", ["compress", "verify"])
    @pytest.mark.parametrize("algo", ["dp", "opw", "fbqs", "operb"])
    def test_nan_coordinate_exits_2(self, tmp_path, capsys, verb, algo):
        path = tmp_path / "nan.csv"
        path.write_text("traj_id,t,x,y\na,0,0,0\na,1,nan,1\na,2,2,0\na,3,3,1\n")
        out = tmp_path / "segs.csv"
        argv = [verb, "--input", str(path), "--epsilon", "1", "--algo", algo]
        if verb == "compress":
            argv += ["--output", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "row 3: non-finite t/x/y" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestGeo:
    def test_geo_flag_projects_degrees_before_compressing(self, tmp_path, capsys):
        path = tmp_path / "geo.csv"
        path.write_text(
            "traj_id,t,x,y\n"
            "a,0,-73.99,40.75\n"
            "a,1,-73.99,40.7501\n"
            "a,2,-73.9899,40.7502\n"
        )
        rc = main(["verify", "--input", str(path), "--epsilon", "5", "--geo"])
        assert rc == 0
        assert "ok: all 3 points" in capsys.readouterr().out


def test_no_verb_exits_1(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
