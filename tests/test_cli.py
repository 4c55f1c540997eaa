"""End-to-end CLI runs through main(argv), checking exit codes and output."""

import csv
import json
import os

import pytest

from trajsimp.cli import _ALGOS, _KINDS, _parse_opts, main
from trajsimp.datagen import (
    figure_fixture,
    gen_grid_route,
    gen_random_walk,
    gen_stepwise_adversarial,
)
from trajsimp.harness import ALGORITHMS
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

    @pytest.mark.parametrize("n", ["1", "100001"])
    def test_stepwise_n_out_of_range_names_the_flag(self, n, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["gen", "--kind", "stepwise", "--n", n, "--output", str(out)])
        assert rc == 1
        assert "error: --n must be in [2, 100000]" in capsys.readouterr().err
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
        out = tmp_path / "o.csv"
        rc = main(["compress", "--input", str(bad), "--epsilon", "5",
                   "--output", str(out)])
        assert rc == 2
        assert "goes backwards" in capsys.readouterr().err
        assert not out.exists()

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

    def test_bad_epsilon_exits_1_before_reading_the_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        rc = main(["compare", "--input", missing, "--epsilon-list", "10,-1"])
        assert rc == 1
        assert "zeta must be finite and > 0, got -1.0" in capsys.readouterr().err

    def test_empty_epsilon_list_exits_1(self, corpus_csv, capsys):
        rc = main(["compare", "--input", corpus_csv, "--epsilon-list", " , "])
        assert rc == 1
        assert "--epsilon-list is empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv, msg", [
    (["compress", "--epsilon", "5e-324"], "zeta must be at least 1e-323"),
    (["compress", "--epsilon", "5", "--gamma-m", "4"], "gamma_m must be in [0, pi]"),
    (["compare", "--gamma-m", "4"], "gamma_m must be in [0, pi]"),
])
def test_bad_fit_config_exits_1_before_reading_the_input(tmp_path, capsys, argv, msg):
    missing = str(tmp_path / "missing.csv")
    out = ["--output", str(tmp_path / "o.out")]
    assert main(argv + ["--input", missing] + out) == 1
    assert msg in capsys.readouterr().err


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
            "trajsimp.metrics.verify_error_bound", lambda rep, pts, zeta: (False, fake)
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

        monkeypatch.setattr("trajsimp.harness.compress_corpus", boom)
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


def test_far_coordinate_exits_2_naming_trajectory_and_point(tmp_path, capsys):
    path = tmp_path / "far.csv"
    path.write_text("traj_id,t,x,y\nok,0,0,0\na,0,0,0\na,1,1e308,1e308\n")
    for algo in sorted(ALGORITHMS):
        argv = ["verify", "--input", str(path), "--epsilon", "1", "--algo", algo]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: trajectory 'a' point 1: coordinate beyond 1e+100, "
            "the bound zeta can carry\n"
        )


def _random_walk_rows(n=40, offset=0.0, step=5.0):
    return "".join(
        f"w,{p.t!r},{p.x + offset!r},{p.y + offset!r}\n"
        for p in gen_random_walk(n, seed=3, step=step)
    )


# Hostile inputs, each with the --epsilon it runs at.
HOSTILE = {
    "huge": ("a,0,0,0\na,1,1e308,1e308\na,2,-1e308,-1e308\n", "1"),
    "tiny-epsilon": (_random_walk_rows(), "1e-310"),
    # zeta below one ulp of the coordinates: a patch point's rounding
    # would carry operb-a past the bound
    "far-walk-tiny-epsilon": (_random_walk_rows(400, 1e6, 1.0), "1e-12"),
    "one-row": ("a,0,1,2\n", "1"),
    "truncated-quote": ('a,0,0,0\na,1,"1,1,1\na,2,2,2\n', "1"),
    "interleaved": ("a,0,0,0\nb,0,5,5\na,1,1,0\nb,1,5,9\na,2,2,1\nb,2,9,9\n", "1"),
    "long-field": ("a,0,0,0\na,1," + "1" * 131_073 + ",0\n", "1"),
    "not-utf8": (b"a,0,0,0\na,1,\xff\xfe,0\n", "1"),
}


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_gets_a_defined_exit(tmp_path, capsys, name, algo):
    """Exit 0, 2 or 3 and no traceback; output compress writes passes verify."""
    rows, epsilon = HOSTILE[name]
    path = tmp_path / "in.csv"
    if isinstance(rows, bytes):
        path.write_bytes(b"traj_id,t,x,y\n" + rows)
    else:
        path.write_text("traj_id,t,x,y\n" + rows)
    common = ["--input", str(path), "--epsilon", epsilon, "--algo", algo]
    codes = []
    for verb, extra in (("compress", ["--output", str(tmp_path / "segs.csv")]),
                        ("verify", [])):
        codes.append(main([verb] + common + extra))
        assert codes[-1] in (0, 2, 3), verb
        assert "Traceback" not in capsys.readouterr().err
    if codes[0] == 0:
        assert codes[1] == 0


@pytest.mark.parametrize("verb", ["compress", "verify"])
@pytest.mark.parametrize("rows", [
    # A -0.0 offset once broke fbqs's bound (verify exited 3), and equal
    # cross values with different keep flags its clip (compress crashed).
    "a,0,0,0\na,1,-1,-0.0\na,2,-5,3\na,3,-10,0\n",
    "a,0,-0.0,0\na,1,-0.0,0\na,2,60,1e-323\na,3,0,83\n",
], ids=["signed-zero-bearing", "equal-cross-values"])
def test_fbqs_signed_zero_inputs_exit_0(tmp_path, capsys, verb, rows):
    path = tmp_path / "in.csv"
    path.write_text("traj_id,t,x,y\n" + rows)
    argv = [verb, "--input", str(path), "--epsilon", "1", "--algo", "fbqs"]
    if verb == "compress":
        argv += ["--output", str(tmp_path / "segs.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


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


    @pytest.mark.parametrize("verb", ["compress", "compare", "verify"])
    def test_geo_latitude_past_a_pole_exits_2(self, tmp_path, capsys, verb):
        path = tmp_path / "geo.csv"
        path.write_text("traj_id,t,x,y\na,0,0,10\na,1,0.001,1000\n")
        out = tmp_path / "out"
        flag = "--epsilon-list" if verb == "compare" else "--epsilon"
        argv = [verb, "--input", str(path), flag, "5", "--geo"]
        if verb != "verify":
            argv += ["--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "trajectory 'a' point 1: latitude 1000.0 is outside [-90, 90]" in err
        assert not out.exists()


def _refuse_ingest(monkeypatch):
    """Make every CLI route to ingest_csv fail the test if taken."""
    def ingest(*args, **kwargs):
        raise AssertionError("ingest_csv called")

    monkeypatch.setattr("trajsimp.cli.ingest_csv", ingest)
    monkeypatch.setattr("trajsimp.harness.ingest_csv", ingest)


def _argv(verb, corpus_csv):
    if verb == "gen":
        return ["gen", "--kind", "random-walk", "--n", "20"]
    if verb == "compress":
        return ["compress", "--input", corpus_csv, "--epsilon", "20"]
    return ["compare", "--input", corpus_csv, "--epsilon-list", "20"]


@pytest.mark.parametrize("verb", ["gen", "compress", "compare"])
def test_unwritable_output_exits_1_naming_the_path(verb, corpus_csv, tmp_path, capsys,
                                                   monkeypatch):
    out = tmp_path / "missing" / "o.csv"
    _refuse_ingest(monkeypatch)  # compress and compare refuse it up front
    assert main(_argv(verb, corpus_csv) + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("verb", ["gen", "compress", "compare"])
def test_a_full_device_exits_1_naming_the_output(verb, corpus_csv, capsys):
    """A write or close that fails names no file; the error names --output."""
    assert main(_argv(verb, corpus_csv) + ["--output", "/dev/full"]) == 1
    assert capsys.readouterr().err == "error: /dev/full: No space left on device\n"


def test_output_that_is_a_directory_exits_1(corpus_csv, tmp_path, capsys, monkeypatch):
    before = sorted(tmp_path.iterdir())
    _refuse_ingest(monkeypatch)
    for verb in ("compress", "compare"):
        assert main(_argv(verb, corpus_csv) + ["--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    assert sorted(tmp_path.iterdir()) == before


def test_gen_refuses_an_empty_traj_id_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "walk.csv"
    for tid, msg in (
        ("", "empty traj_id"),
        # Bytes in argv that are not UTF-8 arrive as lone surrogates.
        ("\udcff", "traj_id '\\udcff' is not UTF-8"),
    ):
        rc = main(["gen", "--kind", "random-walk", "--n", "5", "--traj-id", tid,
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert not out.exists()


def test_algo_choices_are_the_harness_algorithms():
    # --algo's choices come from a tuple, so parsing needs no numpy.
    assert _ALGOS == tuple(ALGORITHMS)


def test_no_verb_exits_1(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
