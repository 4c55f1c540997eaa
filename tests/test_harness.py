"""Corpus runner: RunConfig checks, compression, and report assembly."""

import json
import math

import pytest

from trajsimp.datagen import gen_grid_route, gen_random_walk
from trajsimp.errors import DataError
from trajsimp.fitting import FitConfig
from trajsimp.harness import (
    ALGORITHMS,
    RunConfig,
    compress_corpus,
    format_report,
    run_compare,
)
from trajsimp.io import write_corpus


@pytest.fixture()
def corpus():
    return {
        "walk": gen_random_walk(150, seed=2),
        "grid": gen_grid_route(150, seed=5, step=10.0),
    }


@pytest.fixture()
def corpus_path(corpus, tmp_path):
    path = tmp_path / "corpus.csv"
    write_corpus(corpus, str(path))
    return str(path)


class TestRunConfig:
    def test_defaults_cover_every_algorithm(self):
        cfg = RunConfig(input="x.csv")
        assert set(cfg.algorithms) == set(ALGORITHMS)
        assert cfg.zeta_list == (5.0, 20.0, 40.0, 100.0)

    @pytest.mark.parametrize(
        "kwargs, msg",
        [
            ({"algorithms": ("operb", "ramer")}, "unknown algorithm"),
            ({"zeta_list": ()}, "zeta_list"),
            ({"opts": (True, False)}, "exactly 5"),
            ({"gamma_m": 4.0}, "gamma_m must be in"),
            ({"zeta_list": (10.0, 5e-324)}, "zeta must be at least 1e-323"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            RunConfig(input="x.csv", **kwargs)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_checks_every_zeta_when_built(self, bad):
        with pytest.raises(ValueError, match="zeta must be finite and > 0"):
            RunConfig(input="/nonexistent.csv", zeta_list=(10.0, bad))

    def test_fit_config_carries_the_toggles(self):
        cfg = RunConfig(
            input="x.csv",
            opts=(True, False, True, False, True),
            gamma_m=math.pi / 6,
        )
        fc = cfg.fit_config(7.5)
        assert fc.zeta == 7.5
        assert (fc.opt1, fc.opt2, fc.opt3, fc.opt4, fc.opt5) == cfg.opts
        assert fc.gamma_m == math.pi / 6


class TestCompressCorpus:
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_a_refused_point_names_its_trajectory(self, algo):
        corpus = {"ok": [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
                  "far": [(0.0, 0.0, 0.0), (1e308, 0.0, 1.0)]}
        with pytest.raises(DataError, match="^trajectory 'far' point 1: coordinate"):
            compress_corpus(corpus, algo, FitConfig(1.0))

    def test_assigns_traj_ids_and_keeps_key_order(self, corpus):
        cfg = RunConfig(input="unused").fit_config(20.0)
        reps = compress_corpus(corpus, "operb", cfg)
        assert list(reps) == ["walk", "grid"]
        assert reps["walk"].traj_id == "walk"
        assert reps["grid"].traj_id == "grid"


class TestRunCompare:
    def test_report_shape(self, corpus, corpus_path):
        cfg = RunConfig(
            input=corpus_path, algorithms=("dp", "operb-a"), zeta_list=(20.0,)
        )
        report = run_compare(cfg)
        assert set(report) == {"corpus", "config", "results"}
        assert report["corpus"]["trajectories"] == 2
        assert report["corpus"]["points"] == 300
        assert report["config"]["opts"] == "11111"
        assert len(report["results"]) == 2
        for entry in report["results"]:
            assert entry["algo"] in ("dp", "operb-a")
            assert entry["zeta"] == 20.0
            assert entry["input_points"] == 300
            assert entry["output_segments"] >= 2
            assert 0.0 < entry["ratio"] < 1.0
            assert entry["max_error"] <= 20.0 * (1 + 1e-9)
            assert entry["avg_error"] <= entry["max_error"]
            assert all(isinstance(k, str) for k in entry["histogram"])
            assert entry["wall_time"] >= 0.0

    def test_reports_ingest_time_outside_the_results(self, corpus_path):
        cfg = RunConfig(input=corpus_path, algorithms=("operb",), zeta_list=(20.0,))
        report = run_compare(cfg)
        ingest_s = report["corpus"]["ingest_s"]
        assert isinstance(ingest_s, float) and ingest_s >= 0.0
        assert "ingest_s" not in report["results"][0]

    def test_written_json_round_trips_to_the_return_value(self, corpus_path, tmp_path):
        out = tmp_path / "r.json"
        cfg = RunConfig(
            input=corpus_path,
            output=str(out),
            algorithms=("operb",),
            zeta_list=(5.0, 40.0),
        )
        report = run_compare(cfg)
        with open(out) as fh:
            assert json.load(fh) == report

    def test_deterministic_apart_from_wall_time(self, corpus_path):
        # ... and apart from the corpus's ingest_s, the other timing.
        cfg = RunConfig(input=corpus_path, algorithms=("fbqs", "operb"))

        def strip(report):
            report["corpus"].pop("ingest_s")
            for entry in report["results"]:
                entry.pop("wall_time")
            return report

        assert strip(run_compare(cfg)) == strip(run_compare(cfg))


class TestFormatReport:
    def test_one_row_per_result_with_aligned_columns(self, corpus_path):
        cfg = RunConfig(
            input=corpus_path, algorithms=("dp", "opw"), zeta_list=(5.0, 20.0)
        )
        text = format_report(run_compare(cfg))
        lines = text.splitlines()
        assert lines[0].split() == [
            "algo", "zeta", "segs", "ratio", "avg_err", "max_err", "patch", "wall_s",
        ]
        assert set(lines[1]) == {"-"}
        assert len(lines) == 2 + 4
        assert lines[2].startswith("dp")
        assert lines[-1].startswith("opw")
