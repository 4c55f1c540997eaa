"""Corpus-level comparison runs and JSON reports.

Compression is timed around the per-trajectory loop only; ingest, stats,
and serialization stay outside that clock.  Ingest is timed on its own.
"""

import json
import time
from dataclasses import asdict, dataclass
from math import pi
from typing import Callable, Dict, Optional, Sequence, Tuple

from .baselines import dp_simplify, fbqs_simplify, opw_simplify
from .errors import DataError
from .fitting import FitConfig
from .geometry import Point
from .metrics import CompressionStats, compute_stats
from .io import ingest_csv
from .onepass import Mode, PiecewiseRepresentation, simplify

Compressor = Callable[[Sequence[Point], FitConfig], PiecewiseRepresentation]

ALGORITHMS: Dict[str, Compressor] = {
    "dp": lambda pts, cfg: dp_simplify(pts, cfg.zeta),
    "opw": lambda pts, cfg: opw_simplify(pts, cfg.zeta),
    "fbqs": lambda pts, cfg: fbqs_simplify(pts, cfg.zeta),
    "operb": lambda pts, cfg: simplify(pts, cfg, Mode.OPERB),
    "operb-a": lambda pts, cfg: simplify(pts, cfg, Mode.OPERB_A),
}


@dataclass(frozen=True)
class RunConfig:
    """One comparison run: which corpus, which algorithms, which bounds."""

    input: str
    output: Optional[str] = None
    algorithms: Tuple[str, ...] = tuple(ALGORITHMS)
    zeta_list: Tuple[float, ...] = (5.0, 20.0, 40.0, 100.0)
    gamma_m: float = pi / 3.0
    opts: Tuple[bool, bool, bool, bool, bool] = (True,) * 5
    geo: bool = False

    def __post_init__(self):
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        if not self.zeta_list:
            raise ValueError("zeta_list must not be empty")
        if len(self.opts) != 5:
            raise ValueError("opts must have exactly 5 entries")
        for zeta in self.zeta_list:
            self.fit_config(zeta)

    def fit_config(self, zeta: float) -> FitConfig:
        o1, o2, o3, o4, o5 = self.opts
        return FitConfig(
            zeta=zeta,
            opt1=o1,
            opt2=o2,
            opt3=o3,
            opt4=o4,
            opt5=o5,
            gamma_m=self.gamma_m,
        )


def compress_corpus(
    corpus: Dict[str, Sequence[Point]],
    algo: str,
    cfg: FitConfig,
) -> Dict[str, PiecewiseRepresentation]:
    """Run algo over each trajectory; a refused point's DataError gains
    the trajectory's id."""
    fn = ALGORITHMS[algo]
    reps = {}
    for tid, pts in corpus.items():
        try:
            rep = fn(pts, cfg)
        except DataError as exc:
            raise DataError(f"trajectory {tid!r} {exc}") from exc
        rep.traj_id = tid
        reps[tid] = rep
    return reps


def _stats_dict(stats: CompressionStats) -> dict:
    d = asdict(stats)
    d["patching_ratio"] = stats.patching_ratio
    # JSON objects key on strings anyway; do it here so the in-memory
    # report equals a round-tripped one.
    d["histogram"] = {str(k): v for k, v in stats.histogram.items()}
    return d


def run_compare(cfg: RunConfig) -> dict:
    """Run every (algorithm, zeta) pair over the corpus and collect stats.

    Returns the report dict; also writes it as JSON when cfg.output is
    set.  Key order in the JSON is sorted, so identical runs produce
    identical bytes except for each result's wall_time and the corpus's
    ingest_s, the seconds ingest took.
    """
    start = time.perf_counter()
    corpus = ingest_csv(cfg.input, geo=cfg.geo)
    ingest_s = time.perf_counter() - start
    trajs = list(corpus.values())
    results = []
    for algo in cfg.algorithms:
        for zeta in cfg.zeta_list:
            fit_cfg = cfg.fit_config(zeta)
            start = time.perf_counter()
            reps = compress_corpus(corpus, algo, fit_cfg)
            wall = time.perf_counter() - start
            stats = compute_stats(list(reps.values()), trajs, wall)
            entry = {"algo": algo, "zeta": zeta}
            entry.update(_stats_dict(stats))
            results.append(entry)
    report = {
        "corpus": {
            "path": cfg.input,
            "trajectories": len(trajs),
            "points": sum(len(t) for t in trajs),
            "ingest_s": ingest_s,
        },
        "config": {
            "algorithms": list(cfg.algorithms),
            "zeta_list": list(cfg.zeta_list),
            "gamma_m": cfg.gamma_m,
            "opts": "".join("1" if o else "0" for o in cfg.opts),
            "geo": cfg.geo,
        },
        "results": results,
    }
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report


def format_report(report: dict) -> str:
    """Fixed-width table of the per-run stats, one row per (algo, zeta)."""
    header = (
        f"{'algo':<8} {'zeta':>8} {'segs':>8} {'ratio':>9} "
        f"{'avg_err':>10} {'max_err':>10} {'patch':>7} {'wall_s':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in report["results"]:
        lines.append(
            f"{r['algo']:<8} {r['zeta']:>8g} {r['output_segments']:>8d} "
            f"{r['ratio']:>9.5f} {r['avg_error']:>10.4g} {r['max_error']:>10.4g} "
            f"{r['patching_ratio']:>7.3f} {r['wall_time']:>8.3f}"
        )
    return "\n".join(lines)
