"""Command-line front end.

Verbs: gen (synthetic corpora), compress (one algorithm to a segments
CSV), compare (stats table / JSON report across algorithms), verify
(recheck the error bound on the output mapping).

Exit codes: 0 success, 1 usage error (an --output that cannot be written
included), 2 bad input data, 3 violated guarantee (including a failed
verify).

compress, compare and verify import the batch layers (``harness``,
``baselines``, ``metrics``) when they run, so ``--help`` and gen's
synthetic kinds start without them or numpy.
"""

import argparse
import errno
import os
import sys
from math import pi

from .datagen import (
    STEPWISE_MAX_K,
    figure_fixture,
    gen_grid_route,
    gen_random_walk,
    gen_stepwise_adversarial,
)
from .errors import DataError, InvariantError
from .io import emit_segments, ingest_csv, write_corpus

# The names of harness.ALGORITHMS, in its order, without importing it.
_ALGOS = ("dp", "opw", "fbqs", "operb", "operb-a")


def _gen_stepwise(a):
    # --n is the spiral's step count k; name the flag, not the parameter.
    if not 2 <= a.n <= STEPWISE_MAX_K:
        raise ValueError(f"--n must be in [2, {STEPWISE_MAX_K}] for stepwise")
    return gen_stepwise_adversarial(a.n, a.epsilon)


# gen's kinds; each reads only the flags it uses.
_KINDS = {
    "random-walk": lambda a: gen_random_walk(a.n, a.seed, a.step),
    "grid-route": lambda a: gen_grid_route(a.n, a.seed, a.step),
    "stepwise": _gen_stepwise,
    "figure-route": lambda a: figure_fixture("route"),
    "figure-corner": lambda a: figure_fixture("corner"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for bad data.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _print_message(self, message, file=None):
        # argparse drops a failed write, so help sent to a full disk would
        # exit 0 having printed nothing; on standard output, raise it.
        if file is sys.stdout:
            _say(message, end="")
        else:
            super()._print_message(message, file)


def _parse_opts(text: str) -> tuple:
    if len(text) != 5 or any(c not in "01" for c in text):
        raise ValueError(f"--opts wants 5 chars of 0/1, got {text!r}")
    return tuple(c == "1" for c in text)


def _add_common(p: argparse.ArgumentParser, multi_epsilon: bool = False):
    p.add_argument("--input", required=True, help="corpus CSV (traj_id,t,x,y)")
    if multi_epsilon:
        p.add_argument(
            "--epsilon-list",
            default="5,20,40,100",
            help="comma-separated error bounds (default: 5,20,40,100)",
        )
    else:
        p.add_argument("--epsilon", type=float, required=True, help="error bound")
    p.add_argument("--gamma-m", type=float, default=pi / 3.0, help="min patch turn angle")
    p.add_argument("--opts", default="11111", help="optimization toggles, e.g. 10110")
    p.add_argument("--geo", action="store_true", help="x,y are lon,lat degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajsimp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="write a synthetic trajectory CSV")
    g.add_argument("--kind", required=True, choices=list(_KINDS))
    g.add_argument("--n", type=int, default=1000, help="points (steps for stepwise)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--step", type=float, default=5.0)
    g.add_argument("--epsilon", type=float, default=1.0, help="zeta for stepwise")
    g.add_argument("--traj-id", default="0")
    g.add_argument("--output", required=True)
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("compress", help="compress a corpus to a segments CSV")
    _add_common(c)
    c.add_argument("--algo", default="operb", choices=sorted(_ALGOS))
    c.add_argument("--output", required=True, help="segments CSV path")
    c.set_defaults(func=_cmd_compress)

    m = sub.add_parser("compare", help="stats across algorithms and bounds")
    _add_common(m, multi_epsilon=True)
    m.add_argument(
        "--algo",
        action="append",
        choices=sorted(_ALGOS),
        help="repeatable; default: all algorithms",
    )
    m.add_argument("--output", help="JSON report path")
    m.set_defaults(func=_cmd_compare)

    v = sub.add_parser("verify", help="recheck the error bound point by point")
    _add_common(v)
    v.add_argument("--algo", default="operb", choices=sorted(_ALGOS))
    v.set_defaults(func=_cmd_verify)
    return parser


def _say(text: str, end: str = "\n") -> None:
    """Print text to standard output. A failed write, as on a full disk,
    raises an OSError that names standard output rather than no file."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, "standard output") from exc


def _cmd_gen(args) -> int:
    pts = _KINDS[args.kind](args)
    rows = write_corpus({args.traj_id: pts}, args.output)
    _say(f"wrote {rows} points to {args.output}")
    return 0


def _run_config(args, zetas, output=None):
    from .harness import RunConfig

    return RunConfig(
        input=args.input,
        output=output,
        algorithms=tuple([args.algo] if isinstance(args.algo, str) else args.algo),
        zeta_list=tuple(zetas),
        gamma_m=args.gamma_m,
        opts=_parse_opts(args.opts),
        geo=args.geo,
    )


def _check_output(path: str) -> None:
    """Refuse an --output that open() would refuse, before any work: one
    in a missing directory or one that is a directory. Nothing is created,
    so a run that then fails on its input leaves no file behind."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _ingest_and_compress(args):
    from .harness import compress_corpus

    cfg = _run_config(args, [args.epsilon])
    corpus = ingest_csv(cfg.input, geo=cfg.geo)
    return corpus, compress_corpus(corpus, args.algo, cfg.fit_config(args.epsilon))


def _cmd_compress(args) -> int:
    from .metrics import compute_stats

    _check_output(args.output)
    corpus, reps = _ingest_and_compress(args)
    rows = emit_segments(reps.values(), args.output)
    stats = compute_stats(list(reps.values()), list(corpus.values()))
    _say(
        f"{args.algo}: {len(corpus)} trajectories, {stats.input_points} points "
        f"-> {rows} segments (ratio {stats.ratio:.5f}) in {args.output}"
    )
    return 0


def _cmd_compare(args) -> int:
    from .harness import format_report, run_compare

    if args.algo is None:
        args.algo = list(_ALGOS)
    zetas = [float(s) for s in args.epsilon_list.split(",") if s.strip()]
    if not zetas:
        raise ValueError("--epsilon-list is empty")
    if args.output:
        _check_output(args.output)
    report = run_compare(_run_config(args, zetas, output=args.output))
    _say(format_report(report))
    if args.output:
        _say(f"report written to {args.output}")
    return 0


def _cmd_verify(args) -> int:
    from .metrics import verify_error_bound

    corpus, reps = _ingest_and_compress(args)
    bad_total = 0
    for tid, pts in corpus.items():
        ok, violations = verify_error_bound(reps[tid], pts, args.epsilon)
        if not ok:
            bad_total += len(violations)
            for idx, dist in violations[:5]:
                print(
                    f"trajectory {tid!r} point {idx}: distance {dist:.6g} "
                    f"exceeds {args.epsilon:g}",
                    file=sys.stderr,
                )
    if bad_total:
        print(f"FAIL: {bad_total} points exceed the bound", file=sys.stderr)
        return 3
    total = sum(len(p) for p in corpus.values())
    _say(f"ok: all {total} points within {args.epsilon:g} ({args.algo})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # help or usage that _say could not write
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # ingest reports its own as DataError
        # A failed write or close of --output, as on a full disk, names no
        # file; _say names standard output in its own.
        path = exc.filename
        if path is None:
            path = getattr(args, "output", None)
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
