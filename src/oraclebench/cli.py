"""Command-line entry point: simulate games, compute dimensions, run
verification suites, and produce benchmark tables."""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import time
from pathlib import Path

from .adversary import ClassGreedyAdversary, FloodAdversary, FreeAdversary, TernaryAdversary
from .errors import OracleBenchError
from .game import GameConfig, run_game, save_transcript, validate_transcript
from .hypotheses import HypothesisClass, load_class_file
from .learner import CreateAdvancedLearner, PredictLearner, mistake_bound
from .littlestone import SOALearner, find_shattered_tree, format_tree, ldim
from .verification import (
    CheckResult,
    class_greedy_game,
    dimension_classes,
    flood_game,
    ternary_game,
    verify_advanced,
    verify_lower,
    verify_prefix,
    verify_props,
    verify_upper,
)


def _spec_int(spec: str, text: str, least: int) -> int:
    """``text``, part of the command-line spec ``spec``, as an int >= ``least``."""
    if not re.fullmatch("[0-9]+", text) or int(text) < least:
        raise argparse.ArgumentTypeError(f"{spec!r}: {text!r} is not an integer >= {least}")
    return int(text)


@contextlib.contextmanager
def _writing(path: str):
    """Report an output file that cannot be written as a typed error naming it."""
    try:
        yield
    except OSError as exc:
        raise OracleBenchError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Fail before any game is played if ``path`` cannot be written. The
    probe changes no existing file and removes a file it had to create."""
    out = Path(path)
    existed = out.exists()
    with _writing(path):
        out.open("a").close()
        if not existed:
            out.unlink()


def _parse_adversary(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "free":
        return FreeAdversary(), None, None
    if kind in ("flood", "ternary"):
        d = _spec_int(spec, arg, 1)
        return (FloodAdversary if kind == "flood" else TernaryAdversary)(d), d, None
    if kind == "class-greedy":
        if not arg:
            raise argparse.ArgumentTypeError(f"{spec!r}: no class file given")
        c = load_class_file(arg)
        return ClassGreedyAdversary(c), ldim(c), c
    raise argparse.ArgumentTypeError(
        f"unknown adversary {spec!r}; expected flood:<d>, ternary:<d>, "
        f"class-greedy:<classfile>, or free"
    )


def _parse_learner(spec: str, cls: HypothesisClass | None):
    if spec == "predict":
        return PredictLearner()
    if spec == "soa":
        if cls is None:
            raise argparse.ArgumentTypeError("the soa learner needs a class: use a class-greedy adversary")
        return SOALearner(cls)
    kind, _, arg = spec.partition(":")
    if kind == "create-adv":
        return CreateAdvancedLearner(_spec_int(spec, arg, 0))
    raise argparse.ArgumentTypeError(
        f"unknown learner {spec!r}; expected predict, create-adv:<k>, or soa"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    adversary, inferred_d, cls = _parse_adversary(args.adversary)
    learner = _parse_learner(args.learner, cls)
    d = _spec_int(f"--d {args.d}", args.d, 0) if args.d is not None else inferred_d
    cap = _spec_int(f"--cap {args.cap}", args.cap, 1)
    config = GameConfig(d=d, round_cap=cap, seed=args.seed, validation=args.validate)
    if args.out:
        _check_writable(args.out)
    transcript = run_game(learner, adversary, config)
    report = validate_transcript(transcript)
    if args.out:
        with _writing(args.out):
            save_transcript(transcript, args.out)
    status = "ok" if report.passed else f"INVALID ({report.first_failure})"
    status += "".join(f" ({note})" for note in report.notes)
    print(
        f"mistakes={transcript.mistake_count} rounds={len(transcript.rounds)} "
        f"stopped_by={transcript.stopped_by} validation={status}"
        + (f" transcript={args.out}" if args.out else "")
    )
    return 0 if report.passed else 1


def cmd_ldim(args: argparse.Namespace) -> int:
    c = load_class_file(args.classfile)
    dim = ldim(c)
    print(dim)
    if args.certificate and dim >= 1:
        tree = find_shattered_tree(c, dim)
        print(format_tree(tree))
    return 0


# each suite, and the least integer its argument may be; props takes none
_SUITES = {
    "advanced": (lambda k, seed: verify_advanced(k, seed=seed), 0),
    "prefix": (lambda k, seed: verify_prefix(k), 0),
    "lower": (lambda d, seed: verify_lower(d), 1),
    "upper": (lambda d, seed: verify_upper(d, seed=seed), 1),
    "props": (lambda _, seed: verify_props(seed=seed), None),
}


def cmd_verify(args: argparse.Namespace) -> int:
    kind, colon, arg = args.check.partition(":")
    if kind not in _SUITES or (kind == "props" and colon):
        raise argparse.ArgumentTypeError(f"unknown check {args.check!r}; expected advanced:<k>, prefix:<k>, "
                                         f"lower:<d>, upper:<d>, or props")
    suite, least = _SUITES[kind]
    n = None if least is None else _spec_int(args.check, arg, least)
    try:
        results: list[CheckResult] = suite(n, args.seed)
    except MemoryError:  # the machine's limit, not a fault in the code under check: main reports it
        raise
    except Exception as exc:  # a fault in the code under check fails its suite
        print(f"FAIL {args.check}: {type(exc).__name__}: {exc}")
        return 1
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.ok for r in results) else 1


def _bench_cell(learner_spec: str, adversary_spec: str, d: int):
    """One benchmark row of checked names; returns (mistakes, bound, rounds)."""
    if adversary_spec == "class-greedy":
        games = [class_greedy_game(_parse_learner(learner_spec, c), c, d) for c in dimension_classes(d, 0)]
        # create-adv:k plays a prefix of predict's schedule, so it has predict's bound
        bound = d if learner_spec == "soa" else mistake_bound(d)
        return max(t.mistake_count for t in games), bound, sum(len(t.rounds) for t in games)
    if learner_spec == "soa":
        raise OracleBenchError(f"the soa learner needs a class, and {adversary_spec} rows give none")
    ternary = adversary_spec == "ternary"
    t = (ternary_game if ternary else flood_game)(_parse_learner(learner_spec, None), d)
    return t.mistake_count, 3**d if ternary else 2 ** (d + 1) - 1, len(t.rounds)


def cmd_bench(args: argparse.Namespace) -> int:
    lo, dash, hi = args.dims.partition("-")
    spec = f"--dims {args.dims}"
    dims = range(_spec_int(spec, lo, 1), _spec_int(spec, hi if dash else lo, 1) + 1)
    if not dims:
        raise argparse.ArgumentTypeError(f"{spec!r}: the range runs backwards; write the smaller end first")
    learners, adversaries = args.learners.split(","), args.adversaries.split(",")
    # every name is checked before any cell runs; only the pairing decides whether soa has a class
    for learner_spec in learners:
        if learner_spec != "soa":
            _parse_learner(learner_spec, None)
    if unknown := [a for a in adversaries if a not in ("ternary", "flood", "class-greedy")]:
        raise argparse.ArgumentTypeError(f"unknown bench adversary {unknown[0]!r}; "
                                         f"expected ternary, flood, or class-greedy")
    if args.out:
        _check_writable(args.out)
    rows = ["d\tlearner\tadversary\tmistakes\tbound\trounds\truntime_s"]
    failed = False
    for d in dims:
        for learner_spec in learners:
            for adversary_spec in adversaries:
                start = time.perf_counter()
                try:
                    mistakes, bound, rounds = _bench_cell(learner_spec, adversary_spec, d)
                    cells = f"{mistakes}\t{bound}\t{rounds}\t{time.perf_counter() - start:.3f}"
                except OracleBenchError as exc:
                    cells = f"ERROR\t{exc}\t-\t-"
                except MemoryError:  # the cell's game is freed, so the rows before and after it stay
                    cells = "ERROR\tout of memory\t-\t-"
                failed |= cells.startswith("ERROR")
                rows.append(f"{d}\t{learner_spec}\t{adversary_spec}\t{cells}")
    table = "\n".join(rows) + "\n"
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(table)
        print(f"wrote {len(rows) - 1} rows to {args.out}")
    else:
        print(table, end="")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclebench",
        description="Online learning with a consistent oracle: games, "
        "dimensions, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one learner-vs-adversary game")
    sim.add_argument("--learner", required=True, help="predict | create-adv:<k> | soa")
    sim.add_argument("--adversary", required=True,
                     help="flood:<d> | ternary:<d> | class-greedy:<classfile> | free")
    sim.add_argument("--d", default=None, help="declared dimension bound")
    sim.add_argument("--cap", default="1000", help="maximum rounds to play")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="write the transcript here")
    sim.add_argument("--validate", choices=["consistency", "full"], default="consistency")
    sim.set_defaults(func=cmd_simulate)

    dim = sub.add_parser("ldim", help="exact Littlestone dimension of a class file")
    dim.add_argument("classfile")
    dim.add_argument("--certificate", action="store_true",
                     help="also print a shattered tree of maximal depth")
    dim.set_defaults(func=cmd_ldim)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("check", help="advanced:<k> | prefix:<k> | lower:<d> | upper:<d> | props")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="benchmark table over a dimension range")
    bench.add_argument("--dims", default="1-2", help="dimension range, e.g. 1-4")
    bench.add_argument("--learners", default="predict")
    bench.add_argument("--adversaries", default="ternary,flood")
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so that the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OracleBenchError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a game within the round guard can still outgrow a small machine
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
