"""The benchmark's three workloads and the exact checks on their results.

Each workload is a fixed list of calls into the library, the same calls
that ``oraclebench simulate``, ``verify`` and ``ldim --certificate`` make.
The calls go through ``lib``, a namespace of library functions, so that a
traced run can hand in wrapped versions (see ``bench_tracing``). Every
result is checked against a count stated here as a literal, never against
a value the library computes, so that a wrong library cannot pass its own
check.

All workloads are closed-loop: one caller, each call waits for the last.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from oraclebench import game, littlestone, verification
from oraclebench.adversary import FloodAdversary, FreeAdversary, TernaryAdversary
from oraclebench.game import GameConfig
from oraclebench.learner import CreateAdvancedLearner, PredictLearner

# create_advanced(2) halts after 16 + 16^2 + 16^3 mistakes, having attached
# 2 * 8^3 pairwise-distinct functions.
HALTING_MISTAKES = 4368
HALTING_FUNCTIONS = 1024
# ternary:6 forces 3^6 mistakes; flood:d forces 2^(d+1) - 1, by dimension d.
TERNARY_BOUNDS_D = 6
TERNARY_BOUNDS_MISTAKES = 729
FLOOD_MISTAKES = {1: 3, 2: 7, 3: 15, 4: 31, 5: 63}
# The ternary:4 game reveals 81 functions; as a set they have dimension exactly 4.
TERNARY_DIMENSION_D = 4
TERNARY_DIMENSION_ROUNDS = 81
TERNARY_DIMENSION_LDIM = 4
# advanced:0 enumerates every non-empty subset of 16 functions.
ADVANCED0_SUBSETS = 65535

# The library functions the workloads call, by the module that defines them.
LIBRARY = {
    "run_game": game,
    "save_transcript": game,
    "load_transcript": game,
    "validate_transcript": game,
    "ldim": littlestone,
    "ldim_at_least": littlestone,
    "find_shattered_tree": littlestone,
    "is_shattered": littlestone,
    "verify_upper": verification,
    "verify_lower": verification,
    "verify_advanced": verification,
    "verify_props": verification,
}


def library() -> SimpleNamespace:
    """The untraced library functions the workloads call."""
    return SimpleNamespace(**{name: getattr(module, name) for name, module in LIBRARY.items()})


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def expect(name: str, got: object, want: object) -> Check:
    return Check(name, got == want, f"got {got!r}, want {want!r}")


def suite_checks(suite: str, results) -> list[Check]:
    """Gate a verification suite's CheckResults. A result whose detail says
    "skipped" was not verified, so it counts as failed, never as passed."""
    out = [
        Check(f"{suite}: {r.name}", r.ok and "skipped" not in r.detail.lower(), r.detail)
        for r in results
    ]
    if not out:
        out.append(Check(f"{suite}: results", False, "suite returned no results"))
    return out


def game_checks(name: str, t, *, mistakes: int, rounds: int, stopped_by: str) -> list[Check]:
    return [
        expect(f"{name} mistakes", t.mistake_count, mistakes),
        expect(f"{name} rounds", len(t.rounds), rounds),
        expect(f"{name} stopped_by", t.stopped_by, stopped_by),
    ]


@dataclass
class Outcome:
    """What one workload iteration produced: its checks, and a fingerprint
    that every repetition of the same seed must reproduce exactly."""

    checks: list[Check]
    fingerprint: dict


Step = Callable[[SimpleNamespace, dict], list[Check]]


def _function_record(f) -> tuple:
    return (f.name, tuple(f.domain), tuple(f.values))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# halting: the one long-history workload


def _halting_game(lib, st) -> list[Check]:
    learner = CreateAdvancedLearner(2)
    config = GameConfig(d=None, round_cap=HALTING_MISTAKES + 10, seed=st["seed"])
    t = lib.run_game(learner, FreeAdversary(), config)
    st["played"] = t
    attached = learner.state.active.functions()
    st["mistakes"].append(t.mistake_count)
    return game_checks(
        "halting game", t, mistakes=HALTING_MISTAKES, rounds=HALTING_MISTAKES, stopped_by="learner_halted"
    ) + [
        expect("halting attached functions", len(attached), HALTING_FUNCTIONS),
        expect("halting distinct attached functions", len({h.support for h in attached}), HALTING_FUNCTIONS),
    ]


def _halting_save(lib, st) -> list[Check]:
    path = st["out_dir"] / f"halting-{st['seed']}.jsonl"
    st["path"] = path
    lib.save_transcript(st["played"], path)
    st["transcript_bytes"] = path.stat().st_size
    st["transcript_sha256"] = _sha256(path)
    size = st["transcript_bytes"]
    return [Check("halting transcript written", size > 0, f"{size} bytes")]


def _halting_load(lib, st) -> list[Check]:
    loaded = lib.load_transcript(st["path"])
    st["path"].unlink()
    played = st["played"]
    st["loaded"] = loaded
    return [
        expect("halting loaded config", loaded.config, played.config),
        expect("halting loaded learner", loaded.learner, played.learner),
        expect("halting loaded adversary", loaded.adversary, played.adversary),
        expect("halting loaded stopped_by", loaded.stopped_by, played.stopped_by),
        Check("halting loaded rounds", loaded.rounds == played.rounds, f"{len(loaded.rounds)} rounds"),
        Check(
            "halting loaded functions",
            list(map(_function_record, loaded.functions)) == list(map(_function_record, played.functions)),
            f"{len(loaded.functions)} functions",
        ),
    ]


def _halting_validate(lib, st) -> list[Check]:
    report = lib.validate_transcript(st["loaded"])
    return [
        Check("halting validation", report.passed, report.first_failure or "passed"),
        expect("halting validation checks", report.checks, HALTING_MISTAKES),
    ]


# ----------------------------------------------------------------------
# bounds: many short games on fixed small domains


def _bounds_ternary(lib, st) -> list[Check]:
    n = TERNARY_BOUNDS_MISTAKES
    config = GameConfig(d=TERNARY_BOUNDS_D, round_cap=n + 10, seed=st["seed"])
    t = lib.run_game(PredictLearner(), TernaryAdversary(TERNARY_BOUNDS_D), config)
    st["mistakes"].append(t.mistake_count)
    return game_checks(f"ternary:{TERNARY_BOUNDS_D}", t, mistakes=n, rounds=n, stopped_by="adversary_done")


def _bounds_flood(lib, st) -> list[Check]:
    checks = []
    for d, n in FLOOD_MISTAKES.items():
        config = GameConfig(d=d, round_cap=n + 10, seed=st["seed"])
        t = lib.run_game(PredictLearner(), FloodAdversary(d), config)
        st["mistakes"].append(t.mistake_count)
        checks += game_checks(f"flood:{d}", t, mistakes=n, rounds=n, stopped_by="adversary_done")
    return checks


def _bounds_upper(lib, st) -> list[Check]:
    return suite_checks("upper:1", lib.verify_upper(1, seed=st["seed"]))


def _bounds_lower(lib, st) -> list[Check]:
    return suite_checks("lower:3", lib.verify_lower(3, seed=st["seed"]))


# ----------------------------------------------------------------------
# dimension: the ldim engine, with few game rounds and no transcript I/O


def _dimension_full_game(lib, st) -> list[Check]:
    n = TERNARY_DIMENSION_ROUNDS
    config = GameConfig(d=TERNARY_DIMENSION_D, round_cap=n + 10, seed=st["seed"], validation="full")
    t = lib.run_game(PredictLearner(), TernaryAdversary(TERNARY_DIMENSION_D), config)
    st["revealed"] = t.functions
    st["mistakes"].append(t.mistake_count)
    return game_checks(
        f"ternary:{TERNARY_DIMENSION_D} full validation", t, mistakes=n, rounds=n, stopped_by="adversary_done"
    ) + [expect("revealed functions", len(t.functions), n)]


def _dimension_ldim(lib, st) -> list[Check]:
    return [expect("revealed set ldim", lib.ldim(st["revealed"]), TERNARY_DIMENSION_LDIM)]


def _dimension_at_least(lib, st) -> list[Check]:
    over = TERNARY_DIMENSION_LDIM + 1
    return [expect(f"revealed set ldim_at_least {over}", lib.ldim_at_least(st["revealed"], over), False)]


def _dimension_certificate(lib, st) -> list[Check]:
    tree = lib.find_shattered_tree(st["revealed"], TERNARY_DIMENSION_LDIM)
    ok = tree is not None and lib.is_shattered(tree, st["revealed"])
    detail = "found and independently shattered" if ok else "missing or not shattered"
    return [Check(f"depth-{TERNARY_DIMENSION_LDIM} certificate", ok, detail)]


def _dimension_advanced(lib, st) -> list[Check]:
    results = lib.verify_advanced(0, seed=st["seed"])
    details = [r.detail for r in results if "subset inequality" in r.name]
    return suite_checks("advanced:0", results) + [
        expect("advanced:0 subsets", details, [f"{ADVANCED0_SUBSETS} subsets checked"])
    ]


def _dimension_props(lib, st) -> list[Check]:
    return suite_checks("props", lib.verify_props(seed=st["seed"]))


WORKLOADS: dict[str, tuple[tuple[str, Step], ...]] = {
    "halting": (
        ("game", _halting_game),
        ("save", _halting_save),
        ("load", _halting_load),
        ("validate", _halting_validate),
    ),
    "bounds": (
        ("ternary", _bounds_ternary),
        ("flood", _bounds_flood),
        ("upper", _bounds_upper),
        ("lower", _bounds_lower),
    ),
    "dimension": (
        ("full_game", _dimension_full_game),
        ("ldim", _dimension_ldim),
        ("at_least", _dimension_at_least),
        ("certificate", _dimension_certificate),
        ("advanced", _dimension_advanced),
        ("props", _dimension_props),
    ),
}


def prepare(workload: str, seed: int, out_dir: Path) -> dict:
    """The workload's inputs: everything a step reads that is not the
    output of an earlier step."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    return {"seed": seed, "out_dir": out_dir, "mistakes": []}


def run(workload: str, lib: SimpleNamespace, st: dict, around_step=None) -> Outcome:
    """Run every step of the workload in order. An exception is a failed
    check and ends the iteration, since later steps read earlier results.

    ``around_step(name, call)`` lets a traced run open one span per step.
    """
    checks: list[Check] = []
    for name, step in WORKLOADS[workload]:
        try:
            checks += around_step(name, lambda: step(lib, st)) if around_step else step(lib, st)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check, reported by name
            checks.append(Check(f"{workload} {name} raised", False, f"{type(exc).__name__}: {exc}"))
            break
    fingerprint = {
        "mistakes": st["mistakes"],
        "checks": [[c.name, c.ok] for c in checks],
    }
    if "transcript_sha256" in st:
        fingerprint["transcript_sha256"] = st["transcript_sha256"]
        fingerprint["transcript_bytes"] = st["transcript_bytes"]
    return Outcome(checks, fingerprint)
