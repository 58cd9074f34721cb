"""Tests of the benchmark itself: its gate, its metric names, and that
tracing leaves the program's results unchanged.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_tracing  # noqa: E402
import bench_workloads  # noqa: E402
from oraclebench import game, learner  # noqa: E402
from oraclebench.adversary import ClassGreedyAdversary, FreeAdversary, TernaryAdversary  # noqa: E402
from oraclebench.game import GameConfig  # noqa: E402
from oraclebench.learner import CreateAdvancedLearner, PredictLearner  # noqa: E402
from oraclebench.littlestone import SOALearner  # noqa: E402
from oraclebench.verification import CheckResult, threshold_pair_classes  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _flood_outcome(tmp_path: Path):
    st = bench_workloads.prepare("bounds", 0, tmp_path)
    checks = bench_workloads._bounds_flood(bench_workloads.library(), st)
    return [(c.name, c.ok, c.detail) for c in checks]


def test_exact_counts_pass_the_gate(tmp_path):
    checks = _flood_outcome(tmp_path)
    assert checks and all(ok for _, ok, _ in checks)


def test_wrong_expected_count_fails_the_gate(tmp_path, monkeypatch):
    monkeypatch.setitem(bench_workloads.FLOOD_MISTAKES, 2, 8)
    checks = _flood_outcome(tmp_path)
    assert [name for name, ok, _ in checks if not ok] == ["flood:2 mistakes", "flood:2 rounds"]
    report = {"checks": checks, "fingerprint": {}}
    gated = bench_run.gate([(0, report)], [])
    assert sum(1 for _, ok, _ in gated if not ok) == 2


def test_a_skipped_check_is_not_a_pass():
    results = [CheckResult("lower:4 ternary dimension", True, "skipped: size guard")]
    assert [c.ok for c in bench_workloads.suite_checks("lower:4", results)] == [False]


def test_an_exception_is_a_failed_check_and_ends_the_iteration(tmp_path, monkeypatch):
    def boom(lib, st):
        raise ValueError("boom")

    def never(lib, st):
        return [bench_workloads.Check("never", True, "")]

    steps = (("flood", bench_workloads._bounds_flood), ("boom", boom), ("never", never))
    monkeypatch.setitem(bench_workloads.WORKLOADS, "bounds", steps)
    st = bench_workloads.prepare("bounds", 0, tmp_path)
    outcome = bench_workloads.run("bounds", bench_workloads.library(), st)
    assert (outcome.checks[-1].name, outcome.checks[-1].ok) == ("bounds boom raised", False)
    assert "never" not in [c.name for c in outcome.checks]


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer") for m in spec[key])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_tracing.PER_LAYER)
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(bench_workloads.WORKLOADS) == list(bench_run.WORKLOADS)


GAMES = [
    pytest.param(lambda: CreateAdvancedLearner(0), FreeAdversary, None, id="create-adv:0-vs-free"),
    pytest.param(PredictLearner, lambda: TernaryAdversary(3), 3, id="predict-vs-ternary:3"),
    pytest.param(
        lambda: SOALearner(threshold_pair_classes(8)[5]),
        lambda: ClassGreedyAdversary(threshold_pair_classes(8)[5]),
        1,
        id="soa-vs-class-greedy",
    ),
]


@pytest.mark.parametrize("make_learner, make_adversary, d", GAMES)
def test_tracing_proxies_do_not_change_the_transcript(tmp_path, make_learner, make_adversary, d):
    config = GameConfig(d=d, round_cap=40, validation="full")
    plain = game.run_game(make_learner(), make_adversary(), config)
    game.save_transcript(plain, tmp_path / "plain.jsonl")

    tracer = bench_tracing.Tracer()
    lib = tracer.library(bench_workloads.library())
    with tracer.installed():
        traced = lib.run_game(make_learner(), make_adversary(), config)
    game.save_transcript(traced, tmp_path / "traced.jsonl")

    assert (tmp_path / "traced.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
    metrics = tracer.metrics()
    from_run = {"game.transcript_bytes", "trace.wall_untraced_s", "trace.wall_traced_s", "trace.overhead"}
    assert set(metrics) | from_run == {name for name, _ in bench_tracing.PER_LAYER}
    assert metrics["game.rounds"] == metrics["adversary.respond_calls"] == len(plain.rounds)
    assert metrics["learner.appended"] == sum(len(r.appended) for r in plain.rounds)
    assert metrics["learner.deleted"] == sum(len(r.deleted) for r in plain.rounds)
    assert metrics["adversary.revealed_cells"] == sum(len(f.domain) for f in plain.functions)
    assert len(tracer.round_durations_ns()) == len(plain.rounds)
    root = tracer.names.index("game.run_game")
    assert sum(tracer.self_times()) == tracer.ends[root] - tracer.starts[root]


def test_installed_wrappers_are_removed_afterwards():
    before = (game.ldim, game.is_consistent, learner.is_consistent)
    tracer = bench_tracing.Tracer()
    with tracer.installed():
        assert game.ldim is not before[0] and learner.is_consistent is not before[2]
    assert (game.ldim, game.is_consistent, learner.is_consistent) == before


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "dimension", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
