"""Acceptance suite: one test per claimed guarantee, exact where stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

from __future__ import annotations

import random

import pytest

from conftest import hyp
from oraclebench.adversary import (
    ClassGreedyAdversary,
    DigitRecovery,
    FloodAdversary,
    FreeAdversary,
    RandomClassAdversary,
    RecoveryState,
    TernaryAdversary,
    ternary_function,
)
from oraclebench.errors import IllegalAdversaryFunction
from oraclebench.game import GameConfig, run_game, save_transcript, validate_transcript
from oraclebench.hypotheses import distinct
from oraclebench.learner import (
    CreateAdvancedLearner,
    PredictLearner,
    check_advanced,
    create_advanced_widths,
    halting_mistakes,
    mistake_bound,
    predict_widths,
)
from oraclebench.littlestone import (
    MINIMAX_MAX_HYPOTHESES,
    SOALearner,
    find_shattered_tree,
    is_shattered,
    ldim,
    minimax_adversary_value,
)
from oraclebench.verification import (
    dimension_classes,
    random_classes,
    threshold_pair_classes,
)
import itertools


@pytest.fixture(scope="module")
def ternary_games():
    """One full ternary game per dimension, against the oracle learner."""
    games = {}
    for d in (1, 2, 3):
        t = run_game(PredictLearner(), TernaryAdversary(d), GameConfig(d=d, round_cap=3**d + 10))
        games[d] = (t, tuple(r.y for r in t.rounds))
    return games


@pytest.fixture(scope="module")
def halting_runs():
    """One full create_advanced(k) run against the free adversary per k."""
    runs = {}
    for k in (0, 1, 2):
        learner = CreateAdvancedLearner(k)
        t = run_game(learner, FreeAdversary(), GameConfig(d=None, round_cap=halting_mistakes(k) + 10))
        runs[k] = (t, learner.state.active.functions())
    return runs


def test_criterion_1_ternary_forces_exactly_3_to_the_d(ternary_games) -> None:
    for d in (1, 2, 3):
        t, _ = ternary_games[d]
        assert t.mistake_count == 3**d
        assert len(t.rounds) == 3**d
        assert all(r.mistake for r in t.rounds)
        report = validate_transcript(t)
        assert report.passed, report.first_failure
    print("PASS criterion 1: ternary adversary forces exactly 3, 9, 27 mistakes "
          "with history-consistent functions")


def test_criterion_2_ternary_construction_is_legal(ternary_games) -> None:
    for d in (1, 2):
        t, _ = ternary_games[d]
        assert ldim(t.functions) <= d
    # the sampled orderings cross-check the exact longest-path search
    worst = {}
    exact = {}
    for d in (1, 2, 3):
        _, labels = ternary_games[d]
        n = 3**d
        worst[d] = exact[d] = 0
        learner = DigitRecovery(d, labels)
        for r in range(n):
            f_r = ternary_function(r, d, labels[: r + 1])
            exact_r = learner.worst_case(f_r)
            exact[d] = max(exact[d], exact_r)
            rng = random.Random(1000 * d + r)
            for _ in range(100):
                order = list(range(n)) + [n, n + rng.randint(1, 40)]
                rng.shuffle(order)
                state = RecoveryState()
                mistakes = 0
                for z in order:
                    y = f_r(z)
                    y_hat, state = learner.step(state, z, y)
                    mistakes += y != y_hat
                assert mistakes <= exact_r
                worst[d] = max(worst[d], mistakes)
        assert worst[d] <= exact[d] == d
    print(f"PASS criterion 2: revealed-set dimension within bound; recovery "
          f"learner worst-case mistakes {worst} over 100 orderings per function, "
          f"exactly {exact} over every query sequence")


def test_criterion_3_flood_forces_exactly_2_to_the_d_plus_1_minus_1() -> None:
    for d in (1, 2, 3, 4):
        n = 2 ** (d + 1) - 1
        t = run_game(PredictLearner(), FloodAdversary(d), GameConfig(d=d, round_cap=n + 10))
        assert t.mistake_count == n
        assert len(t.rounds) == n
        if d <= 3:
            assert ldim(t.functions) <= d
    print("PASS criterion 3: flood adversary forces exactly 3, 7, 15, 31 mistakes; "
          "revealed sets stay within dimension")


def test_criterion_4_oracle_learner_budget_on_dimension_one_classes() -> None:
    family = threshold_pair_classes(8) + list(dimension_classes(1, seed=0))
    assert len(family) == 136
    assert all(ldim(c) == 1 for c in family)
    bound = mistake_bound(1)
    assert bound == 271
    worst_predict = worst_soa = 0
    for c in family:
        t = run_game(PredictLearner(), ClassGreedyAdversary(c), GameConfig(d=1, round_cap=300))
        worst_predict = max(worst_predict, t.mistake_count)
        ts = run_game(SOALearner(c), ClassGreedyAdversary(c), GameConfig(d=1, round_cap=300))
        worst_soa = max(worst_soa, ts.mistake_count)
    assert worst_predict <= bound
    assert worst_soa <= 1
    print(f"PASS criterion 4: over 136 dimension-1 classes, oracle learner made "
          f"at most {worst_predict} <= {bound} mistakes and soa at most {worst_soa} <= 1")


def test_criterion_5_halting_and_counting(halting_runs) -> None:
    expected = {0: (16, 16), 1: (272, 128), 2: (4368, 1024)}
    for k, (mistakes, attached) in expected.items():
        t, functions = halting_runs[k]
        assert t.stopped_by == "learner_halted"
        assert t.mistake_count == mistakes == halting_mistakes(k)
        assert len(t.rounds) == mistakes  # the free adversary flips every round
        assert len(functions) == attached
        assert len({h.support for h in functions}) == attached  # pairwise distinct
    print("PASS criterion 5: halting after exactly 16 / 272 / 4368 mistakes, "
          "attaching 16 / 128 / 1024 pairwise-distinct functions")


def test_criterion_6_advanced_sets(halting_runs) -> None:
    _, sixteen = halting_runs[0]
    exact = check_advanced(sixteen, 1)
    assert exact.ok and exact.subsets_checked == 2**16 - 1

    _, many = halting_runs[1]
    tree = find_shattered_tree(many, 2)
    assert tree is not None and tree.depth == 2
    assert is_shattered(tree, many)  # independent definitional check
    sampled = check_advanced(many, "3/2", sample_count=200, seed=0)
    assert sampled.ok and sampled.subsets_checked == 201
    print("PASS criterion 6: 16-function set passes the gamma=1 inequality on all "
          "65535 subsets; 128-function set has a verified depth-2 certificate and "
          "passes gamma=1.5 on 200 sampled subsets")


def test_criterion_7_schedule_equivalence() -> None:
    for k in (0, 1, 2, 3):
        want = create_advanced_widths(k)
        assert len(want) == (16, 272, 4368, 69904)[k]
        got = list(itertools.islice(predict_widths(), len(want)))
        assert got == want
    print("PASS criterion 7: procedure schedule prefixes of lengths 16, 272, "
          "4368, 69904 match the recursive flattenings")


def test_criterion_8_dimension_machinery() -> None:
    classes = random_classes(200, seed=8)
    minimax_checked = 0
    for i, c in enumerate(classes):
        members = distinct(c)
        dim = ldim(c)
        assert dim <= len(members).bit_length() - 1
        for x in c.domain:
            zero = tuple(h for h in members if h(x) == 0)
            one = tuple(h for h in members if h(x) == 1)
            if zero and one:
                assert dim >= min(ldim(zero), ldim(one)) + 1
        if len(members) <= MINIMAX_MAX_HYPOTHESES:
            minimax_checked += 1
            assert minimax_adversary_value(c) == dim
        for adversary in (ClassGreedyAdversary(c), RandomClassAdversary(c, seed=i)):
            t = run_game(SOALearner(c), adversary, GameConfig(d=dim, round_cap=25))
            assert t.mistake_count <= dim
    assert minimax_checked > 20
    print(f"PASS criterion 8: 200 random classes satisfy the size bound, the "
          f"restriction inequality, minimax = ldim ({minimax_checked} within guard), "
          f"and the soa mistake bound")


class _CorruptedAdversary:
    name = "corrupted"

    def __init__(self) -> None:
        self._r = 0

    def next_point(self):
        self._r += 1
        return self._r

    def respond(self, x, y_hat):
        return 1, hyp("zero", "0")  # claims 1 but reveals the zero function


def test_criterion_9_engine_hygiene(halting_runs, tmp_path) -> None:
    # no-repetition: the active list enforces it during every run above and
    # the surviving lists are extensionally distinct
    for k, (_, functions) in halting_runs.items():
        assert len({h.support for h in functions}) == len(functions)

    with pytest.raises(IllegalAdversaryFunction):
        run_game(PredictLearner(), _CorruptedAdversary(), GameConfig(d=1, round_cap=10))

    files = []
    for i in range(2):
        t = run_game(PredictLearner(), TernaryAdversary(2), GameConfig(d=2, round_cap=50, seed=9))
        path = tmp_path / f"rerun{i}.jsonl"
        save_transcript(t, path)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    print("PASS criterion 9: active lists repetition-free, inconsistent adversary "
          "functions rejected, identical seeds give byte-identical transcripts")
