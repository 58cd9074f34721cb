from __future__ import annotations

import hashlib
import json
import random

import pytest

from brute_oracles import SurvivorFilterAdversary, brute_ldim, brute_ternary_function
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
from oraclebench.errors import InconsistentOracleClass, PointError
from oraclebench.game import GameConfig, load_transcript, run_game, save_transcript
from oraclebench.hypotheses import Hypothesis, HypothesisClass, Sample, is_consistent
from oraclebench.learner import PredictLearner
from oraclebench.littlestone import SOALearner, ldim
from oraclebench.verification import (
    dimension_classes,
    random_classes,
    threshold_hypotheses,
    threshold_pair_classes,
)


def test_ternary_function_most_significant_difference_rule() -> None:
    # r = 4 is "11" in base 3; the labels on 0..4 are free parameters
    f4 = ternary_function(4, 2, (0, 1, 0, 1, 1))
    # 7 = "21": digits differ at the top position, whose digit in r is 1
    assert f4(7) == 1
    # 5 = "12": top digits agree, the low position of r carries 1
    assert f4(5) == 1
    # at or past 3^d everything is 0
    assert f4(9) == 0
    assert f4(100) == 0


def test_ternary_function_repeats_revealed_labels() -> None:
    rng = random.Random(0)
    for d in (1, 2, 3):
        labels = tuple(rng.randint(0, 1) for _ in range(3**d))
        for r in range(3**d):
            f = ternary_function(r, d, labels[: r + 1])
            assert all(f(x) == labels[x] for x in range(r + 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ternary_function_matches_the_digit_rule(d: int) -> None:
    rng = random.Random(d)
    labels = tuple(rng.randint(0, 1) for _ in range(3**d))
    points = range(3**d + 6)
    for r in range(3**d):
        f = ternary_function(r, d, labels[: r + 1])
        brute = brute_ternary_function(r, d, labels)
        assert [f(x) for x in points] == [brute(x) for x in points], r


def game_digest(t) -> str:
    """SHA-256 of every round's fields and each revealed function's name and
    support: the game itself, whatever the file format that stored it."""
    rows = [[r.index, r.x, r.y_hat, r.y, r.mistake, list(r.appended), list(r.deleted)] for r in t.rounds]
    rows += [[f.name, format(f.support, "x")] for f in t.functions]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_ternary6_transcript_matches_recorded_output(tmp_path) -> None:
    t = run_game(PredictLearner(), TernaryAdversary(6), GameConfig(d=6, round_cap=3**6 + 10))
    save_transcript(t, tmp_path / "t.jsonl")
    digest = hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()
    assert digest == "0b7f696f98b2ff4e1a62b3cf21a3e44759bf5f47687e0ff122c78d5aae3cbe2d"
    # the game digest of the format-3 file this pin replaced: the same game
    want = "c2e3a689e156a514753e46826210a101f48b9a225208efb9cc62ce6a7b6646f8"
    assert game_digest(t) == game_digest(load_transcript(tmp_path / "t.jsonl")) == want


def test_ternary_function_validates_arguments() -> None:
    with pytest.raises(ValueError):
        ternary_function(9, 2, tuple([0] * 10))
    with pytest.raises(ValueError):
        ternary_function(1, 2, (0,))
    with pytest.raises(ValueError):
        ternary_function(1, 2, (0, 2))


def test_ternary_adversary_first_round() -> None:
    adv = TernaryAdversary(1)
    assert adv.next_point() == 0
    y, f0 = adv.respond(0, 0)
    assert y == 1
    assert (f0(0), f0(1), f0(2), f0(5)) == (1, 0, 0, 0)


def test_ternary_adversary_stops_after_all_points() -> None:
    adv = TernaryAdversary(1)
    played = []
    for r in range(3):
        x = adv.next_point()
        assert x == r
        y, f = adv.respond(x, 0)
        played.append((x, y))
        assert is_consistent(f, Sample(played))
    assert adv.next_point() is None


@pytest.mark.parametrize("d", [1, 2])
def test_ternary_class_dimension_within_bound(d: int) -> None:
    for labels in (tuple([1] * 3**d), tuple(random.Random(d).randint(0, 1) for _ in range(3**d))):
        family = [ternary_function(r, d, labels[: r + 1]) for r in range(3**d)]
        assert ldim(family) <= d


def test_ternary_class_dimension_matches_brute_force_for_d1() -> None:
    labels = (1, 0, 1)
    family = [ternary_function(r, 1, labels[: r + 1]) for r in range(3)]
    assert brute_ldim(family, range(3)) == ldim(family) <= 1


def test_flood_adversary_counts_and_dimension() -> None:
    for d in (1, 2, 3):
        adv = FloodAdversary(d)
        functions = []
        pairs = []
        rounds = 0
        while (x := adv.next_point()) is not None:
            y, f = adv.respond(x, rounds % 2)
            assert y == 1 - rounds % 2
            pairs.append((x, y))
            assert is_consistent(f, Sample(tuple(pairs)))
            functions.append(f)
            rounds += 1
        assert rounds == 2 ** (d + 1) - 1
        assert ldim(functions) <= d


def test_free_adversary_first_round() -> None:
    adv = FreeAdversary()
    assert adv.next_point() == 0
    y, f = adv.respond(0, 0)
    assert y == 1
    assert f.support == 0b1


def test_class_greedy_flips_when_legal() -> None:
    domain = tuple(range(4))
    c = HypothesisClass(domain, tuple(h for h in threshold_hypotheses(4)))
    y, f = ClassGreedyAdversary(c).respond(0, 0)
    assert y == 1
    assert is_consistent(f, Sample(((0, 1),)))


def test_class_greedy_concedes_when_pinned() -> None:
    c = HypothesisClass.from_rows([0, 1], [("a", "10"), ("b", "01")])
    adv = ClassGreedyAdversary(c)
    assert adv.respond(0, 0)[0] == 1  # history [(0, 1)]: only "a" survives
    y, f = adv.respond(1, 0)
    assert (y, f.name) == (0, "a")  # forced label equals the prediction
    y2, f2 = adv.respond(0, 1)
    assert (y2, f2.name) == (1, "a")  # revisiting a forced point


def test_class_greedy_adversary_plays_disagreement_points() -> None:
    c = HypothesisClass.from_rows([0, 1, 2], [("a", "000"), ("b", "001")])
    adv = ClassGreedyAdversary(c)
    assert adv.next_point() == 2  # the only disagreement point
    y, f = adv.respond(2, 0)
    assert y == 1 and f.name == "b"
    assert adv.next_point() in (0, 1, 2)  # pinned, keeps the game alive


def _classes_with_repeats(count: int, seed: int) -> list[HypothesisClass]:
    """Seeded random classes whose members repeat (under other names) and
    whose domain lists its points in shuffled order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        domain = rng.sample(range(12), rng.randint(1, 8))
        rows: list[str] = []
        for _ in range(rng.randint(1, 10)):
            fresh = "".join(str(rng.randint(0, 1)) for _ in domain)
            rows.append(rng.choice(rows) if rows and rng.random() < 0.4 else fresh)
        out.append(HypothesisClass.from_rows(domain, [(f"h{i}", row) for i, row in enumerate(rows)]))
    return out


def test_class_greedy_ends_a_one_function_game_after_one_correct_pass() -> None:
    c = HypothesisClass.from_rows([3, 1, 4, 0, 2], [("h", "01101")])
    t = run_game(SOALearner(c), ClassGreedyAdversary(c), GameConfig(d=0, round_cap=100))
    assert [r.x for r in t.rounds] == [3, 1, 4, 0, 2]
    assert (t.stopped_by, t.mistake_count) == ("adversary_done", 0)


def test_a_settled_phase_mistake_restarts_the_pass() -> None:
    # settled from the start; predict says 0 until its first mistake, at point 2,
    # which comes after a quiet run of len(domain) - 1 rounds
    c = HypothesisClass.from_rows([0, 1, 2], [("h", "001")])
    t = run_game(PredictLearner(), ClassGreedyAdversary(c), GameConfig(d=1, round_cap=100))
    assert [(r.x, r.mistake) for r in t.rounds] == [
        (0, False), (1, False), (2, True), (0, False), (1, False), (2, False),
    ]
    assert t.stopped_by == "adversary_done"


class SecondMistakeLearner:
    """Predicts 0 at a point until it has erred there twice, then 1 (a
    point's label never changes once revealed). Its state changes only on a
    mistake, and in a settled game its two mistakes at a 1-point fall in two
    passes of the domain; predict makes at most one settled-phase mistake,
    and SOA none."""

    name = "second-mistake"

    def run(self, rounds) -> None:
        misses: dict[int, int] = {}
        while True:
            x = rounds.next_point()
            y_hat = int(misses.get(x, 0) >= 2)
            if rounds.submit(y_hat) != y_hat:
                misses[x] = misses.get(x, 0) + 1


_SEEDED_CLASSES = [c for s in range(5) for c in random_classes(300, s)]


@pytest.mark.parametrize(
    "learner, more_classes",
    [
        (lambda c: PredictLearner(), _SEEDED_CLASSES),
        (SOALearner, []),
        (lambda c: SecondMistakeLearner(), _SEEDED_CLASSES),
    ],
    ids=["predict", "soa", "second-mistake"],
)
def test_class_greedy_plays_the_survivor_filter_reference(learner, more_classes) -> None:
    # the reference keeps a settled game alive round-robin to the cap; the
    # class-greedy game is a prefix of it that ends only when the rest of
    # the reference game holds no mistake
    classes = (
        threshold_pair_classes(8)
        + list(dimension_classes(1, seed=11))
        + _classes_with_repeats(100, seed=12)
        + more_classes
    )
    config = GameConfig(d=None, round_cap=60)
    for i, c in enumerate(classes):
        want = run_game(learner(c), SurvivorFilterAdversary(c), config)
        got = run_game(learner(c), ClassGreedyAdversary(c), config)
        n = len(got.rounds)
        assert got.rounds == want.rounds[:n], i
        assert [(f.name, f.support) for f in got.functions] == [(f.name, f.support) for f in want.functions[:n]], i
        assert got.mistake_count == want.mistake_count, i
        assert not any(r.mistake for r in want.rounds[n:]), i
        assert got.stopped_by == want.stopped_by or (got.stopped_by == "adversary_done" and n < len(want.rounds)), i


def test_random_class_adversary_is_legal_and_seeded() -> None:
    c = HypothesisClass.from_rows([0, 1, 2], [("a", "010"), ("b", "011"), ("c", "111")])
    trace_a = []
    history = []
    adv = RandomClassAdversary(c, seed=5)
    for _ in range(10):
        x = adv.next_point()
        y, f = adv.respond(x, 0)
        history.append((x, y))
        assert is_consistent(f, Sample(tuple(history)))
        trace_a.append((x, y, f.name))
    adv2 = RandomClassAdversary(c, seed=5)
    trace_b = [(x := adv2.next_point(),) + adv2.respond(x, 0) for _ in range(10)]
    assert trace_a == [(x, y, f.name) for x, y, f in trace_b]


def test_random_class_transcript_matches_recorded_output(tmp_path) -> None:
    # b/e and a/c and f/i are duplicates: the oracle answer is drawn from
    # every consistent member, duplicates included, in class order.
    # Recorded when each answer came from random_table_oracle over the
    # whole history; the rng draws, and so the transcript, are unchanged.
    rows = [("a", "00110"), ("b", "01010"), ("c", "00110"), ("d", "11100"), ("e", "01010"),
            ("f", "10001"), ("g", "11111"), ("h", "00000"), ("i", "10001"), ("j", "01101")]
    c = HypothesisClass.from_rows(range(5), rows)
    t = run_game(SOALearner(c), RandomClassAdversary(c, seed=11), GameConfig(d=2, round_cap=25))
    assert " ".join(f"{r.x}{r.y_hat}{r.y}{r.f.name}" for r in t.rounds) == (
        "301e 400b 400e 400b 000e 200b 400b 400e 311b 400b 400b 000b 111b "
        "400b 311e 311b 400b 200e 000b 311e 311b 200e 111e 000b 400b"
    )
    path = tmp_path / "t.jsonl"
    save_transcript(t, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7e24549c61304d4fd716a0168f1c07cc2d8001e7d47ae5d4bc42fd8f4dc8a52b"
    )
    want = "f72a893caa0de95dd3843a0bc38a7d5c89d5eb1b9a73b5a5493e59d49306f3ce"
    assert game_digest(t) == game_digest(load_transcript(path)) == want


def test_seeded_random_class_games_match_recorded_output() -> None:
    # games recorded when the adversary read every label through h(x) and
    # re-filtered its consistent list every round; digests taken in format 3
    digests = []
    for i, c in enumerate(random_classes(20, seed=4)):
        t = run_game(SOALearner(c), RandomClassAdversary(c, i), GameConfig(d=ldim(c), round_cap=25))
        digests.append(game_digest(t))
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == (
        "f21644a06a543d9f23c812f260dc8a196dae8793efefffd153aade8ce207a006"
    )


@pytest.mark.parametrize("adversary", [ClassGreedyAdversary, lambda c: RandomClassAdversary(c, 3)],
                         ids=["class-greedy", "random-class"])
def test_a_class_adversary_plays_no_point_on_an_empty_domain(adversary) -> None:
    c = HypothesisClass((), (Hypothesis("h", support=0),))
    assert adversary(c).next_point() is None
    for learner in (PredictLearner(), SOALearner(c)):
        t = run_game(learner, adversary(c), GameConfig(d=0, round_cap=10))
        assert (t.stopped_by, len(t.rounds), t.mistake_count) == ("adversary_done", 0, 0)


# ----------------------------------------------------------------------
# the digit-recovery learner


def _play(d: int, labels: tuple[int, ...], r: int, order) -> tuple[int, RecoveryState]:
    f_r = ternary_function(r, d, labels[: r + 1])
    learner = DigitRecovery(d, labels)
    state = RecoveryState()
    mistakes = 0
    for z in order:
        y = f_r(z)
        y_hat, state = learner.step(state, z, y)
        mistakes += y != y_hat
    return mistakes, state


def test_informative_learner_identifies_r_in_order() -> None:
    labels = (1, 1, 0, 1, 0, 0, 1, 0, 1)
    for r in range(9):
        mistakes, state = _play(2, labels, r, range(9))
        assert mistakes <= 2
        if state.recovered is not None:
            assert state.recovered.name == f"f{r}"


def test_informative_learner_recovery_digit_cases() -> None:
    # d = 1: a witness ending in 1 pins the hidden index to 0; a witness
    # ending in 2 pins it to the complement of the revealed label there
    labels = (1, 1, 1)
    mistakes, state = _play(1, labels, 0, [1, 0, 2])
    assert state.recovered.name == "f0" and mistakes == 1
    # here f_1 is 1 at point 2 while the revealed label there is 0, so the
    # first mistake lands on a witness ending in digit 2
    labels = (1, 0, 0)
    mistakes, state = _play(1, labels, 1, [2, 0, 1])
    assert state.recovered.name == "f1" and mistakes == 1


def test_informative_learner_handles_out_of_range_points() -> None:
    labels = (1, 0, 1)
    mistakes, state = _play(1, labels, 2, [5, 0, 9, 1, 2, 27])
    assert mistakes <= 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_informative_learner_mistake_bound_sweep(d: int) -> None:
    rng = random.Random(d)
    labels = tuple(rng.randint(0, 1) for _ in range(3**d))
    n = 3**d
    learner = DigitRecovery(d, labels)
    for r in range(n):
        exact = learner.worst_case(ternary_function(r, d, labels[: r + 1]))
        assert exact <= d
        for trial in range(15):
            order = list(range(n)) + [n + rng.randint(0, 30)]
            rng.shuffle(order)
            mistakes, _ = _play(d, labels, r, order)
            assert mistakes <= exact


def test_informative_learner_exact_after_recovery() -> None:
    labels = (1, 0, 0, 1, 1, 0, 0, 1, 0)
    learner = DigitRecovery(2, labels)
    for r in range(9):
        mistakes, state = _play(2, labels, r, list(range(9)) * 2)
        if state.recovered is not None:
            f_r = ternary_function(r, 2, labels[: r + 1])
            assert state.recovered == f_r and state.recovered.name == f"f{r}"
            assert all(learner.step(state, z, f_r(z)) == (f_r(z), state) for z in range(12))


def test_informative_learner_rejects_labels_outside_the_class() -> None:
    learner = DigitRecovery(1, (1, 1, 1))
    state = RecoveryState()
    # every class member is 0 past 3^d, so observing a 1 there is malformed
    assert learner.step(state, 7, 0) == (0, state)
    with pytest.raises(InconsistentOracleClass):
        learner.step(state, 7, 1)


def test_informative_learner_rejects_a_negative_point() -> None:
    # labels[-1] would read point 2's label and "recover" f0 from witness -1
    learner = DigitRecovery(1, (0, 1, 1))
    with pytest.raises(PointError, match="negative point -1"):
        learner.step(RecoveryState(), -1, 0)


def test_informative_state_validates_label_count() -> None:
    with pytest.raises(ValueError, match="need all 9 class labels, got 2"):
        DigitRecovery(2, (1, 0))


def test_informative_learner_rejects_class_labels_that_are_not_bits() -> None:
    # a label of 2 would be predicted as is at point 1
    with pytest.raises(ValueError, match="class label 2 at point 1 is not 0 or 1"):
        DigitRecovery(1, (0, 2, 7))
