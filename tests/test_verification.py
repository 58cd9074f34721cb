from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import random
import textwrap

import pytest

from brute_oracles import brute_recovery_worst_case, per_point_recovery_search, restriction_sides
from oraclebench import adversary, game, verification
from oraclebench.adversary import DigitRecovery, TernaryAdversary, ternary_function
from oraclebench.errors import SizeLimitExceeded
from oraclebench.game import GameConfig, run_game
from oraclebench.learner import PredictLearner
from oraclebench.hypotheses import Hypothesis, HypothesisClass
from oraclebench.littlestone import LabeledTree, TreeNode, _DimensionEngine, is_shattered, ldim, ldim_at_least
from oraclebench.verification import (
    CheckResult,
    _dimension_check,
    dimension_classes,
    random_classes,
    threshold_pair_classes,
    verify_advanced,
    verify_lower,
    verify_prefix,
    verify_props,
    verify_upper,
)


def _all_ok(results) -> bool:
    return all(r.ok for r in results)


def test_threshold_pairs_have_dimension_one() -> None:
    classes = threshold_pair_classes(8)
    assert len(classes) == 36
    assert all(ldim(c) == 1 for c in classes)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dimension_classes_have_dimension_d_by_the_engine(d) -> None:
    for seed in (0, 1, 2):
        assert [ldim(c) for c in dimension_classes(d, seed)] == [d] * 100, seed


def _heap_tree_by_levels(d: int) -> LabeledTree:
    """The depth-d heap tree on 0..2^d - 2, built bottom-up: node i's children are 2i + 1 and 2i + 2."""
    nodes: dict[int, TreeNode] = {}
    for i in reversed(range(2**d - 1)):
        nodes[i] = TreeNode(i, nodes.get(2 * i + 1), nodes.get(2 * i + 2))
    return LabeledTree(nodes[0], d)


@pytest.mark.parametrize("d", range(1, 9))
def test_dimension_classes_shatter_the_heap_tree_with_few_members(d) -> None:
    # a shattered depth-d tree gives ldim >= d, and fewer than 2^(d+1) members ldim <= d
    tree = _heap_tree_by_levels(d)
    classes = list(dimension_classes(d, seed=0))
    assert len(classes) == 100
    for i, c in enumerate(classes):
        assert is_shattered(tree, c), i
        assert 2**d <= len({h.support for h in c}) < 2 ** (d + 1), i
        assert c.domain == tuple(range(max(2**d - 1, len(c.domain)))) and len(c.domain) <= max(2**d - 1, 8), i


@pytest.mark.parametrize("d, want", [
    (1, "94d5c2339590e52ae2cef3091de729228c5e2973830554c2e3c0da33077c4e39"),
    (2, "745a611087d358e9643600c32171e3ebc495a4a1cdde74c8572d472988eb8b7b"),
    (3, "1c53d3de97730d5de113bdac571921293a20f9439c060a78dc6dd23897e73496"),
])
def test_seeded_dimension_classes_match_recorded_output(d: int, want: str) -> None:
    rows = [[c.domain, [[h.name, h.support] for h in c]] for c in dimension_classes(d, seed=0)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == want


def test_a_class_that_misses_a_leaf_fails_the_class_dimension_check(monkeypatch) -> None:
    # flip the last path label of leaf 0's member (h0): where no other member takes that path
    # (class #0 has one) the heap tree is no longer shattered, and the games alone cannot tell
    real = verification.dimension_classes

    def planted(d, seed):
        for c in real(d, seed):
            h0, *rest = c.hypotheses
            yield HypothesisClass(c.domain, (Hypothesis("h0", h0.support ^ 1 << 2 ** (d - 1) - 1), *rest))

    monkeypatch.setattr(verification, "dimension_classes", planted)
    budget, soa, dimension = verify_upper(3)
    assert budget.ok and soa.ok
    assert not dimension.ok and dimension.detail == "class #1: the depth-3 heap tree is not shattered"


@pytest.mark.parametrize("name, d, rounds", [("ternary", 11, 177147), ("flood", 16, 131071)])
def test_named_games_past_the_round_guard_are_refused_before_any_round(monkeypatch, name, d, rounds) -> None:
    # a game keeps every round's masks, so bench --dims 12 would need gigabytes
    played = []
    monkeypatch.setattr(verification, "run_game", lambda *game: played.append(game))
    game = getattr(verification, f"{name}_game")
    with pytest.raises(SizeLimitExceeded, match=f"^round_cap {rounds + 10} is past the guard of 70000 rounds$"):
        game(PredictLearner(), d)
    assert played == []


@pytest.mark.parametrize("name, d, cap", [("ternary", 10, 3**10 + 10), ("flood", 15, 2**16 - 1 + 10)])
def test_the_longest_named_games_within_the_guard_are_played(monkeypatch, name, d, cap) -> None:
    monkeypatch.setattr(verification, "run_game", lambda learner, adversary, config: config)
    assert getattr(verification, f"{name}_game")(PredictLearner(), d).round_cap == cap


def test_verify_lower_passes() -> None:
    results = verify_lower(2)
    assert _all_ok(results), [r for r in results if not r.ok]


def test_verify_lower_4_runs_both_dimension_checks() -> None:
    results = {r.name: r for r in verify_lower(4)}
    for name in ("lower:4 ternary dimension", "lower:4 flood dimension"):
        assert results[name].ok
        assert results[name].detail == "revealed set has dimension at most 4"


def test_verify_lower_decides_the_ternary_set_once(monkeypatch) -> None:
    calls = []
    at_least = _DimensionEngine.at_least

    def counting_at_least(engine, s, d):
        # a search of the whole set past the size bound, not one of its recursive steps
        if s == engine.full and s.bit_count() >= 1 << d:
            calls.append(len(engine.hyps))
        return at_least(engine, s, d)

    monkeypatch.setattr(_DimensionEngine, "at_least", counting_at_least)
    results = {r.name: r for r in verify_lower(4)}
    assert results["lower:4 ternary consistency"].ok
    assert results["lower:4 ternary dimension"].ok
    # the flood:4 set is settled by the size bound; the ternary:4 set
    # (78 distinct functions) is searched once
    assert calls == [78]


def _informative_check(d: int):
    return next(r for r in verify_lower(d) if r.name == f"lower:{d} informative learner")


def test_verify_lower_decides_the_informative_learner_exactly() -> None:
    for d in (1, 2, 3, 4):
        check = _informative_check(d)
        assert check.ok
        assert check.detail == f"exact worst case {d} mistakes over every query sequence, bound {d}"


def _recovery_cases(d: int, labels: tuple[int, ...]):
    learner = DigitRecovery(d, labels)
    return [(learner, ternary_function(r, d, labels[: r + 1])) for r in range(3**d)]


def test_the_exact_recovery_search_matches_a_brute_recursion() -> None:
    cases = [case for labels in itertools.product((0, 1), repeat=3) for case in _recovery_cases(1, labels)]
    rng = random.Random(0)
    for _ in range(20):
        cases += _recovery_cases(2, tuple(rng.randint(0, 1) for _ in range(9)))
    assert len(cases) == 8 * 3 + 20 * 9
    for learner, f in cases:
        assert learner.worst_case(f) == brute_recovery_worst_case(learner, f), (learner.labels, f)


def _plant_analyze_fault(monkeypatch, old: str, new: str) -> None:
    """Replace the one ``old`` in the learner's ``_analyze`` with ``new``."""
    source = textwrap.dedent(inspect.getsource(DigitRecovery._analyze))
    assert source.count(old) == 1
    namespace = dict(vars(adversary))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(DigitRecovery, "_analyze", namespace["_analyze"])


def _plant_comparison_fault(monkeypatch) -> None:
    _plant_analyze_fault(monkeypatch, "z_i < r_i", "z_i > r_i")


def _plant_stalled_step(monkeypatch) -> None:
    """A mistake that moves the witness to a new point but certifies no
    digit: the state changes without progress, which the cut-off must not
    hide as a capped count."""
    advance = DigitRecovery._advance

    def stalled(self, state, witness, digit):
        if state.witness in (None, witness):
            return advance(self, state, witness, digit)
        return state._replace(witness=witness)

    monkeypatch.setattr(DigitRecovery, "_advance", stalled)


def _labelings():
    """Every labeling at d = 1 and seeded ones at d = 2..4."""
    yield from ((1, labels) for labels in itertools.product((0, 1), repeat=3))
    rng = random.Random(1)
    for d, count in ((2, 20), (3, 6), (4, 2)):
        for _ in range(count):
            yield d, tuple(rng.randint(0, 1) for _ in range(3**d))


@pytest.mark.parametrize("plant", [
    None,
    _plant_comparison_fault,
    _plant_stalled_step,
    # these two give an outcome's points a fault at a later point than its
    # first, which the per-point order reaches only after the points between
    lambda mp: _plant_analyze_fault(mp, "if a <= b:", "if a < b:"),
    lambda mp: _plant_analyze_fault(mp, "return 1 - y_w, state, (state.witness, a)",
                                    "return 0.5, state, (state.witness, a)"),
], ids=["learner", "comparison fault", "stalled step", "witness order fault", "prediction not a bit"])
def test_the_shared_table_matches_the_per_point_search(monkeypatch, plant) -> None:
    if plant is not None:
        plant(monkeypatch)
    faulty = 0
    for d, labels in _labelings():
        learner = DigitRecovery(d, labels)
        functions = [f for _, f in _recovery_cases(d, labels)]
        got = learner.search(functions)
        assert got == per_point_recovery_search(learner, functions), (d, labels)
        faulty += bool(got[1])
    # the faults are planted where the search reaches them
    assert (faulty == 0) == (plant is None)


def test_a_planted_digit_comparison_fault_fails_the_check(monkeypatch) -> None:
    _plant_comparison_fault(monkeypatch)
    check = _informative_check(3)
    assert not check.ok
    assert check.detail.startswith("learner fault on 23 of 27 functions, first f0: ")


def test_a_step_without_progress_fails_the_check(monkeypatch) -> None:
    _plant_stalled_step(monkeypatch)
    check = _informative_check(2)
    assert not check.ok
    assert "makes no progress" in check.detail


@pytest.mark.parametrize("d", [3, 4])
def test_the_lower_suite_decides_its_sets_apart_from_the_game_guard_and_the_learner(monkeypatch, d) -> None:
    # the referee's guard bounds live games only, and the learner's check is a claim of its own
    name = f"lower:{d} ternary dimension"
    results = verify_lower(d)
    assert CheckResult(name, True, f"revealed set has dimension at most {d}") in results
    monkeypatch.setattr(game, "DIMENSION_CHECK_LIMIT", 10)
    assert verify_lower(d) == results
    _plant_comparison_fault(monkeypatch)
    failed = [r.name for r in verify_lower(d) if not r.ok]
    assert failed == [f"lower:{d} informative learner"]


def test_verify_lower_guards_d_above_6() -> None:
    # with the guard lifted, lower:7's search runs past a minute (README "Size guards")
    assert verify_lower(7) == [CheckResult("lower:7", False, "guard: lower bounds checked up to d = 6")]


def test_the_dimension_check_passes_within_d_and_fails_above_it() -> None:
    functions = run_game(PredictLearner(), TernaryAdversary(5), GameConfig(d=5, round_cap=3**5)).functions
    run = _dimension_check("ternary dimension", ldim_at_least(functions, 6), 5)
    assert run == CheckResult("ternary dimension", True, "revealed set has dimension at most 5")
    over = _dimension_check("ternary dimension", ldim_at_least(functions, 5), 4)
    assert over == CheckResult("ternary dimension", False, "revealed set has dimension above 4")


def test_verify_upper_passes_over_136_classes() -> None:
    # the 36 threshold pairs and 100 random classes of dimension 1
    assert [r.detail for r in verify_upper(1)] == [
        "worst 2 mistakes over 136 classes, bound 271",
        "worst 1 mistakes over 136 classes, bound 1",
        "100 built classes shatter the depth-1 heap tree with fewer than 4 members",
    ]


class ZeroLearner:
    """Predicts 0 at every point, whatever its class: a planted fault in
    place of the version-space learner."""

    name = "zero"

    def __init__(self, c) -> None:
        pass

    def run(self, rounds) -> None:
        while True:
            rounds.next_point()
            rounds.submit(0)


def test_a_planted_soa_fault_fails_its_own_checks_alone(monkeypatch) -> None:
    monkeypatch.setattr(verification, "SOALearner", ZeroLearner)
    budget, soa, dimension = verify_upper(1)
    assert budget.ok and budget.detail == "worst 2 mistakes over 136 classes, bound 271"
    assert not soa.ok and soa.detail == "class #0: soa made 300 > 1"
    assert dimension.ok
    props = verify_props(seed=0)
    assert [(r.name, r.ok) for r in props] == [
        ("props size bound", True),
        ("props restriction inequality", True),
        ("props certificates", True),
        ("props minimax equals ldim", True),
        ("props soa mistake bound", False),
    ]
    assert props[-1].detail.startswith("class #0: soa made ")
    assert [r.detail for r in props if r.ok] == ["200 classes"] * 3 + ["148 classes within guard"]


def test_verify_upper_guards_d_above_8() -> None:
    # from d = 9 the 511-point domain outlasts class_greedy_game's 500-round cap
    assert verify_upper(9) == [CheckResult("upper:9", False, "guard: upper bounds checked up to d = 8")]


def test_verify_advanced_passes() -> None:
    assert _all_ok(verify_advanced(0))
    results = verify_advanced(1)
    assert _all_ok(results)
    assert results[-1].detail == "201 subsets checked"  # 200 seeded subsets and the full set


def test_verify_advanced_reports_guard() -> None:
    results = verify_advanced(3)
    assert not _all_ok(results)
    assert "guard" in results[0].detail


def test_verify_prefix_passes_and_guards() -> None:
    assert _all_ok(verify_prefix(3))
    assert not _all_ok(verify_prefix(4))


def test_verify_props_cross_checks_minimax_on_every_class_within_the_member_guard() -> None:
    # 148 of the 200 classes have at most 6 distinct members, whatever their points
    results = verify_props(seed=0)
    assert _all_ok(results)
    assert [r.detail for r in results if r.name == "props minimax equals ldim"] == ["148 classes within guard"]


@pytest.mark.parametrize("suite, want", [(lambda: verify_props(seed=0), 200), (lambda: verify_upper(1, seed=0), 136)],
                         ids=["props", "upper:1"])
def test_a_suite_builds_one_engine_per_class(monkeypatch, suite, want) -> None:
    # props: 200 random classes; upper:1: 36 threshold pairs and 100 built classes, none dropped
    built = []
    init = _DimensionEngine.__init__

    def counting_init(engine, hyps):
        built.append(engine)
        init(engine, hyps)

    monkeypatch.setattr(_DimensionEngine, "__init__", counting_init)
    assert _all_ok(suite())
    assert len(built) == want


@pytest.mark.parametrize("seed, want", [
    (0, "7af26edbccc3b2bb1c195d9e3ff53ebd1a4ac29fba16d7bcdfa1cc387e44768e"),
    (1, "8094befaab09b51ae4b57b55fa8fb40874095277ec9930915186000c2f25d21c"),
    (2, "f3eb0e8c540b532263a430efb2469f9259f943c534521c4e1eea32a6683c49a7"),
])
def test_seeded_random_classes_match_recorded_output(seed: int, want: str) -> None:
    # recorded when each member was built from a table of rng.randint(0, 1) draws
    rows = [[c.domain, [[h.name, h.support] for h in c]] for c in random_classes(200, seed)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == want


def test_mask_restriction_sides_match_rebuilt_tuples() -> None:
    for i, c in enumerate(random_classes(200, seed=5)):
        engine = c.engine
        for x in c.domain:
            one = engine.full & engine.column(x)
            sides = restriction_sides(c, x)
            assert sides == tuple(tuple(h for j, h in enumerate(engine.hyps) if side >> j & 1)
                                  for side in (engine.full ^ one, one)), (i, x)
            assert [engine.ldim(side) if side else None for side in (engine.full ^ one, one)] == [
                ldim(side) if side else None for side in sides
            ], (i, x)
