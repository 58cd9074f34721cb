from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_oracles import PerRoundSOA, brute_ldim, exists_shattered_tree
from conftest import hyp
from oraclebench.errors import (
    EmptyClass,
    IllegalLabel,
    PointError,
    SizeLimitExceeded,
)
from oraclebench.adversary import (
    ClassGreedyAdversary,
    FreeAdversary,
    RandomClassAdversary,
    TernaryAdversary,
)
from oraclebench import littlestone
from oraclebench.game import GameConfig, run_game
from oraclebench.hypotheses import Hypothesis, HypothesisClass, distinct
from oraclebench.learner import PredictLearner
from oraclebench.littlestone import (
    LabeledTree,
    SOALearner,
    TreeNode,
    find_shattered_tree,
    format_tree,
    is_shattered,
    ldim,
    ldim_at_least,
    minimax_adversary_value,
)
from oraclebench.verification import (
    random_class,
    random_classes,
    threshold_hypotheses,
    threshold_pair_classes,
)

ALL_FOUR = HypothesisClass.from_rows(
    [0, 1], [("h00", "00"), ("h01", "01"), ("h10", "10"), ("h11", "11")]
)


def test_ldim_singleton_is_zero() -> None:
    assert ldim(HypothesisClass.from_rows([0, 1], [("a", "10")])) == 0


def test_ldim_two_distinct_is_one() -> None:
    assert ldim(HypothesisClass.from_rows([0, 1, 2], [("a", "000"), ("b", "101")])) == 1


def test_ldim_all_four_on_two_points() -> None:
    # frozen from the exhaustive tree-search oracle
    assert brute_ldim(ALL_FOUR.hypotheses, ALL_FOUR.domain) == 2
    assert ldim(ALL_FOUR) == 2


def test_ldim_known_families() -> None:
    # step functions on n points shatter trees of depth floor(log2(n+1))
    assert ldim(threshold_hypotheses(4)) == 2
    assert ldim(threshold_hypotheses(8)) == 3
    all_eight = [hyp(f"h{i}", format(i, "03b")) for i in range(8)]
    assert ldim(all_eight) == 3


def test_ldim_deduplicates_before_computing() -> None:
    c = HypothesisClass.from_rows([0], [("a", "1"), ("b", "1"), ("c", "1")])
    assert ldim(c) == 0


def test_ldim_empty_input_rejected() -> None:
    with pytest.raises(EmptyClass):
        ldim([])
    with pytest.raises(EmptyClass, match="^the set of hypotheses is empty$"):
        minimax_adversary_value([])


def test_ldim_matches_brute_force_on_seeded_classes() -> None:
    rng = random.Random(7)
    for _ in range(40):
        c = random_class(rng, max_hypotheses=6, max_points=4)
        assert ldim(c) == brute_ldim(c.hypotheses, c.domain)


def test_ldim_log2_size_bound_on_seeded_classes() -> None:
    rng = random.Random(11)
    for _ in range(200):
        c = random_class(rng)
        assert ldim(c) <= (len(distinct(c))).bit_length() - 1


def test_restriction_inequality_on_seeded_classes() -> None:
    rng = random.Random(13)
    for _ in range(200):
        c = random_class(rng)
        dim = ldim(c)
        for x in c.domain:
            zero = [h for h in distinct(c) if h(x) == 0]
            one = [h for h in distinct(c) if h(x) == 1]
            if zero and one:
                assert dim >= min(ldim(zero), ldim(one)) + 1


def test_find_shattered_tree_all_four() -> None:
    tree = find_shattered_tree(ALL_FOUR, 2)
    assert tree is not None and tree.depth == 2
    assert is_shattered(tree, ALL_FOUR)
    # cross-check against the definitional enumeration
    assert exists_shattered_tree(ALL_FOUR.hypotheses, [0, 1], 2, [])


def test_find_shattered_tree_none_cases() -> None:
    singleton = HypothesisClass.from_rows([0], [("a", "1")])
    assert find_shattered_tree(singleton, 1) is None
    # beyond log2 of the class size no tree can exist
    assert find_shattered_tree(ALL_FOUR, 3) is None
    with pytest.raises(ValueError):
        find_shattered_tree(ALL_FOUR, 0)


def test_certificates_exist_exactly_up_to_the_dimension() -> None:
    rng = random.Random(17)
    for _ in range(60):
        c = random_class(rng)
        dim = ldim(c)
        if dim >= 1:
            tree = find_shattered_tree(c, dim)
            assert tree is not None
            assert is_shattered(tree, c)
        assert find_shattered_tree(c, dim + 1) is None
        assert ldim_at_least(c, dim) and not ldim_at_least(c, dim + 1)


def test_is_shattered_rejects_wrong_tree() -> None:
    # chain class cannot shatter a depth-2 tree rooted anywhere
    chain = HypothesisClass.from_rows([0, 1], [("a", "00"), ("b", "10"), ("c", "11")])
    tree = LabeledTree(TreeNode(0, TreeNode(1, None, None), TreeNode(1, None, None)), 2)
    assert not is_shattered(tree, chain)


def test_is_shattered_is_false_on_a_path_labeling_a_point_both_ways() -> None:
    # every function on {0, 1} is there, but no function is 0 and 1 at point 0
    tree = LabeledTree(TreeNode(0, TreeNode(0, None, None), TreeNode(0, None, None)), 2)
    assert not is_shattered(tree, [Hypothesis("a", support=s) for s in range(4)])


def test_labeled_tree_must_be_complete() -> None:
    with pytest.raises(ValueError):
        LabeledTree(TreeNode(0, TreeNode(1, None, None), None), 2)
    with pytest.raises(ValueError, match="^a labeled tree has depth at least 1$"):
        LabeledTree(TreeNode(0, None, None), 0)
    with pytest.raises(ValueError, match="^tree is not complete at the declared depth$"):
        LabeledTree(TreeNode(0, None, None), 2)


def test_format_tree() -> None:
    tree = find_shattered_tree(ALL_FOUR, 2)
    text = format_tree(tree)
    assert text.count("*") == 4
    assert text.startswith("(")


class ScriptedAdversary:
    """Plays the script's (point, function) steps in order, each time
    revealing the function and its value at the point."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.played = 0

    def next_point(self):
        return self.script[self.played][0] if self.played < len(self.script) else None

    def respond(self, x, y_hat):
        f = self.script[self.played][1]
        self.played += 1
        return f(x), f


def soa_game(hyps, script):
    domain = tuple(range(max(h.support.bit_length() for h in hyps) + 1))
    c = HypothesisClass(domain, tuple(hyps))
    return run_game(SOALearner(c), ScriptedAdversary(script), GameConfig(d=None, round_cap=len(script)))


def test_soa_predict_tie_goes_to_zero() -> None:
    assert soa_game(ALL_FOUR.hypotheses, [(0, ALL_FOUR.hypotheses[0])]).rounds[0].y_hat == 0
    pair = (hyp("z", "00"), hyp("o", "11"))
    assert soa_game(pair, [(0, pair[1])]).rounds[0].y_hat == 0
    assert soa_game(pair[:1], [(1, pair[0])]).rounds[0].y_hat == 0


def test_soa_predict_prefers_larger_side() -> None:
    # three functions with value 1 at point 0 vs a single one with value 0
    v = (hyp("a", "100"), hyp("b", "110"), hyp("c", "111"), hyp("d", "000"))
    assert soa_game(v, [(0, v[3])]).rounds[0].y_hat == 1


def test_soa_predict_at_a_negative_point_is_a_typed_error() -> None:
    with pytest.raises(PointError, match="negative point -1"):
        soa_game(ALL_FOUR.hypotheses, [(-1, ALL_FOUR.hypotheses[0])])


def test_soa_update() -> None:
    # over the whole class the 1-side at point 1 is the larger ({a, b}, of
    # dimension 1, against {c}); once point 0 is labeled 1 only c is left,
    # so a learner that restricts its version space predicts c's 0 there
    v = (hyp("a", "010"), hyp("b", "011"), hyp("c", "100"))
    t = soa_game(v, [(0, v[2]), (1, v[2])])
    assert [(r.y_hat, r.y) for r in t.rounds] == [(0, 1), (0, 0)]


@pytest.mark.parametrize("adversary", [ClassGreedyAdversary, lambda c: RandomClassAdversary(c, 5)])
def test_soa_learner_plays_the_per_round_reference(adversary) -> None:
    for c in threshold_pair_classes(8) + random_classes(40, seed=17):
        config = GameConfig(d=None, round_cap=30)
        want = run_game(PerRoundSOA(c), adversary(c), config)
        got = run_game(SOALearner(c), adversary(c), config)
        assert got.rounds == want.rounds
        assert got.functions == want.functions
        assert got.stopped_by == want.stopped_by


def test_soa_learner_rejects_a_label_no_member_has() -> None:
    c = threshold_pair_classes(8)[5]
    with pytest.raises(IllegalLabel, match="no remaining hypothesis has value 0 at 1"):
        run_game(SOALearner(c), FreeAdversary(), GameConfig(d=None, round_cap=20))


def test_minimax_small_cases() -> None:
    assert minimax_adversary_value([hyp("a", "1")]) == 0
    assert minimax_adversary_value([hyp("a", "10"), hyp("b", "01")]) == 1
    assert minimax_adversary_value(ALL_FOUR) == 2


def test_minimax_equals_ldim_on_seeded_classes() -> None:
    rng = random.Random(19)
    checked = 0
    for _ in range(120):
        c = random_class(rng, max_hypotheses=6, max_points=5)
        checked += 1
        assert minimax_adversary_value(c) == ldim(c)
    assert checked == 120


def test_minimax_takes_six_members_over_any_number_of_points() -> None:
    # six members split a set at most 2^6 - 2 ways, however wide the domain
    rng = random.Random(23)
    for points in (6, 8, 40, 200):
        members = [Hypothesis(f"h{i}", rng.getrandbits(points)) for i in range(6)]
        assert minimax_adversary_value(members) == ldim(members)
    thresholds = threshold_hypotheses(30)
    assert minimax_adversary_value(thresholds[:6]) == ldim(thresholds[:6]) == 2
    # the guard counts distinct members: eight entries with two repeats pass
    repeated = thresholds[:6] + thresholds[:2]
    assert minimax_adversary_value(repeated) == 2


def test_minimax_guard(monkeypatch) -> None:
    big = [hyp(f"h{i}", format(i, "03b")) for i in range(8)]
    with pytest.raises(SizeLimitExceeded, match="minimax guard: 8 distinct hypotheses exceeds 6"):
        minimax_adversary_value(big)
    monkeypatch.setattr(littlestone, "MINIMAX_MAX_HYPOTHESES", 8)
    assert minimax_adversary_value(big) == 3


# ----------------------------------------------------------------------
# the index-bitset engine against the definitional oracles


@st.composite
def classes_with_repeats(draw) -> HypothesisClass:
    """Small classes built from a few base rows and base columns, so that
    members repeat and distinct points have identical columns."""
    n_rows = draw(st.integers(1, 8))
    base_columns = draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows), min_size=1, max_size=4)
    )
    point_columns = draw(st.lists(st.integers(0, len(base_columns) - 1), min_size=1, max_size=6))
    members = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=10))
    rows = [
        (f"h{j}", "".join(str(base_columns[c][r]) for c in point_columns))
        for j, r in enumerate(members)
    ]
    return HypothesisClass.from_rows(range(len(point_columns)), rows)


@given(classes_with_repeats())
@settings(max_examples=150, deadline=None)
def test_engine_agrees_with_the_definitional_oracles(c: HypothesisClass) -> None:
    dim = brute_ldim(c.hypotheses, c.domain)
    assert ldim(c) == dim
    for d in range(dim + 2):
        assert ldim_at_least(c, d) == (d <= dim)
    for d in range(1, dim + 2):
        tree = find_shattered_tree(c, d)
        assert (tree is not None) == exists_shattered_tree(c.hypotheses, c.domain, d, [])
        assert tree is None or is_shattered(tree, c)


@given(classes_with_repeats())
@settings(max_examples=150, deadline=None)
def test_a_growing_engine_answers_as_a_fresh_engine(c: HypothesisClass) -> None:
    members = c.hypotheses
    grown = littlestone._DimensionEngine(members[:1])
    for i in range(1, len(members)):
        before = dict(grown._memo)
        grown.columns  # noqa: B018 - cache the split columns, so that add must drop them
        if members[i] not in members[:i]:  # add takes only a new member
            grown.add(members[i])
        prefix = members[: i + 1]
        fresh = littlestone._DimensionEngine(prefix)
        assert (grown.hyps, grown.full, grown.columns) == (fresh.hyps, fresh.full, fresh.columns)
        dim = grown.ldim(grown.full)
        assert dim == fresh.ldim(fresh.full) == brute_ldim(prefix, c.domain)  # at most 8 distinct
        for k in range(dim + 2):
            assert grown.at_least(grown.full, k) == fresh.at_least(fresh.full, k) == (k <= dim)
        # sets without the new member keep their answers, which a fresh engine confirms
        for (s, k), answer in before.items():
            assert grown._memo[s, k] == grown.at_least(s, k) == answer
            assert fresh.at_least(s, k) == answer


def test_certificates_match_recorded_output() -> None:
    # Recorded from the frozenset-of-supports engine: a certificate depends
    # on the split visit order (increasing point, first point per induced
    # partition), which the index-bitset engine keeps.
    classes = random_classes(40, seed=3, max_hypotheses=14, max_points=7)
    assert [format_tree(find_shattered_tree(classes[i], 3)) for i in (8, 9, 12)] == [
        "(0 (1 (3 * *) (2 * *)) (2 (1 * *) (5 * *)))",
        "(1 (0 (3 * *) (2 * *)) (2 (0 * *) (3 * *)))",
        "(0 (3 (2 * *) (1 * *)) (2 (3 * *) (3 * *)))",
    ]
    assert format_tree(find_shattered_tree(threshold_hypotheses(16), 4)) == (
        "(7 (11 (13 (14 * *) (12 * *)) (9 (10 * *) (8 * *))) (3 (5 (6 * *) (4 * *)) (1 (2 * *) (0 * *))))"
    )


def test_ternary5_revealed_set_has_dimension_exactly_5_quickly() -> None:
    functions = run_game(PredictLearner(), TernaryAdversary(5), GameConfig(d=5, round_cap=3**5)).functions
    start = time.perf_counter()
    assert ldim(functions) == 5
    # the deepening search refutes depth 6 in about 0.1 s
    assert time.perf_counter() - start < 0.5


def test_ternary4_revealed_set_has_dimension_exactly_4() -> None:
    functions = run_game(PredictLearner(), TernaryAdversary(4), GameConfig(d=4, round_cap=100)).functions
    assert len(functions) == 81
    assert ldim(functions) == 4
    assert not ldim_at_least(functions, 5)
    tree = find_shattered_tree(functions, 4)
    assert tree is not None and is_shattered(tree, functions)
    assert format_tree(tree) == (
        "(27 (9 (3 (1 * *) (4 * *)) (12 (10 * *) (13 * *))) (36 (30 (28 * *) (31 * *)) (39 (37 * *) (40 * *))))"
    )


def test_a_class_and_its_consumers_share_one_engine(monkeypatch) -> None:
    classes = threshold_pair_classes(8)[:5] + random_classes(20, seed=9)
    members = [len(c.engine.hyps) for c in classes]
    # every engine a class needs is built above; from here on a consumer
    # that built its own would fail

    def no_new_engine(engine, hyps):
        raise AssertionError("a second engine")

    monkeypatch.setattr(littlestone._DimensionEngine, "__init__", no_new_engine)
    for c, n in zip(classes, members):
        engine = c.engine
        dim = ldim(c)
        assert ldim_at_least(c, dim) and not ldim_at_least(c, dim + 1)
        assert find_shattered_tree(c, dim + 1) is None
        if dim:
            assert is_shattered(find_shattered_tree(c, dim), c)
        if n <= littlestone.MINIMAX_MAX_HYPOTHESES:
            assert minimax_adversary_value(c) == dim
        for adversary in (ClassGreedyAdversary(c), RandomClassAdversary(c, 3)):
            t = run_game(SOALearner(c), adversary, GameConfig(d=dim, round_cap=25))
            assert t.mistake_count <= dim
        assert ClassGreedyAdversary(c)._engine is engine
        assert c.engine is engine
        assert len(engine.hyps) == n  # played on, never grown
    with pytest.raises(AssertionError, match="a second engine"):
        ldim(tuple(classes[0]))  # any other iterable still gets a fresh engine
