from __future__ import annotations

import random

import pytest

from brute_oracles import brute_ldim, exists_shattered_tree
from conftest import hyp
from oraclebench.errors import (
    EmptyClass,
    EmptyVersionSpace,
    IllegalLabel,
    SizeLimitExceeded,
)
from oraclebench.hypotheses import HypothesisClass
from oraclebench.littlestone import (
    LabeledTree,
    TreeNode,
    find_shattered_tree,
    format_tree,
    is_shattered,
    ldim,
    ldim_at_least,
    minimax_adversary_value,
    soa_predict,
    soa_update,
)
from oraclebench.verification import random_class, threshold_hypotheses

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


def test_ldim_matches_brute_force_on_seeded_classes() -> None:
    rng = random.Random(7)
    for _ in range(40):
        c = random_class(rng, max_hypotheses=6, max_points=4)
        assert ldim(c) == brute_ldim(c.hypotheses, c.domain)


def test_ldim_log2_size_bound_on_seeded_classes() -> None:
    rng = random.Random(11)
    for _ in range(200):
        c = random_class(rng)
        assert ldim(c) <= (len(c.distinct())).bit_length() - 1


def test_restriction_inequality_on_seeded_classes() -> None:
    rng = random.Random(13)
    for _ in range(200):
        c = random_class(rng)
        dim = ldim(c)
        for x in c.domain:
            zero = [h for h in c.distinct() if h(x) == 0]
            one = [h for h in c.distinct() if h(x) == 1]
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


def test_labeled_tree_must_be_complete() -> None:
    with pytest.raises(ValueError):
        LabeledTree(TreeNode(0, TreeNode(1, None, None), None), 2)


def test_format_tree() -> None:
    tree = find_shattered_tree(ALL_FOUR, 2)
    text = format_tree(tree)
    assert text.count("*") == 4
    assert text.startswith("(")


def test_soa_predict_tie_goes_to_zero() -> None:
    assert soa_predict(ALL_FOUR.hypotheses, 0) == 0
    pair = (hyp("z", "00"), hyp("o", "11"))
    assert soa_predict(pair, 0) == 0
    assert soa_predict((hyp("z", "00"),), 1) == 0


def test_soa_predict_prefers_larger_side() -> None:
    # three functions with value 1 at point 0 vs a single one with value 0
    v = (hyp("a", "100"), hyp("b", "110"), hyp("c", "111"), hyp("d", "000"))
    assert soa_predict(v, 0) == 1


def test_soa_predict_empty_version_space() -> None:
    with pytest.raises(EmptyVersionSpace):
        soa_predict((), 0)


def test_soa_update() -> None:
    v = soa_update(ALL_FOUR.hypotheses, 0, 1)
    assert {h.name for h in v} == {"h10", "h11"}
    only_zero = (hyp("z", "00"),)
    assert soa_update(only_zero, 5, 0) == only_zero
    with pytest.raises(IllegalLabel):
        soa_update(only_zero, 5, 1)


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


def test_minimax_guard() -> None:
    big = [hyp(f"h{i}", format(i, "03b")) for i in range(8)]
    with pytest.raises(SizeLimitExceeded):
        minimax_adversary_value(big)
    assert minimax_adversary_value(big, max_hypotheses=8) == 3
