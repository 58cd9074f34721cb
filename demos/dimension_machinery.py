"""Exact Littlestone dimension, certificates, and the optimal learner.

Small enough classes allow three independent takes on the same number:
the dimension recursion, a shattered-tree certificate checked straight
from the definition, and the explicit minimax value of the mistake game.
"""

import random

from oraclebench import (
    ClassGreedyAdversary,
    GameConfig,
    HypothesisClass,
    SOALearner,
    find_shattered_tree,
    format_tree,
    is_shattered,
    ldim,
    minimax_adversary_value,
    run_game,
)
from oraclebench.hypotheses import distinct
from oraclebench.verification import random_class, threshold_hypotheses

all_four = HypothesisClass.from_rows(
    [0, 1], [("h00", "00"), ("h01", "01"), ("h10", "10"), ("h11", "11")]
)
print("all four functions on two points:")
print("  ldim           =", ldim(all_four))
print("  minimax value  =", minimax_adversary_value(all_four))
tree = find_shattered_tree(all_four, 2)
print("  certificate    =", format_tree(tree), "(verified:", is_shattered(tree, all_four), ")")
print("  depth-3 search =", find_shattered_tree(all_four, 3))

print()
thresholds = threshold_hypotheses(8)
print(f"all {len(thresholds)} step functions on eight points: ldim = {ldim(thresholds)}")

print()
print("seeded random classes, three computations each:")
rng = random.Random(2)
for i in range(5):
    c = random_class(rng, max_hypotheses=6, max_points=5)
    dim = ldim(c)
    game_value = minimax_adversary_value(c)
    cert = find_shattered_tree(c, dim) if dim >= 1 else None
    cert_note = format_tree(cert) if cert else "(dimension 0, no tree)"
    print(f"  #{i}: {len(distinct(c))} distinct functions, "
          f"ldim = {dim}, minimax = {game_value}, certificate {cert_note}")

print()
print("the version-space learner never exceeds the dimension:")
for i in range(5):
    c = random_class(rng, max_hypotheses=8, max_points=6)
    dim = ldim(c)
    t = run_game(SOALearner(c), ClassGreedyAdversary(c), GameConfig(d=dim, round_cap=30))
    print(f"  class with ldim {dim}: {t.mistake_count} mistakes over {len(t.rounds)} rounds")
