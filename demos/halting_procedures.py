"""The halting procedures behind the oracle learner's mistake bound.

Against an adversary that flips everything, the recursive procedure of
index k halts after exactly 16 + 16^2 + ... + 16^(k+1) mistakes and
leaves behind 2 * 8^(k+1) distinct functions whose subsets all have
conspicuously large dimension. The dimension-independent learner realizes
every one of these procedures as a prefix of a single infinite schedule.
"""

import itertools

from oraclebench import (
    check_advanced,
    create_advanced_widths,
    find_shattered_tree,
    halting_mistakes,
    is_shattered,
    predict_widths,
)
from oraclebench.verification import halting_game

print("=== halting counts ===")
functions_by_k = {}
for k in (0, 1, 2):
    t, learner = halting_game(k)
    functions_by_k[k] = learner.state.active.functions()
    print(
        f"k={k}: halted after {t.mistake_count} mistakes "
        f"(formula gives {halting_mistakes(k)}), "
        f"{len(functions_by_k[k])} functions on the list"
    )

print()
print("=== subset dimension inequality ===")
sixteen = functions_by_k[0]
check = check_advanced(sixteen, 1)
print(f"gamma=1 over all {check.subsets_checked} non-empty subsets of the "
      f"16-function set: {'holds' if check.ok else 'violated'}")

many = functions_by_k[1]
tree = find_shattered_tree(many, 2)
check = check_advanced(many, "3/2", sample_count=200, seed=0)
print(f"128-function set: depth-2 certificate "
      f"{'verified' if tree and is_shattered(tree, many) else 'MISSING'}, "
      f"gamma=1.5 on {check.subsets_checked} sampled subsets: "
      f"{'holds' if check.ok else 'violated'}")

print()
print("=== one schedule to rule them all ===")
print("first 20 vote-width exponents of the infinite schedule:",
      list(itertools.islice(predict_widths(), 20)))
for k in (0, 1, 2, 3):
    flat = create_advanced_widths(k)
    prefix = list(itertools.islice(predict_widths(), len(flat)))
    print(f"prefix of length {len(flat):>5} == flattening of procedure {k}: {prefix == flat}")
