"""The oracle learner's mistake budget on real classes.

The learner sees nothing but consistent-oracle answers, yet against any
adversary constrained to dimension d it stops making mistakes before
16 + 16^2 + ... + 16^(2d). On dimension-1 classes that budget is 271; in
practice a handful of mistakes suffices, which is the gap between a
worst-case guarantee and a greedy opponent.
"""

from oraclebench import PredictLearner, SOALearner, ldim, mistake_bound
from oraclebench.verification import class_greedy_game, dimension_classes, threshold_pair_classes

family = threshold_pair_classes(8) + list(dimension_classes(1, seed=0))
print(f"{len(family)} dimension-1 classes "
      f"({len(threshold_pair_classes(8))} threshold pairs + 100 seeded, built to shatter point 0)")
print(f"budget for d=1: {mistake_bound(1)} mistakes")
print()

worst_oracle = worst_soa = 0
histogram: dict[int, int] = {}
for c in family:
    assert ldim(c) == 1
    t = class_greedy_game(PredictLearner(), c, 1)
    histogram[t.mistake_count] = histogram.get(t.mistake_count, 0) + 1
    worst_oracle = max(worst_oracle, t.mistake_count)
    ts = class_greedy_game(SOALearner(c), c, 1)
    worst_soa = max(worst_soa, ts.mistake_count)

print("oracle learner mistakes per class:",
      {k: histogram[k] for k in sorted(histogram)})
print(f"worst case: {worst_oracle} (budget {mistake_bound(1)})")
print(f"version-space learner worst case: {worst_soa} (dimension bound 1)")
print()
print("The oracle learner pays a constant factor for its ignorance of the")
print("class; the version-space learner reads the class directly and meets")
print("the dimension exactly.")
