"""Adversaries that force mistakes no matter who is predicting.

The ternary adversary walks the points 0..3^d-1 in order, flips every
prediction, and reveals functions built by a base-3 digit rule; the whole
revealed set still fits in dimension d. The flood adversary does the same
over 2^(d+1)-1 points, legal for the cruder counting reason that few
functions have small dimension.
"""

from oraclebench import PredictLearner, ldim, validate_transcript
from oraclebench.verification import flood_game, ternary_game

print("=== ternary adversary ===")
for d in (1, 2, 3):
    t = ternary_game(PredictLearner(), d)
    report = validate_transcript(t)
    dim = ldim(t.functions) if 3**d <= 27 else "-"
    print(
        f"d={d}: {t.mistake_count} mistakes in {len(t.rounds)} rounds "
        f"(target 3^{d} = {3**d}), history consistent: {report.passed}, "
        f"dimension of revealed set: {dim}"
    )

print()
print("=== flood adversary ===")
for d in (1, 2, 3, 4):
    n = 2 ** (d + 1) - 1
    t = flood_game(PredictLearner(), d)
    dim = ldim(t.functions) if n <= 15 else "-"
    print(
        f"d={d}: {t.mistake_count} mistakes (target 2^{d + 1}-1 = {n}), "
        f"dimension of revealed set: {dim}"
    )

print()
print("Both strategies flip every prediction, so any learner eats the full")
print("count; the interesting part is that the revealed functions never")
print("certify a dimension above d, which the checks above confirm.")
