"""Adversaries that force mistakes no matter who is predicting.

The ternary adversary walks the points 0..3^d-1 in order, flips every
prediction, and reveals functions built by a base-3 digit rule; the whole
revealed set still fits in dimension d. The flood adversary does the same
over 2^(d+1)-1 points, legal for the cruder counting reason that few
functions have small dimension.
"""

from oraclebench import (
    FloodAdversary,
    GameConfig,
    PredictLearner,
    TernaryAdversary,
    ldim,
    run_game,
    validate_transcript,
)

print("=== ternary adversary ===")
for d in (1, 2, 3):
    adversary = TernaryAdversary(d)
    t = run_game(PredictLearner(), adversary, GameConfig(d=d, round_cap=3**d + 5))
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
    t = run_game(PredictLearner(), FloodAdversary(d), GameConfig(d=d, round_cap=n + 5))
    dim = ldim(t.functions) if n <= 15 else "-"
    print(
        f"d={d}: {t.mistake_count} mistakes (target 2^{d + 1}-1 = {n}), "
        f"dimension of revealed set: {dim}"
    )

print()
print("Both strategies flip every prediction, so any learner eats the full")
print("count; the interesting part is that the revealed functions never")
print("certify a dimension above d, which the checks above confirm.")
