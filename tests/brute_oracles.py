"""Independent test oracles.

These work straight from the definitions: a tree is shattered when every
leaf's path assignment is realized by some hypothesis, and the dimension
is the deepest complete tree shattered. No version spaces, no masks, no
memoization: functions are only ever evaluated, h(x), at given points.
Only meant for small inputs.
"""

from __future__ import annotations

from typing import Sequence

from oraclebench.hypotheses import Hypothesis, LabeledPair


def realizable(hyps: Sequence[Hypothesis], pairs: list[LabeledPair]) -> bool:
    return any(all(h(x) == y for x, y in pairs) for h in hyps)


def exists_shattered_tree(
    hyps: Sequence[Hypothesis], points: Sequence[int], depth: int, prefix: list[LabeledPair]
) -> bool:
    if depth == 0:
        return realizable(hyps, prefix)
    return any(
        exists_shattered_tree(hyps, points, depth - 1, prefix + [(x, 0)])
        and exists_shattered_tree(hyps, points, depth - 1, prefix + [(x, 1)])
        for x in points
    )


def brute_ldim(hyps: Sequence[Hypothesis], domain: Sequence[int]) -> int:
    """Dimension by exhaustive tree search; exponential, small inputs only.

    Every hypothesis must be 0 off ``domain``."""
    points = [x for x in domain if any(h(x) for h in hyps)]
    distinct = len({tuple(h(x) for x in points) for h in hyps})
    best = 0
    depth = 1
    while (1 << depth) <= distinct:
        if not exists_shattered_tree(hyps, points, depth, []):
            break
        best = depth
        depth += 1
    return best
