"""Independent test oracles.

These work straight from the definitions: a tree is shattered when every
leaf's path assignment is realized by some hypothesis, and the dimension
is the deepest complete tree shattered. No version spaces, no masks, no
memoization: functions are only ever evaluated, h(x), at given points.
Only meant for small inputs.

The class-greedy reference keeps its survivors as a tuple of hypotheses
and re-filters them every round, the way the adversary was first written;
the SOA reference does the same with its version space, and scores each
side of a split by brute_ldim. The restriction sides and the advanced-set
walk are likewise rebuilt as tuples and walked one subset at a time, the
way ``verify_props`` and ``check_advanced`` first did; the walk asks the
dimension engine about each subset. The digit-recovery learner's worst
case is a plain recursion over its state changes, with no memo and no
cut-off; the per-point search that ``verify_lower`` first ran steps the
learner at every point of every state, for each function anew.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Sequence

from oraclebench.adversary import DigitRecovery, RecoveryState
from oraclebench.errors import IllegalLabel, InconsistentOracleClass, NonRealizable, OracleBenchError
from oraclebench.hypotheses import Bit, Hypothesis, HypothesisClass, LabeledPair, Point, distinct
from oraclebench.learner import _required_dimension
from oraclebench.littlestone import _DimensionEngine


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


def brute_ternary_function(r: int, d: int, labels: Sequence[Bit]) -> Callable[[int], Bit]:
    """f_r of the ternary adversary, point by point from its definition: the
    revealed label on 0..r; past r and below 3^d, r's digit at the most
    significant base-3 position where r and x differ; 0 from 3^d on."""

    def digit(x: int, position: int) -> int:
        return x // 3**position % 3

    def f(x: int) -> Bit:
        if x <= r:
            return labels[x]
        if x >= 3**d:
            return 0
        i = max(pos for pos in range(d) if digit(r, pos) != digit(x, pos))
        return digit(r, i)

    return f


class SurvivorFilterAdversary:
    """Greedy legal adversary: plays points where the surviving hypotheses
    disagree and flips whenever the class allows it.

    Its oracle answer is the first survivor with the revealed label: the
    first class member consistent with the history, since the survivors
    are the class's distinct members in first-occurrence order.
    """

    def __init__(self, c: HypothesisClass):
        self.cls = c
        self.name = "class-greedy"
        self._rounds = 0
        self._survivors = distinct(c)

    def next_point(self) -> Point:
        supports = [h.support for h in self._survivors]
        split = reduce(or_, supports, 0) & ~reduce(and_, supports, -1)
        for x in self.cls.domain:
            if split >> x & 1:
                return x
        # no disagreement left anywhere: keep the game alive round-robin
        return self.cls.domain[self._rounds % len(self.cls.domain)]

    def respond(self, x: Point, y_hat: Bit) -> tuple[Bit, Hypothesis]:
        for y in (1 - y_hat, y_hat):
            kept = tuple(h for h in self._survivors if h(x) == y)
            if kept:
                self._rounds += 1
                self._survivors = kept
                return y, kept[0]
        raise NonRealizable(f"no surviving hypothesis takes label {1 - y_hat} or {y_hat} at point {x}")


class PerRoundSOA:
    """Reference SOA learner over a tuple version space: each round it
    predicts the label whose side of the version space has the larger
    brute_ldim (an empty side scores -1; ties go to 0), then keeps the side
    with the revealed label."""

    name = "soa"

    def __init__(self, c: HypothesisClass):
        self.cls = c
        self.version_space = distinct(c)

    def run(self, rounds) -> None:
        while True:
            x = rounds.next_point()
            sides = [tuple(h for h in self.version_space if h(x) == y) for y in (0, 1)]
            score0, score1 = (brute_ldim(side, self.cls.domain) if side else -1 for side in sides)
            y_hat = 0 if score0 >= score1 else 1
            y = rounds.submit(y_hat)
            self.version_space = sides[y]
            if not self.version_space:
                raise IllegalLabel(f"no remaining hypothesis has value {y} at {x}")


def restriction_sides(hyps: Sequence[Hypothesis], x: Point) -> tuple[tuple[Hypothesis, ...], tuple[Hypothesis, ...]]:
    """The distinct members that are 0 at ``x`` and those that are 1, in
    first-occurrence order, rebuilt as tuples."""
    members = distinct(hyps)
    return tuple(h for h in members if h(x) == 0), tuple(h for h in members if h(x) == 1)


def first_failing_subset(
    functions: Sequence[Hypothesis], fails: Callable[[tuple[Hypothesis, ...]], bool]
) -> tuple[int, tuple[Hypothesis, ...] | None]:
    """Walk the non-empty subsets by size, each size in combinations order of
    the functions sorted by support, and return (subsets walked, the first
    subset ``fails`` accepts), or (all subsets, None) if it accepts none."""
    ordered = sorted(functions, key=lambda h: h.support)
    walked = 0
    for size in range(1, len(ordered) + 1):
        for subset in combinations(ordered, size):
            walked += 1
            if fails(subset):
                return walked, subset
    return walked, None


def advanced_subset_walk(
    functions: Sequence[Hypothesis], p: int, q: int
) -> tuple[int, tuple[Hypothesis, ...] | None]:
    """The exact advanced-set check at gamma = p/q, one subset at a time:
    ``first_failing_subset`` with each subset decided by the dimension
    engine of the functions, against the dimension its size needs."""
    engine = _DimensionEngine(sorted(functions, key=lambda h: h.support))
    bit = {h: 1 << i for i, h in enumerate(engine.hyps)}
    need = [_required_dimension(size, len(bit), p, q) for size in range(len(bit) + 1)]

    def fails(subset: tuple[Hypothesis, ...]) -> bool:
        return not engine.at_least(sum(map(bit.__getitem__, subset)), need[len(subset)])

    return first_failing_subset(functions, fails)


def per_point_worst_case(learner: DigitRecovery, f: Hypothesis) -> int:
    """The most mistakes ``learner`` makes on ``f`` over every query sequence,
    repeats included (point 3^d stands for all past 3^d - 1): a longest path
    over its states, stepping the learner at every point of every state. A
    step that changes the state must raise its progress, so a state's scan
    can stop once its best reaches the progress left. Raises
    OracleBenchError on a learner fault."""
    memo: dict[RecoveryState, int] = {}
    points = range(3**learner.d + 1)

    def longest(s: RecoveryState) -> int:
        if s.recovered is not None:
            if s.recovered != f:
                raise InconsistentOracleClass(f"recovered {s.recovered.name}, hidden {f.name}")
            return 0
        if s not in memo:
            best, left = 0, learner.d - s.progress
            for z in points:
                y_hat, nxt = learner.step(s, z, y := f(z))
                if y_hat == y and nxt == s:
                    continue
                if nxt.progress <= s.progress:
                    raise OracleBenchError(f"the step at {z} from {s} makes no progress")
                best = max(best, (y_hat != y) + longest(nxt))
                if best >= left:
                    break
            memo[s] = best
        return memo[s]

    return longest(RecoveryState())


def per_point_recovery_search(learner: DigitRecovery, functions: Sequence[Hypothesis]) -> tuple[int, list[str]]:
    """``per_point_worst_case`` over the functions: the worst case, and a
    fault text for each function on which it raised."""
    worst, faults = 0, []
    for f in functions:
        try:
            worst = max(worst, per_point_worst_case(learner, f))
        except OracleBenchError as exc:
            faults.append(f"{f.name}: {exc}")
    return worst, faults


def brute_recovery_worst_case(
    learner: DigitRecovery, f: Hypothesis, state: RecoveryState = RecoveryState(), depth: int = 0
) -> int:
    """The most mistakes ``learner`` makes on ``f`` from ``state`` over every
    query sequence, repeats included (point 3^d stands for all past it):
    the best over every step that changes the state. A mistake that leaves
    the state as it is repeats forever, and a path of more than d changes
    runs past the learner's d digits; both raise."""
    if depth > learner.d:
        raise RecursionError(f"more than {learner.d} state changes on one path")
    best = 0
    for z in range(3**learner.d + 1):
        y = f(z)
        y_hat, nxt = learner.step(state, z, y)
        if nxt != state:
            best = max(best, (y_hat != y) + brute_recovery_worst_case(learner, f, nxt, depth + 1))
        elif y_hat != y:
            raise RecursionError(f"a repeated mistake at {z} from {state}")
    return best
