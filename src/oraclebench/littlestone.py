"""Exact Littlestone dimension, shattered-tree certificates, and the
version-space learner that meets the dimension as its mistake bound.

A set of functions has dimension at least d > 0 iff some point x splits
it into two non-empty restrictions {f : f(x) = 0} and {f : f(x) = 1}
that both have dimension at least d - 1. One memoized decision search
answers that question, and the dimension is found by deepening it: the
deepest d for which it holds. A split is searched only when both sides
pass the size bound (dimension d needs 2^d functions), and then its
smaller side first. Internally the distinct functions are numbered, a set of
them is an int with one bit per index, and each point has a column: the
index mask of the functions that are 1 there. Splitting a set at a point
is then one AND with the column, and only the first point of each
distinct column is a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ContradictorySample, EmptyClass, IllegalLabel, PointError, SizeLimitExceeded
from .hypotheses import Hypothesis, HypothesisClass, Point, Sample, distinct, is_consistent, mask_points


@dataclass(frozen=True)
class TreeNode:
    """Internal node of a complete labeled tree; None children are leaves."""

    point: Point
    zero: "TreeNode | None"
    one: "TreeNode | None"


@dataclass(frozen=True)
class LabeledTree:
    """A complete binary tree whose internal nodes are labeled by points."""

    root: TreeNode
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("a labeled tree has depth at least 1")
        if _node_depth(self.root) != self.depth:
            raise ValueError("tree is not complete at the declared depth")

    def leaf_samples(self) -> Iterator[Sample]:
        """One sample per leaf: the (point, branch-bit) pairs on its path."""
        yield from _leaf_samples(self.root, Sample())


def _node_depth(node: TreeNode | None) -> int:
    if node is None:
        return 0
    d0 = _node_depth(node.zero)
    d1 = _node_depth(node.one)
    if d0 != d1:
        raise ValueError("tree is not complete")
    return d0 + 1


def _leaf_samples(node: TreeNode | None, path: Sample) -> Iterator[Sample]:
    if node is None:
        yield path
        return
    yield from _leaf_samples(node.zero, path.extended(node.point, 0))
    yield from _leaf_samples(node.one, path.extended(node.point, 1))


def format_tree(tree: LabeledTree) -> str:
    """Nested textual form: (point zero-subtree one-subtree), * for leaves."""

    def fmt(node: TreeNode | None) -> str:
        if node is None:
            return "*"
        return f"({node.point} {fmt(node.zero)} {fmt(node.one)})"

    return fmt(tree.root)


class _DimensionEngine:
    """Index-bitset search state shared by dimension queries.

    One engine serves one family of hypotheses: member i of its distinct
    members is bit i of a set, so the memo is keyed by (set, depth) ints.
    ``columns`` holds (point, column) for the first point of each column
    that can split a set, in increasing point order. A hypothesis class
    owns one engine, ``HypothesisClass.engine``, which the dimension
    queries, the verify suites, SOA and the class adversaries share and
    nobody grows; only a revealed-set referee grows its own by ``add``.
    Raises EmptyClass when there are no hypotheses.
    """

    def __init__(self, hyps: Iterable[Hypothesis]):
        self.hyps: list[Hypothesis] = []
        self.full = 0
        self._point_columns: dict[Point, int] = {}
        self._memo: dict[tuple[int, int], bool] = {}
        for h in distinct(hyps):
            self.add(h)
        if not self.hyps:
            raise EmptyClass("the set of hypotheses is empty")

    def add(self, h: Hypothesis) -> None:
        """Make ``h``, which equals no member, the next member. Every memo
        entry stays valid: a set's dimension does not depend on members
        outside the set."""
        bit = 1 << len(self.hyps)
        self.hyps.append(h)
        self.full |= bit
        col = self._point_columns
        for x in mask_points(h.support):
            col[x] = col.get(x, 0) | bit
        self.__dict__.pop("columns", None)

    @cached_property
    def columns(self) -> list[tuple[Point, int]]:
        col = self._point_columns
        first = {col[x]: x for x in sorted(col, reverse=True)}
        return sorted((x, c) for c, x in first.items() if c != self.full)

    def column(self, x: Point) -> int:
        """Index mask of the members that are 1 at ``x``."""
        if x < 0:
            raise PointError(f"negative point {x}")
        return self._point_columns.get(x, 0)

    def ldim(self, s: int) -> int:
        """The deepest d for which ``at_least(s, d)`` holds."""
        d = 0
        while self.at_least(s, d + 1):
            d += 1
        return d

    def at_least(self, s: int, d: int) -> bool:
        """Decision procedure: does the set shatter some depth-d tree?
        Memoized by (set, depth); the search is ``_split``'s."""
        if d <= 0:
            return True
        n = s.bit_count()
        if n < (1 << d):  # size bound: ldim <= log2 |H|
            return False
        if d == 1:  # exact here: two distinct functions differ somewhere
            return True
        key = (s, d)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._split(s, d) is not None
        return cached

    def _split(self, s: int, d: int) -> tuple[Point, int, int] | None:
        """The first column, in point order, that splits ``s`` into two
        sides of dimension at least d - 1 each, as (point, zero side, one
        side), or None. Splits are deduplicated by the induced partition.
        A split is searched only if both sides pass the size bound for
        depth d - 1, and then its smaller side first, the side more likely
        to fail."""
        n = s.bit_count()
        need = 1 << (d - 1)
        seen: set[int] = set()
        for x, col in self.columns:
            one = s & col
            k = one.bit_count()
            if need <= k <= n - need and one not in seen:
                seen.add(one)
                small, big = (one, s ^ one) if k < n - k else (s ^ one, one)
                if self.at_least(small, d - 1) and self.at_least(big, d - 1):
                    return x, s ^ one, one
        return None

    def build_tree(self, s: int, d: int) -> TreeNode | None:
        """A complete depth-d tree (d >= 1) shattered by ``s``, or None."""
        split = self._split(s, d)
        if split is None:
            return None
        x, zero, one = split
        if d == 1:
            return TreeNode(x, None, None)
        left, right = self.build_tree(zero, d - 1), self.build_tree(one, d - 1)
        return TreeNode(x, left, right) if left and right else None


def _engine_of(hypotheses: Iterable[Hypothesis]) -> _DimensionEngine:
    """A class's own engine; a fresh engine for any other iterable."""
    if isinstance(hypotheses, HypothesisClass):
        return hypotheses.engine
    return _DimensionEngine(hypotheses)


def ldim(hypotheses: Iterable[Hypothesis]) -> int:
    """Exact Littlestone dimension of a finite set of hypotheses.

    Duplicates are removed first; the dimension is a property of the set
    of distinct functions. Raises EmptyClass on an empty input.
    """
    engine = _engine_of(hypotheses)
    return engine.ldim(engine.full)


def ldim_at_least(hypotheses: Iterable[Hypothesis], d: int) -> bool:
    """True iff the set of distinct hypotheses has dimension >= d."""
    engine = _engine_of(hypotheses)
    return engine.at_least(engine.full, d)


def find_shattered_tree(hypotheses: Iterable[Hypothesis], depth: int) -> LabeledTree | None:
    """A depth-``depth`` labeled tree shattered by the class, or None.

    The returned certificate is built from the dimension search, in point
    order, and can be re-checked independently with :func:`is_shattered`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    engine = _engine_of(hypotheses)
    root = engine.build_tree(engine.full, depth)
    if root is None:
        return None
    return LabeledTree(root, depth)


def is_shattered(tree: LabeledTree, hypotheses: Iterable[Hypothesis]) -> bool:
    """Definition-based check: every leaf's path sample is realizable.

    Independent of the search that builds certificates; it walks all
    2^depth leaves and tests each hypothesis against the leaf's sample.
    """
    hyps = tuple(hypotheses)
    try:
        return all(
            any(is_consistent(h, leaf) for h in hyps) for leaf in tree.leaf_samples()
        )
    except ContradictorySample:  # a path labeling a point both ways has no realizer
        return False


# minimax_adversary_value walks the whole game tree, so it takes classes this small only;
# six members split a set at most 2^6 - 2 = 62 ways on any number of points
MINIMAX_MAX_HYPOTHESES = 6


def minimax_adversary_value(hypotheses: Iterable[Hypothesis]) -> int:
    """Exact value of the mistake game by explicit minimax search.

    The adversary picks a point, the learner picks a prediction, and the
    adversary picks any label that keeps the version space non-empty; a
    mistake scores 1. This searches the game tree directly (learner
    minimizes, adversary maximizes) and is an independent cross-check of
    the engine's deepening search, to whose dimension the value is
    provably equal: it builds its own columns from the members' supports,
    so a fault in the engine's columns cannot move both sides.
    """
    hyps = distinct(hypotheses)
    if not hyps:
        raise EmptyClass("the set of hypotheses is empty")
    if (n := len(hyps)) > MINIMAX_MAX_HYPOTHESES:
        raise SizeLimitExceeded(f"minimax guard: {n} distinct hypotheses exceeds {MINIMAX_MAX_HYPOTHESES}")
    point_columns: dict[Point, int] = {}
    for i, h in enumerate(hyps):
        for x in mask_points(h.support):
            point_columns[x] = point_columns.get(x, 0) | 1 << i
    columns = set(point_columns.values())
    memo: dict[int, int] = {}

    def value(s: int) -> int:
        if s & (s - 1) == 0:
            return 0
        cached = memo.get(s)
        if cached is not None:
            return cached
        best = 0
        for col in columns:
            one = s & col
            if one and one != s:
                a, b = value(s ^ one), value(one)
                # learner picks the prediction; adversary then picks the label
                best = max(best, min(max(1 + b, a), max(1 + a, b)))
        memo[s] = best
        return best

    return value((1 << n) - 1)


class SOALearner:
    """Game driver that plays the version-space strategy over a known class.

    It predicts the label whose side of the version space has the larger
    dimension (an empty side scores -1; ties go to 0), so it makes at most
    ldim(class) mistakes against any legal adversary. It plays on the
    class's own engine: the version space is an index mask of its members,
    so every round of every game on the class shares one memo.
    """

    name = "soa"

    def __init__(self, c: HypothesisClass):
        self.cls = c

    def run(self, rounds) -> None:
        engine = self.cls.engine
        next_point, submit, column, dim = rounds.next_point, rounds.submit, engine.column, engine.ldim
        s = engine.full
        while True:
            x = next_point()
            one = s & column(x)
            zero = s ^ one
            score0 = dim(zero) if zero else -1
            score1 = dim(one) if one else -1
            y = submit(0 if score0 >= score1 else 1)
            s = one if y else zero
            if not s:
                raise IllegalLabel(f"no remaining hypothesis has value {y} at {x}")
