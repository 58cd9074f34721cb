"""Exact Littlestone dimension, shattered-tree certificates, and the
version-space learner that meets the dimension as its mistake bound.

The dimension of a finite class is computed by the standard recursion:
a single function has dimension 0, and otherwise the dimension is the
maximum over splitting points x of 1 + min over the two restrictions
{f : f(x) = 0} and {f : f(x) = 1}, both taken non-empty.  Internally a
set of hypotheses is a frozen set of their support masks; only points
where at least one function is 1 can split a class, so only those are
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Sequence, Union

from .errors import (
    EmptyClass,
    EmptyVersionSpace,
    IllegalLabel,
    SizeLimitExceeded,
)
from .hypotheses import (
    Bit,
    Hypothesis,
    HypothesisClass,
    Point,
    Sample,
    distinct,
    is_consistent,
    mask_points,
)

HypothesisInput = Union[HypothesisClass, Sequence[Hypothesis]]
VersionSpace = tuple[Hypothesis, ...]


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
        yield from _leaf_samples(self.root, ())


def _node_depth(node: TreeNode | None) -> int:
    if node is None:
        return 0
    d0 = _node_depth(node.zero)
    d1 = _node_depth(node.one)
    if d0 != d1:
        raise ValueError("tree is not complete")
    return d0 + 1


def _leaf_samples(node: TreeNode | None, prefix: tuple) -> Iterator[Sample]:
    if node is None:
        yield Sample(prefix)
        return
    yield from _leaf_samples(node.zero, prefix + ((node.point, 0),))
    yield from _leaf_samples(node.one, prefix + ((node.point, 1),))


def format_tree(tree: LabeledTree) -> str:
    """Nested textual form: (point zero-subtree one-subtree), * for leaves."""

    def fmt(node: TreeNode | None) -> str:
        if node is None:
            return "*"
        return f"({node.point} {fmt(node.zero)} {fmt(node.one)})"

    return fmt(tree.root)


def _as_hypotheses(hypotheses: HypothesisInput) -> tuple[Hypothesis, ...]:
    if isinstance(hypotheses, HypothesisClass):
        return hypotheses.hypotheses
    return tuple(hypotheses)


class _DimensionEngine:
    """Bitmask-based recursion state shared by dimension queries.

    One engine serves one family of hypotheses; its memo tables are keyed
    by frozen sets of support masks, which are canonical because masks
    encode functions extensionally.
    """

    def __init__(self, hyps: Sequence[Hypothesis]):
        self.hyps = distinct(hyps)
        self.mask_of: dict[int, Hypothesis] = {h.support: h for h in self.hyps}
        self.all_masks = frozenset(self.mask_of)
        self.points: tuple[Point, ...] = mask_points(reduce(or_, self.mask_of, 0))
        self._ldim_memo: dict[frozenset[int], int] = {}
        self._at_least_memo: dict[tuple[frozenset[int], int], bool] = {}

    def splits(self, masks: frozenset[int]) -> Iterator[tuple[int, frozenset[int], frozenset[int]]]:
        """Yield (point, zero-side, one-side) with both sides non-empty,
        deduplicated by the induced partition."""
        seen: set[frozenset[int]] = set()
        for x in self.points:
            bit = 1 << x
            one = frozenset(m for m in masks if m & bit)
            if not one or len(one) == len(masks):
                continue
            if one in seen:
                continue
            seen.add(one)
            yield x, masks - one, one

    def ldim(self, masks: frozenset[int]) -> int:
        if len(masks) == 1:
            return 0
        cached = self._ldim_memo.get(masks)
        if cached is not None:
            return cached
        ceiling = (len(masks)).bit_length() - 1  # ldim <= log2 of the set size
        best = 0
        parts = sorted(self.splits(masks), key=lambda s: min(len(s[1]), len(s[2])), reverse=True)
        for _, zero, one in parts:
            # 1 + min side can never beat `best` if the smaller side is tiny
            cap = 1 + min(len(zero).bit_length() - 1, len(one).bit_length() - 1)
            if cap <= best:
                continue
            cand = 1 + min(self.ldim(zero), self.ldim(one))
            if cand > best:
                best = cand
                if best == ceiling:
                    break
        self._ldim_memo[masks] = best
        return best

    def at_least(self, masks: frozenset[int], d: int) -> bool:
        """Decision procedure: does the set shatter some depth-d tree?"""
        if d <= 0:
            return True
        if len(masks) < (1 << d):  # size bound: ldim <= log2 |H|
            return False
        key = (masks, d)
        cached = self._at_least_memo.get(key)
        if cached is not None:
            return cached
        ok = any(
            self.at_least(zero, d - 1) and self.at_least(one, d - 1)
            for _, zero, one in self.splits(masks)
        )
        self._at_least_memo[key] = ok
        return ok

    def build_tree(self, masks: frozenset[int], d: int) -> TreeNode | None:
        if d == 0:
            return None
        for x, zero, one in self.splits(masks):
            if self.at_least(zero, d - 1) and self.at_least(one, d - 1):
                left = self.build_tree(zero, d - 1)
                right = self.build_tree(one, d - 1)
                return TreeNode(x, left, right)
        return None


def ldim(hypotheses: HypothesisInput) -> int:
    """Exact Littlestone dimension of a finite set of hypotheses.

    Duplicates are removed first; the dimension is a property of the set
    of distinct functions. Raises EmptyClass on an empty input.
    """
    hyps = _as_hypotheses(hypotheses)
    if not hyps:
        raise EmptyClass("ldim is undefined for the empty class")
    engine = _DimensionEngine(hyps)
    return engine.ldim(engine.all_masks)


def ldim_at_least(hypotheses: HypothesisInput, d: int) -> bool:
    """True iff the set of distinct hypotheses has dimension >= d."""
    hyps = _as_hypotheses(hypotheses)
    if not hyps:
        raise EmptyClass("ldim is undefined for the empty class")
    engine = _DimensionEngine(hyps)
    return engine.at_least(engine.all_masks, d)


def find_shattered_tree(hypotheses: HypothesisInput, depth: int) -> LabeledTree | None:
    """A depth-``depth`` labeled tree shattered by the class, or None.

    The returned certificate is built from the dimension recursion and can
    be re-checked independently with :func:`is_shattered`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    hyps = _as_hypotheses(hypotheses)
    if not hyps:
        raise EmptyClass("no hypotheses to shatter a tree with")
    engine = _DimensionEngine(hyps)
    root = engine.build_tree(engine.all_masks, depth)
    if root is None:
        return None
    return LabeledTree(root, depth)


def is_shattered(tree: LabeledTree, hypotheses: HypothesisInput) -> bool:
    """Definition-based check: every leaf's path sample is realizable.

    Independent of the recursion that builds certificates; it walks all
    2^depth leaves and tests consistency pair by pair.
    """
    hyps = _as_hypotheses(hypotheses)
    return all(
        any(is_consistent(h, leaf) for h in hyps) for leaf in tree.leaf_samples()
    )


def soa_predict(v: VersionSpace, x: Point) -> Bit:
    """Predict the label whose restriction has the larger dimension.

    Empty restrictions score -1 (they can never be the safe side); ties go
    to 0.
    """
    if not v:
        raise EmptyVersionSpace("cannot predict from an empty version space")
    zero = tuple(h for h in v if h(x) == 0)
    one = tuple(h for h in v if h(x) == 1)
    score0 = ldim(zero) if zero else -1
    score1 = ldim(one) if one else -1
    return 0 if score0 >= score1 else 1


def soa_update(v: VersionSpace, x: Point, y: Bit) -> VersionSpace:
    """Restrict the version space to hypotheses with h(x) = y."""
    kept = tuple(h for h in v if h(x) == y)
    if not kept:
        raise IllegalLabel(f"no remaining hypothesis has value {y} at {x}")
    return kept


def minimax_adversary_value(
    hypotheses: HypothesisInput,
    *,
    max_hypotheses: int = 6,
    max_points: int = 5,
) -> int:
    """Exact value of the mistake game by explicit minimax search.

    The adversary picks a point, the learner picks a prediction, and the
    adversary picks any label that keeps the version space non-empty; a
    mistake scores 1. This searches the game tree directly (learner
    minimizes, adversary maximizes) and is an independent cross-check of
    the dimension recursion, to which the value is provably equal.
    """
    hyps = distinct(_as_hypotheses(hypotheses))
    if not hyps:
        raise EmptyClass("the mistake game needs a non-empty class")
    engine = _DimensionEngine(hyps)
    if len(hyps) > max_hypotheses or len(engine.points) > max_points:
        raise SizeLimitExceeded(
            f"minimax guard: {len(hyps)} hypotheses x {len(engine.points)} points "
            f"exceeds {max_hypotheses} x {max_points}"
        )
    memo: dict[frozenset[int], int] = {}

    def value(masks: frozenset[int]) -> int:
        if len(masks) == 1:
            return 0
        cached = memo.get(masks)
        if cached is not None:
            return cached
        best = 0
        for _, zero, one in engine.splits(masks):
            a, b = value(zero), value(one)
            # learner picks the prediction; adversary then picks the label
            best = max(best, min(max(1 + b, a), max(1 + a, b)))
        memo[masks] = best
        return best

    return value(engine.all_masks)


class SOALearner:
    """Game driver that plays the version-space strategy over a known class.

    Makes at most ldim(class) mistakes against any legal adversary.
    """

    name = "soa"

    def __init__(self, c: HypothesisClass):
        self.cls = c
        self.version_space: VersionSpace = c.distinct()

    def run(self, rounds) -> None:
        while True:
            x = rounds.next_point()
            y_hat = soa_predict(self.version_space, x)
            y = rounds.submit(y_hat, vote_width=0, active_count=len(self.version_space))
            self.version_space = soa_update(self.version_space, x, y)
