"""Adversary strategies for the mistake game, and the digit-recovery
learner that certifies the ternary construction's dimension.

Every adversary answers a prediction with a label and a function that is
consistent with the whole history so far. The ternary adversary plays the
points 0..3^d-1 in order and always flips the prediction; its functions
are built by a most-significant-differing-digit rule over base-3
expansions, which keeps the revealed set at dimension at most d while
forcing a mistake every round.
"""

from __future__ import annotations

import random
from bisect import insort
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple

from .errors import InconsistentOracleClass, NonRealizable, OracleBenchError, PointError
from .hypotheses import (
    Bit,
    Hypothesis,
    HypothesisClass,
    Point,
    point_bit,
)


def ternary_digit(x: int, position: int) -> int:
    """Digit of ``x`` at the given base-3 position (position 0 is least
    significant)."""
    return (x // 3**position) % 3


def _ternary_support(r: int, d: int, label_mask: int) -> int:
    """Support of f_r given the mask of the labels revealed on 0..r.

    A point x > r takes r's digit at the most significant position i where
    the two differ, and there x's digit is the larger. So f_r(x) = 1 exactly
    when r's digit at i is 1 and x's is 2: for each 1-digit of r, the run of
    3^i points that share r's digits above i and carry a 2 at i. A 0-digit
    contributes only zeros, and a 2-digit admits no larger x.
    """
    support = label_mask
    for i in range(d):
        block = 3**i
        if r // block % 3 == 1:
            start = r // (3 * block) * (3 * block) + 2 * block
            support |= ((1 << block) - 1) << start
    return support


def ternary_function(r: int, d: int, labels: tuple[Bit, ...]) -> Hypothesis:
    """The adversary function revealed after playing point ``r``.

    On points up to r it repeats the revealed labels; on larger in-range
    points x it takes the value of r's digit at the most significant
    base-3 position where r and x differ; past 3^d - 1 it is 0, via the
    default-zero convention.
    """
    n = 3**d
    if not 0 <= r < n:
        raise ValueError(f"point index {r} outside 0..{n - 1}")
    if len(labels) != r + 1:
        raise ValueError(f"need {r + 1} labels for point index {r}, got {len(labels)}")
    if not set(labels) <= {0, 1}:
        raise ValueError(f"labels must be bits, got {sorted(set(labels))}")
    label_mask = sum(1 << x for x, y in enumerate(labels) if y)
    return Hypothesis(f"f{r}", support=_ternary_support(r, d, label_mask))


class TernaryAdversary:
    """Plays 0..3^d-1 in increasing order and flips every prediction."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be at least 1")
        self.d = d
        self.name = f"ternary:{d}"
        self._n = 3**d
        self._r = 0
        self._label_mask = 0

    def next_point(self) -> Point | None:
        # The mistake bound is realized after 3^d rounds; stop there.
        return self._r if self._r < self._n else None

    def respond(self, x: Point, y_hat: Bit) -> tuple[Bit, Hypothesis]:
        r = self._r
        y = 1 - y_hat
        self._label_mask |= y << r
        self._r += 1
        return y, Hypothesis(f"f{r}", support=_ternary_support(r, self.d, self._label_mask))


class FreeAdversary:
    """Flips every prediction forever over fresh increasing points.

    Unconstrained by any dimension bound; exists to make the halting
    procedures actually halt, so their counting and advanced-set
    properties can be observed.
    """

    name = "free"

    def __init__(self) -> None:
        self._rounds = 0
        self._support = 0

    def next_point(self) -> Point:
        return self._rounds

    def respond(self, x: Point, y_hat: Bit) -> tuple[Bit, Hypothesis]:
        y = 1 - y_hat
        self._rounds += 1
        # points never repeat, so the minimal extension of the history is
        # the last one plus this round's point if it is labeled 1
        if y:
            self._support |= point_bit(x)
        return y, Hypothesis(f"f{self._rounds}", support=self._support)


class FloodAdversary(FreeAdversary):
    """A free game that stops after 2^(d+1) - 1 fresh points: legal, since
    fewer than 2^(d+1) distinct functions cannot exceed dimension d."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be at least 1")
        super().__init__()
        self.d = d
        self.name = f"flood:{d}"

    def next_point(self) -> Point | None:
        return self._rounds if self._rounds < 2 ** (self.d + 1) - 1 else None


class ClassGreedyAdversary:
    """Greedy legal adversary: plays points where the surviving hypotheses
    disagree and flips whenever the class allows it.

    The survivors are an index mask over the class's distinct members in
    first-occurrence order, on the class's own engine, so the oracle answer,
    the lowest set bit, is the first class member consistent with the
    history. A round is one AND with the point's column, and the first
    splitting point in domain order is rescanned only when the mask shrinks:
    O(1) big-int operations a round. As it flips whenever the class allows,
    the survivors shrink only on a mistake; once no point splits them, the
    labels are forced and it plays the domain round-robin. It ends the game
    (``adversary_done``) after one whole pass with no mistake: a learner
    whose state changes only on a mistake (``PredictLearner``,
    ``CreateAdvancedLearner``) or whose version space is the survivors
    (``SOALearner``) then keeps its state, so the pass repeats forever and
    no further mistake can come. On an empty domain it plays no point.
    """

    def __init__(self, c: HypothesisClass):
        self.cls = c
        self.name = "class-greedy"
        self._rounds = 0
        self._quiet = 0  # settled rounds with no mistake, in a row
        self._engine = c.engine
        self._survivors = self._engine.full
        self._split = self._first_split(self._survivors)

    def _first_split(self, s: int) -> Point | None:
        return next((x for x in self.cls.domain if 0 != s & self._engine.column(x) != s), None)

    def next_point(self) -> Point | None:
        if self._split is None:
            domain = self.cls.domain
            return domain[self._rounds % len(domain)] if self._quiet < len(domain) else None
        return self._split

    def respond(self, x: Point, y_hat: Bit) -> tuple[Bit, Hypothesis]:
        s = self._survivors
        one = s & self._engine.column(x)
        for y in (1 - y_hat, y_hat):
            kept = one if y else s ^ one
            if kept:
                self._rounds += 1
                self._quiet = self._quiet + 1 if self._split is None and y == y_hat else 0
                if kept != s:
                    self._survivors, self._split = kept, self._first_split(kept)
                return y, self._engine.hyps[(kept & -kept).bit_length() - 1]
        raise NonRealizable(f"no surviving hypothesis takes label {1 - y_hat} or {y_hat} at point {x}")


class RandomClassAdversary:
    """Seeded legal adversary over a fixed class: random points, random
    legal labels, random consistent oracle answers.

    Its oracle answer is a uniform choice among the class members
    consistent with the history, in class order with duplicates included.
    A label is read off the OR and the AND of their supports, and the list
    is re-filtered only when the point splits it. On an empty domain it
    plays no point.
    """

    def __init__(self, c: HypothesisClass, seed: int):
        self.cls = c
        self.name = f"random-class:{seed}"
        self._rng = random.Random(seed)
        self._keep(list(c.hypotheses))

    def _keep(self, consistent: list[Hypothesis]) -> None:
        supports = [h.support for h in consistent]
        self._consistent = consistent
        self._some, self._every = reduce(or_, supports), reduce(and_, supports)

    def next_point(self) -> Point | None:
        return self._rng.choice(self.cls.domain) if self.cls.domain else None

    def respond(self, x: Point, y_hat: Bit) -> tuple[Bit, Hypothesis]:
        if self._every >> x & 1:
            y = 1
        elif not self._some >> x & 1:
            y = 0
        else:
            y = self._rng.choice((0, 1))
            self._keep([h for h in self._consistent if h.support >> x & 1 == y])
        return y, self._rng.choice(self._consistent)


class RecoveryState(NamedTuple):
    """Progress of the digit-recovery learner on one hidden function.

    ``witness`` is None before the first mistake; after it, it is a point
    whose expansion matches ``known_digits``, the most significant base-3
    digits of the hidden index recovered so far, and whose revealed label
    differs from the hidden function's value there. A witness certifies
    len(known_digits) + 1 leading digits; at d of them, ``recovered`` is
    the hidden function.
    """

    known_digits: tuple[int, ...] = ()
    witness: Point | None = None
    recovered: Hypothesis | None = None

    @property
    def progress(self) -> int:
        """Leading digits certified so far; every change of state raises it."""
        return len(self.known_digits) + (self.witness is not None)


def _mistake_move(on_mistake: tuple | None, z: Point, y: Bit) -> tuple[Point, int | None]:
    """The (witness, digit) move of a mistake at ``z``, where the true value
    is ``y``; None there means that no class member has that value."""
    if on_mistake is None:
        raise InconsistentOracleClass(f"observed value {y} at {z} contradicts every class member")
    return on_mistake


class _Outcome:
    """One distinct answer of ``DigitRecovery._analyze`` in a state's row:
    the mask of the points that give it, the first of them, and the
    (prediction, state, on-mistake move) it names. An ``error`` that
    ``_analyze`` raised at one point is an outcome of that point alone."""

    __slots__ = ("mask", "first", "prediction", "state", "on_mistake", "error", "after_mistake")

    def __init__(self, first: Point, answer: tuple | None = None, error: Exception | None = None):
        self.mask = 0
        self.first = first
        self.prediction, self.state, self.on_mistake = answer or (None, None, None)
        self.error = error
        self.after_mistake: RecoveryState | Exception | None = None


class DigitRecovery:
    """The digit-recovery learner for the ternary class of dimension ``d``
    whose revealed labels on 0..3^d-1 are ``labels``.

    It finds the hidden function's index digit by digit, most significant
    first, and makes at most d mistakes. The learner holds the class; its
    progress on one hidden function is a :class:`RecoveryState`.

    ``worst_case`` and ``search`` decide that bound exactly. They read the
    learner's moves from each state off a row that every hidden function
    shares: it groups the points 0..3^d (point 3^d stands for all past
    3^d - 1) by the answer of ``_analyze``, in order of their first point.
    The learner keeps each row once built. A mistake's ``_advance`` is
    taken once, on first need, since a hypothetical mistake may be illegal.
    """

    def __init__(self, d: int, labels: tuple[Bit, ...]):
        labels = tuple(labels)
        if len(labels) != 3**d:
            raise ValueError(f"need all {3 ** d} class labels, got {len(labels)}")
        bad = next((x for x, y in enumerate(labels) if y not in (0, 1)), None)
        if bad is not None:
            raise ValueError(f"class label {labels[bad]!r} at point {bad} is not 0 or 1")
        self.d = d
        self.labels = labels
        self._rows: dict[RecoveryState, list[_Outcome]] = {}

    def step(self, state: RecoveryState, z: Point, y: Bit) -> tuple[Bit, RecoveryState]:
        """The learner's prediction at ``z``, fixed before ``y`` is read, and
        its state once ``y``, the true value at ``z``, is revealed."""
        if z < 0:
            raise PointError(f"negative point {z}")
        prediction, state, on_mistake = self._analyze(state, z)
        if y == prediction:
            return prediction, state
        return prediction, self._advance(state, *_mistake_move(on_mistake, z, y))

    def _advance(self, state: RecoveryState, witness: Point, digit: int | None) -> RecoveryState:
        """The state once ``witness`` certifies one more leading digit, which is
        ``digit`` (None on the first mistake, which certifies a witness and no
        known digit); at depth d the witness pins down the hidden index."""
        d = self.d
        digits = state.known_digits + (() if digit is None else (digit,))
        if len(digits) + 1 < d:
            return RecoveryState(digits, witness)
        last = ternary_digit(witness, 0)
        if last == 0:
            raise InconsistentOracleClass(
                "witness ends in digit 0, impossible for any class member"
            )
        r = 0 if last == 1 else 1 - self.labels[witness]
        for position, known in zip(range(d - 1, 0, -1), digits):
            r += known * 3**position
        return RecoveryState(digits, witness, ternary_function(r, d, self.labels[: r + 1]))

    def _analyze(
        self, state: RecoveryState, z: Point
    ) -> tuple[Bit, RecoveryState, tuple[Point, int | None] | None]:
        """Work out the prediction for ``z`` without its true value.

        Returns (prediction, state after promotions that need no feedback,
        the (witness, digit) that ``_advance`` applies if the prediction turns
        out wrong). A genuine mistake guarantees that transition's
        preconditions, whereas a hypothetical one need not. It is None on
        paths where the class makes a mistake impossible.
        """
        d, labels = self.d, self.labels
        while True:
            if state.recovered is not None:
                return state.recovered(z), state, None
            if z >= len(labels):
                return 0, state, None
            y_z = labels[z]
            if state.witness is None:
                return y_z, state, (z, None)
            level = len(state.known_digits) + 1
            # compare z against the certified prefix, most significant first
            for position, r_i in zip(range(d - 1, d - level, -1), state.known_digits):
                z_i = ternary_digit(z, position)
                if z_i != r_i:
                    return (y_z if z_i < r_i else r_i), state, None
            a = ternary_digit(state.witness, d - level)
            b = ternary_digit(z, d - level)
            if a == 0:
                # the witness already certifies the next digit to be 0
                state = self._advance(state, state.witness, 0)
                continue
            y_w = labels[state.witness]
            if b == 0:
                return y_z, state, (z, 0)
            if a <= b:
                return 1 - y_w, state, (state.witness, a)
            # a == 2, b == 1
            if y_w == 0:
                return y_z, state, (z, 1)
            return 0, state, (state.witness, 2)

    def _row(self, s: RecoveryState) -> list[_Outcome]:
        row = self._rows.get(s)
        if row is None:
            row, groups = [], {}
            for z in range(3**self.d + 1):
                try:
                    answer = self._analyze(s, z)
                except Exception as exc:  # raised when a search reaches z
                    row.append(outcome := _Outcome(z, error=exc))
                else:
                    outcome = groups.get(answer)
                    if outcome is None:
                        row.append(outcome := _Outcome(z, answer))
                        groups[answer] = outcome
                outcome.mask |= 1 << z
            self._rows[s] = row
        return row

    def _after_mistake(self, outcome: _Outcome, z: Point, y: Bit) -> RecoveryState:
        """The state after a mistake at ``z``, one of ``outcome``'s points,
        whose true value is ``y``."""
        move = _mistake_move(outcome.on_mistake, z, y)
        if outcome.after_mistake is None:
            try:
                outcome.after_mistake = self._advance(outcome.state, *move)
            except Exception as exc:
                outcome.after_mistake = exc
        if isinstance(outcome.after_mistake, Exception):
            raise outcome.after_mistake
        return outcome.after_mistake

    def _moves(self, s: RecoveryState, support: int) -> Iterator[tuple[Point, _Outcome, bool]]:
        """(first point, outcome, whether it is a mistake) for each distinct
        move from ``s`` on the function of mask ``support``, in point order:
        an outcome's points split into those that agree with its prediction
        and the rest, and the later half waits in a sorted list. A
        prediction that is not a bit agrees with no value."""
        waiting: list[tuple[Point, _Outcome, bool]] = []  # no two share a point
        for outcome in self._row(s):
            while waiting and waiting[0][0] < outcome.first:
                yield waiting.pop(0)
            p, mask = outcome.prediction, outcome.mask
            agree = mask & support if p == 1 else mask & ~support if p == 0 else 0
            first_agrees = agree >> outcome.first & 1 == 1
            yield outcome.first, outcome, not first_agrees
            later = mask ^ agree if first_agrees else agree
            if later:
                insort(waiting, ((later & -later).bit_length() - 1, outcome, first_agrees))
        yield from waiting

    def worst_case(self, f: Hypothesis) -> int:
        """The most mistakes the learner makes on ``f`` over every query
        sequence, repeats included: a longest path over its states. A step
        that changes the state must raise its progress, so a state's scan
        can stop once its best reaches the progress left. Raises
        OracleBenchError on a learner fault."""
        support, memo = f.support, {}

        def longest(s: RecoveryState) -> int:
            if s.recovered is not None:
                if s.recovered != f:
                    raise InconsistentOracleClass(f"recovered {s.recovered.name}, hidden {f.name}")
                return 0
            if s not in memo:
                best, left = 0, self.d - s.progress
                for z, outcome, mistake in self._moves(s, support):
                    if outcome.error is not None:
                        raise outcome.error
                    if mistake:
                        nxt = self._after_mistake(outcome, z, support >> z & 1)
                    else:
                        nxt = outcome.state
                        if nxt == s:
                            continue
                    if nxt.progress <= s.progress:
                        raise OracleBenchError(f"the step at {z} from {s} makes no progress")
                    best = max(best, mistake + longest(nxt))
                    if best >= left:
                        break
                memo[s] = best
            return memo[s]

        return longest(RecoveryState())

    def search(self, functions: Iterable[Hypothesis]) -> tuple[int, list[str]]:
        """The worst case over the given functions of the class, and a fault
        text for each function on which ``worst_case`` raised."""
        worst, faults = 0, []
        for f in functions:
            try:
                worst = max(worst, self.worst_case(f))
            except OracleBenchError as exc:
                faults.append(f"{f.name}: {exc}")
        return worst, faults
