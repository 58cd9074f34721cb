"""The consistent-oracle learner: majority votes over a repetition-free
list of oracle answers.

The learner never inspects the hypothesis class. It maintains a sample of
its mistakes and an ordered list of "active" functions obtained from the
consistent oracle after mistaken rounds. Each voting procedure predicts
the majority over the last 2^k active functions and ends after exactly one
mistake, either appending a fresh oracle answer (k = 0) or halving the
voted suffix (k >= 1). Stacking the procedures in the right order yields
a learner whose total mistakes stay below a bound exponential in the
dimension of the class behind the oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from .errors import (
    InsufficientAgreement,
    OracleFailure,
    NonRealizable,
    RepeatedActiveFunction,
    ScheduleViolation,
    SizeLimitExceeded,
)
from .hypotheses import Bit, Hypothesis, Point, Sample, is_consistent
from .littlestone import _DimensionEngine


class RoundInterface(Protocol):
    """What a learner needs from a game: points in, predictions out, labels
    back, a consistent oracle to query on the mistake sample, and a record
    of the list mutations each mistake caused. The oracle answers a
    realizable sample with a hypothesis that agrees with every pair, and
    raises NonRealizable otherwise."""

    def next_point(self) -> Point: ...

    def submit(self, y_hat: Bit) -> Bit: ...

    def oracle(self, sample: Sample) -> Hypothesis: ...

    def annotate_update(self, appended: Iterable[str], deleted: Iterable[str]) -> None: ...


class ActiveList:
    """Ordered list of oracle answers with no extensional repetitions.

    Supports exactly two mutations: append at the end, and deletion of a
    subset of positions preserving the order of the rest.
    """

    def __init__(self) -> None:
        self._functions: list[Hypothesis] = []
        self._supports: set[int] = set()

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self._functions)

    def __getitem__(self, i: int) -> Hypothesis:
        return self._functions[i]

    def functions(self) -> tuple[Hypothesis, ...]:
        return tuple(self._functions)

    def last(self, n: int) -> list[Hypothesis]:
        return self._functions[len(self._functions) - n :]

    def append(self, h: Hypothesis) -> None:
        if h.support in self._supports:
            raise RepeatedActiveFunction(
                f"oracle answer {h.name!r} repeats an active function"
            )
        self._supports.add(h.support)
        self._functions.append(h)

    def delete(self, positions: Iterable[int]) -> None:
        doomed = set(positions)
        if not doomed:
            return
        functions = self._functions
        for i in doomed:
            self._supports.discard(functions[i].support)
        # only the tail from the first deleted position moves: a halving
        # deletes inside the voted suffix, so it pays for that suffix alone
        first = min(doomed)
        functions[first:] = [h for i, h in enumerate(functions[first:], first) if i not in doomed]


@dataclass
class LearnerState:
    """Everything the learner carries between rounds.

    ``mistakes`` is the sample the oracle is queried on: the masks of the
    points labeled on mistaken rounds, and their count. Every active
    function was consistent with the mistake sample as of its append.
    """

    active: ActiveList = field(default_factory=ActiveList)
    mistakes: Sample = field(default_factory=Sample)

    @property
    def mistake_count(self) -> int:
        return self.mistakes.size


def vote_and_update(state: LearnerState, k: int, rounds: RoundInterface) -> None:
    """Run rounds until exactly one mistake, voting over the last 2^k
    active functions.

    Entering with k >= 1 and fewer than 2^k active functions means the
    schedule is broken, and raises ScheduleViolation before any round.
    On the mistake: if k = 0, ``rounds.oracle`` is queried on the updated
    mistake sample and its answer appended; otherwise the earliest
    2^(k-1) voters that agree with the wrong prediction are kept and the
    other 2^(k-1) voters are deleted.
    """
    if k < 0:
        raise ValueError("vote width exponent must be non-negative")
    width = 1 << k
    count = len(state.active)
    if k >= 1 and count < width:
        raise ScheduleViolation(
            f"procedure with vote width 2^{k} entered with only {count} active functions"
        )
    # the list changes only on the mistake that ends the procedure
    voters = state.active.last(width)
    while True:
        x = rounds.next_point()
        ones = sum(h(x) for h in voters)
        y_hat = 1 if 2 * ones >= width else 0  # exact tie predicts 1; no voters predict 0
        y = rounds.submit(y_hat)
        if y == y_hat:
            continue
        state.mistakes = state.mistakes.extended(x, y)
        if k == 0:
            try:
                g = rounds.oracle(state.mistakes)
            except NonRealizable as exc:
                raise OracleFailure(
                    "consistent oracle failed on the mistake sample; "
                    "the adversary played an inconsistent history"
                ) from exc
            if not is_consistent(g, state.mistakes):
                raise OracleFailure(
                    f"oracle answer {g.name!r} disagrees with the mistake sample"
                )
            state.active.append(g)
            rounds.annotate_update((g.name,), ())
        else:
            first = count - width
            agreeing = [i for i, h in enumerate(voters, first) if h(x) == y_hat]
            if len(agreeing) < width // 2:
                raise InsufficientAgreement(
                    f"only {len(agreeing)} of {width} voters agree with the "
                    f"majority prediction"
                )
            kept = set(agreeing[: width // 2])
            doomed = [i for i in range(first, count) if i not in kept]
            names = tuple(state.active[i].name for i in doomed)
            state.active.delete(doomed)
            rounds.annotate_update((), names)
        return


def run_schedule(state: LearnerState, widths: Iterable[int], rounds: RoundInterface) -> None:
    """Run one voting procedure per vote-width exponent, in order."""
    for k in widths:
        vote_and_update(state, k, rounds)


def create_advanced_widths(k: int) -> list[int]:
    """The halting procedure of index k, flattened to the vote-width
    exponents it feeds to vote_and_update, one entry per mistake: 16 rounds
    of the k-1 procedure, each chased by one vote over the functions it
    produced.

    Run by :func:`run_schedule`, it consumes exactly ``halting_mistakes(k)``
    mistakes and grows the active list by exactly 2 * 8^(k+1) functions,
    without deleting any function that predated the run.
    """
    if k < 0:
        raise ValueError("procedure index must be non-negative")
    if k == 0:
        return [0] * 16
    return (create_advanced_widths(k - 1) + [3 * k + 1]) * 16


def predict_widths() -> Iterator[int]:
    """The infinite procedure schedule of the dimension-independent learner.

    After the N-th base procedure, one extra procedure of index j runs for
    every j >= 1 with 16^j dividing N. For every k, the prefix of length
    ``halting_mistakes(k)`` equals ``create_advanced_widths(k)``.
    """
    for n in itertools.count(1):
        yield 0
        j, m = 1, n
        while m % 16 == 0:
            yield 3 * j + 1
            j += 1
            m //= 16


def halting_mistakes(k: int) -> int:
    """Mistakes consumed by a full run of the halting procedure of index k:
    16 + 16^2 + ... + 16^(k+1)."""
    if k < 0:
        raise ValueError("procedure index must be non-negative")
    return sum(16**j for j in range(1, k + 2))


def appended_functions(k: int) -> int:
    """Net growth of the active list over a full halting procedure of index k."""
    return 2 * 8 ** (k + 1)


def mistake_bound(d: int) -> int:
    """Largest mistake count the dimension-independent learner can reach
    against any adversary whose functions stay within dimension d.

    Equals halting_mistakes(2d - 1) - 1: one less than the point where
    create-adv:(2d - 1) would halt, which cannot happen at dimension d.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return halting_mistakes(2 * d - 1) - 1


@dataclass(frozen=True)
class AdvancedCheck:
    """Outcome of an advanced-set check; ``gamma`` is the exact ratio
    ``(p, q)`` in lowest terms, with q > 0."""

    ok: bool
    gamma: tuple[int, int]
    subsets_checked: int
    counterexample: tuple[Hypothesis, ...] | None


def _exact_ratio(gamma: int | str) -> tuple[int, int]:
    """``gamma``, an int or a "p/q" or "p" string, as ``(p, q)`` in lowest
    terms with q > 0."""
    if type(gamma) is int:
        return gamma, 1
    # anything but a str, a bool, a float or a Fraction included, reads as ""
    num, slash, den = gamma.partition("/") if isinstance(gamma, str) else ("", "", "")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        q = 0
    if q <= 0:
        raise ValueError(f"gamma must be an int or a 'p/q' string, got {gamma!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def _meets_bound(dim: int, size: int, total: int, p: int, q: int) -> bool:
    """Exact test of dim >= p/q + log16(size/total) in integer arithmetic."""
    exponent = q * dim - p  # compare 16^exponent against (size/total)^q
    if exponent >= 0:
        return total**q * 16**exponent >= size**q
    return total**q >= size**q * 16**-exponent


def _required_dimension(size: int, total: int, p: int, q: int) -> int:
    d = 0
    while not _meets_bound(d, size, total, p, q):
        d += 1
    return d


# The exact advanced-set check covers all 2^n - 1 subsets, a size level at a time.
EXACT_ADVANCED_LIMIT = 16


def check_advanced(
    functions: Sequence[Hypothesis],
    gamma: int | str,
    *,
    sample_count: int | None = None,
    seed: int = 0,
) -> AdvancedCheck:
    """Check that every non-empty subset A of the given set T satisfies
    ldim(A) >= gamma + log16(|A| / |T|).

    ``gamma`` is an int or a "p/q" or "p" string; it is compared exactly,
    and anything else, a bool, a float or a Fraction included, raises
    ValueError naming it.

    With ``sample_count=None`` every subset is covered (guarded to
    ``EXACT_ADVANCED_LIMIT`` functions); otherwise ``sample_count``, an int
    >= 0, seeded random subsets are checked, plus the full set. Subsets are
    walked by size, each size in combinations order of the functions sorted
    by support, and the first violating one is returned as a
    counterexample. The input must already be free of extensional
    duplicates.
    """
    hyps = tuple(functions)
    if not hyps:
        raise ValueError("advanced-set check needs a non-empty set")
    if len({h.support for h in hyps}) != len(hyps):
        raise ValueError("advanced-set check requires deduplicated hypotheses")
    if sample_count is not None and (type(sample_count) is not int or sample_count < 0):
        raise ValueError(f"sample_count must be an int >= 0 or None, got {sample_count!r}")
    p, q = gamma = _exact_ratio(gamma)
    total = len(hyps)
    if sample_count is None and total > EXACT_ADVANCED_LIMIT:
        raise SizeLimitExceeded(
            f"exact advanced-set check guarded to {EXACT_ADVANCED_LIMIT} functions, got {total}"
        )
    ordered = sorted(hyps, key=lambda h: h.support)
    need = [_required_dimension(size, total, p, q) for size in range(total + 1)]
    if sample_count is None:
        # Sizes decide every level. a distinct functions have dimension at
        # most log2 a, so a level with a < 2^need(a) fails at its first
        # subset, the a smallest supports. A level that needs 1 passes, as
        # two distinct functions differ somewhere. None needs 2 once the
        # singletons pass: those give gamma <= log16 |T|, and then
        # gamma + log16(a/|T|) > 1 means a > 16 >= |T|.
        checked = 0
        for size in range(1, total + 1):
            if size < 1 << need[size]:
                return AdvancedCheck(False, gamma, checked + 1, tuple(ordered[:size]))
            assert need[size] <= 1
            checked += math.comb(total, size)
        return AdvancedCheck(True, gamma, checked, None)
    # bit i is the i-th function in support order, which fixes the first counterexample
    engine = _DimensionEngine(ordered)
    bits = [1 << i for i in range(total)]
    rng = random.Random(seed)
    subsets = [engine.full]
    for _ in range(sample_count):
        size = rng.randint(1, total)
        subsets.append(sum(bits[i] for i in rng.sample(range(total), size)))
    for checked, subset in enumerate(subsets, 1):
        if not engine.at_least(subset, need[subset.bit_count()]):
            members = tuple(h for h, bit in zip(engine.hyps, bits) if subset & bit)
            return AdvancedCheck(False, gamma, checked, members)
    return AdvancedCheck(True, gamma, len(subsets), None)


class PredictLearner:
    """Game driver for the dimension-independent learner: the infinite
    schedule of :func:`predict_widths`."""

    name = "predict"
    state: LearnerState | None = None  # each run starts a fresh one

    def widths(self) -> Iterable[int]:
        return predict_widths()

    def run(self, rounds: RoundInterface) -> None:
        self.state = LearnerState()
        run_schedule(self.state, self.widths(), rounds)


class CreateAdvancedLearner(PredictLearner):
    """Game driver running the halting procedure of index k once, then
    halting: predict's schedule, cut lazily where the first procedure of
    index k + 1 starts, right after the halting procedure of index k ends."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("procedure index must be non-negative")
        self.k = k
        self.name = f"create-adv:{k}"

    def widths(self) -> Iterable[int]:
        return itertools.takewhile((3 * self.k + 4).__ne__, predict_widths())
