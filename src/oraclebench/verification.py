"""Named verification suites behind the ``verify`` command.

Each suite runs a bundle of assertions tied to one claim about the
implementation (mistake counts of the adversaries, halting counts of the
procedures, advanced-set inequalities, dimension machinery) and reports
them individually, so a failure names the exact broken property.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

from .adversary import (
    ClassGreedyAdversary,
    DigitRecovery,
    FloodAdversary,
    FreeAdversary,
    RandomClassAdversary,
    TernaryAdversary,
)
from .game import GameConfig, Learner, Transcript, run_game, validate_transcript
from .hypotheses import Hypothesis, HypothesisClass
from .learner import (
    CreateAdvancedLearner,
    PredictLearner,
    appended_functions,
    check_advanced,
    create_advanced_widths,
    halting_mistakes,
    mistake_bound,
    predict_widths,
)
from .littlestone import (
    MINIMAX_MAX_HYPOTHESES,
    LabeledTree,
    SOALearner,
    TreeNode,
    find_shattered_tree,
    is_shattered,
    ldim,
    ldim_at_least,
    minimax_adversary_value,
)


@dataclass(frozen=True)
class CheckResult:
    """One verified property: its name, whether it holds, and what was found."""

    name: str
    ok: bool
    detail: str


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(ok), detail)


# ----------------------------------------------------------------------
# class generators shared by suites and tests


def threshold_hypotheses(points: int = 8) -> list[Hypothesis]:
    """All step functions 1[x >= t] on the domain 0..points-1."""
    return [Hypothesis(f"ge{t}", (1 << points) - (1 << t)) for t in range(points + 1)]


def threshold_pair_classes(points: int = 8) -> list[HypothesisClass]:
    """Every two-threshold class on the domain; each has dimension exactly 1."""
    domain = tuple(range(points))
    thresholds = threshold_hypotheses(points)
    return [
        HypothesisClass(domain, (a, b))
        for a, b in itertools.combinations(thresholds, 2)
    ]


def random_class(rng: random.Random, max_hypotheses: int = 10, max_points: int = 8) -> HypothesisClass:
    """A seeded random truth-table class."""
    n_points = rng.randint(1, max_points)
    n_hyps = rng.randint(1, max_hypotheses)
    domain = tuple(range(n_points))
    hyps = tuple(
        Hypothesis(f"h{i}", support=sum(rng.randrange(2) << x for x in domain))
        for i in range(n_hyps)
    )
    return HypothesisClass(domain, hyps)


def random_classes(count: int, seed: int, max_hypotheses: int = 10, max_points: int = 8) -> list[HypothesisClass]:
    rng = random.Random(seed)
    return [random_class(rng, max_hypotheses, max_points) for _ in range(count)]


def _heap_tree(d: int) -> LabeledTree:
    """The complete depth-d tree on the points 0..2^d - 2 in heap order:
    node i's children are 2i + 1 on branch 0 and 2i + 2 on branch 1."""

    def node(i: int) -> TreeNode | None:
        return TreeNode(i, node(2 * i + 1), node(2 * i + 2)) if i < 2**d - 1 else None

    return LabeledTree(node(0), d)


def dimension_classes(d: int, seed: int) -> Iterator[HypothesisClass]:
    """100 seeded classes of dimension d >= 1, built one at a time. Each lies on the
    points of ``_heap_tree(d)`` and the 1..8 drawn as ``random_class`` draws them: one
    member per leaf, with the leaf's path labels on the tree and seeded bits elsewhere,
    then fewer than 2^d seeded members. The leaves shatter the tree, so ldim >= d, and
    fewer than 2^(d+1) members keep ldim <= log2 |H| < d + 1."""
    rng = random.Random(seed)
    paths, inner = [leaf.ones for leaf in _heap_tree(d).leaf_samples()], 2**d - 1
    for _ in range(100):
        n = max(inner, rng.randint(1, 8))
        supports = [rng.getrandbits(n) >> inner << inner | path for path in paths]
        supports += [rng.getrandbits(n) for _ in range(rng.randrange(2**d))]
        yield HypothesisClass(tuple(range(n)), tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports)))


# ----------------------------------------------------------------------
# named games: each owns its adversary, its GameConfig and its round cap


def ternary_game(learner: Learner, d: int) -> Transcript:
    """``learner`` against the ternary adversary, which stops after its 3^d
    points; the cap, 10 rounds past them, only ends a game a fault prolongs."""
    return run_game(learner, TernaryAdversary(d), GameConfig(d=d, round_cap=3**d + 10))


def flood_game(learner: Learner, d: int) -> Transcript:
    """``learner`` against the flood adversary, capped as ``ternary_game`` is."""
    return run_game(learner, FloodAdversary(d), GameConfig(d=d, round_cap=2 ** (d + 1) - 1 + 10))


def class_greedy_game(learner: Learner, c: HypothesisClass, d: int) -> Transcript:
    """``learner`` against the class-greedy adversary of ``c``, of dimension
    d >= 1. The game ends at the cap, or once the adversary has settled and
    a whole pass of the domain went by with no mistake. The d = 1 cap of
    300 rounds still exceeds the budget of 271, so a learner that kept
    erring would be caught past it; for larger d the budget dwarfs any
    playable game and the cap of 500 truncates well below it."""
    cap = min(mistake_bound(d) + 29, 500)
    return run_game(learner, ClassGreedyAdversary(c), GameConfig(d=d, round_cap=cap))


def halting_game(k: int) -> tuple[Transcript, CreateAdvancedLearner]:
    """The halting procedure of index k against the free adversary, which
    flips every prediction, capped 10 rounds past ``halting_mistakes(k)``.
    Returns the transcript and the learner, which holds the functions left."""
    learner = CreateAdvancedLearner(k)
    t = run_game(learner, FreeAdversary(), GameConfig(d=None, round_cap=halting_mistakes(k) + 10))
    return t, learner


# ----------------------------------------------------------------------
# suites


def _dimension_check(name: str, over: bool, d: int) -> CheckResult:
    """Passes iff ``over``, whether the revealed set has dimension above d, is False."""
    return _check(name, not over, f"revealed set has dimension {'above' if over else 'at most'} {d}")


def _mistakes_check(name: str, t: Transcript, want: int) -> CheckResult:
    ok = t.mistake_count == want and len(t.rounds) == want
    return _check(name, ok, f"{t.mistake_count} mistakes in {len(t.rounds)} rounds, want {want}")


# the largest d whose suite ends within a minute (README "Size guards")
LOWER_LIMIT = 6
UPPER_LIMIT = 8  # from d = 9, 511 points outlast class_greedy_game's 500-round cap: no quiet pass ends


def verify_lower(d: int, seed: int = 0) -> list[CheckResult]:
    """Lower-bound suite: ternary and flood adversaries force their full mistake
    counts within dimension d. Every check is exact; ``seed`` changes nothing.
    Each revealed set's dimension is one engine call, ``ldim_at_least(·, d + 1)``:
    the ternary set's is a search that ``LOWER_LIMIT`` keeps within a minute,
    and the flood set's is settled by the size bound. The digit-recovery
    learner has a check of its own."""
    if d > LOWER_LIMIT:
        return [_check(f"lower:{d}", False, f"guard: lower bounds checked up to d = {LOWER_LIMIT}")]
    t = ternary_game(PredictLearner(), d)
    # history consistency only: the dimension check below decides the set once
    report = validate_transcript(replace(t, config=replace(t.config, d=None)))
    # the class is the revealed set: labels and each f_r come from the game
    worst, faults = DigitRecovery(d, tuple(r.y for r in t.rounds)).search(t.functions)
    n = 2 ** (d + 1) - 1
    ft = flood_game(PredictLearner(), d)
    return [
        _mistakes_check(f"lower:{d} ternary mistakes", t, 3**d),
        _check(f"lower:{d} ternary consistency", report.passed,
               report.first_failure or "every revealed function matches the history"),
        _dimension_check(f"lower:{d} ternary dimension", ldim_at_least(t.functions, d + 1), d),
        _check(f"lower:{d} informative learner", not faults and worst <= d,
               f"learner fault on {len(faults)} of {len(t.functions)} functions, first {faults[0]}" if faults
               else f"exact worst case {worst} mistakes over every query sequence, bound {d}"),
        _mistakes_check(f"lower:{d} flood mistakes", ft, n),
        _dimension_check(f"lower:{d} flood dimension", ldim_at_least(ft.functions, d + 1), d),
    ]


def verify_upper(d: int, seed: int = 0) -> list[CheckResult]:
    """Upper-bound suite: over the 100 ``dimension_classes`` of d, played as they
    are built (after the 36 threshold pairs at d = 1), the oracle learner stays below
    its budget and the version-space learner within the dimension, each in
    ``class_greedy_game``; each built class's dimension is checked by definition."""
    if d > UPPER_LIMIT:
        return [_check(f"upper:{d}", False, f"guard: upper bounds checked up to d = {UPPER_LIMIT}")]
    pairs = threshold_pair_classes(8) if d == 1 else []
    tree, bound = _heap_tree(d), mistake_bound(d)
    worst_predict = worst_soa = 0
    failures: dict[str, str] = {}  # each check's first failure
    for i, c in enumerate(itertools.chain(pairs, dimension_classes(d, seed))):
        if i >= len(pairs):  # a built class: ldim >= d by its tree, and ldim <= d by its size
            if not is_shattered(tree, c):
                failures.setdefault("class", f"class #{i}: the depth-{d} heap tree is not shattered")
            if len({h.support for h in c}) >= 2 ** (d + 1):
                failures.setdefault("class", f"class #{i}: at least {2 ** (d + 1)} distinct members")
        t = class_greedy_game(PredictLearner(), c, d)
        worst_predict = max(worst_predict, t.mistake_count)
        if t.mistake_count > bound:
            failures.setdefault("budget", f"class #{i}: predict made {t.mistake_count} > {bound}")
        ts = class_greedy_game(SOALearner(c), c, d)
        worst_soa = max(worst_soa, ts.mistake_count)
        if ts.mistake_count > d:
            failures.setdefault("soa", f"class #{i}: soa made {ts.mistake_count} > {d}")
    return [
        _check(f"upper:{d} oracle learner budget", "budget" not in failures,
               failures.get("budget", f"worst {worst_predict} mistakes over {i + 1} classes, bound {bound}")),
        _check(f"upper:{d} soa within dimension", "soa" not in failures,
               failures.get("soa", f"worst {worst_soa} mistakes over {i + 1} classes, bound {d}")),
        _check(f"upper:{d} class dimension", "class" not in failures,
               failures.get("class", f"{i + 1 - len(pairs)} built classes shatter the depth-{d} heap tree "
                                     f"with fewer than {2 ** (d + 1)} members")),
    ]


def verify_advanced(k: int, seed: int = 0) -> list[CheckResult]:
    """Advanced-set suite: the halting procedure's counting and the subset
    dimension inequality of the functions it leaves behind."""
    if k not in (0, 1):
        return [_check(f"advanced:{k}", False, "guard: only k = 0 and k = 1 are supported")]
    t, learner = halting_game(k)
    results = [_check(f"advanced:{k} halting count",
                      t.stopped_by == "learner_halted" and t.mistake_count == halting_mistakes(k),
                      f"halted after {t.mistake_count} mistakes, want {halting_mistakes(k)}")]
    produced = learner.state.active.functions()
    expected = appended_functions(k)
    distinct = len({h.support for h in produced})
    results.append(
        _check(
            f"advanced:{k} attached functions",
            len(produced) == expected and distinct == expected,
            f"{len(produced)} functions ({distinct} distinct), want {expected}",
        )
    )
    if k == 0:
        check = check_advanced(produced, 1)
        results.append(
            _check(
                "advanced:0 subset inequality (gamma=1, exact)",
                check.ok and check.subsets_checked == 2**16 - 1,
                f"{check.subsets_checked} subsets checked"
                + ("" if check.ok else ": found a violating subset"),
            )
        )
    else:
        tree = find_shattered_tree(produced, 2)
        results.append(
            _check(
                "advanced:1 depth-2 certificate",
                tree is not None and is_shattered(tree, produced),
                "independently verified shattered tree of depth 2"
                if tree is not None
                else "no depth-2 tree found",
            )
        )
        check = check_advanced(produced, "3/2", sample_count=200, seed=seed)
        results.append(
            _check(
                "advanced:1 subset inequality (gamma=1.5, sampled)",
                check.ok,
                f"{check.subsets_checked} subsets checked"
                + ("" if check.ok else ": found a violating subset"),
            )
        )
    return results


def verify_prefix(k: int) -> list[CheckResult]:
    """Schedule-equivalence suite: the dimension-independent learner's
    procedure order realizes each halting procedure as a prefix."""
    if k > 3:
        return [_check(f"prefix:{k}", False, "guard: prefixes checked up to k = 3")]
    want = create_advanced_widths(k)
    got = list(itertools.islice(predict_widths(), len(want)))
    cut = list(CreateAdvancedLearner(k).widths())
    return [
        _check(
            f"prefix:{k} schedule equivalence",
            got == want == cut,
            f"prefix of length {len(want)} matches the recursive flattening",
        )
    ]


def verify_props(seed: int = 0) -> list[CheckResult]:
    """Dimension-machinery suite over 200 seeded random classes, drawn one at
    a time as ``random_classes`` draws them. Each class's checks run on its
    own engine, and a restriction side is an index mask of that engine."""
    rng = random.Random(seed)
    minimax_checked = 0
    failures: dict[str, str] = {}  # each check's first failure
    for i in range(200):
        c = random_class(rng)
        engine = c.engine
        full = engine.full
        dim = ldim(c)
        limit = len(engine.hyps).bit_length() - 1
        if dim > limit:
            failures.setdefault("size bound", f"class #{i}: ldim {dim} > log2 bound {limit}")
        for x in c.domain:
            one = full & engine.column(x)
            zero = full ^ one
            if zero and one and dim < min(engine.ldim(zero), engine.ldim(one)) + 1:
                failures.setdefault("restriction inequality", f"class #{i}: restriction inequality fails at {x}")
        if dim >= 1:
            tree = find_shattered_tree(c, dim)
            if tree is None or not is_shattered(tree, c):
                failures.setdefault("certificates", f"class #{i}: no verified certificate at depth {dim}")
        if find_shattered_tree(c, dim + 1) is not None:
            failures.setdefault("certificates", f"class #{i}: certificate above the dimension")
        if len(engine.hyps) <= MINIMAX_MAX_HYPOTHESES:
            minimax_checked += 1
            if minimax_adversary_value(c) != dim:
                failures.setdefault("minimax equals ldim", f"class #{i}: game value differs from ldim {dim}")
        for adversary in (ClassGreedyAdversary(c), RandomClassAdversary(c, seed + i)):
            t = run_game(SOALearner(c), adversary, GameConfig(d=dim, round_cap=25))
            if t.mistake_count > dim:
                failures.setdefault(
                    "soa mistake bound", f"class #{i}: soa made {t.mistake_count} > ldim {dim} vs {adversary.name}"
                )
    return [
        _check(f"props {name}", name not in failures, failures.get(name, passed))
        for name, passed in (
            ("size bound", "200 classes"),
            ("restriction inequality", "200 classes"),
            ("certificates", "200 classes"),
            ("minimax equals ldim", f"{minimax_checked} classes within guard"),
            ("soa mistake bound", "200 classes, two adversaries"),
        )
    ]
