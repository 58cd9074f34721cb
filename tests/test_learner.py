from __future__ import annotations

import itertools
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute_oracles import advanced_subset_walk
from conftest import hyp
from oraclebench.errors import (
    NonRealizable,
    OracleFailure,
    RepeatedActiveFunction,
    ScheduleViolation,
    SizeLimitExceeded,
)
from oraclebench import littlestone
from oraclebench.adversary import FreeAdversary
from oraclebench.game import GameConfig, run_game
from oraclebench.hypotheses import Hypothesis, Sample
from oraclebench.learner import (
    ActiveList,
    CreateAdvancedLearner,
    LearnerState,
    PredictLearner,
    _required_dimension,
    appended_functions,
    check_advanced,
    create_advanced_widths,
    halting_mistakes,
    mistake_bound,
    predict_widths,
    run_schedule,
    vote_and_update,
)


class ScriptedRounds:
    """Round source replaying a fixed (x, y) script, ignoring predictions;
    its oracle answers with the queried sample's minimal extension unless
    another ``oracle`` is given."""

    def __init__(self, script, oracle=None):
        self.script = list(script)
        self.submitted: list[tuple[int, int, int]] = []
        self.updates: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        self._x = None
        if oracle is not None:
            self.oracle = oracle

    def next_point(self) -> int:
        self._x = self.script[len(self.submitted)][0]
        return self._x

    def submit(self, y_hat) -> int:
        y = self.script[len(self.submitted)][1]
        self.submitted.append((self._x, y_hat, y))
        return y

    def oracle(self, sample) -> Hypothesis:
        return Hypothesis("ext", support=sample.ones)

    def annotate_update(self, appended, deleted) -> None:
        self.updates.append((tuple(appended), tuple(deleted)))


class FlipRounds:
    """Round source that plays fresh points and always flips the prediction,
    answering oracle queries with minimal extensions of the history."""

    def __init__(self):
        self.history: list[tuple[int, int]] = []
        self._x = 0

    def next_point(self) -> int:
        return self._x

    def submit(self, y_hat) -> int:
        y = 1 - y_hat
        self.history.append((self._x, y))
        self._x += 1
        return y

    def oracle(self, sample) -> Hypothesis:
        return Hypothesis(f"g{len(self.history)}", support=Sample(self.history).ones)

    def annotate_update(self, appended, deleted) -> None:
        pass


def test_active_list_rejects_extensional_repeats() -> None:
    lst = ActiveList()
    lst.append(hyp("a", "10"))
    with pytest.raises(RepeatedActiveFunction):
        lst.append(hyp("b", "1"))  # same function, different table padding
    lst.append(hyp("c", "11"))
    assert len(lst) == 2


def test_active_list_delete_preserves_order_and_frees_supports() -> None:
    lst = ActiveList()
    for i, bits in enumerate(("100", "010", "001", "110")):
        lst.append(hyp(f"h{i}", bits))
    lst.delete([1, 2])
    assert [h.name for h in lst] == ["h0", "h3"]
    lst.append(hyp("again", "010"))  # deleted functions may return later
    assert [h.name for h in lst] == ["h0", "h3", "again"]


@given(doomed_flags=st.lists(st.booleans(), max_size=12), unordered=st.booleans())
def test_active_list_delete_matches_a_plain_list(doomed_flags, unordered) -> None:
    # all False is the empty deletion, all True deletes everything, and any
    # other pattern may leave kept functions after deleted ones
    functions = [Hypothesis(f"h{i}", support=1 << i) for i in range(len(doomed_flags))]
    lst = ActiveList()
    for h in functions:
        lst.append(h)
    doomed = [i for i, flag in enumerate(doomed_flags) if flag]
    lst.delete(reversed(doomed) if unordered else doomed)
    kept = [h for h, flag in zip(functions, doomed_flags) if not flag]
    assert list(lst) == kept
    assert len(lst) == len(kept)
    for h in kept:
        with pytest.raises(RepeatedActiveFunction):
            lst.append(Hypothesis("copy", support=h.support))
    for i in doomed:
        lst.append(Hypothesis(f"again{i}", support=1 << i))
    assert [h.name for h in lst] == [h.name for h in kept] + [f"again{i}" for i in doomed]


def test_empty_list_predicts_zero() -> None:
    rounds = ScriptedRounds([(5, 0)])
    state = LearnerState()
    # y matches the default prediction 0, so the procedure keeps looping;
    # feed a second round that forces the mistake and the return
    rounds.script.append((6, 1))
    vote_and_update(state, 0, rounds)
    assert rounds.submitted == [(5, 0, 0), (6, 0, 1)]
    assert (state.mistakes.ones, state.mistakes.zeros, len(state.mistakes)) == (1 << 6, 0, 1)
    assert len(state.active) == 1
    assert rounds.updates == [((state.active[0].name,), ())]


def test_width_one_vote_follows_last_function() -> None:
    state = LearnerState()
    state.active.append(hyp("g", "1"))  # g(0) = 1
    rounds = ScriptedRounds([(0, 0)])
    vote_and_update(state, 0, rounds)
    assert rounds.submitted == [(0, 1, 0)]  # predicted g(0) = 1, mistake
    assert len(state.active) == 2


def test_tie_prediction_is_one_and_keeps_the_agreeing_voter() -> None:
    state = LearnerState()
    state.active.append(hyp("one", "1"))   # 1 at point 0
    state.active.append(hyp("zero", "0"))  # 0 at point 0
    rounds = ScriptedRounds([(0, 0)])
    vote_and_update(state, 1, rounds)
    assert rounds.submitted == [(0, 1, 0)]  # split vote, tie predicts 1
    assert [h.name for h in state.active] == ["one"]


def test_majority_deletion_keeps_earliest_agreeing_half() -> None:
    state = LearnerState()
    for name, bits in (("a", "100"), ("b", "110"), ("c", "101"), ("d", "010")):
        state.active.append(hyp(name, bits))
    rounds = ScriptedRounds([(0, 0)])
    vote_and_update(state, 2, rounds)
    assert rounds.submitted == [(0, 1, 0)]  # votes (1,1,1,0) predict 1
    # keep the earliest two functions that voted 1; delete the other two
    assert [h.name for h in state.active] == ["a", "b"]
    assert rounds.updates == [((), ("c", "d"))]


def test_short_list_raises_before_any_round() -> None:
    # a procedure of index k >= 1 needs 2^k voters, and vote_and_update alone enforces it
    state = LearnerState()
    state.active.append(hyp("g", "1"))
    rounds = ScriptedRounds([(3, 1)])
    with pytest.raises(ScheduleViolation, match=r"^procedure with vote width 2\^2 entered with only 1 active functions$"):
        vote_and_update(state, 2, rounds)  # width 4 > 1 active function
    assert rounds.submitted == []
    assert [h.name for h in state.active] == ["g"] and state.mistake_count == 0


def test_returns_after_exactly_one_mistake() -> None:
    rounds = ScriptedRounds([(0, 0), (1, 0), (2, 1), (9, 9)])
    state = LearnerState()
    vote_and_update(state, 0, rounds)
    assert len(rounds.submitted) == 3  # stopped at the first mistake
    assert state.mistake_count == 1


def test_oracle_failure_on_inconsistent_answer() -> None:
    state = LearnerState()
    rounds = ScriptedRounds([(0, 1)], oracle=lambda s: hyp("liar", "0"))
    with pytest.raises(OracleFailure):
        vote_and_update(state, 0, rounds)


def test_an_oracle_that_cannot_realize_the_mistake_sample_is_an_oracle_failure() -> None:
    def refuse(sample):
        raise NonRealizable("revealed function 'f' does not realize the queried sample")

    with pytest.raises(OracleFailure, match="consistent oracle failed on the mistake sample") as info:
        vote_and_update(LearnerState(), 0, ScriptedRounds([(0, 1)], oracle=refuse))
    assert isinstance(info.value.__cause__, NonRealizable)


@pytest.mark.parametrize("k,mistakes,attached", [(0, 16, 16), (1, 272, 128)])
def test_create_advanced_counts(k: int, mistakes: int, attached: int) -> None:
    rounds = FlipRounds()
    state = LearnerState()
    run_schedule(state, create_advanced_widths(k), rounds)
    assert state.mistake_count == mistakes == halting_mistakes(k)
    functions = state.active.functions()
    assert len(functions) == attached == appended_functions(k)
    assert len({h.support for h in functions}) == attached


def test_mistake_sample_of_a_create_advanced_2_game_matches_its_transcript() -> None:
    learner = CreateAdvancedLearner(2)
    t = run_game(learner, FreeAdversary(), GameConfig(d=None, round_cap=5000))
    assert t.stopped_by == "learner_halted"
    mistakes = learner.state.mistakes
    assert mistakes.size == len(mistakes) == 4368
    rebuilt = Sample((r.x, r.y) for r in t.rounds if r.mistake)
    assert (mistakes.ones, mistakes.zeros) == (rebuilt.ones, rebuilt.zeros)


def test_create_advanced_never_deletes_preexisting_functions() -> None:
    rounds = FlipRounds()
    state = LearnerState()
    run_schedule(state, create_advanced_widths(0), rounds)
    before = state.active.functions()
    run_schedule(state, create_advanced_widths(1), rounds)
    assert state.active.functions()[: len(before)] == before
    assert state.mistake_count == halting_mistakes(0) + halting_mistakes(1)
    assert len(state.active) == len(before) + appended_functions(1)


def test_budget_values() -> None:
    assert [halting_mistakes(k) for k in range(4)] == [16, 272, 4368, 69904]
    assert mistake_bound(1) == 271
    assert mistake_bound(2) == 69903


def test_schedule_first_seventeen_procedures() -> None:
    first = list(itertools.islice(predict_widths(), 17))
    assert first == [0] * 16 + [4]


def test_schedule_at_multiples_of_256() -> None:
    # the 256th base procedure is chased by widths 4 and then 7
    widths = predict_widths()
    seen: list[tuple[int, int]] = []  # (n, width) bookkeeping via replay
    n = 0
    chase: list[int] = []
    for w in itertools.islice(widths, 0, 300):
        if w == 0:
            if n == 256:
                break
            n += 1
            chase = []
        else:
            chase.append(w)
    assert chase == [4, 7]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_schedule_prefixes_match_recursive_flattening(k: int) -> None:
    want = create_advanced_widths(k)
    assert len(want) == halting_mistakes(k)
    assert list(itertools.islice(predict_widths(), len(want))) == want


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_create_adv_cuts_the_lazy_schedule_at_the_recursive_flattening(k: int) -> None:
    assert list(CreateAdvancedLearner(k).widths()) == create_advanced_widths(k)


def test_create_adv_refuses_a_negative_index() -> None:
    # predict's schedule never reaches the cut 3 * k + 4 for k < 0, so it would never halt
    with pytest.raises(ValueError, match="^procedure index must be non-negative$"):
        CreateAdvancedLearner(-1)


@pytest.mark.parametrize("k", ["7", "1000000000"])
def test_a_capped_create_adv_game_builds_no_schedule_up_front(k: str) -> None:
    # the recursive list of create-adv:7 would take about 37 GB; under a 1 GiB
    # address-space limit ten rounds still finish, since the schedule is lazy
    src = Path(__file__).resolve().parent.parent / "src"
    limit = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "oraclebench.cli", "simulate", "--learner", f"create-adv:{k}",
         "--adversary", "free", "--cap", "10"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (done.returncode, done.stdout) == (0, "mistakes=10 rounds=10 stopped_by=round_cap validation=ok\n"), done.stderr


def test_predict_learner_runs_the_schedule() -> None:
    rounds = FlipRounds()
    learner = PredictLearner()

    class Stop(Exception):
        pass

    stop_after = halting_mistakes(1)
    original_submit = rounds.submit

    def counting_submit(y_hat, **kw):
        if len(rounds.history) >= stop_after:
            raise Stop
        return original_submit(y_hat, **kw)

    rounds.submit = counting_submit
    with pytest.raises(Stop):
        learner.run(rounds)
    # after exactly halting_mistakes(1) flips the list looks like a full
    # create-adv:1 run
    assert learner.state.mistake_count == stop_after
    assert len(learner.state.active) == appended_functions(1)


def test_predict_learner_schedule_violation_guard() -> None:
    rounds = FlipRounds()
    with pytest.raises(ScheduleViolation, match=r"^procedure with vote width 2\^4 entered with only 0 active"):
        run_schedule(LearnerState(), [4], rounds)
    assert rounds.history == []  # the guard fires before any round is played


def test_create_adv_learner_schedule_violation_guard(monkeypatch) -> None:
    import oraclebench.learner as learner_module

    # the first procedure votes over 16 functions while the list is empty
    monkeypatch.setattr(learner_module, "predict_widths", lambda: iter([4]))
    learner = CreateAdvancedLearner(1)
    with pytest.raises(ScheduleViolation):
        learner.run(FlipRounds())
    assert learner.state.mistake_count == 0


def _distinct_functions(n: int) -> list[Hypothesis]:
    return [hyp(f"h{i}", format(i + 1, "08b")) for i in range(n)]


def test_check_advanced_sixteen_distinct_functions() -> None:
    check = check_advanced(_distinct_functions(16), 1)
    assert check.ok
    assert check.subsets_checked == 2**16 - 1
    assert check.counterexample is None


def test_check_advanced_singleton_fails_gamma_one() -> None:
    h = hyp("h", "1")
    check = check_advanced([h], 1)
    assert not check.ok
    assert check.counterexample == (h,)


def test_check_advanced_detects_violations_at_higher_gamma() -> None:
    # a singleton subset needs dimension >= 2 + log16(1/16) = 1: impossible
    check = check_advanced(_distinct_functions(16), 2)
    assert not check.ok
    # subsets run by size, then in support order: the first singleton,
    # h15's (support 0b1000), fails first
    assert check.subsets_checked == 1
    assert [h.name for h in check.counterexample] == ["h15"]


def test_check_advanced_rejects_duplicates_and_oversize() -> None:
    h = hyp("h", "1")
    with pytest.raises(ValueError):
        check_advanced([h, hyp("h2", "10")], 1)
    with pytest.raises(SizeLimitExceeded):
        check_advanced(_distinct_functions(17), 1)


def test_check_advanced_counterexample_matches_recorded_output() -> None:
    # 20 point functions e_j and two small patterns, listed out of support
    # order; subsets index the functions in support order, so the
    # counterexample lists p0 (support 30) first. Recorded from the
    # frozenset-of-supports engine.
    names = "e8 e2 e9 e0 p1 e3 e12 e10 e1 e5 p0 e17 e16 e6 e18 e13 e15 e7 e4 e19 e11 e14".split()
    patterns = {"p0": 0b11110, "p1": 0b101011}
    fns = [Hypothesis(n, support=patterns.get(n) or 1 << (10 + int(n[1:]))) for n in names]
    check = check_advanced(fns, "5/4", sample_count=40, seed=2)
    assert not check.ok
    assert check.subsets_checked == 4
    assert [h.name for h in check.counterexample] == (
        "p0 e3 e4 e5 e6 e9 e10 e11 e12 e14 e15 e16 e17 e18".split()
    )


def test_importing_the_package_loads_neither_fractions_nor_decimal() -> None:
    # gamma is an exact pair of ints, so neither importing the package nor
    # running the advanced suites and a sampled check pulls them in
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys, oraclebench\n"
        "from oraclebench.learner import check_advanced\n"
        "from oraclebench.verification import verify_advanced\n"
        "assert all(r.ok for r in verify_advanced(0) + verify_advanced(1))\n"
        "fns = [oraclebench.Hypothesis(f'h{i}', i + 1) for i in range(20)]\n"
        "assert check_advanced(fns, '3/2', sample_count=30).gamma == (3, 2)\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def _fraction_need(size: int, total: int, gamma: Fraction) -> int:
    """The least d >= 0 with d >= gamma + log16(size/total), decided with
    Fractions: 16^(a/b) >= s/t iff 16^a >= (s/t)^b for b > 0."""
    d = 0
    while size:
        e = d - gamma
        if Fraction(16) ** e.numerator >= Fraction(size, total) ** e.denominator:
            break
        d += 1
    return d


@pytest.mark.parametrize("gamma", ["0", "1/2", "1", "5/4", "3/2", "2", "7/3"])
def test_required_dimension_matches_a_fraction_reference(gamma) -> None:
    exact = Fraction(gamma)
    for total in range(1, 41):
        assert [_required_dimension(size, total, exact.numerator, exact.denominator)
                for size in range(total + 1)] == [
            _fraction_need(size, total, exact) for size in range(total + 1)
        ], total


@pytest.mark.parametrize("gammas, ratio", [
    ((1, "1", "2/2"), (1, 1)),
    (("3/2", "6/4"), (3, 2)),
])
def test_check_advanced_reads_every_form_of_one_gamma_alike(gammas, ratio) -> None:
    functions = _distinct_functions(12)
    checks = [check_advanced(functions, gamma, sample_count=60, seed=1) for gamma in gammas]
    assert all(check == checks[0] for check in checks)
    assert checks[0].gamma == ratio


@pytest.mark.parametrize("gamma", ["x", "1/0", ""])
def test_check_advanced_names_a_malformed_gamma(gamma) -> None:
    with pytest.raises(ValueError, match=f"gamma must be .*, got {gamma!r}"):
        check_advanced(_distinct_functions(3), gamma)


@pytest.mark.parametrize("gamma", [True, 1.0, 1.5, Fraction(3, 2), None])
def test_check_advanced_refuses_a_gamma_that_is_neither_an_int_nor_a_string(gamma) -> None:
    want = f"gamma must be an int or a 'p/q' string, got {gamma!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        check_advanced(_distinct_functions(3), gamma)


def test_check_advanced_sampled_mode_is_seeded() -> None:
    fns = _distinct_functions(17)
    a = check_advanced(fns, 1, sample_count=50, seed=3)
    b = check_advanced(fns, 1, sample_count=50, seed=3)
    assert a == b
    assert a.subsets_checked == 51


def _plant(monkeypatch, violating: set[frozenset[str]]) -> list[int]:
    """Make the engine's decision fail on exactly the named subsets, and
    return the list of the sets it is asked about."""
    at_least = littlestone._DimensionEngine.at_least
    asked: list[int] = []

    def planted(engine, s, d):
        asked.append(s)
        names = frozenset(h.name for i, h in enumerate(engine.hyps) if s >> i & 1)
        return names not in violating and at_least(engine, s, d)

    monkeypatch.setattr(littlestone._DimensionEngine, "at_least", planted)
    return asked


@pytest.mark.parametrize("positions", [[], [0], [7], [12, 30], [39, 5]])
def test_sampled_check_advanced_finds_the_first_planted_violation(monkeypatch, positions) -> None:
    # plant violations at the given places of the seeded sample, whose
    # first subset is the full set
    functions = _distinct_functions(16)
    ordered = sorted(functions, key=lambda h: h.support)  # bit i of a subset is ordered[i]
    violating: set[frozenset[str]] = set()
    asked = _plant(monkeypatch, violating)
    assert check_advanced(functions, 1, sample_count=40, seed=5).ok
    sample = list(asked)
    names = [frozenset(h.name for i, h in enumerate(ordered) if s >> i & 1) for s in sample]
    assert len(sample) == 41 and sample[0] == (1 << 16) - 1
    violating.update(names[i] for i in positions)
    asked.clear()
    check = check_advanced(functions, 1, sample_count=40, seed=5)
    first = next((i for i, a in enumerate(names) if a in violating), None)
    assert check.ok == (first is None)
    assert check.subsets_checked == (41 if first is None else first + 1)
    assert check.counterexample == (None if first is None else tuple(h for h in ordered if h.name in names[first]))
    # every subset up to the counterexample went through the engine's decision
    assert asked == sample[: check.subsets_checked]


GAMMAS = ["-1", "0", "1/4", "1/2", "3/4", "1", "5/4", "3/2", "2", "7/3"]


def test_exact_check_advanced_matches_the_subset_walk() -> None:
    # n of the 16 functions on the points 0..3, in a scrambled order
    for n in range(1, 17):
        functions = [Hypothesis(f"h{i}", (i * 7 + 3) % 16) for i in range(n)]
        for gamma in GAMMAS:
            p, q = Fraction(gamma).as_integer_ratio()
            check = check_advanced(functions, gamma)
            walked, first = advanced_subset_walk(functions, p, q)
            assert (check.ok, check.subsets_checked, check.counterexample) == (first is None, walked, first), (n, gamma)


def test_exact_check_advanced_asks_the_engine_nothing(monkeypatch) -> None:
    asked = _plant(monkeypatch, set())
    for gamma in GAMMAS:
        check_advanced(_distinct_functions(16), gamma)
    assert asked == []


@pytest.mark.parametrize("count", [-3, True, 2.0, "5"])
def test_check_advanced_rejects_a_bad_sample_count(count) -> None:
    with pytest.raises(ValueError, match=f"sample_count must be an int >= 0 or None, got {count!r}"):
        check_advanced(_distinct_functions(3), 1, sample_count=count)
