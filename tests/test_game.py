from __future__ import annotations

import itertools
import json
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_oracles import brute_ldim
from conftest import hyp
from oraclebench.adversary import FloodAdversary, FreeAdversary, TernaryAdversary
from oraclebench.errors import (
    DimensionViolation,
    IllegalAdversaryFunction,
    IllegalPrediction,
    NonRealizable,
    PointError,
    SizeLimitExceeded,
    TranscriptError,
)
from oraclebench.game import (
    ROUND_CAP_LIMIT,
    GameConfig,
    Round,
    RoundChannel,
    Transcript,
    _Referee,
    load_transcript,
    run_game,
    save_transcript,
    validate_transcript,
)
from oraclebench.hypotheses import Hypothesis, HypothesisClass, Sample
from oraclebench.learner import CreateAdvancedLearner, PredictLearner
from oraclebench.littlestone import SOALearner
from oraclebench.adversary import ClassGreedyAdversary


class CorruptedAdversary:
    """Claims label 1 while revealing a function that is 0 everywhere."""

    name = "corrupted"

    def __init__(self) -> None:
        self._r = 0

    def next_point(self):
        self._r += 1
        return self._r

    def respond(self, x, y_hat):
        return 1, hyp("all-zero", "0")


def test_run_game_ternary_transcript() -> None:
    t = run_game(PredictLearner(), TernaryAdversary(1), GameConfig(d=1, round_cap=100))
    assert t.mistake_count == 3
    assert len(t.rounds) == 3
    assert t.stopped_by == "adversary_done"
    assert [r.x for r in t.rounds] == [0, 1, 2]
    assert all(r.mistake for r in t.rounds)
    assert [r.f.name for r in t.rounds] == ["f0", "f1", "f2"]
    assert all(f is r.f for f, r in zip(t.functions, t.rounds, strict=True))  # the rounds' own objects
    assert t.rounds[0].appended == ("f0",)


def test_run_game_round_cap() -> None:
    t = run_game(PredictLearner(), FreeAdversary(), GameConfig(d=None, round_cap=7))
    assert len(t.rounds) == 7
    assert t.stopped_by == "round_cap"


def test_run_game_rejects_corrupted_adversary() -> None:
    with pytest.raises(IllegalAdversaryFunction):
        run_game(PredictLearner(), CorruptedAdversary(), GameConfig(d=1, round_cap=10))


def test_full_validation_catches_dimension_violation() -> None:
    # the fourth distinct function is the first that the size bound
    # ldim <= log2(n) no longer keeps within d = 1
    run_game(PredictLearner(), FreeAdversary(), GameConfig(d=1, round_cap=3, validation="full"))
    config = GameConfig(d=1, round_cap=4, validation="full")
    with pytest.raises(DimensionViolation, match="revealed set has dimension above 1"):
        run_game(PredictLearner(), FreeAdversary(), config)


def test_full_validation_checks_every_round_up_to_the_guard() -> None:
    # a free game reveals a chain; the 64th function takes it to dimension
    # 6, past 32 distinct functions but within the guard of 243
    run_game(PredictLearner(), FreeAdversary(), GameConfig(d=5, round_cap=63, validation="full"))
    config = GameConfig(d=5, round_cap=64, validation="full")
    with pytest.raises(DimensionViolation, match="revealed set has dimension above 5"):
        run_game(PredictLearner(), FreeAdversary(), config)


@pytest.mark.parametrize(
    "adversary, d, round_index",
    [
        # the 128th function, revealed in round 127, takes the chain to dimension 7
        (FreeAdversary, 6, 127),
        # the ternary:5 set passes dimension 4 at 118 distinct functions
        (lambda: TernaryAdversary(5), 4, 121),
    ],
)
def test_full_validation_names_the_round_past_the_old_guard_of_81(adversary, d, round_index) -> None:
    run_game(PredictLearner(), adversary(), GameConfig(d=d, round_cap=round_index, validation="full"))
    config = GameConfig(d=d, round_cap=300, validation="full")
    with pytest.raises(DimensionViolation, match=rf"^round {round_index}: revealed set has dimension above {d}$"):
        run_game(PredictLearner(), adversary(), config)


def test_full_validation_stops_checking_past_the_guard() -> None:
    # dimension 8 arrives with the 256th distinct function, past the guard of 243
    config = GameConfig(d=7, round_cap=300, validation="full")
    t = run_game(PredictLearner(), FreeAdversary(), config)
    assert len(t.rounds) == 300 and t.stopped_by == "round_cap"
    assert validate_transcript(t).notes == ("dimension check skipped: 300 distinct functions exceed the guard of 243",)


ADVERSARIES = {"free": lambda k: FreeAdversary(), "flood": FloodAdversary, "ternary": TernaryAdversary}


@given(
    kind=st.sampled_from(sorted(ADVERSARIES)),
    k=st.integers(1, 7),
    d=st.integers(1, 7),
    cap=st.integers(1, 300),
    seed=st.integers(0, 1000),
)
@example(kind="free", k=1, d=1, cap=250, seed=0)  # passed offline before the first 243 were decided alone
@example(kind="free", k=1, d=7, cap=300, seed=0)
@example(kind="ternary", k=6, d=4, cap=300, seed=0)
@settings(max_examples=40, deadline=None)
def test_full_validation_fails_exactly_when_the_stored_game_does(kind, k, d, cap, seed) -> None:
    config = GameConfig(d=d, round_cap=cap, seed=seed)
    offline = validate_transcript(run_game(PredictLearner(), ADVERSARIES[kind](k), config))
    assert offline.failures in ((), (f"revealed set has dimension above {d}",))
    try:
        run_game(PredictLearner(), ADVERSARIES[kind](k), replace(config, validation="full"))
    except DimensionViolation:
        assert not offline.passed
    else:
        assert offline.passed


def test_full_validation_passes_legal_adversary() -> None:
    config = GameConfig(d=2, round_cap=50, validation="full")
    t = run_game(PredictLearner(), TernaryAdversary(2), config)
    assert t.mistake_count == 9


def test_full_validation_decides_a_whole_ternary_5_game_quickly() -> None:
    start = time.perf_counter()
    t = run_game(PredictLearner(), TernaryAdversary(5), GameConfig(d=5, round_cap=300, validation="full"))
    assert t.mistake_count == 243
    # its 167 searches share one growing engine: about 0.3 s
    assert time.perf_counter() - start < 2


def test_mistake_count_recomputable_from_rounds() -> None:
    t = run_game(PredictLearner(), FloodAdversary(2), GameConfig(d=2, round_cap=100))
    assert t.mistake_count == sum(1 for r in t.rounds if r.y != r.y_hat) == 7


def test_transcripts_are_byte_identical_across_reruns(tmp_path) -> None:
    paths = []
    for i in range(2):
        t = run_game(PredictLearner(), FloodAdversary(3), GameConfig(d=3, round_cap=100, seed=42))
        path = tmp_path / f"run{i}.jsonl"
        save_transcript(t, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_transcript_round_trip(tmp_path) -> None:
    t = run_game(PredictLearner(), TernaryAdversary(2), GameConfig(d=2, round_cap=100))
    path = tmp_path / "t.jsonl"
    save_transcript(t, path)
    loaded = load_transcript(path)
    assert loaded.rounds == t.rounds
    assert loaded.functions == t.functions
    assert loaded.stopped_by == t.stopped_by
    assert loaded.config == t.config


def test_validate_transcript_passes_and_detects_tampering() -> None:
    t = run_game(PredictLearner(), TernaryAdversary(2), GameConfig(d=2, round_cap=100))
    report = validate_transcript(t)
    assert report.passed and not report.failures

    t.rounds[4] = replace(t.rounds[4], y=1 - t.rounds[4].y)
    tampered = validate_transcript(t)
    assert not tampered.passed
    assert "round 4" in tampered.first_failure


def test_validate_transcript_size_guard_note() -> None:
    t = run_game(PredictLearner(), TernaryAdversary(6), GameConfig(d=6, round_cap=800))
    report = validate_transcript(t)
    assert report.passed and report.checks == 729
    assert report.notes == (
        "dimension check skipped: 694 distinct functions exceed the guard of 243",
    )


@pytest.mark.parametrize(
    "adversary, d, checks", [(FloodAdversary, 5, 64), (TernaryAdversary, 4, 82), (TernaryAdversary, 5, 244)]
)
def test_validate_transcript_decides_sets_up_to_the_guard(adversary, d, checks) -> None:
    t = run_game(PredictLearner(), adversary(d), GameConfig(d=d, round_cap=300))
    report = validate_transcript(t)
    assert report.passed and report.notes == ()
    assert report.checks == checks  # one per round, plus the dimension check


def test_validate_transcript_rejects_a_set_above_its_d() -> None:
    t = run_game(PredictLearner(), FreeAdversary(), GameConfig(d=1, round_cap=50))
    report = validate_transcript(t)
    assert report.first_failure == "revealed set has dimension above 1"


@st.composite
def small_families(draw) -> tuple[list[Hypothesis], range]:
    """A few functions on up to five points, drawn from a small pool of
    supports so that members repeat."""
    domain = range(draw(st.integers(1, 5)))
    pool = draw(st.lists(st.integers(0, (1 << len(domain)) - 1), min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return [Hypothesis(f"h{i}", support=m) for i, m in enumerate(picks)], domain


def referee_exceeds(functions: list[Hypothesis], d: int) -> bool | None:
    """The referee's answer once ``functions`` are added: whether they have
    dimension above d, or None where its guard leaves that undecided."""
    referee = _Referee(d)
    for f in functions:
        referee.add(f)
    return referee.exceeds()


@given(family=small_families(), d=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_the_referee_agrees_with_brute_force(family, d) -> None:
    functions, domain = family
    over = referee_exceeds(functions, d)
    assert over == (brute_ldim(functions, domain) > d)
    if len({f.support for f in functions}) < 2 ** (d + 1):
        assert over is False


def test_the_referee_leaves_undecided_only_past_243_distinct_functions() -> None:
    def prefix_functions(count: int) -> list[Hypothesis]:
        return [Hypothesis(f"f{n}", support=(1 << n) - 1) for n in range(count)]

    assert referee_exceeds(prefix_functions(243), 1) is True
    assert referee_exceeds(prefix_functions(243) * 2, 1) is True
    # the first 243 already break d = 1, whatever follows them
    assert referee_exceeds(prefix_functions(244), 1) is True
    assert referee_exceeds(prefix_functions(1000), 1) is True
    # the first 243 of a chain stay within d = 7; the rest are undecided
    assert referee_exceeds(prefix_functions(243), 7) is False
    assert referee_exceeds(prefix_functions(300), 7) is None
    assert referee_exceeds(prefix_functions(255), 7) is False  # size bound first, on the whole set
    assert referee_exceeds([], 0) is False


def test_soa_vs_class_greedy_within_dimension() -> None:
    c = HypothesisClass.from_rows(
        [0, 1], [("h00", "00"), ("h01", "01"), ("h10", "10"), ("h11", "11")]
    )
    t = run_game(SOALearner(c), ClassGreedyAdversary(c), GameConfig(d=2, round_cap=100))
    assert t.mistake_count <= 2


def test_game_config_validation() -> None:
    with pytest.raises(ValueError):
        GameConfig(d=1, round_cap=0)
    with pytest.raises(ValueError):
        GameConfig(d=1, validation="sometimes")


def test_game_config_rejects_a_d_that_is_not_a_non_negative_int() -> None:
    for d in ("2", -1, True, 1.0):
        with pytest.raises(ValueError, match="d must be None or an int >= 0"):
            GameConfig(d=d)
    assert (GameConfig(d=0).d, GameConfig(d=None).d) == (0, None)


def test_game_config_rejects_a_round_cap_or_seed_that_is_not_an_int() -> None:
    with pytest.raises(ValueError, match="round_cap must be an int >= 1, got True"):
        GameConfig(d=None, round_cap=True, seed="x")
    with pytest.raises(ValueError, match="round_cap must be an int >= 1, got '5'"):
        GameConfig(d=1, round_cap="5")
    with pytest.raises(ValueError, match="seed must be an int, got 'x'"):
        GameConfig(d=None, seed="x")
    with pytest.raises(ValueError, match="seed must be an int, got False"):
        GameConfig(d=None, seed=False)


def test_game_config_refuses_a_round_cap_past_the_round_guard() -> None:
    # a game keeps every round's function, so one past the guard is refused before its first round
    assert GameConfig(d=None, round_cap=ROUND_CAP_LIMIT).round_cap == 70000
    with pytest.raises(SizeLimitExceeded, match="^round_cap 70001 is past the guard of 70000 rounds$"):
        GameConfig(d=None, round_cap=ROUND_CAP_LIMIT + 1)


def test_channel_enforces_round_ordering() -> None:
    from oraclebench.game import RoundChannel, Transcript

    config = GameConfig(d=1, round_cap=10)
    adversary = TernaryAdversary(1)
    channel = RoundChannel(adversary, config, Transcript(config, "x", adversary.name))
    with pytest.raises(RuntimeError):
        channel.submit(0)
    channel.next_point()
    with pytest.raises(RuntimeError):
        channel.next_point()


def test_channel_oracle_needs_a_round_and_a_sample_its_function_realizes() -> None:
    config = GameConfig(d=1, round_cap=10)
    adversary = TernaryAdversary(1)
    channel = RoundChannel(adversary, config, Transcript(config, "x", adversary.name))
    with pytest.raises(RuntimeError, match="^oracle queried before any round completed$"):
        channel.oracle(Sample())
    x = channel.next_point()
    channel.submit(0)
    f = channel.oracle(Sample())
    with pytest.raises(NonRealizable, match=f"^revealed function {f.name!r} does not realize the queried sample$"):
        channel.oracle(Sample([(x, 1 - f(x))]))


# ----------------------------------------------------------------------
# format-4 transcripts: one record per round, its function stored as a hex
# support mask XOR the history's 1-points


def _games():
    pair = HypothesisClass.from_rows(
        [0, 1, 2, 3], [("lo", "0001"), ("mid", "0011"), ("hi", "0111"), ("all", "1111")]
    )
    return {
        "ternary:3": (PredictLearner(), TernaryAdversary(3), 3),
        "flood:3": (PredictLearner(), FloodAdversary(3), 3),
        "class-greedy": (PredictLearner(), ClassGreedyAdversary(pair), 1),
        "create-adv:1": (CreateAdvancedLearner(1), FreeAdversary(), None),
    }


@pytest.mark.parametrize("name", ["ternary:3", "flood:3", "class-greedy", "create-adv:1"])
def test_save_load_save_is_byte_identical_and_validates(tmp_path, name) -> None:
    learner, adversary, d = _games()[name]
    t = run_game(learner, adversary, GameConfig(d=d, round_cap=300))
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_transcript(t, first)
    loaded = load_transcript(first)
    save_transcript(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.rounds == t.rounds
    assert [(f.name, f.support) for f in loaded.functions] == [(f.name, f.support) for f in t.functions]
    report = validate_transcript(loaded)
    assert report.passed and report.checks >= len(t.rounds)


@pytest.fixture(scope="module")
def ternary_lines(tmp_path_factory) -> list[str]:
    t = run_game(PredictLearner(), TernaryAdversary(2), GameConfig(d=2, round_cap=100))
    path = tmp_path_factory.mktemp("t") / "t.jsonl"
    save_transcript(t, path)
    return path.read_text().splitlines()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_flipping_a_history_bit_of_a_stored_function_fails_validation(
    tmp_path_factory, ternary_lines, data
) -> None:
    records = [json.loads(line) for line in ternary_lines]
    rounds = [r for r in records if r["type"] == "round"]
    i = data.draw(st.integers(0, len(rounds) - 1))
    x = rounds[data.draw(st.integers(0, i))]["x"]
    rounds[i]["ones"] = format(int(rounds[i]["ones"], 16) ^ (1 << x), "x")
    path = tmp_path_factory.mktemp("tampered") / "t.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report = validate_transcript(load_transcript(path))
    assert not report.passed
    assert f"round {i}:" in report.first_failure


def _write(tmp_path, records) -> str:
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_load_transcript_names_a_missing_key(tmp_path, ternary_lines) -> None:
    records = [json.loads(line) for line in ternary_lines]
    del records[1]["ones"]
    with pytest.raises(TranscriptError, match="line 2: record lacks key 'ones'"):
        load_transcript(_write(tmp_path, records))


def test_load_transcript_rejects_an_unknown_format(tmp_path, ternary_lines) -> None:
    records = [json.loads(line) for line in ternary_lines]
    for fmt in (1, 2, 3, None):
        records[0]["format"] = fmt
        with pytest.raises(TranscriptError, match=f"line 1: unknown transcript format {fmt}"):
            load_transcript(_write(tmp_path, records))


def test_load_transcript_rejects_a_non_hex_support(tmp_path, ternary_lines) -> None:
    records = [json.loads(line) for line in ternary_lines]
    line = records.index(_round_record(records, 0)) + 1
    for bad in ("xyz", "-1f", "", 17):
        records[line - 1]["ones"] = bad
        with pytest.raises(TranscriptError, match=f"line {line}: 'ones' is not a lowercase hex string"):
            load_transcript(_write(tmp_path, records))


def _records(ternary_lines) -> list[dict]:
    return [json.loads(line) for line in ternary_lines]


def test_validate_transcript_rejects_a_round_index_jump(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)
    next(r for r in records if r["type"] == "round" and r["round"] == 5)["round"] = 9
    report = validate_transcript(load_transcript(_write(tmp_path, records)))
    assert not report.passed
    assert report.first_failure == "round 5: stored index is 9"
    assert report.checks == 9  # one per round


@pytest.mark.parametrize("key, value", [("mistakes", 1), ("rounds", 8)])
def test_load_transcript_rejects_a_summary_that_disagrees(tmp_path, ternary_lines, key, value) -> None:
    records = _records(ternary_lines)
    records[-1][key] = value
    with pytest.raises(TranscriptError, match=f"line {len(records)}: summary claims"):
        load_transcript(_write(tmp_path, records))


def test_load_transcript_rejects_an_unknown_stop_reason(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)
    records[-1]["stopped_by"] = "timeout"
    with pytest.raises(TranscriptError, match=f"line {len(records)}: unknown stopped_by 'timeout'"):
        load_transcript(_write(tmp_path, records))


def test_load_transcript_rejects_a_round_cap_stop_short_of_the_cap(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)
    assert records[-1]["stopped_by"] == "adversary_done"
    records[-1]["stopped_by"] = "round_cap"
    with pytest.raises(TranscriptError, match=f"line {len(records)}: stopped_by 'round_cap' after 9 rounds; the cap is 100"):
        load_transcript(_write(tmp_path, records))


def test_validate_transcript_names_the_first_round_past_the_cap(tmp_path) -> None:
    t = run_game(PredictLearner(), TernaryAdversary(1), GameConfig(d=1, round_cap=100))
    save_transcript(t, tmp_path / "t.jsonl")
    records = _records((tmp_path / "t.jsonl").read_text().splitlines())
    records[0]["round_cap"] = 2  # the file holds 3 rounds, stopped_by adversary_done
    report = validate_transcript(load_transcript(_write(tmp_path, records)))
    assert not report.passed
    assert report.failures == ("round 2: played past the round cap of 2",)


def test_load_transcript_rejects_a_second_header(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)
    records.insert(4, records[0])  # the three rounds before it would be dropped
    with pytest.raises(TranscriptError, match="line 5: a second header record"):
        load_transcript(_write(tmp_path, records))


def test_load_transcript_rejects_a_round_after_the_summary(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)
    records.append(dict(records[-2], round=len(records) - 2))
    with pytest.raises(TranscriptError, match=f"line {len(records)}: 'round' record after the summary"):
        load_transcript(_write(tmp_path, records))


def test_load_transcript_rejects_a_missing_summary(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)[:-1]
    with pytest.raises(TranscriptError, match=f"line {len(records)}: the transcript ends without a summary record"):
        load_transcript(_write(tmp_path, records))


@pytest.mark.parametrize("record", [[1, 2], "round", 7, None])
def test_load_transcript_rejects_a_record_that_is_not_an_object(tmp_path, ternary_lines, record) -> None:
    records = _records(ternary_lines)
    records[3] = record
    with pytest.raises(TranscriptError, match=f"line 4: a record must be a JSON object, got {type(record).__name__}"):
        load_transcript(_write(tmp_path, records))


@pytest.mark.parametrize("edit, text", [
    (lambda records: [], ": no header record"),
    (lambda records: records[1:], " line 1: 'round' record before the header"),
    (lambda records: records[:3] + [{"type": "note"}] + records[3:], " line 4: unknown record type 'note'"),
    (lambda records: [dict(records[0], round_cap=70001)] + records[1:],
     " line 1: round_cap 70001 is past the guard of 70000 rounds"),
], ids=["empty", "round-first", "unknown-type", "cap-past-guard"])
def test_load_transcript_names_a_record_out_of_place(tmp_path, ternary_lines, edit, text) -> None:
    path = _write(tmp_path, edit(_records(ternary_lines)))
    with pytest.raises(TranscriptError) as info:
        load_transcript(path)
    assert str(info.value) == f"{path}{text}"


def test_load_transcript_names_a_file_it_cannot_open(tmp_path) -> None:
    path = tmp_path / "missing.jsonl"
    with pytest.raises(TranscriptError, match=f"^{re.escape(str(path))}: cannot read: No such file or directory$"):
        load_transcript(path)


def test_load_transcript_names_a_line_that_is_not_utf8(tmp_path, ternary_lines) -> None:
    path = tmp_path / "t.jsonl"
    lines = [line.encode() for line in ternary_lines]
    lines[4] = lines[4].replace(b'"f_id":"', b'"f_id":"\xff')
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(TranscriptError, match="line 5: 'utf-8' codec can't decode byte 0xff"):
        load_transcript(path)


def test_load_transcript_reads_each_name_into_one_string(tmp_path) -> None:
    t = run_game(CreateAdvancedLearner(1), FreeAdversary(), GameConfig(d=None, round_cap=300))
    save_transcript(t, tmp_path / "t.jsonl")
    loaded = load_transcript(tmp_path / "t.jsonl")
    first = {}
    for r in loaded.rounds:
        for name in (r.f.name, *r.appended, *r.deleted):
            assert first.setdefault(name, name) is name
    assert any(r.deleted for r in loaded.rounds)


def test_load_transcript_accepts_a_round_cap_stop_at_the_cap(tmp_path) -> None:
    t = run_game(PredictLearner(), FreeAdversary(), GameConfig(d=None, round_cap=7))
    assert t.stopped_by == "round_cap"
    save_transcript(t, tmp_path / "t.jsonl")
    assert load_transcript(tmp_path / "t.jsonl").stopped_by == "round_cap"


def test_negative_point_from_an_adversary_is_a_typed_error() -> None:
    class NegativeAdversary:
        name = "negative"

        def next_point(self):
            return -1

        def respond(self, x, y_hat):
            return 0, hyp("zero", "0")

    with pytest.raises(PointError, match="negative point -1"):
        run_game(PredictLearner(), NegativeAdversary(), GameConfig(d=None, round_cap=5))


# (point, label, support) per round of a game that labels point 1 again
# at round 3, 1 where round 1 revealed 0, with a function agreeing with
# the new label only
RELABEL_SCRIPT = [(0, 1, 0b1), (1, 0, 0b1), (2, 1, 0b101), (1, 1, 0b111)]


class RelabelingAdversary:
    """Plays RELABEL_SCRIPT whatever the learner predicts."""

    name = "relabeling"

    def __init__(self) -> None:
        self._r = 0

    def next_point(self):
        return RELABEL_SCRIPT[self._r][0] if self._r < len(RELABEL_SCRIPT) else None

    def respond(self, x, y_hat):
        _, y, support = RELABEL_SCRIPT[self._r]
        self._r += 1
        return y, Hypothesis(f"f{self._r - 1}", support=support)


def test_a_live_adversary_that_relabels_a_point_is_rejected_at_that_round() -> None:
    with pytest.raises(IllegalAdversaryFunction, match="round 3: function 'f3' contradicts the revealed history"):
        run_game(PredictLearner(), RelabelingAdversary(), GameConfig(d=None, round_cap=10))


def test_a_stored_relabeling_fails_validation_at_that_round(tmp_path) -> None:
    t = Transcript(GameConfig(d=None, round_cap=10), "predict", "relabeling", stopped_by="adversary_done")
    for i, (x, y, support) in enumerate(RELABEL_SCRIPT):
        t.rounds.append(Round(i, x, 0, y, y != 0, Hypothesis(f"f{i}", support=support)))
    save_transcript(t, tmp_path / "t.jsonl")
    report = validate_transcript(load_transcript(tmp_path / "t.jsonl"))
    assert report.failures == ("round 3: function 'f3' contradicts the revealed history",)


def test_validate_transcript_fails_a_label_that_is_not_a_bit() -> None:
    t = run_game(PredictLearner(), TernaryAdversary(1), GameConfig(d=1, round_cap=10))
    t.rounds[1] = replace(t.rounds[1], y=2, mistake=True)
    report = validate_transcript(t)
    assert report.failures == ("round 1: function 'f1' contradicts the revealed history",)


# ----------------------------------------------------------------------
# rounds as slotted records; predictions must be bits


def test_annotate_update_lands_on_the_last_round_only() -> None:
    config = GameConfig(d=None, round_cap=10)
    adversary = FreeAdversary()
    t = Transcript(config, "x", adversary.name)
    channel = RoundChannel(adversary, config, t)
    for _ in range(3):
        channel.next_point()
        channel.submit(0)
    channel.annotate_update(["f3"], ["f1", "f2"])
    assert [(r.appended, r.deleted) for r in t.rounds] == [((), ()), ((), ()), (("f3",), ("f1", "f2"))]


def test_round_is_a_slotted_record_that_replace_copies() -> None:
    f4 = Hypothesis("f4", support=0b10000000)
    r = Round(4, 7, 0, 1, True, f4, ("f4",), ("f2",))
    assert not hasattr(r, "__dict__")
    assert [f.name for f in fields(Round)] == ["index", "x", "y_hat", "y", "mistake", "f", "appended", "deleted"]
    flipped = replace(r, y=0, mistake=False)
    assert flipped == Round(4, 7, 0, 0, False, f4, ("f4",), ("f2",)) and flipped.f is f4
    assert (r.y, r.mistake) == (1, True)


class BadPredictionLearner:
    """Predicts 0 for three rounds, then submits ``y_hat`` every round."""

    name = "bad-prediction"

    def __init__(self, y_hat) -> None:
        self.y_hat = y_hat

    def run(self, rounds) -> None:
        for r in itertools.count():
            rounds.next_point()
            rounds.submit(0 if r < 3 else self.y_hat)


@pytest.mark.parametrize("y_hat", [2, True], ids=["two", "true"])
@pytest.mark.parametrize(
    "adversary",
    [FreeAdversary, lambda: ClassGreedyAdversary(HypothesisClass.from_rows([0, 1], [("a", "01"), ("b", "10")]))],
    ids=["free", "class-greedy"],
)
def test_submit_rejects_a_prediction_that_is_not_a_bit(adversary, y_hat) -> None:
    adv = adversary()
    asked = []
    respond = adv.respond
    adv.respond = lambda x, y: asked.append(y) or respond(x, y)
    with pytest.raises(IllegalPrediction, match=rf"round 3: prediction {y_hat!r} is not the int 0 or 1"):
        run_game(BadPredictionLearner(y_hat), adv, GameConfig(d=None, round_cap=10))
    assert asked == [0, 0, 0]


class BadLabelAdversary(FreeAdversary):
    """A free adversary that answers ``label`` from round 3 on."""

    name = "bad-label"

    def __init__(self, label) -> None:
        super().__init__()
        self.label = label

    def respond(self, x, y_hat):
        y, f = super().respond(x, y_hat)
        return (y if self._rounds <= 3 else self.label), f


@pytest.mark.parametrize("label", [2, -1, True, None], ids=["two", "minus-one", "true", "none"])
def test_submit_rejects_an_adversary_label_that_is_not_a_bit(label) -> None:
    with pytest.raises(IllegalAdversaryFunction, match=rf"round 3: label {label!r} is not the int 0 or 1"):
        run_game(PredictLearner(), BadLabelAdversary(label), GameConfig(d=None, round_cap=10))


# ----------------------------------------------------------------------
# load-time type checks on every stored field


def _round_record(records, index) -> dict:
    return next(r for r in records if r["type"] == "round" and r["round"] == index)


def test_load_transcript_rejects_a_header_d_that_is_not_an_int(tmp_path, ternary_lines) -> None:
    records = _records(ternary_lines)
    records[0]["d"] = "2"
    with pytest.raises(TranscriptError, match="line 1: d must be None or an int >= 0, got '2'"):
        load_transcript(_write(tmp_path, records))


# (field, stored value, what the TranscriptError says) for round 3's record
ROUND_FIELD_PROBES = [
    ("y_hat", 2, "'y_hat' is not the int 0 or 1: 2"),
    ("y", True, "'y' must be of type int, got True"),
    ("y", 2, "'y' is not the int 0 or 1: 2"),
    ("x", "3", "'x' must be of type int, got '3'"),
    ("round", 3.0, "'round' must be of type int, got 3.0"),
    ("mistake", 1, "'mistake' must be of type bool, got 1"),
    ("f_id", 3, "'f_id' must be of type str, got 3"),
    ("appended", "abc", "'appended' must be a list of strings, got 'abc'"),
    ("deleted", [1], r"'deleted' must be a list of strings, got \[1\]"),
]


@pytest.mark.parametrize(
    "key, value, message", ROUND_FIELD_PROBES, ids=[f"{key}={value!r}" for key, value, _ in ROUND_FIELD_PROBES]
)
def test_load_transcript_type_checks_every_round_field(tmp_path, ternary_lines, key, value, message) -> None:
    records = _records(ternary_lines)
    line = records.index(_round_record(records, 3)) + 1
    records[line - 1][key] = value
    with pytest.raises(TranscriptError, match=f"line {line}: {message}"):
        load_transcript(_write(tmp_path, records))


def test_load_transcript_type_checks_a_function_record(tmp_path, ternary_lines) -> None:
    # a function is stored in its round's record, as f_id and ones
    records = _records(ternary_lines)
    line = records.index(_round_record(records, 1)) + 1
    for key, value, message in (("f_id", ["f1"], r"'f_id' must be of type str, got \['f1'\]"),
                                ("ones", ["1"], r"'ones' is not a lowercase hex string: \['1'\]")):
        bad = [dict(r) for r in records]
        bad[line - 1][key] = value
        with pytest.raises(TranscriptError, match=f"line {line}: {message}"):
            load_transcript(_write(tmp_path, bad))


@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("x, message", [(-1, "negative point -1"), (1 << 20, "point 1048576 is past the mask-width limit")])
def test_load_transcript_rejects_a_point_outside_the_mask_width(tmp_path, ternary_lines, x, message, y) -> None:
    records = _records(ternary_lines)
    line = records.index(_round_record(records, 2)) + 1
    records[line - 1].update(x=x, y=y, mistake=records[line - 1]["y_hat"] != y)
    with pytest.raises(TranscriptError, match=f"line {line}: {message}"):
        load_transcript(_write(tmp_path, records))


# (header key, stored value, what the TranscriptError says)
HEADER_FIELD_PROBES = [
    ("learner", 5, "'learner' must be of type str, got 5"),
    ("adversary", None, "'adversary' must be of type str, got None"),
    ("round_cap", True, "'round_cap' must be of type int, got True"),
    ("round_cap", "5", "'round_cap' must be of type int, got '5'"),
    ("seed", "x", "'seed' must be of type int, got 'x'"),
    ("seed", None, "'seed' must be of type int, got None"),
]


@pytest.mark.parametrize(
    "key, value, message", HEADER_FIELD_PROBES, ids=[f"{key}={value!r}" for key, value, _ in HEADER_FIELD_PROBES]
)
def test_load_transcript_type_checks_every_header_field(tmp_path, ternary_lines, key, value, message) -> None:
    records = _records(ternary_lines)
    records[0][key] = value
    with pytest.raises(TranscriptError, match=f"line 1: {message}"):
        load_transcript(_write(tmp_path, records))


# ----------------------------------------------------------------------
# format-4 sizes and the exactness of the stored supports


def test_a_create_advanced_2_transcript_fits_in_a_megabyte(tmp_path) -> None:
    t = run_game(CreateAdvancedLearner(2), FreeAdversary(), GameConfig(d=None, round_cap=5000))
    assert (t.mistake_count, t.stopped_by) == (4368, "learner_halted")
    path = tmp_path / "t.jsonl"
    save_transcript(t, path)
    assert path.stat().st_size <= 600_000
    # a free function is the history's 1-points, so it stores "0"
    assert {json.loads(line).get("ones") for line in path.read_text().splitlines()} == {None, "0"}


@st.composite
def stored_games(draw) -> list[tuple[int, int, str, int]]:
    """(x, y, name, support) per round: points that may repeat and supports
    that need not agree with the history, so most games are forged."""
    return draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1), st.text(max_size=4),
                                   st.integers(0, (1 << 48) - 1)), max_size=12))


@given(game=stored_games())
@settings(max_examples=150, deadline=None)
def test_save_then_load_returns_the_exact_names_and_supports(tmp_path_factory, game) -> None:
    t = Transcript(GameConfig(d=None, round_cap=20), "predict", "scripted", stopped_by="adversary_done")
    for i, (x, y, name, support) in enumerate(game):
        t.rounds.append(Round(i, x, 1 - y, y, True, Hypothesis(name, support=support)))
    path = tmp_path_factory.mktemp("stored") / "t.jsonl"
    save_transcript(t, path)
    loaded = load_transcript(path)
    assert [(f.name, f.support) for f in loaded.functions] == [(name, support) for _, _, name, support in game]
    assert loaded.rounds == t.rounds
    save_transcript(loaded, path.with_name("again.jsonl"))
    assert path.with_name("again.jsonl").read_bytes() == path.read_bytes()


def test_the_readme_shows_the_first_lines_of_a_real_transcript(tmp_path) -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    shown = readme.split("### Transcripts", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    t = run_game(CreateAdvancedLearner(0), FreeAdversary(), GameConfig(d=None, round_cap=100))
    save_transcript(t, tmp_path / "t.jsonl")
    assert shown.splitlines() == (tmp_path / "t.jsonl").read_text().splitlines()[:3]
