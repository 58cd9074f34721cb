from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from oraclebench import cli, littlestone
from oraclebench.cli import main
from oraclebench.errors import EmptyClass
from oraclebench.game import load_transcript
from oraclebench.hypotheses import HypothesisClass, save_class_file


@pytest.fixture
def all_four_file(tmp_path):
    c = HypothesisClass.from_rows(
        [0, 1], [("h00", "00"), ("h01", "01"), ("h10", "10"), ("h11", "11")]
    )
    path = tmp_path / "all_four.json"
    save_class_file(c, path)
    return path


@pytest.fixture
def pair_file(tmp_path):
    c = HypothesisClass.from_rows([0, 1, 2], [("lo", "000"), ("hi", "111")])
    path = tmp_path / "pair.json"
    save_class_file(c, path)
    return path


def test_simulate_ternary(capsys) -> None:
    code = main(["simulate", "--learner", "predict", "--adversary", "ternary:2",
                 "--cap", "50", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mistakes=9" in out
    assert "stopped_by=adversary_done" in out
    assert "validation=ok" in out


def test_simulate_create_adv_vs_free(capsys) -> None:
    code = main(["simulate", "--learner", "create-adv:0", "--adversary", "free",
                 "--cap", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mistakes=16" in out
    assert "stopped_by=learner_halted" in out


def test_simulate_soa_vs_class_greedy(capsys, pair_file) -> None:
    code = main(["simulate", "--learner", "soa", "--adversary",
                 f"class-greedy:{pair_file}", "--cap", "100"])
    out = capsys.readouterr().out
    assert code == 0
    mistakes = int(out.split("mistakes=")[1].split()[0])
    assert mistakes <= 1


def test_simulate_writes_transcript(capsys, tmp_path) -> None:
    out_path = tmp_path / "t.jsonl"
    code = main(["simulate", "--learner", "predict", "--adversary", "flood:2",
                 "--cap", "100", "--out", str(out_path)])
    assert code == 0
    t = load_transcript(out_path)
    assert t.mistake_count == 7


def _simulate_free(cap: int) -> list[str]:
    return ["simulate", "--learner", "predict", "--adversary", "free", "--d", "1", "--cap", str(cap)]


def test_simulate_reports_a_revealed_set_above_its_d(capsys) -> None:
    assert main(_simulate_free(50)) == 1
    assert capsys.readouterr().out == (
        "mistakes=50 rounds=50 stopped_by=round_cap "
        "validation=INVALID (revealed set has dimension above 1)\n"
    )


def test_simulate_prints_a_skipped_dimension_check(capsys) -> None:
    # the first 243 functions already break d = 1: the rounds after them cannot hide it
    assert main(_simulate_free(250)) == 1
    assert capsys.readouterr().out == (
        "mistakes=250 rounds=250 stopped_by=round_cap "
        "validation=INVALID (revealed set has dimension above 1)\n"
    )
    # the first 243 stay within d = 7, and the chain passes it at its 256th function
    assert main(["simulate", "--learner", "predict", "--adversary", "free", "--d", "7", "--cap", "300"]) == 0
    assert capsys.readouterr().out == (
        "mistakes=300 rounds=300 stopped_by=round_cap validation=ok "
        "(dimension check skipped: 300 distinct functions exceed the guard of 243)\n"
    )
    assert main(["simulate", "--learner", "predict", "--adversary", "ternary:6"]) == 0
    assert "validation=ok (dimension check skipped: 694 distinct" in capsys.readouterr().out


def test_simulate_unknown_learner(capsys) -> None:
    code = main(["simulate", "--learner", "psychic", "--adversary", "free"])
    assert code == 2
    assert "unknown learner" in capsys.readouterr().err


@pytest.mark.parametrize("learner", ["predict", "soa"])
def test_simulate_on_an_empty_domain_class_plays_no_round(capsys, tmp_path, learner) -> None:
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"domain": [], "hypotheses": [{"name": "h", "values": ""}]}))
    assert main(["ldim", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["simulate", "--learner", learner, "--adversary", f"class-greedy:{path}"]) == 0
    assert capsys.readouterr().out == "mistakes=0 rounds=0 stopped_by=adversary_done validation=ok\n"


def test_a_class_greedy_spec_without_a_file_is_an_error(capsys) -> None:
    assert main(["simulate", "--learner", "predict", "--adversary", "class-greedy:"]) == 2
    assert capsys.readouterr().err == "error: 'class-greedy:': no class file given\n"


def test_simulate_soa_takes_its_class_from_a_class_greedy_adversary(capsys) -> None:
    assert main(["simulate", "--learner", "soa", "--adversary", "ternary:1"]) == 2
    assert capsys.readouterr().err == "error: the soa learner needs a class: use a class-greedy adversary\n"


def test_ldim_command(capsys, all_four_file) -> None:
    assert main(["ldim", str(all_four_file)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_ldim_certificate(capsys, all_four_file) -> None:
    assert main(["ldim", str(all_four_file), "--certificate"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1].count("*") == 4


def test_ldim_singleton_no_certificate(capsys, tmp_path) -> None:
    path = tmp_path / "single.json"
    save_class_file(HypothesisClass.from_rows([0], [("a", "1")]), path)
    assert main(["ldim", str(path), "--certificate"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_ldim_malformed_file_names_offender(capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"domain": [0, 1], "hypotheses": [{"name": "broken", "values": "1"}]}
    ))
    assert main(["ldim", str(path)]) == 2
    assert "broken" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ldim", "missing.json"],
    ["simulate", "--learner", "predict", "--adversary", "class-greedy:missing.json"],
], ids=["ldim", "class-greedy"])
def test_a_missing_class_file_is_an_error_not_a_traceback(capsys, tmp_path, monkeypatch, argv) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: missing.json: cannot read: No such file or directory\n"


def test_verify_prefix(capsys) -> None:
    assert main(["verify", "prefix:2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "4368" in out


def test_verify_lower(capsys) -> None:
    assert main(["verify", "lower:1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "ternary mistakes" in out and "flood mistakes" in out


def test_verify_lower_3_golden(capsys) -> None:
    assert main(["verify", "lower:3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS lower:3 ternary mistakes: 27 mistakes in 27 rounds, want 27",
        "PASS lower:3 ternary consistency: every revealed function matches the history",
        "PASS lower:3 ternary dimension: revealed set has dimension at most 3",
        "PASS lower:3 informative learner: exact worst case 3 mistakes over every query sequence, bound 3",
        "PASS lower:3 flood mistakes: 15 mistakes in 15 rounds, want 15",
        "PASS lower:3 flood dimension: revealed set has dimension at most 3",
    ]


def test_verify_lower_output_does_not_depend_on_the_seed(capsys) -> None:
    assert main(["verify", "lower:3", "--seed", "0"]) == 0
    seed_0 = capsys.readouterr().out
    assert main(["verify", "lower:3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == seed_0


def test_a_fault_in_a_suite_is_a_fail_line_not_a_traceback(capsys, monkeypatch) -> None:
    # plant a fault: the engine loses its last column, so the checks that read it fail one by one
    columns = littlestone._DimensionEngine.columns
    monkeypatch.setattr(littlestone._DimensionEngine, "columns", property(lambda self: columns.func(self)[:-1]))
    assert main(["verify", "props"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "PASS props size bound: 200 classes",
        "FAIL props restriction inequality: class #36: restriction inequality fails at 2",
        "FAIL props certificates: class #1: no verified certificate at depth 2",
        "FAIL props minimax equals ldim: class #36: game value differs from ldim 1",
        "PASS props soa mistake bound: 200 classes, two adversaries",
    ]
    assert captured.err == ""
    # a typed error raised by the code under check fails its suite too
    def typed_fault(k):
        raise EmptyClass("a hypothesis class must be non-empty")

    monkeypatch.setattr(cli, "verify_prefix", typed_fault)
    assert main(["verify", "prefix:0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL prefix:0: EmptyClass: a hypothesis class must be non-empty\n"
    assert captured.err == ""


def test_an_extra_member_bit_in_a_column_fails_each_check_that_reads_it(capsys, monkeypatch) -> None:
    # the first column also claims the last member: certificates come out incomplete, which the
    # tree build reports as no tree, so each check fails on its own line
    columns = littlestone._DimensionEngine.columns

    def planted(self):
        cols = columns.func(self)
        if cols:
            x, col = cols[0]
            cols[0] = (x, col | 1 << (len(self.hyps) - 1))
        return cols

    monkeypatch.setattr(littlestone._DimensionEngine, "columns", property(planted))
    assert main(["verify", "props"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS props size bound: 200 classes",
        "FAIL props restriction inequality: class #29: restriction inequality fails at 0",
        "FAIL props certificates: class #1: no verified certificate at depth 2",
        "FAIL props minimax equals ldim: class #29: game value differs from ldim 1",
        "FAIL props soa mistake bound: class #29: soa made 2 > ldim 1 vs class-greedy",
    ]


def test_a_typed_error_from_a_column_fault_is_a_fail_line(capsys, monkeypatch) -> None:
    # every engine loses point 0's column as it is built, so soa's version space empties there
    add = littlestone._DimensionEngine.add

    def planted(self, h):
        add(self, h)
        self._point_columns.pop(0, None)

    monkeypatch.setattr(littlestone._DimensionEngine, "add", planted)
    assert main(["verify", "props"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL props: IllegalLabel: no remaining hypothesis has value 1 at 0\n"
    assert captured.err == ""


def test_verify_reads_its_spec_before_the_suite_runs(capsys, monkeypatch) -> None:
    def suite(d):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "verify_lower", suite)
    for check in ("lower:0", "lower:x", "lower"):
        assert main(["verify", check]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {check!r}: ")
    assert main(["verify", "lower:1"]) == 1
    assert capsys.readouterr().out == "FAIL lower:1: AssertionError: the suite ran\n"


def test_verify_out_of_memory_is_an_error_not_a_fail_line(capsys, monkeypatch) -> None:
    # the machine's limit is no fault of the code under check, so main reports it as other commands do
    def suite(d, seed):
        raise MemoryError

    monkeypatch.setitem(cli._SUITES, "lower", (suite, 1))
    assert main(["verify", "lower:6"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: verify: out of memory\n")


def test_verify_advanced_guard(capsys) -> None:
    assert main(["verify", "advanced:5"]) == 1
    assert "guard" in capsys.readouterr().out


def test_verify_unknown_check(capsys) -> None:
    assert main(["verify", "nonsense:1"]) == 2


@pytest.mark.parametrize("check", ["props:3", "props:"])
def test_verify_props_takes_no_argument(capsys, check) -> None:
    assert main(["verify", check]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown check {check!r}; expected ")


def test_bench_table(capsys, tmp_path) -> None:
    out_path = tmp_path / "bench.tsv"
    code = main(["bench", "--dims", "1-2", "--learners", "predict",
                 "--adversaries", "ternary,flood", "--out", str(out_path)])
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[0].split("\t")[:5] == ["d", "learner", "adversary", "mistakes", "bound"]
    cells = {tuple(r.split("\t")[:4]) for r in rows[1:]}
    assert ("1", "predict", "ternary", "3") in cells
    assert ("2", "predict", "ternary", "9") in cells
    assert ("1", "predict", "flood", "3") in cells
    assert ("2", "predict", "flood", "7") in cells


@pytest.mark.parametrize("argv", [
    ["simulate", "--learner", "predict", "--adversary", "ternary:1"],
    ["bench", "--dims", "1"],
], ids=["simulate", "bench"])
def test_an_out_path_that_cannot_be_written_is_an_error_not_a_traceback(capsys, tmp_path, argv) -> None:
    out_path = tmp_path / "missing" / "out"
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {out_path}: cannot write: No such file or directory\n")


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the --out path was checked")


@pytest.mark.parametrize("argv", [
    ["simulate", "--learner", "create-adv:3", "--adversary", "free", "--cap", "70000"],
    ["bench", "--dims", "1-4", "--learners", "predict,create-adv:1"],
], ids=["simulate", "bench"])
def test_an_unwritable_out_path_fails_before_any_game_or_cell(monkeypatch, capsys, tmp_path, argv) -> None:
    monkeypatch.setattr(cli, "run_game", _no_work)
    monkeypatch.setattr(cli, "_bench_cell", _no_work)
    for out_path, reason in [(tmp_path / "missing" / "out", "No such file or directory"), (tmp_path, "Is a directory")]:
        assert main([*argv, "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == f"error: {out_path}: cannot write: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_failed_game_leaves_no_file_behind_and_an_old_file_as_it_was(capsys, tmp_path) -> None:
    argv = ["simulate", "--learner", "predict", "--adversary", "free", "--d", "1", "--validate", "full"]
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    old.write_text("kept\n")
    for out_path in (new, old):
        assert main([*argv, "--out", str(out_path)]) == 2
        assert capsys.readouterr().err.startswith("error: round 3: revealed set has dimension above 1")
    assert sorted(tmp_path.iterdir()) == [old]
    assert old.read_text() == "kept\n"


def test_bench_class_greedy_rows(capsys) -> None:
    code = main(["bench", "--dims", "1", "--learners", "predict,soa", "--adversaries", "class-greedy"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 0
    # d, learner, adversary, mistakes, bound, rounds; the runtime varies
    assert [r.split("\t")[:6] for r in rows[1:]] == [
        ["1", "predict", "class-greedy", "2", "271", "536"],
        ["1", "soa", "class-greedy", "1", "1", "519"],
    ]
    # create-adv:k plays a prefix of predict's schedule, so it has predict's bound; the rows
    # play the upper suite's family, built at any d
    assert main(["bench", "--dims", "1-2", "--learners", "create-adv:1", "--adversaries", "class-greedy"]) == 0
    assert [r.split("\t")[:6] for r in capsys.readouterr().out.splitlines()[1:]] == [
        ["1", "create-adv:1", "class-greedy", "2", "271", "536"],
        ["2", "create-adv:1", "class-greedy", "3", "69903", "711"],
    ]


def test_bench_rejects_a_reversed_range(capsys) -> None:
    assert main(["bench", "--dims", "3-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: '--dims 3-1': the range runs backwards; write the smaller end first\n"


def test_bench_records_cell_failures_and_continues(capsys) -> None:
    code = main(["bench", "--dims", "2-2", "--learners", "soa,predict", "--adversaries", "ternary"])
    out = capsys.readouterr().out
    assert code == 1
    assert "ERROR" in out
    assert "\t9\t" in out  # the predict cell after the soa one still ran


def test_bench_soa_without_a_class_is_an_error_row(capsys) -> None:
    assert main(["bench", "--dims", "1", "--learners", "predict,soa"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [r.split("\t")[:5] for r in captured.out.splitlines()[1:]] == [
        ["1", "predict", "ternary", "3", "3"],
        ["1", "predict", "flood", "3", "3"],
        ["1", "soa", "ternary", "ERROR", "the soa learner needs a class, and ternary rows give none"],
        ["1", "soa", "flood", "ERROR", "the soa learner needs a class, and flood rows give none"],
    ]


def test_bench_past_the_named_game_guard_is_an_error_row(capsys) -> None:
    assert main(["bench", "--dims", "11"]) == 1
    assert [r.split("\t")[:6] for r in capsys.readouterr().out.splitlines()[1:]] == [
        ["11", "predict", "ternary", "ERROR", "round_cap 177157 is past the guard of 70000 rounds", "-"],
        ["11", "predict", "flood", "4095", "4095", "4095"],
    ]


@pytest.mark.parametrize("argv, err", [
    (["--learners", "predict,foo"], "error: unknown learner 'foo'; expected predict, create-adv:<k>, or soa\n"),
    (["--learners", "predict,create-adv:x"], "error: 'create-adv:x': 'x' is not an integer >= 0\n"),
    (["--adversaries", "ternary,nope"],
     "error: unknown bench adversary 'nope'; expected ternary, flood, or class-greedy\n"),
], ids=["learner", "malformed-learner", "adversary"])
def test_bench_checks_every_name_before_any_cell_runs(monkeypatch, capsys, argv, err) -> None:
    played = []
    monkeypatch.setattr(cli, "_bench_cell", lambda *cell: played.append(cell))
    assert main(["bench", "--dims", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert played == []
    assert captured.out == ""
    assert captured.err == err


def test_ldim_class_file_that_is_not_utf8_is_an_error_not_a_traceback(capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"domain": [0], "hypotheses": [{"name": "h\xff", "values": "1"}]}')
    assert main(["ldim", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 42: invalid start byte\n"
    )


def test_ldim_class_file_with_a_negative_point_is_an_error_not_a_traceback(capsys, tmp_path) -> None:
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"domain": [0, -1], "hypotheses": [{"name": "h", "values": "01"}]}))
    assert main(["ldim", str(path)]) == 2
    assert "negative point -1" in capsys.readouterr().err


# (argv, the spec the error names) for malformed integer specs
MALFORMED_SPECS = [
    (["simulate", "--learner", "predict", "--adversary", "ternary:abc"], "'ternary:abc': 'abc'"),
    (["simulate", "--learner", "predict", "--adversary", "ternary:0"], "'ternary:0': '0'"),
    (["simulate", "--learner", "predict", "--adversary", "flood:-2"], "'flood:-2': '-2'"),
    (["simulate", "--learner", "create-adv:x", "--adversary", "free"], "'create-adv:x': 'x'"),
    (["simulate", "--learner", "create-adv:-1", "--adversary", "free"], "'create-adv:-1': '-1'"),
    (["verify", "lower:x"], "'lower:x': 'x'"),
    (["verify", "lower:0"], "'lower:0': '0'"),
    (["bench", "--dims", "a-b"], "'--dims a-b': 'a'"),
    (["bench", "--dims", "2-"], "'--dims 2-': ''"),
    (["simulate", "--learner", "predict", "--adversary", "free", "--cap", "0"], "'--cap 0': '0'"),
    (["simulate", "--learner", "predict", "--adversary", "free", "--d", "-1"], "'--d -1': '-1'"),
]


@pytest.mark.parametrize("argv, spec", MALFORMED_SPECS, ids=[spec.split("'")[1] for _, spec in MALFORMED_SPECS])
def test_a_malformed_spec_is_an_error_not_a_traceback(capsys, argv, spec) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {spec} is not an integer >= ")


def test_a_closed_stdout_pipe_is_exit_1_not_a_traceback() -> None:
    # the reader is gone before the CLI writes a byte, as in `... | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "oraclebench.cli", "simulate", "--learner", "predict",
             "--adversary", "ternary:1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr


@pytest.mark.parametrize("adversary", ["ternary:11", "free"])
def test_a_cap_past_the_round_guard_is_refused_before_any_round(monkeypatch, capsys, adversary) -> None:
    monkeypatch.setattr(cli, "run_game", _no_work)
    assert main(["simulate", "--learner", "predict", "--adversary", adversary, "--cap", "200000"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: round_cap 200000 is past the guard of 70000 rounds\n")


def _run_in_256_mib(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a subprocess under a 256 MiB address-space limit."""
    limit = 256 << 20
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "oraclebench.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_running_out_of_memory_is_an_error_not_a_traceback() -> None:
    # ternary:11 capped at the round guard needs about 610 MB; under the
    # limit the game runs out of memory after a few seconds at most
    done = _run_in_256_mib("simulate", "--learner", "predict", "--adversary", "ternary:11", "--cap", "70000")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: simulate: out of memory\n")


def test_a_bench_cell_out_of_memory_is_an_error_row_and_the_other_rows_stay() -> None:
    # ternary:10 needs about 358 MB, flood:10 plays 2047 short rounds
    done = _run_in_256_mib("bench", "--dims", "10", "--adversaries", "ternary,flood")
    rows = [line.split("\t")[:6] for line in done.stdout.splitlines()]
    assert (done.returncode, done.stderr) == (1, "")
    assert rows == [
        ["d", "learner", "adversary", "mistakes", "bound", "rounds"],
        ["10", "predict", "ternary", "ERROR", "out of memory", "-"],
        ["10", "predict", "flood", "2047", "2047", "2047"],
    ]
