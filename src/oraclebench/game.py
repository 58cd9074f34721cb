"""Protocol engine for the mistake game.

A game alternates three steps per round: the adversary names a point, the
learner predicts a bit, and the adversary reveals a label together with a
function consistent with the entire history. The engine enforces that
consistency on every round, optionally bounds the dimension of the
revealed set, counts mistakes, and records a transcript that is
byte-reproducible from the configuration and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

from .errors import (
    DimensionViolation,
    IllegalAdversaryFunction,
    IllegalPrediction,
    NonRealizable,
    SizeLimitExceeded,
    TranscriptError,
)
from .hypotheses import Bit, Hypothesis, Point, Sample, is_consistent, point_bit
from .littlestone import _DimensionEngine, ldim  # noqa: F401  (perfbench traces game.ldim)


class Adversary(Protocol):
    """What the engine needs from an adversary."""

    name: str

    def next_point(self) -> Point | None: ...

    def respond(self, x: Point, y_hat: Bit) -> tuple[Bit, Hypothesis]: ...


class Learner(Protocol):
    """What the engine needs from a learner driver."""

    name: str

    def run(self, rounds: "RoundChannel") -> None: ...


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of one game.

    ``d`` is the declared dimension bound (None for an unconstrained
    adversary); ``validation`` is "consistency" (always-on history check)
    or "full" (additionally decide the revealed set's dimension in each
    round that reveals one of its first ``DIMENSION_CHECK_LIMIT`` distinct
    functions; later functions are undecided, so past them only the
    history is checked). README "Size guards" has the rule and timings.
    """

    d: int | None
    round_cap: int = 1000
    seed: int = 0
    validation: str = "consistency"

    def __post_init__(self) -> None:
        if self.d is not None and (type(self.d) is not int or self.d < 0):
            raise ValueError(f"d must be None or an int >= 0, got {self.d!r}")
        if type(self.round_cap) is not int or self.round_cap < 1:
            raise ValueError(f"round_cap must be an int >= 1, got {self.round_cap!r}")
        if self.round_cap > ROUND_CAP_LIMIT:
            raise SizeLimitExceeded(f"round_cap {self.round_cap} is past the guard of {ROUND_CAP_LIMIT} rounds")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.validation not in ("consistency", "full"):
            raise ValueError("validation must be 'consistency' or 'full'")


@dataclass(slots=True)
class Round:
    """One round and the function revealed in it, as a slotted record the
    engine builds positionally; only ``annotate_update`` edits it."""

    index: int
    x: Point
    y_hat: Bit
    y: Bit
    mistake: bool
    f: Hypothesis
    appended: tuple[str, ...] = ()
    deleted: tuple[str, ...] = ()


@dataclass
class Transcript:
    """Complete record of one game, one record per round; each round holds
    its revealed function, so the game can be re-validated offline."""

    config: GameConfig
    learner: str
    adversary: str
    rounds: list[Round] = field(default_factory=list)
    stopped_by: str = "unknown"

    @property
    def functions(self) -> list[Hypothesis]:
        """The revealed functions in round order: the rounds' own objects."""
        return [r.f for r in self.rounds]

    @property
    def mistake_count(self) -> int:
        return sum(1 for r in self.rounds if r.mistake)


class GameStopped(Exception):
    """Internal control flow: the game is over (not an error)."""

    def __init__(self, reason: str):
        self.reason = reason


# One rule bounds the referee's dimension check of live games and stored transcripts: decide
# the first 243 distinct functions (3^5, the ternary:5 set); past them, later functions are
# undecided. validation="full" decides after each new one, on one engine that
# grows with the game and keeps its memo: about 0.01 s over a whole ternary:4
# game and 0.3 s over a ternary:5 game (README "Size guards").
DIMENSION_CHECK_LIMIT = 243
# One rule bounds every game's length: a transcript keeps each round's function, so memory
# grows with the square of the length. The longest game played, create-adv:3 vs free, is 69,904.
ROUND_CAP_LIMIT = 70000


class _Referee:
    """The rule a legal adversary keeps: every revealed function agrees with
    the history, held as the masks of the 1- and of the 0-labeled points, and
    with ``d`` set the revealed set stays within dimension d. The first
    DIMENSION_CHECK_LIMIT distinct functions grow one dimension engine."""

    def __init__(self, d: int | None):
        self.d = d
        self.ones = self.zeros = 0
        self.supports: set[int] = set()  # of the distinct functions added
        self._engine: _DimensionEngine | None = None

    def admit(self, index: int, x: Point, y: Bit, f: Hypothesis) -> bool:
        """Add round ``index``'s pair (x, y), and ``f`` with ``d`` set; True iff
        ``f`` joined the engine. Raises IllegalAdversaryFunction unless ``f``
        agrees with the history; a label that is not a bit labels x both ways."""
        bit = point_bit(x)
        if y != 0:
            self.ones |= bit
        if y != 1:
            self.zeros |= bit
        if self.ones & ~f.support or f.support & self.zeros:
            raise IllegalAdversaryFunction(f"round {index}: function {f.name!r} contradicts the revealed history")
        return self.d is not None and self.add(f)

    def add(self, f: Hypothesis) -> bool:
        """Add ``f`` to the revealed set; True iff it joined the engine."""
        if f.support in self.supports:
            return False
        self.supports.add(f.support)
        if len(self.supports) > DIMENSION_CHECK_LIMIT:
            return False
        if self._engine is None:
            self._engine = _DimensionEngine((f,))
        else:
            self._engine.add(f)
        return True

    def exceeds(self) -> bool | None:
        """Whether the revealed set has dimension above ``d``: False with no
        search for fewer than 2^(d+1) distinct functions (ldim <= log2 n),
        True when the engine's functions are above d whatever follows them,
        None (undecided) when they are not and more follow, else False."""
        n = len(self.supports)
        if n.bit_length() <= self.d + 1:
            return False
        if self._engine.at_least(self._engine.full, self.d + 1):
            return True
        return None if n > DIMENSION_CHECK_LIMIT else False


class RoundChannel:
    """The learner-facing side of the engine.

    The learner pulls the next point, submits its prediction and gets the
    revealed label back; ``oracle`` answers with the last round's revealed
    function, and ``annotate_update`` records a mistake's list mutations.
    """

    def __init__(self, adversary: Adversary, config: GameConfig, transcript: Transcript):
        # bound once per game, out of the round loop
        self._next_point = adversary.next_point
        self._respond = adversary.respond
        self._rounds = transcript.rounds
        self._cap = config.round_cap
        self._referee = _Referee(config.d if config.validation == "full" else None)
        self._pending: Point | None = None

    def next_point(self) -> Point:
        if self._pending is not None:
            raise RuntimeError("next_point called twice without submit")
        if len(self._rounds) >= self._cap:
            raise GameStopped("round_cap")
        x = self._next_point()
        if x is None:
            raise GameStopped("adversary_done")
        self._pending = x
        return x

    def submit(self, y_hat: Bit) -> Bit:
        if self._pending is None:
            raise RuntimeError("submit called before next_point")
        rounds = self._rounds
        index = len(rounds)
        if type(y_hat) is not int or y_hat not in (0, 1):
            raise IllegalPrediction(f"round {index}: prediction {y_hat!r} is not the int 0 or 1")
        x = self._pending
        self._pending = None
        y, f = self._respond(x, y_hat)
        if type(y) is not int or y not in (0, 1):
            raise IllegalAdversaryFunction(f"round {index}: label {y!r} is not the int 0 or 1")
        if self._referee.admit(index, x, y, f) and self._referee.exceeds():
            raise DimensionViolation(f"round {index}: revealed set has dimension above {self._referee.d}")
        rounds.append(Round(index, x, y_hat, y, y != y_hat, f))
        return y

    def oracle(self, sample: Sample) -> Hypothesis:
        """Consistent-oracle view of the adversary's current function."""
        if not self._rounds:
            raise RuntimeError("oracle queried before any round completed")
        f = self._rounds[-1].f
        if not is_consistent(f, sample):
            raise NonRealizable(
                f"revealed function {f.name!r} does not realize the queried sample"
            )
        return f

    def annotate_update(self, appended: Iterable[str], deleted: Iterable[str]) -> None:
        """Attach the learner's list mutations to the round just played."""
        rounds = self._rounds
        if rounds:
            rounds[-1].appended, rounds[-1].deleted = tuple(appended), tuple(deleted)


def run_game(learner: Learner, adversary: Adversary, config: GameConfig) -> Transcript:
    """Play one game to completion and return its transcript.

    The game ends when the adversary runs out of points, the learner's
    procedure halts, or the round cap is reached; all three are normal
    terminations recorded in ``stopped_by``.
    """
    transcript = Transcript(config=config, learner=learner.name, adversary=adversary.name)
    channel = RoundChannel(adversary, config, transcript)
    try:
        learner.run(channel)
    except GameStopped as stop:
        transcript.stopped_by = stop.reason
    else:
        transcript.stopped_by = "learner_halted"
    return transcript


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: int
    failures: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None


def validate_transcript(t: Transcript) -> ValidationReport:
    """Offline re-validation of a stored transcript.

    Re-checks every revealed function against the history prefix it was
    played under and each round's index against its position, recomputes
    the mistake flags, names the first round past the round cap, and
    (size-guarded) bounds the dimension of the full revealed set.
    """
    failures: list[str] = []
    notes: list[str] = []
    checks = 0
    d, cap = t.config.d, t.config.round_cap
    referee = _Referee(d)
    for i, r in enumerate(t.rounds):
        checks += 1
        if i == cap:
            failures.append(f"round {i}: played past the round cap of {cap}")
        if r.index != i:
            failures.append(f"round {i}: stored index is {r.index}")
        if r.mistake != (r.y_hat != r.y):
            failures.append(f"round {r.index}: mistake flag does not match labels")
        try:
            referee.admit(r.index, r.x, r.y, r.f)
        except IllegalAdversaryFunction as exc:
            failures.append(str(exc))
            break
    if d is not None and not failures:
        over = referee.exceeds()
        if over is None:
            notes.append(
                f"dimension check skipped: {len(referee.supports)} distinct "
                f"functions exceed the guard of {DIMENSION_CHECK_LIMIT}"
            )
        else:
            checks += 1
            if over:
                failures.append(f"revealed set has dimension above {d}")
    return ValidationReport(passed=not failures, checks=checks, failures=tuple(failures), notes=tuple(notes))


TRANSCRIPT_FORMAT = 4
# The stopped_by values run_game records.
STOP_REASONS = ("round_cap", "adversary_done", "learner_halted")
_HEX_DIGITS = frozenset("0123456789abcdef")
# The typed fields of a header and of a round record, with the type each must
# load as (a bool is not an int here). The round fields follow Round's order;
# Round.f is stored as "f_id", its name, and "ones" (see save_transcript).
_HEADER_TYPES = {"learner": str, "adversary": str, "round_cap": int, "seed": int}
_ROUND_TYPES = {"round": int, "x": int, "y_hat": int, "y": int, "mistake": bool, "f_id": str}
# One encoder for every line: json.dumps with options builds a new one per call.
_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def save_transcript(t: Transcript, path: str | Path) -> None:
    """Write a transcript as line-delimited JSON, bit-exact for identical
    inputs: a header record, one record per round and a trailing summary.
    A round's ``ones`` is its function's support XOR the mask of the points
    labeled 1 up to and including that round, in lowercase hex: "0" for a
    function that is 1 exactly on the history's 1-points."""
    header = {
        "type": "header",
        "format": TRANSCRIPT_FORMAT,
        "learner": t.learner,
        "adversary": t.adversary,
        "d": t.config.d,
        "round_cap": t.config.round_cap,
        "seed": t.config.seed,
        "validation": t.config.validation,
    }
    lines = [_line(header)]
    ones = 0
    for r in t.rounds:
        if r.y == 1:
            ones |= point_bit(r.x)
        lines.append(_line({"type": "round", "round": r.index, "x": r.x, "y_hat": r.y_hat, "y": r.y,
                            "mistake": r.mistake, "f_id": r.f.name, "ones": format(r.f.support ^ ones, "x"),
                            "appended": list(r.appended), "deleted": list(r.deleted)}))
    lines.append(_line({"type": "summary", "rounds": len(t.rounds), "mistakes": t.mistake_count,
                        "stopped_by": t.stopped_by}))
    Path(path).write_text("\n".join(lines) + "\n")


def _typed(rec: dict, types: dict[str, type]) -> list:
    """The record's values under the keys of ``types``, each of exactly its type."""
    values = [rec[key] for key in types]
    if list(map(type, values)) != list(types.values()):
        for (key, want), value in zip(types.items(), values):
            if type(value) is not want:
                raise TranscriptError(f"{key!r} must be of type {want.__name__}, got {value!r}")
    return values


def _names(rec: dict, key: str, shared: dict[str, str]) -> tuple[str, ...]:
    names = rec.get(key, [])
    if type(names) is not list or not set(map(type, names)) <= {str}:
        raise TranscriptError(f"{key!r} must be a list of strings, got {names!r}")
    return tuple(map(shared.setdefault, names, names))


def _read_record(
    rec: object, t: Transcript | None, ones: int, shared: dict[str, str]
) -> tuple[Transcript, int]:
    """The transcript and the mask of the points labeled 1 so far, after
    reading one more record: a header first, then rounds, then a summary,
    which sets ``stopped_by`` and ends the transcript. ``shared`` maps each
    function name read so far to one string object for all its uses."""
    if type(rec) is not dict:
        raise TranscriptError(f"a record must be a JSON object, got {type(rec).__name__}")
    kind = rec["type"]
    if t is not None and t.stopped_by != "unknown":
        raise TranscriptError(f"{kind!r} record after the summary")
    if kind == "header":
        if t is not None:
            raise TranscriptError("a second header record")
        if rec.get("format") != TRANSCRIPT_FORMAT:
            raise TranscriptError(
                f"unknown transcript format {rec.get('format')!r}; expected {TRANSCRIPT_FORMAT}"
            )
        learner, adversary, round_cap, seed = _typed(rec, _HEADER_TYPES)
        return Transcript(GameConfig(rec["d"], round_cap, seed, rec["validation"]), learner, adversary), 0
    if t is None:
        raise TranscriptError(f"{kind!r} record before the header")
    if kind == "round":
        index, x, y_hat, y, mistake, name = _typed(rec, _ROUND_TYPES)
        for key in ("y_hat", "y"):
            if rec[key] not in (0, 1):
                raise TranscriptError(f"{key!r} is not the int 0 or 1: {rec[key]!r}")
        delta = rec["ones"]
        if not isinstance(delta, str) or not delta or not _HEX_DIGITS.issuperset(delta):
            raise TranscriptError(f"'ones' is not a lowercase hex string: {delta!r}")
        bit = point_bit(x)
        if y:
            ones |= bit
        f = Hypothesis(shared.setdefault(name, name), support=int(delta, 16) ^ ones)
        t.rounds.append(Round(index, x, y_hat, y, mistake, f,
                              _names(rec, "appended", shared), _names(rec, "deleted", shared)))
    elif kind == "summary":
        if (rec["rounds"], rec["mistakes"]) != (len(t.rounds), t.mistake_count):
            raise TranscriptError(
                f"summary claims {rec['rounds']} rounds and {rec['mistakes']} mistakes; "
                f"the records hold {len(t.rounds)} rounds and {t.mistake_count} mistakes"
            )
        stopped_by = rec["stopped_by"]
        if stopped_by not in STOP_REASONS:
            raise TranscriptError(f"unknown stopped_by {stopped_by!r}; expected {', '.join(STOP_REASONS)}")
        if stopped_by == "round_cap" and len(t.rounds) != t.config.round_cap:
            raise TranscriptError(
                f"stopped_by 'round_cap' after {len(t.rounds)} rounds; the cap is {t.config.round_cap}"
            )
        t.stopped_by = stopped_by
    else:
        raise TranscriptError(f"unknown record type {kind!r}")
    return t, ones


def load_transcript(path: str | Path) -> Transcript:
    """Read a transcript written by save_transcript, one line at a time. A
    file that cannot be opened, a line that is not UTF-8, a malformed
    record, a point outside 0..MASK_WIDTH-1, records out of the order
    header, rounds, summary, or a summary whose counts or stop reason
    disagree with the records before it, raises TranscriptError naming the
    file and, past opening it, the line. Which of adversary_done and
    learner_halted ended a game only a replay can tell, so a swap between
    the two loads."""
    try:
        stream = open(path, "rb")
    except OSError as exc:
        raise TranscriptError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    t: Transcript | None = None
    ones = 0
    shared: dict[str, str] = {}
    with stream:
        # bytes are decoded a line at a time, so a decoding error (a ValueError) names its line
        for lineno, line in enumerate(stream, 1):
            try:
                t, ones = _read_record(json.loads(line.decode()), t, ones, shared)
            except KeyError as exc:
                raise TranscriptError(f"{path} line {lineno}: record lacks key {exc}") from exc
            except (TranscriptError, SizeLimitExceeded, TypeError, ValueError) as exc:
                raise TranscriptError(f"{path} line {lineno}: {exc}") from exc
    if t is None:
        raise TranscriptError(f"{path}: no header record")
    if t.stopped_by == "unknown":
        raise TranscriptError(f"{path} line {lineno}: the transcript ends without a summary record")
    return t
