"""Exception types shared across the workbench."""

from __future__ import annotations


class OracleBenchError(Exception):
    """Base class for all workbench errors."""


class ContradictorySample(OracleBenchError):
    """A sample labels the same point both 0 and 1."""


class NonRealizable(OracleBenchError):
    """No hypothesis in the class is consistent with the sample."""


class OracleFailure(OracleBenchError):
    """The consistent oracle could not answer; the opponent played illegally."""


class EmptyClass(OracleBenchError):
    """A hypothesis class must contain at least one hypothesis."""


class IllegalLabel(OracleBenchError):
    """A label was revealed that no remaining hypothesis can produce."""


class SizeLimitExceeded(OracleBenchError):
    """Input exceeds the guard for an exponential-time check, or a game's round guard."""


class InsufficientAgreement(OracleBenchError):
    """Fewer voters agree with the majority prediction than the vote rule
    guarantees; indicates an internal bug, not bad input."""


class ScheduleViolation(OracleBenchError):
    """A voting procedure was entered with fewer active functions than its
    vote width; indicates an internal bug in the procedure schedule."""


class RepeatedActiveFunction(OracleBenchError):
    """An oracle answer extensionally equals a function already on the
    active list."""


class IllegalPrediction(OracleBenchError):
    """A learner submitted a prediction that is not the int 0 or 1."""


class IllegalAdversaryFunction(OracleBenchError):
    """The adversary revealed a label that is not the int 0 or 1, or a
    function inconsistent with the game history."""


class DimensionViolation(OracleBenchError):
    """The adversary's revealed functions exceed the declared dimension bound."""


class InconsistentOracleClass(OracleBenchError):
    """Observed labels contradict every function in the assumed class."""


class ClassFileError(OracleBenchError):
    """A hypothesis-class file is malformed."""


class PointError(OracleBenchError, ValueError):
    """A point is not an int in 0..MASK_WIDTH-1, or repeats within one table."""


class TranscriptError(OracleBenchError):
    """A stored transcript is malformed."""
