"""Online learning with a consistent oracle.

A workbench for the mistake game between a learner and an adversary whose
revealed functions must stay within a Littlestone-dimension budget:
exact dimension computation with shattered-tree certificates, the
majority-vote learner built on oracle answers, adversaries that realize
the known lower bounds, and a protocol engine that validates every move.
"""

from .adversary import (
    ClassGreedyAdversary,
    DigitRecovery,
    FloodAdversary,
    FreeAdversary,
    RandomClassAdversary,
    RecoveryState,
    TernaryAdversary,
    ternary_function,
)
from .errors import (
    ClassFileError,
    ContradictorySample,
    DimensionViolation,
    EmptyClass,
    IllegalAdversaryFunction,
    IllegalLabel,
    IllegalPrediction,
    InconsistentOracleClass,
    InsufficientAgreement,
    NonRealizable,
    OracleBenchError,
    OracleFailure,
    PointError,
    RepeatedActiveFunction,
    ScheduleViolation,
    SizeLimitExceeded,
    TranscriptError,
)
from .game import (
    GameConfig,
    Round,
    Transcript,
    load_transcript,
    run_game,
    save_transcript,
    validate_transcript,
)
from .hypotheses import (
    Hypothesis,
    HypothesisClass,
    Sample,
    is_consistent,
    load_class_file,
    save_class_file,
)
from .learner import (
    ActiveList,
    AdvancedCheck,
    CreateAdvancedLearner,
    LearnerState,
    PredictLearner,
    appended_functions,
    check_advanced,
    create_advanced_widths,
    halting_mistakes,
    mistake_bound,
    predict_widths,
    run_schedule,
    vote_and_update,
)
from .littlestone import (
    LabeledTree,
    SOALearner,
    TreeNode,
    find_shattered_tree,
    format_tree,
    is_shattered,
    ldim,
    ldim_at_least,
    minimax_adversary_value,
)

__version__ = "0.1.0"
