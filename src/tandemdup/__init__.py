"""Bounded tandem duplication string systems.

Enumeration, membership, finite automata, growth rates and expressiveness
for the languages generated by copying blocks of a seed word in place.
"""

__version__ = "0.1.0"

from .automaton import (
    ClosureCertificate,
    ClosureCheck,
    LabeledAutomaton,
    build_automaton,
    count_accepted,
    language_upto,
    regex_to_nfa,
    seed_regex,
    transfer_matrix,
    verify_duplication_closure,
)
from .capacity import (
    ABC_BLOCK_GROWTH,
    CapacityReport,
    GrowthEstimate,
    avoidance_capacity,
    empirical_capacity,
    exact_capacity,
    spectral_capacity,
    spectral_radius,
)
from .core import (
    Alphabet,
    DuplicationSystem,
    Word,
    iter_tandem_repeats,
    tandem_duplicate,
    thue_square_free,
)
from .enumeration import (
    DEFAULT_BUDGET,
    CountTable,
    DedupResult,
    LanguageSlice,
    count_words,
    dedup_distance,
    dedup_roots,
    derives_from,
    enumerate_words,
)
from .errors import (
    BudgetExceededError,
    EmptyLanguageError,
    InsufficientDataError,
    NonConvergenceError,
    NondeterministicAutomatonError,
    UnsupportedDuplicationLength,
)
from .expressiveness import (
    ANSWER_NO,
    ANSWER_UNKNOWN,
    ANSWER_YES,
    ExpressivenessVerdict,
    Witness,
    check_coverage,
    is_fully_expressive,
    verify_witness_absent,
    witness,
)

__all__ = [
    "ABC_BLOCK_GROWTH",
    "ANSWER_NO",
    "ANSWER_UNKNOWN",
    "ANSWER_YES",
    "Alphabet",
    "BudgetExceededError",
    "CapacityReport",
    "ClosureCertificate",
    "ClosureCheck",
    "CountTable",
    "DEFAULT_BUDGET",
    "DedupResult",
    "DuplicationSystem",
    "EmptyLanguageError",
    "ExpressivenessVerdict",
    "GrowthEstimate",
    "InsufficientDataError",
    "LabeledAutomaton",
    "LanguageSlice",
    "NonConvergenceError",
    "NondeterministicAutomatonError",
    "UnsupportedDuplicationLength",
    "Witness",
    "Word",
    "avoidance_capacity",
    "build_automaton",
    "check_coverage",
    "count_accepted",
    "count_words",
    "dedup_distance",
    "dedup_roots",
    "derives_from",
    "empirical_capacity",
    "enumerate_words",
    "exact_capacity",
    "is_fully_expressive",
    "iter_tandem_repeats",
    "language_upto",
    "regex_to_nfa",
    "seed_regex",
    "spectral_capacity",
    "spectral_radius",
    "tandem_duplicate",
    "thue_square_free",
    "transfer_matrix",
    "verify_duplication_closure",
    "verify_witness_absent",
    "witness",
]
