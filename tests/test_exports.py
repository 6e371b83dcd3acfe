"""The package's export list: every name resolves, none is listed twice,
it names exactly the public objects `__init__.py` imports, and it is the
list pinned here, so adding or dropping a public name is an edit below."""

import ast
from pathlib import Path

import tandemdup
import tandemdup.enumeration
import tandemdup.expressiveness


def _imported_names():
    """Every name a `from .module import ...` in `__init__.py` binds."""
    tree = ast.parse(Path(tandemdup.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


EXPORTS = [
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


def test_the_export_list_is_pinned():
    assert sorted(tandemdup.__all__) == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in tandemdup.__all__ if not hasattr(tandemdup, name)]
    assert not missing, missing


def test_the_export_list_has_no_duplicates():
    assert len(set(tandemdup.__all__)) == len(tandemdup.__all__)


def test_the_export_list_names_every_public_import():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public == set(tandemdup.__all__)


def test_the_factor_checks_are_one_object_through_every_module():
    for name in ("check_coverage", "verify_witness_absent"):
        defined = getattr(tandemdup.enumeration, name)
        assert defined.__module__ == "tandemdup.enumeration"
        assert getattr(tandemdup.expressiveness, name) is defined
        assert getattr(tandemdup, name) is defined
