"""Full expressiveness: does every word appear as a factor of the language?

A system is fully expressive when every word over its alphabet occurs as a
substring of some member.  The answer is decided by a case ladder over the
alphabet size, the duplication bound and the seed shape; every "no" comes
with a concrete witness word that can never occur, checkable by
enumeration at small lengths: `check_coverage` and `verify_witness_absent`
live beside the level loop in `enumeration` and are imported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Alphabet, DuplicationSystem, Word, thue_square_free
from .enumeration import check_coverage, verify_witness_absent  # noqa: F401

ANSWER_YES = "yes"
ANSWER_NO = "no"
ANSWER_UNKNOWN = "unknown"

REASON_MISSING_SYMBOL = "missing-symbol"
REASON_BINARY_K1 = "binary-k1"
REASON_TERNARY_K3 = "ternary-k3"
REASON_SIGMA4 = "sigma4-squarefree"

RULE_UNARY = "unary"
RULE_BINARY_K2 = "binary-k2"
RULE_TERNARY_K4 = "ternary-abc-seed-k4"
RULE_UNCHARACTERIZED = "uncharacterized"


@dataclass(frozen=True)
class Witness:
    """A word that never occurs as a factor of the language."""

    word: Word
    reason: str


@dataclass(frozen=True)
class ExpressivenessVerdict:
    answer: str
    rule: str
    witness: Optional[Witness] = None

    def to_json_dict(self, alphabet: Alphabet) -> dict:
        return {
            "answer": self.answer,
            "rule": self.rule,
            "witness": alphabet.text(self.witness.word) if self.witness else None,
        }


def _no(alphabet: Alphabet, symbols, reason: str) -> ExpressivenessVerdict:
    """A "no" whose witness is the word over `symbols`, named by `reason`."""
    return ExpressivenessVerdict(ANSWER_NO, reason, Witness(alphabet.join(symbols), reason))


def is_fully_expressive(system: DuplicationSystem) -> ExpressivenessVerdict:
    """Decide full expressiveness; every "no" carries a witness.

    The witness is built in the branch that decides the "no":
    missing-symbol: duplication introduces no new symbols, so the absent
    symbol itself is a witness.  binary-k1: (ab)^m longer than the seed
    cannot appear, since single-symbol copies only stretch runs.
    ternary-k3: (abcb)^l a is irreducible for blocks up to 3 and violates
    every boundary shape a bounded duplication can create.
    sigma4-squarefree: wrap a square-free word over three other symbols
    in the first symbol; it is too long for the seed and too square-free
    to ever be assembled.
    """
    alphabet, seed, kmax = system.alphabet, system.seed, system.kmax
    symbols = alphabet.symbols
    missing = [s for s in symbols if s not in seed]
    if missing:
        return _no(alphabet, missing[:1], REASON_MISSING_SYMBOL)
    if len(symbols) == 1:
        return ExpressivenessVerdict(ANSWER_YES, RULE_UNARY)
    if len(symbols) == 2:
        if kmax == 1:
            return _no(alphabet, symbols * (len(seed) // 2 + 1), REASON_BINARY_K1)
        return ExpressivenessVerdict(ANSWER_YES, RULE_BINARY_K2)
    if len(symbols) == 3:
        a, b, c = symbols
        if kmax <= 3:
            return _no(alphabet, (a, b, c, b) * (len(seed) + 1) + (a,), REASON_TERNARY_K3)
        # every symbol occurs in the seed, so a seed of length 3 is abc permuted
        if len(seed) == 3:
            return ExpressivenessVerdict(ANSWER_YES, RULE_TERNARY_K4)
        return ExpressivenessVerdict(ANSWER_UNKNOWN, RULE_UNCHARACTERIZED)
    inner = thue_square_free(max(len(seed), kmax) + 1, Alphabet(symbols[1:4]))
    return _no(alphabet, (symbols[0], *inner, symbols[0]), REASON_SIGMA4)


def witness(system: DuplicationSystem) -> Optional[Witness]:
    """A never-occurring factor for systems that are not fully expressive."""
    return is_fully_expressive(system).witness
