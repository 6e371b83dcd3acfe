"""Alphabet and word primitives for bounded tandem duplication systems.

A tandem duplication copies a block of a word and inserts the copy right
after the original, turning ``uvw`` into ``uvvw``.  A duplication system
is a seed word together with a bound ``kmax`` on the copied block length;
its language is everything reachable from the seed by such copies.

Words are plain Python strings when every alphabet symbol is a single
character (the usual case: ``"012"``, ``"ACGT"``).  Alphabets with longer
symbol names use tuples of symbol strings instead.  All operations accept
both forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import itertools

Word = Union[str, Tuple[str, ...]]


class Alphabet:
    """Ordered set of distinct symbols.

    The order is significant: it fixes the symbol ranking used by
    constructions that pick "the first symbol" or map one alphabet
    onto another.
    """

    __slots__ = ("symbols", "_rank")

    def __init__(self, symbols: Union[str, Sequence[str]]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("an alphabet needs at least one symbol")
        if any(not isinstance(s, str) or not s for s in syms):
            raise ValueError("symbols must be nonempty strings")
        if any("," in s for s in syms):
            raise ValueError("',' is reserved as the word separator")
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate symbols: {symbols!r}")
        self.symbols = syms
        self._rank = {s: i for i, s in enumerate(syms)}

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        """Inverse of to_text: plain characters, or comma-separated symbols."""
        return cls(text.split(",")) if "," in text else cls(text)

    def to_text(self) -> str:
        if self.single_char:
            return "".join(self.symbols)
        return ",".join(self.symbols)

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    def index(self, symbol: str) -> int:
        return self._rank[symbol]

    def join(self, symbols) -> Word:
        """Build a word from a symbol sequence, validating membership."""
        syms = tuple(symbols)
        for s in syms:
            if s not in self._rank:
                raise ValueError(f"symbol {s!r} not in alphabet {self.to_text()!r}")
        if self.single_char:
            return "".join(syms)
        return syms

    def word(self, text: str) -> Word:
        """Parse a serialized word (plain text, or comma-separated symbols)."""
        if text == "":
            return "" if self.single_char else ()
        parts = text.split(",") if "," in text else (
            tuple(text) if self.single_char else (text,)
        )
        return self.join(parts)

    def text(self, word: Word) -> str:
        """Serialize a word produced by this alphabet."""
        if isinstance(word, str):
            return word
        return ",".join(word)

    def contains_word(self, word: Word) -> bool:
        return all(s in self._rank for s in word)

    def words_of_length(self, n: int) -> Iterator[Word]:
        """All length-n words over this alphabet, in symbol-rank order.

        The symbols are the alphabet's own, so the products are joined
        without `join`'s check."""
        combos = itertools.product(self.symbols, repeat=n)
        return map("".join, combos) if self.single_char else combos

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._rank

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({self.to_text()!r})"


@dataclass(frozen=True)
class DuplicationSystem:
    """A seed word plus a bound on the duplicated block length.

    The language of the system is the closure of the seed under tandem
    duplications of blocks of length 1 through kmax.
    """

    alphabet: Alphabet
    seed: Word
    kmax: int

    def __post_init__(self):
        if len(self.seed) == 0:
            raise ValueError("seed must be nonempty")
        if not self.alphabet.contains_word(self.seed):
            raise ValueError(
                f"seed {self.seed!r} uses symbols outside {self.alphabet!r}"
            )
        if self.kmax < 1:
            raise ValueError("kmax must be at least 1")

    @classmethod
    def parse(cls, alphabet_text: str, seed_text: str, kmax: int) -> "DuplicationSystem":
        alphabet = Alphabet.parse(alphabet_text)
        return cls(alphabet, alphabet.word(seed_text), kmax)

    @property
    def base(self) -> int:
        return len(self.alphabet)

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet.to_text(),
            "seed": self.alphabet.text(self.seed),
            "kmax": self.kmax,
        }


def tandem_duplicate(word: Word, offset: int, length: int) -> Word:
    """Copy the block at [offset, offset+length) in place: uvw -> uvvw.

    Out-of-range arguments leave the word unchanged.
    """
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be nonnegative")
    if offset + length > len(word):
        return word
    return word[: offset + length] + word[offset:]


def iter_tandem_repeats(word: Word, kmax: int) -> Iterator[Tuple[int, int]]:
    """Every square with block length <= kmax as (offset, length): the block
    word[offset:offset + length] repeats right after itself.  In (offset,
    length) order, as `_Peeling.peel`, the one square finder, lists them."""
    from .enumeration import _Peeling

    peeling = _Peeling(word, kmax)
    return ((offset, length) for offset, length, _ in peeling.peel(peeling.encode(word)))


_SQUARE_FREE_MORPHISM = {"0": "012", "1": "02", "2": "1"}


def thue_square_free(n: int, alphabet: Optional[Alphabet] = None) -> Word:
    """Length-n prefix of a fixed square-free word over three symbols.

    Iterates the morphism 0 -> 012, 1 -> 02, 2 -> 1 from "0"; the morphism
    fixes its own output's prefixes, so the limit word is well defined.
    Symbols 0, 1, 2 are mapped onto the given alphabet in rank order.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if alphabet is None:
        alphabet = Alphabet("012")
    if len(alphabet) != 3:
        raise ValueError("need exactly three symbols")
    w = "0"
    while len(w) < n:
        w = "".join(_SQUARE_FREE_MORPHISM[c] for c in w)
    return alphabet.join(alphabet.symbols[int(c)] for c in w[:n])
