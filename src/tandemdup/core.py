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
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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


class _Peeling:
    """Words over the symbols of one start word as Python ints, for peeling
    squares off them.

    Each symbol is its rank among the start word's symbols, sorted, in
    B = max(1, ceil(log2 |symbols|)) bits, first symbol most significant,
    under a leading 1 bit.  A code of n symbols lies in [2**(n*B),
    2**(n*B + 1)).
    """

    def __init__(self, word: Word, kmax: int):
        self.kmax = kmax
        self.symbols = sorted(set(word))
        self.bits = max(1, (len(self.symbols) - 1).bit_length())
        self._rank = {s: r for r, s in enumerate(self.symbols)}
        self._join = "".join if isinstance(word, str) else tuple
        # valid[m]: the lowest bit of each of the last m + 1 symbols, that
        # is of the squares with t = 0..m symbols after them
        self._valid = []
        ones = 0
        for t in range(len(word)):
            ones |= 1 << t * self.bits
            self._valid.append(ones)

    def encode(self, word: Word) -> int:
        code = 1
        for symbol in word:
            code = (code << self.bits) | self._rank[symbol]
        return code

    def decode(self, code: int) -> Word:
        n = (code.bit_length() - 1) // self.bits
        rank = (1 << self.bits) - 1
        return self._join(
            self.symbols[(code >> j * self.bits) & rank] for j in range(n - 1, -1, -1)
        )

    def _squares(self, code: int, n: int, length: int) -> int:
        """A mask with the lowest bit of the last symbol of every square of
        block length `length` in a code of n >= 2 * length symbols, so the
        bits below a mark are those of the symbols after its square."""
        shift = length * self.bits
        # x is zero on every symbol that equals the one `length` places
        # before it.  OR-ing each bit of x with the shift - 1 bits above
        # it, by doubling, leaves the lowest bit of a symbol clear just
        # where x is zero on it and the length - 1 symbols before it:
        # the AND of `length` shifted copies of x's symbol-wise zero mask
        x = code ^ (code >> shift)
        span = 1
        while 2 * span <= shift:
            x |= x >> span
            span *= 2
        x |= x >> shift - span
        return self._valid[n - 2 * length] & ~x

    def root(self, word: Word, bound: int) -> int:
        """The code of a `bound`-irreducible descendant of `word`, in one
        pass: its symbols are appended one at a time, and a square of block
        length <= bound that ends at the newest symbol has its second copy
        deleted at once, the shortest such square first.  At bound 1 this is
        the collapse of `word`, every run cut to one symbol.

        The word built so far stays irreducible: a new square must end at
        the newest symbol, and deleting its second copy leaves a prefix of
        the word before the append.  Each deletion is a deduplication of
        the whole word, so what is left at the end is a root."""
        bits, rank = self.bits, self._rank
        # (length, 2 * length, shift, mask of the last `length` symbols), up
        # to half the word's length: no longer square fits in it
        top = min(bound, len(word) // 2)
        blocks = [(l, 2 * l, l * bits, (1 << l * bits) - 1) for l in range(1, top + 1)]
        code, n = 1, 0
        for symbol in word:
            code = code << bits | rank[symbol]
            n += 1
            for length, twice, shift, low in blocks:
                if twice > n:
                    break
                # the last `length` symbols repeat the `length` before them
                if not (code ^ code >> shift) & low:
                    code >>= shift
                    n -= length
                    break
        return code

    def peel(self, code: int, shortest: int = 0, first: int = 1) -> List[Tuple[int, int, int]]:
        """(offset, length, child) for every square of block length first ..
        kmax whose deletion leaves at least `shortest` symbols, in (offset,
        length) order; the child is the code with the square's second copy
        deleted."""
        bits = self.bits
        n = (code.bit_length() - 1) // bits
        found = []
        for length in range(first, min(self.kmax, n // 2, n - shortest) + 1):
            shift = length * bits
            hits = self._squares(code, n, length)
            while hits:
                low = hits & -hits
                hits ^= low
                tail = low.bit_length() - 1  # bits of the symbols after the square
                child = ((code >> tail + shift) << tail) | (code & low - 1)
                found.append((n - 2 * length - tail // bits, length, child))
        # no two squares share an (offset, length), so no child is compared
        found.sort()
        return found


def iter_tandem_repeats(word: Word, kmax: int) -> Iterator[Tuple[int, int]]:
    """Every square with block length <= kmax as (offset, length): the block
    word[offset:offset + length] repeats right after itself.  In (offset,
    length) order, as `_Peeling.peel`, the one square finder, lists them."""
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
