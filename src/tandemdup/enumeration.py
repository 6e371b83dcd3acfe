"""Breadth-first enumeration of duplication languages and their inverses.

Duplications strictly increase length, so a single pass over lengths in
increasing order is exhaustive: every word of length n is produced by
expanding words of length n - kmax through n - 1.  Deduplication walks
the same relation backwards and strictly decreases length, which makes
membership and root searches finite.

The level loop keeps each length as one sorted numpy array of distinct
words packed as base-|alphabet| integers: every symbol is its alphabet
rank in B = max(1, ceil(log2 |alphabet|)) bits, first symbol most
significant.  Duplicating the k symbols at position i of a length-n word
w is then whole-array arithmetic,

    ((w >> (n-i-k)*B) << (n-i)*B) | (w & (2**((n-i)*B) - 1)),

and one sort with duplicates dropped merges the children into the
pending level n + k.  The arrays are `uint64` when max_length * B <= 64
and hold Python ints otherwise, with the same arithmetic.  The packing
never leaves this module: words are decoded to strings or tuples only
where a caller asks for words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

import numpy as np

from .core import (
    Alphabet,
    DuplicationSystem,
    Word,
    deduplicate,
    find_tandem_repeat,
    iter_tandem_repeats,
)
from .errors import BudgetExceededError

DEFAULT_BUDGET = 10_000_000


def _at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _check_search(system: DuplicationSystem, word: Word, budget: int) -> None:
    """The input checks of every search for one word in the language."""
    _at_least_one("budget", budget)
    if not system.alphabet.contains_word(word):
        raise ValueError(f"word {word!r} uses symbols outside the alphabet")


def length_range(system: DuplicationSystem, max_length: int) -> range:
    """The word lengths of the system up to max_length: seed length .. max_length."""
    seed_len = len(system.seed)
    if max_length < seed_len:
        raise ValueError(
            f"max_length {max_length} is below the seed length {seed_len}"
        )
    return range(seed_len, max_length + 1)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct codes in increasing order, by one sort.

    Same result as `np.unique`, whose hash-based path in numpy 2 is about
    20 times slower on `uint64` arrays of a few hundred thousand codes.
    """
    codes = np.sort(codes)
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


class _Packing:
    """Words of one alphabet up to max_length as base-|alphabet| integer codes.

    Codes are `uint64` when max_length symbols fit in 64 bits and Python
    ints (dtype object) otherwise.  Shift counts and masks come from
    `shift` and `mask` as scalars of the codes' own type, so `uint64`
    arithmetic never depends on numpy's promotion of Python ints.
    """

    def __init__(self, alphabet: Alphabet, max_length: int):
        self.alphabet = alphabet
        self.bits = max(1, (len(alphabet) - 1).bit_length())
        wide = max_length * self.bits > 64
        self.dtype = np.dtype(object) if wide else np.dtype(np.uint64)
        self.scalar = int if wide else np.uint64
        self._symbols = np.array(alphabet.symbols)

    def shift(self, symbols: int):
        """The shift count that moves a code by this many symbols."""
        return self.scalar(symbols * self.bits)

    def mask(self, symbols: int):
        """The mask that keeps the last this many symbols of a code."""
        return self.scalar((1 << symbols * self.bits) - 1)

    def array(self, codes) -> np.ndarray:
        return np.array(codes, dtype=self.dtype)

    def encode(self, word: Word):
        code = 0
        for symbol in word:
            code = code << self.bits | self.alphabet.index(symbol)
        return self.scalar(code)

    def decode(self, codes: np.ndarray, n: int) -> list:
        """The length-n words packed in `codes`, by one digit extraction."""
        shifts = self.array([self.shift(j) for j in range(n - 1, -1, -1)])
        ranks = ((codes[:, None] >> shifts) & self.mask(1)).astype(np.intp)
        symbols = self._symbols[ranks]
        if self.alphabet.single_char:
            return symbols.view(np.dtype((np.str_, n))).ravel().tolist()
        return list(map(tuple, symbols.tolist()))

    def factors(self, codes: np.ndarray, n: int, m: int):
        """The length-m factors of the length-n codes, one array per offset."""
        mask = self.mask(m)
        for offset in range(n - m + 1):
            yield (codes >> self.shift(n - offset - m)) & mask


def _levels(
    system: DuplicationSystem, max_length: int, budget: int, packing: _Packing
):
    """Yield (length, codes) pairs level by level, spending one budget unit per word.

    Each level is expanded before it is yielded, so a caller that stops
    at length n has paid for every word its expansion produced.
    """
    _at_least_one("budget", budget)
    lengths = length_range(system, max_length)
    pending: Dict[int, np.ndarray] = {
        lengths.start: packing.array([packing.encode(system.seed)])
    }
    total = 1
    for n in lengths:
        codes = pending.pop(n, None)
        if codes is None:
            continue
        for k in range(1, min(system.kmax, max_length - n, n) + 1):
            target = pending.get(n + k, packing.array([]))
            batch = []
            for i in range(n - k + 1):
                tail = n - i
                head = (codes >> packing.shift(tail - k)) << packing.shift(tail)
                batch.append(head | (codes & packing.mask(tail)))
                # merge once the children outnumber the pending level: the
                # temporaries stay near one level's size, and each merge
                # sorts at most about twice what it adds
                if len(batch) * len(codes) >= len(target) or i == n - k:
                    merged = _distinct(np.concatenate([target, *batch]))
                    total += len(merged) - len(target)
                    if total > budget:
                        raise BudgetExceededError(budget, n)
                    target, batch = merged, []
            pending[n + k] = target
        yield n, codes


@dataclass(frozen=True)
class LanguageSlice:
    """All words of the system with length at most max_length, grouped by length."""

    system: DuplicationSystem
    max_length: int
    by_length: Dict[int, FrozenSet[Word]]

    def counts(self) -> "CountTable":
        return CountTable(
            self.system,
            self.max_length,
            {n: len(ws) for n, ws in self.by_length.items()},
        )

    def to_json_dict(self) -> dict:
        """The count document plus the words of each length, sorted."""
        text = self.system.alphabet.text
        doc = self.counts().to_json_dict()
        doc["words"] = {
            str(n): sorted(text(w) for w in self.by_length[n])
            for n in sorted(self.by_length)
        }
        return doc


@dataclass(frozen=True)
class CountTable:
    """Exact per-length word counts for a system."""

    system: DuplicationSystem
    max_length: int
    counts: Dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "system": self.system.to_json_dict(),
            "maxLength": self.max_length,
            "counts": {str(n): self.counts[n] for n in sorted(self.counts)},
        }


@dataclass(frozen=True)
class SubstringProfile:
    """Substrings of one fixed length seen anywhere in the language slice."""

    system: DuplicationSystem
    length: int
    search_depth: int
    found: FrozenSet[Word]


@dataclass(frozen=True)
class DedupResult:
    """Irreducible words reachable from a start word by deduplication."""

    word: Word
    kmax: int
    roots: FrozenSet[Word]


def enumerate_words(
    system: DuplicationSystem, max_length: int, budget: int = DEFAULT_BUDGET
) -> LanguageSlice:
    """Every word of the system up to max_length, exactly."""
    packing = _Packing(system.alphabet, max_length)
    by_length = {
        n: frozenset(packing.decode(codes, n))
        for n, codes in _levels(system, max_length, budget, packing)
    }
    return LanguageSlice(system, max_length, by_length)


def count_words(
    system: DuplicationSystem, max_length: int, budget: int = DEFAULT_BUDGET
) -> CountTable:
    """Per-length counts without retaining the words themselves."""
    packing = _Packing(system.alphabet, max_length)
    counts = {n: len(codes) for n, codes in _levels(system, max_length, budget, packing)}
    return CountTable(system, max_length, counts)


def derives_from(
    system: DuplicationSystem, word: Word, budget: int = DEFAULT_BUDGET
) -> bool:
    """Membership test: can the seed reach this word by duplications?

    Runs the search backwards, deduplicating at every square location;
    deduplication is the exact inverse of duplication, so the seed is
    reachable backwards iff the word is reachable forwards.
    """
    _check_search(system, word, budget)
    seed = system.seed
    if len(word) < len(seed):
        return False
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        if w == seed:
            return True
        if len(w) <= len(seed):
            continue
        for loc in iter_tandem_repeats(w, system.kmax):
            y = deduplicate(w, loc)
            if len(y) >= len(seed) and y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(y)
                stack.append(y)
    return False


def substrings_of_length(
    system: DuplicationSystem,
    length: int,
    max_length: int,
    budget: int = DEFAULT_BUDGET,
) -> SubstringProfile:
    """All length-`length` substrings occurring in words up to max_length.

    Stops scanning once every word over the alphabet has been seen; the
    result is identical because the found set only grows.
    """
    if length < 1:
        raise ValueError("substring length must be positive")
    full = len(system.alphabet) ** length
    packing = _Packing(system.alphabet, max_length)
    found = packing.array([])
    for n, codes in _levels(system, max_length, budget, packing):
        if len(found) == full:
            break
        if n < length:
            continue
        for factor in packing.factors(codes, n, length):
            found = _distinct(np.concatenate([found, factor]))
        if len(found) == full:
            break
    words = frozenset(packing.decode(found, length))
    return SubstringProfile(system, length, max_length, words)


def occurs_as_factor(
    system: DuplicationSystem,
    word: Word,
    max_length: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether `word` is a factor of some member of length at most max_length.

    Enumerates level by level and stops at the first level where the word
    occurs.  A word longer than max_length occurs in no such member: the
    answer is False without enumerating, after the same input checks as
    `derives_from`.
    """
    _check_search(system, word, budget)
    if len(word) > max_length:
        return False
    packing = _Packing(system.alphabet, max_length)
    code = packing.encode(word)
    for n, codes in _levels(system, max_length, budget, packing):
        if n >= len(word) and any(
            (factor == code).any() for factor in packing.factors(codes, n, len(word))
        ):
            return True
    return False


def dedup_roots(word: Word, kmax: int, budget: int = DEFAULT_BUDGET) -> DedupResult:
    """All kmax-irreducible words reachable from `word` by deduplication."""
    _at_least_one("kmax", kmax)
    _at_least_one("budget", budget)
    seen = {word}
    stack = [word]
    roots: Set[Word] = set()
    while stack:
        w = stack.pop()
        locations = list(iter_tandem_repeats(w, kmax))
        if not locations:
            roots.add(w)
            continue
        for loc in locations:
            y = deduplicate(w, loc)
            if y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(y)
                stack.append(y)
    return DedupResult(word, kmax, frozenset(roots))


def greedy_root(word: Word, kmax: int) -> Word:
    """The kmax-irreducible word left by deleting the first square until
    none is left, with no search and no budget.

    For kmax <= 3 every word has exactly one root (Jain, Farnoud, Schwartz
    and Bruck, "Duplication-correcting codes for data storage in the DNA of
    living organisms", IEEE T-IT 2017), so this is the one `dedup_roots`
    finds; for larger kmax it is one of them.
    """
    _at_least_one("kmax", kmax)
    location = find_tandem_repeat(word, kmax)
    while location is not None:
        word = deduplicate(word, location)
        location = find_tandem_repeat(word, kmax)
    return word


def dedup_distance(
    word: Word, target: Word, kmax: int, budget: int = DEFAULT_BUDGET
) -> Optional[int]:
    """Minimal number of deduplication steps from `word` to `target`, or None."""
    _at_least_one("kmax", kmax)
    _at_least_one("budget", budget)
    if len(target) > len(word):
        raise ValueError("target cannot be longer than the start word")
    if word == target:
        return 0
    frontier = {word}
    seen = {word}
    steps = 0
    while frontier:
        steps += 1
        nxt: Set[Word] = set()
        for w in frontier:
            for loc in iter_tandem_repeats(w, kmax):
                y = deduplicate(w, loc)
                if y == target:
                    return steps
                if len(y) > len(target) and y not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceededError(budget)
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    return None
