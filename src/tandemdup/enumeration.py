"""Breadth-first enumeration of duplication languages and their inverses.

Duplications strictly increase length, so a single pass over lengths in
increasing order is exhaustive: every word of length n is produced by
expanding words of length n - kmax through n - 1.  Deduplication walks
the same relation backwards and strictly decreases length, which makes
membership and root searches finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from .core import (
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


def length_range(system: DuplicationSystem, max_length: int) -> range:
    """The word lengths of the system up to max_length: seed length .. max_length."""
    seed_len = len(system.seed)
    if max_length < seed_len:
        raise ValueError(
            f"max_length {max_length} is below the seed length {seed_len}"
        )
    return range(seed_len, max_length + 1)


def _levels(system: DuplicationSystem, max_length: int, budget: int):
    """Yield (length, words) pairs level by level, spending one budget unit per word."""
    _at_least_one("budget", budget)
    lengths = length_range(system, max_length)
    pending: Dict[int, Set[Word]] = {lengths.start: {system.seed}}
    total = 1
    for n in lengths:
        words = pending.pop(n, set())
        if not words:
            continue
        span = min(system.kmax, max_length - n)
        for w in words:
            for k in range(1, span + 1):
                target = pending.setdefault(n + k, set())
                for i in range(0, n - k + 1):
                    child = w[: i + k] + w[i:]
                    if child not in target:
                        target.add(child)
                        total += 1
                        if total > budget:
                            raise BudgetExceededError(budget, n)
        yield n, words


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
    by_length = {
        n: frozenset(words) for n, words in _levels(system, max_length, budget)
    }
    return LanguageSlice(system, max_length, by_length)


def count_words(
    system: DuplicationSystem, max_length: int, budget: int = DEFAULT_BUDGET
) -> CountTable:
    """Per-length counts without retaining the words themselves."""
    counts = {n: len(words) for n, words in _levels(system, max_length, budget)}
    return CountTable(system, max_length, counts)


def derives_from(
    system: DuplicationSystem, word: Word, budget: int = DEFAULT_BUDGET
) -> bool:
    """Membership test: can the seed reach this word by duplications?

    Runs the search backwards, deduplicating at every square location;
    deduplication is the exact inverse of duplication, so the seed is
    reachable backwards iff the word is reachable forwards.
    """
    _at_least_one("budget", budget)
    if not system.alphabet.contains_word(word):
        raise ValueError(f"word {word!r} uses symbols outside the alphabet")
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
    found: Set[Word] = set()
    for n, words in _levels(system, max_length, budget):
        if len(found) == full:
            break
        if n < length:
            continue
        for w in words:
            for i in range(n - length + 1):
                found.add(w[i : i + length])
        if len(found) == full:
            break
    return SubstringProfile(system, length, max_length, frozenset(found))


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
