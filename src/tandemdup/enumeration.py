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

and a batch of offsets i is one broadcast of that formula, the level's
codes against a column of shift counts and masks, one row per offset.  One
sort with duplicates dropped merges a batch into the pending level
n + k.  A batch ends once its children outnumber every word the loop
holds, the level being expanded and all pending ones, or at the last
offset of a block length.  That bound follows the memory already in
use, so there is no batch size to tune, and it leaves the budget outcome
alone: the word total at the end of each block length is the same for
any merge schedule.  The arrays take the narrowest of `uint32`
(max_length * B <= 32), `uint64` (<= 64) and Python ints, with the same
arithmetic.  A sorted level is in alphabet order, lexicographic by
symbol rank, and so are the words decoded from it.  The packing never
leaves this module: words are decoded to strings or tuples only where a
caller asks for words.  The bounded factor questions run the level loop
themselves: `check_coverage` takes the factors of one length at every
offset in one broadcast, merges them into one sorted array and stops
once every word of that length is found, and `verify_witness_absent`
compares its word with all of them at once and stops at the first level
where it occurs.

The reverse searches (`derives_from`, `dedup_roots`, `dedup_distance`)
peel squares off words packed the same way, one Python int a word with
a leading 1 bit above the symbols, so the length is implicit and there
is no width limit.  The ranks come from the start word's own symbols,
because deduplication never adds one.  Every square of block length l is
found at once: x = c ^ (c >> l*B) is zero on each symbol that equals the
one l places before it, and the AND of l shifted copies of that zero mask
(an OR over a window of l*B bits of x, taken by doubling) marks the
offsets where a whole block repeats.  Only the roots are decoded.

`dedup_roots` searches run-free words only.  A run `aa` never changes a
word's roots: if w has a run and w' is w with one letter of it deleted,
w and w' have the same kmax-irreducible descendants for every kmax >= 1.
w -> w' is itself a deduplication, and every other step w -> v is matched
from w' by at most two steps, to v or to v with one letter of a run
deleted; the six cases, by where the run sits against the square's
start, middle and end, are in the `dedup_roots` docstring.  So the roots
of a word are those of its collapse, the word with every run cut to one
symbol, and a square deleted from a run-free word leaves it run-free.
`greedy_root`, the one root for kmax <= 3, needs no search: it appends
the word's symbols one at a time and deletes each square, runs
included, as soon as its last symbol arrives.  `derives_from`
cuts the runs too when the seed has none, by a lemma on the same six
cases (see its docstring); a seed with a run keeps the search over every
descendant.  A search that has cut the runs peels squares of block
length 2 and more only.  `dedup_distance`, whose steps through runs
count, searches best first: each step deletes at most kmax symbols, so
a word x needs at least ceil((|x| - |target|) / kmax) more steps, and
the search opens the words with the least bound first.  For kmax <= 3 it
first compares the two words' roots, and a target with another root is
no descendant.

numpy is imported where the level loop and its packing build arrays, not
with the module, so the reverse searches, which pack words as Python ints,
start without paying for its import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from .core import Alphabet, DuplicationSystem, Word
from .errors import BudgetExceededError

if TYPE_CHECKING:
    import numpy as np

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


def _distinct(parts: List[np.ndarray]) -> np.ndarray:
    """The distinct codes of the arrays in `parts`, in increasing order, by
    one sort of their concatenation in place.

    Same result as `np.unique`, whose hash-based path in numpy 2 is about
    20 times slower on `uint64` arrays of a few hundred thousand codes.
    """
    import numpy as np

    codes = np.concatenate(parts)
    codes.sort()
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes.compress(keep)


class _Packing:
    """Words of one alphabet up to max_length as base-|alphabet| integer codes.

    Codes take the narrowest type that holds max_length symbols: `uint32`
    up to 32 bits, `uint64` up to 64 and Python ints (dtype object)
    beyond; half-width codes halve what every sort, shift and compare
    moves.  Shift counts and masks are scalars or arrays of the codes' own
    type, so fixed-width arithmetic never depends on numpy's promotion of
    Python ints (`uint64` with `int64` promotes to float64, which cannot
    be shifted).
    """

    def __init__(self, alphabet: Alphabet, max_length: int):
        import numpy as np

        self.alphabet = alphabet
        self.bits = max(1, (len(alphabet) - 1).bit_length())
        width = max_length * self.bits
        if width <= 32:
            self.scalar = np.uint32
        elif width <= 64:
            self.scalar = np.uint64
        else:
            self.scalar = int
        self.dtype = np.dtype(object if self.scalar is int else self.scalar)
        self._symbols = np.array(alphabet.symbols)
        # for t < max_length: the shift count that moves a code by t
        # symbols, and the mask that keeps its last t symbols
        self._shifts = self.array(range(max_length)) * self.shift(1)
        self._masks = self.array([(1 << t * self.bits) - 1 for t in range(max_length)])

    def shift(self, symbols: int):
        """The shift count that moves a code by this many symbols."""
        return self.scalar(symbols * self.bits)

    def mask(self, symbols: int):
        """The mask that keeps the last this many symbols of a code."""
        return self.scalar((1 << symbols * self.bits) - 1)

    def array(self, codes) -> np.ndarray:
        import numpy as np

        return np.array(codes, dtype=self.dtype)

    def encode(self, word: Word):
        code = 0
        for symbol in word:
            code = code << self.bits | self.alphabet.index(symbol)
        return self.scalar(code)

    def decode(self, codes: np.ndarray, n: int) -> list:
        """The length-n words packed in `codes`, in the same order, by one
        digit extraction."""
        import numpy as np

        # the shift of each symbol, first symbol first
        shifts = self._shifts[:n][::-1]
        ranks = ((codes[:, None] >> shifts) & self.mask(1)).astype(np.intp)
        symbols = self._symbols[ranks]
        if self.alphabet.single_char:
            return symbols.view(np.dtype((np.str_, n))).ravel().tolist()
        return list(map(tuple, symbols.tolist()))

    def duplicates(self, codes: np.ndarray, n: int, k: int, offsets: range) -> np.ndarray:
        """The children of the length-n codes that duplicate the k symbols
        at each offset, one row per offset, by one broadcast over the
        batch: w at offset i with t = n - i symbols from there to the end
        becomes ((w >> (t-k)*B) << t*B) | (w & (2**(t*B) - 1))."""
        # the rows by t, from the batch's last offset to its first
        tails = slice(n - offsets.stop + 1, n - offsets.start + 1)
        heads = slice(tails.start - k, tails.stop - k)
        children = codes >> self._shifts[heads, None]
        children <<= self._shifts[tails, None]
        children |= codes & self._masks[tails, None]
        return children

    def factors(self, codes: np.ndarray, n: int, m: int) -> np.ndarray:
        """The length-m factors of the length-n codes, one row per offset,
        by one broadcast."""
        # the factor at offset i sits n - i - m symbols above the end
        return (codes >> self._shifts[: n - m + 1, None]) & self.mask(m)


def _levels(
    system: DuplicationSystem, max_length: int, budget: int, packing: _Packing
):
    """Yield (length, codes) pairs level by level, spending one budget unit
    per word; the codes of a level are distinct and sorted, which is
    alphabet order.

    Each level is expanded before it is yielded, so a caller that stops
    at length n has paid for every word its expansion produced.  The
    offsets of one block length are expanded in batches, one array
    operation a batch (`_Packing.duplicates`).
    """
    _at_least_one("budget", budget)
    lengths = length_range(system, max_length)
    pending: Dict[int, np.ndarray] = {
        lengths.start: packing.array([packing.encode(system.seed)])
    }
    empty = packing.array([])
    total = 1  # distinct words generated
    released = 0  # words of the levels already yielded
    for n in lengths:
        codes = pending.pop(n, None)
        if codes is None:
            continue
        for k in range(1, min(system.kmax, max_length - n, n) + 1):
            target = pending.get(n + k, empty)
            first, offsets = 0, n - k + 1
            while first < offsets:
                # a batch takes offsets until its children outnumber every
                # word the loop holds, this level and all pending ones
                # (total - released): the children in flight stay under
                # twice the words held, and every merge but the last of a
                # block length sorts at most twice the children it takes in
                last = min(first - (-(total - released) // len(codes)), offsets)
                batch = packing.duplicates(codes, n, k, range(first, last))
                merged = _distinct([target, batch.ravel()])
                total += len(merged) - len(target)
                if total > budget:
                    raise BudgetExceededError(budget, n)
                target, first = merged, last
            pending[n + k] = target
        released += len(codes)
        yield n, codes


@dataclass(frozen=True)
class LanguageSlice:
    """All words of the system with length at most max_length, grouped by
    length: each length a tuple of distinct words in alphabet order, that
    is lexicographic by symbol rank."""

    system: DuplicationSystem
    max_length: int
    by_length: Dict[int, Tuple[Word, ...]]

    def counts(self) -> "CountTable":
        return CountTable(
            self.system,
            self.max_length,
            {n: len(ws) for n, ws in self.by_length.items()},
        )

    def to_json_dict(self) -> dict:
        """The count document plus the words of each length, sorted by
        text.  Alphabet order is text order for most alphabets, and sorting
        presorted words takes one linear pass."""
        alphabet = self.system.alphabet
        # words over one-character symbols are their own text already
        text = None if alphabet.single_char else alphabet.text
        doc = self.counts().to_json_dict()
        doc["words"] = {
            str(n): sorted(map(text, self.by_length[n]) if text else self.by_length[n])
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
class DedupResult:
    """Irreducible words reachable from a start word by deduplication."""

    word: Word
    kmax: int
    roots: FrozenSet[Word]


def enumerate_words(
    system: DuplicationSystem, max_length: int, budget: int = DEFAULT_BUDGET
) -> LanguageSlice:
    """Every word of the system up to max_length, exactly, each length in
    alphabet order."""
    packing = _Packing(system.alphabet, max_length)
    by_length = {
        n: tuple(packing.decode(codes, n))
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


def _kept_by_deduplication(word: Word) -> tuple:
    """The first symbol, the last symbol and the symbol set of a word,
    which deduplication never changes.  Slices, so an empty word has no
    end symbols and a string never matches a tuple."""
    return word[:1], word[-1:], frozenset(word)


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
        # the shortest block length `peel` looks for: 2 once `run_free`
        # has started a search whose words have no square of block length 1
        self._first_block = 1
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

    def collapse(self, code: int) -> int:
        """The code with every run of one symbol cut to a single symbol.

        A run of r symbols holds r - 1 squares of block length 1.  Their
        second copies are deleted from the top bit down, so no deletion
        moves the bits of the squares below it."""
        bits = self.bits
        n = (code.bit_length() - 1) // bits
        if n < 2:
            return code
        hits = self._squares(code, n, 1)
        while hits:
            tail = hits.bit_length() - 1  # bits of the symbols after the run
            hits ^= 1 << tail
            code = ((code >> tail + bits) << tail) | (code & (1 << tail) - 1)
        return code

    def run_free(self, word: Word) -> int:
        """The collapse of `word`, the start of a search that visits
        run-free words only.  A square deleted from a run-free word leaves
        it run-free, since every pair of neighbours in x u y is one in
        x u u y, so from now on `peel` skips block length 1, whose squares
        are runs."""
        self._first_block = 2
        return self.collapse(self.encode(word))

    def root(self, word: Word) -> int:
        """The code of a kmax-irreducible descendant of `word`, in one pass:
        its symbols are appended one at a time, and a square that ends at
        the newest symbol has its second copy deleted at once, the shortest
        such square first.

        The word built so far stays irreducible: a new square must end at
        the newest symbol, and deleting its second copy leaves a prefix of
        the word before the append.  Each deletion is a deduplication of
        the whole word, so what is left at the end is a root."""
        bits, rank = self.bits, self._rank
        # (length, 2 * length, shift, mask of the last `length` symbols)
        blocks = [(l, 2 * l, l * bits, (1 << l * bits) - 1) for l in range(1, self.kmax + 1)]
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

    def peel(self, code: int, shortest: int = 0) -> List[Tuple[int, int, int]]:
        """(offset, length, child) for every square of block length at most
        kmax whose deletion leaves at least `shortest` symbols; the child is
        the code with the square's second copy deleted.  In no fixed order:
        sorted, the squares come in (offset, length) order."""
        bits = self.bits
        n = (code.bit_length() - 1) // bits
        found = []
        for length in range(self._first_block, min(self.kmax, n // 2, n - shortest) + 1):
            shift = length * bits
            hits = self._squares(code, n, length)
            while hits:
                low = hits & -hits
                hits ^= low
                tail = low.bit_length() - 1  # bits of the symbols after the square
                child = ((code >> tail + shift) << tail) | (code & low - 1)
                found.append((n - 2 * length - tail // bits, length, child))
        return found


def derives_from(
    system: DuplicationSystem, word: Word, budget: int = DEFAULT_BUDGET
) -> bool:
    """Membership test: can the seed reach this word by duplications?

    Runs the search backwards, deduplicating at every square location;
    deduplication is the exact inverse of duplication, so the seed is
    reachable backwards iff the word is reachable forwards.  A word whose
    end symbols or symbol set differ from the seed's is no member, and is
    answered before any search.  The search is depth first and visits the
    squares of a word in (offset, length) order; the budget counts the
    words it visits.

    When the seed has no run, the search starts from the collapse of the
    word, every run cut to one symbol, and visits run-free words only.
    The word reaches the collapse by deleting runs' letters, so it is
    enough that the collapse still reaches a run-free t whenever the word
    does.  Let w have a run and let w' be w with one letter of it deleted;
    by induction on |w|, w ->* t gives w' ->* t.  w is not t, which has no
    run, so take the first step w -> v of a path to t.  By the six cases
    in the `dedup_roots` docstring, w' ->* v', where v' = v or v' is v
    less one letter of a run.  If v' = v, then w' ->* v ->* t.  Otherwise
    v has a run, |v| < |w| and v ->* t, so v' ->* t by induction.  A seed
    with a run keeps the search over every descendant.
    """
    _check_search(system, word, budget)
    seed = system.seed
    if len(word) < len(seed) or _kept_by_deduplication(word) != _kept_by_deduplication(seed):
        return False
    peeling = _Peeling(word, system.kmax)
    goal = peeling.encode(seed)
    if peeling.collapse(goal) == goal:
        start = peeling.run_free(word)
    else:
        start = peeling.encode(word)
    seen = {start}
    stack = [start]
    while stack:
        code = stack.pop()
        if code == goal:
            return True
        for _, _, child in sorted(peeling.peel(code, len(seed))):
            if child not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(child)
                stack.append(child)
    return False


def check_coverage(
    system: DuplicationSystem,
    length: int,
    max_length: int,
    budget: int = DEFAULT_BUDGET,
) -> Set[Word]:
    """Words of the given length that never occur as factors up to max_length.

    Stops scanning once every word over the alphabet has been found; the
    result is identical because the found set only grows.
    """
    if length < 1:
        raise ValueError("substring length must be positive")
    full = len(system.alphabet) ** length
    # found is decoded as words of `length` symbols, even when none fits
    packing = _Packing(system.alphabet, max(length, max_length))
    found = packing.array([])
    for n, codes in _levels(system, max_length, budget, packing):
        if n < length:
            continue
        found = _distinct([found, packing.factors(codes, n, length).ravel()])
        if len(found) == full:
            break
    return set(system.alphabet.words_of_length(length)).difference(
        packing.decode(found, length)
    )


def verify_witness_absent(
    system: DuplicationSystem,
    word: Word,
    max_length: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check by enumeration that `word` is no factor of any member up to max_length.

    Enumerates level by level and stops at the first level where the word
    occurs.  A word longer than max_length is vacuously absent and returns
    True without enumerating, after the same input checks as
    `derives_from`: a budget below 1 and a symbol outside the alphabet are
    rejected with ValueError on every path.
    """
    _check_search(system, word, budget)
    if len(word) > max_length:
        return True
    packing = _Packing(system.alphabet, max_length)
    code = packing.encode(word)
    for n, codes in _levels(system, max_length, budget, packing):
        if n >= len(word) and (packing.factors(codes, n, len(word)) == code).any():
            return False
    return True


def dedup_roots(word: Word, kmax: int, budget: int = DEFAULT_BUDGET) -> DedupResult:
    """All kmax-irreducible words reachable from `word` by deduplication.

    The search starts from the collapse of `word`, every run cut to one
    symbol, and visits only run-free words; the budget counts those.  That
    the roots stay the same is a lemma: let w have a run `aa` and let w'
    be w with one of those a's deleted; then w and w' have the same roots.
    w -> w' is a deduplication, so the roots of w' are roots of w.  For
    the converse, by induction on |w|, take a root r of w and the first
    step w -> v of a path to it, which deletes the second copy of a
    square x u u y -> x u y with |u| = l <= kmax.  By where the run sits:

    1. Outside the square: w' -> v' by the same square, where v' is v
       with one letter of the same run deleted.
    2. Across the start, u = a z: w' = x' u u y with x = x' a, and
       w' -> x' u y, which is v = x' a a z y less one a of its run.
    3. Across the end, u = z a: likewise w' -> x u y' with y = a y'.
    4. Across the middle, u = a s = t a: if l = 1 then v = w'; otherwise
       w' = x t a s y has the square t t at x (a s starts with t), and
       deleting it gives x t a y = v.
    5. Inside the first copy, u = s a a t: w' = x s a t s a a t y.  Delete
       the twin a in the second copy, then the square of (s a t), of
       block length l - 1: x s a t y is v less one a of its run.
    6. Inside the second copy: the mirror of case 5.

    So w' ->* v', with v' = v or v less one letter of a run.  In the
    second case |v| < |w|, so v and v' have the same roots by induction,
    and r, a root of v, is reachable from w' either way.
    """
    _at_least_one("kmax", kmax)
    _at_least_one("budget", budget)
    peeling = _Peeling(word, kmax)
    start = peeling.run_free(word)
    seen = {start}
    stack = [start]
    roots = []
    while stack:
        code = stack.pop()
        squares = peeling.peel(code)
        if not squares:
            roots.append(code)
            continue
        for _, _, child in squares:
            if child not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(child)
                stack.append(child)
    return DedupResult(word, kmax, frozenset(map(peeling.decode, roots)))


def greedy_root(word: Word, kmax: int) -> Word:
    """A kmax-irreducible word reachable from `word`, by one left-to-right
    pass that deletes each square as soon as it is complete
    (`_Peeling.root`), with no search and no budget.

    For kmax <= 3 every word has exactly one root (Jain, Farnoud, Schwartz
    and Bruck, "Duplication-correcting codes for data storage in the DNA of
    living organisms", IEEE T-IT 2017), so this is the one `dedup_roots`
    finds; for larger kmax it is one of them.
    """
    _at_least_one("kmax", kmax)
    peeling = _Peeling(word, kmax)
    return peeling.decode(peeling.root(word))


def dedup_distance(
    word: Word, target: Word, kmax: int, budget: int = DEFAULT_BUDGET
) -> Optional[int]:
    """Minimal number of deduplication steps from `word` to `target`, or None.

    Best first (A*, Hart, Nilsson and Raphael 1968): a word x reached in
    s steps has the bound f = s + ceil((|x| - |target|) / kmax), since a
    step deletes at most kmax symbols.  A step keeps f or raises it by
    one, so two stacks, one for the least open f and one for f + 1, take
    the place of a priority queue.  Each stack pops its newest word, and
    a word's children are pushed in (offset, length) order.  A word
    reached again by a shorter path is pushed again with the shorter
    count, and its stale entry is skipped.  f never falls along a path,
    and the target's f is its step count, so the first path to the
    target is a shortest one.  The budget counts the distinct words
    reached; with lists and a fixed order, where it runs out does not
    depend on string hashing.  A target whose end symbols or symbol set
    differ from the word's is unreachable, and is answered before any
    search.  So is a target whose root differs from the word's when
    kmax <= 3, where every word has exactly one root (`greedy_root`):
    the target's root is a root of the word whenever the word reaches it.
    """
    _at_least_one("kmax", kmax)
    _at_least_one("budget", budget)
    if len(target) > len(word):
        raise ValueError("target cannot be longer than the start word")
    if word == target:
        return 0
    if _kept_by_deduplication(word) != _kept_by_deduplication(target):
        return None
    peeling = _Peeling(word, kmax)
    if kmax <= 3 and peeling.root(word) != peeling.root(target):
        return None
    start, goal = peeling.encode(word), peeling.encode(target)
    bits, shortest = peeling.bits, len(target)
    # the codes of words longer than the target
    longer = 1 << (shortest + 1) * bits
    best = {start: 0}
    level, later = [(start, 0)], []  # (code, steps) with the bound f and f + 1
    while level:
        code, steps = level.pop()
        if best[code] == steps:
            excess = (code.bit_length() - 1) // bits - shortest
            # a square of block length `keep` or more keeps the bound
            keep = excess - (-(-excess // kmax) - 1) * kmax
            steps += 1
            for _, length, child in sorted(peeling.peel(code, shortest)):
                if child == goal:
                    return steps
                if child < longer:
                    continue
                known = best.get(child)
                if known is None:
                    if len(best) >= budget:
                        raise BudgetExceededError(budget)
                elif known <= steps:
                    continue
                best[child] = steps
                (level if length >= keep else later).append((child, steps))
        if not level:
            level, later = later, []
    return None
