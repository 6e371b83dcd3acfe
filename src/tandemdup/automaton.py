"""Finite automata for duplication languages with block bound at most 3.

For kmax <= 3 the language of a duplication system is regular.  The
construction here writes one fixed expression over the seed's own symbols
(`seed_regex`) straight into its position (Glushkov) automaton and
determinizes that.  Repeated seed symbols need no special care: Glushkov
states are expression positions, so two occurrences of one symbol stay
apart as states while sharing their edge label.  The minimal machine comes
straight from the NFA by double reversal (Brzozowski), which never builds
the forward subset construction.

Both steps run on Python-int bitmasks.  The position construction keeps
first and last positions as masks and records each follow link once, as a
pair of masks.  One subset construction serves the forward DFA, the two
passes of double reversal and `LabeledAutomaton.determinized`: NFA states
are ranked by their index in sorted order, a subset is one int keyed as
such, and the edges come as rows with cuts.  The forward DFA reads one
row, the followers of each position, so a subset's union of followers is
formed once and cut per symbol by the positions that read it;
`position_walk` forms the same union lazily, one mask at a time.
Reversals read one row per symbol.

The subset construction hands its transition table (per symbol, the target
of each state) straight to the machine it builds, and that table is the
machine: trimming, minimization, counting, word extraction, the transfer
matrix, the closure certificate and JSON read it, and the edge set and
out-maps are derived from it when asked for.  The first pass of double
reversal turns its table around into the rows of the second.

The module also builds the minimal machine of the words that avoid a set
of forbidden factors from their pattern trie, and it carries the machinery
to certify that an automaton's language is closed under bounded
duplication: every short path label into a state must be replayable from
that state to a "superstate", a state whose right language contains the
original one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import json
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .core import Alphabet, DuplicationSystem, Word
from .enumeration import _Packing
from .errors import NondeterministicAutomatonError, UnsupportedDuplicationLength


# ---------------------------------------------------------------------------
# position automata.  Positions are numbered 1..n in reading order and 0 is
# the start state; bit p of a mask stands for state p.


def _members(mask: int) -> List[int]:
    """Indices of the set bits of a mask, highest first."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return out


def _union(mask: int, row: List[int]) -> int:
    """OR of row[r] over the set bits r of a mask: over a row of followers,
    every successor of the states a subset holds, formed once and then cut
    per symbol."""
    after = 0
    while mask:
        r = mask.bit_length() - 1
        after |= row[r]
        mask ^= 1 << r
    return after


def _followers(first: int, follows, n: int) -> List[int]:
    """Mask of the positions that may follow each of the n Glushkov states."""
    follow = [0] * n
    follow[0] = first
    for last, firsts in follows:
        for p in _members(last):
            follow[p] |= firsts
    return follow


def _carriers(symbols, symbol_order) -> List[int]:
    """Per symbol, the mask of the positions that read it.  Every edge into
    a position reads that position's symbol, so a state's successors under
    a symbol are its followers cut down to that symbol's carrier."""
    index = {s: i for i, s in enumerate(symbol_order)}
    carriers = [0] * len(symbol_order)
    for q, s in enumerate(symbols, 1):
        carriers[index[s]] |= 1 << q
    return carriers


def _reversed_positions(symbols, first: int, follows, symbol_order) -> List[List[int]]:
    """Per-symbol rows of the position NFA's reversal.  Every edge into a
    position reads that position's symbol, so the row of symbol s sends
    each position that carries s back to its predecessors, the start state
    among them for the first positions."""
    n = len(symbols) + 1
    index = {s: i for i, s in enumerate(symbol_order)}
    pred = [0] * n
    for q in _members(first):
        pred[q] = 1
    for last, firsts in follows:
        while firsts:
            q = firsts.bit_length() - 1
            pred[q] |= last
            firsts ^= 1 << q
    rows = [[0] * n for _ in symbol_order]
    for q, s in enumerate(symbols, 1):
        rows[index[s]][q] = pred[q]
    return rows


# ---------------------------------------------------------------------------
# raw machine helpers.  For the subset construction an NFA's states are
# ranked 0 .. n-1, and a set of states is one int with bit r for rank r.
# Its edges come as rows with cuts: a row is a list that maps a rank to the
# mask of its successors, and each cut of a row masks out the successors
# under one symbol; read in order, the cuts follow the alphabet.  A position
# NFA has one row, its followers, cut by each symbol's carrier.  Any other
# NFA has one row per symbol, cut by `_ALL`.  A DFA comes out as a
# transition table: per symbol, the target id of each state, None where it
# has no edge.  Elsewhere states are ints and edges are (source, symbol,
# target) triples.

# the cut that keeps every successor
_ALL = -1


def _per_symbol(rows: List[List[int]]):
    """Per-symbol rows, each with the one cut that keeps everything."""
    return [(row, [_ALL]) for row in rows]


def _support(row: List[int]) -> int:
    """Mask of the ranks that have a nonempty entry in a row, read as one
    binary string: OR-ing in one bit per rank would copy the mask each time."""
    return int("".join(map("01".__getitem__, map(bool, reversed(row)))), 2)


def _reversed_table(table, n: int) -> List[List[int]]:
    """Per-symbol rows of the reversal of a DFA on n states given by its
    transition table."""
    rows = [[0] * n for _ in table]
    for row, targets in zip(rows, table):
        for p, q in enumerate(targets):
            if q is not None:
                row[q] |= 1 << p
    return rows


def _distances(table, accepting: List[int]) -> List[Optional[int]]:
    """Per rank of a DFA's transition table, the fewest symbols that lead
    from it to one of the `accepting` ranks, None where none does: one
    breadth-first search backwards from them."""
    n = len(table[0])
    back: List[List[int]] = [[] for _ in range(n)]
    for targets in table:
        for p, q in enumerate(targets):
            if q is not None:
                back[q].append(p)
    distance: List[Optional[int]] = [None] * n
    for q in accepting:
        distance[q] = 0
    queue = list(accepting)  # the breadth-first queue, walked while it grows
    for q in queue:
        d = distance[q] + 1
        for p in back[q]:
            if distance[p] is None:
                distance[p] = d
                queue.append(p)
    return distance


def _determinize_raw(start: int, accepting: int, rows):
    """Subset construction from the start mask over rows with cuts.

    Each subset is one int, the key of `ids`.  Per row it forms the union of
    its members' entries once, and each cut of the row masks out the target
    under one symbol.  The row's support picks out the members that have an
    entry, and only those are read, so a position of a Glushkov NFA's
    reversal, which reads one symbol, is read once per subset.  State ids
    follow discovery order, breadth-first with symbols in order, so the
    result is stable for a fixed symbol order and does not depend on how
    the NFA's states are ranked.  Returns the number of states, the ids of
    the subsets that meet `accepting` and the transition table.
    """
    ids = {start: 0}
    subsets = [start]
    table: List[List[Optional[int]]] = []
    steps = []
    for row, cuts in rows:
        lanes = [([], cut) for cut in cuts]
        table += [targets for targets, _ in lanes]
        steps.append((row, _support(row), lanes))
    find = ids.get
    # the list grows while it is walked: it is the breadth-first queue
    for subset in subsets:
        for row, support, lanes in steps:
            hit = subset & support
            if not hit:
                for targets, _ in lanes:
                    targets.append(None)
                continue
            after = _union(hit, row)
            for targets, cut in lanes:
                target = after & cut
                if not target:
                    targets.append(None)
                    continue
                tid = find(target)
                if tid is None:
                    tid = ids[target] = len(subsets)
                    subsets.append(target)
                targets.append(tid)
    det_accepting = [sid for sid, subset in enumerate(subsets) if subset & accepting]
    return len(subsets), det_accepting, table


def _subset_machine(alphabet: Alphabet, start: int, accepting: int, rows) -> "LabeledAutomaton":
    """The DFA of the subset construction over rows with cuts."""
    count, det_accepting, table = _determinize_raw(start, accepting, rows)
    return LabeledAutomaton._from_table(alphabet, count, det_accepting, table)


def _minimal_raw(alphabet: Alphabet, start: int, accepting: int, rows) -> "LabeledAutomaton":
    """Minimal trim DFA of any NFA, by Brzozowski's double reversal, given
    the rows of the NFA's reversal: `start` masks the NFA's accepting
    states and `accepting` its start state.  The result is flagged as
    minimal; its states are 0 .. n-1, numbered breadth-first from the start.

    Determinizing the reversal yields a reachable DFA for the reversed
    language.  Its transition table, turned around, is the rows of the
    second pass, with its state ids as ranks; determinizing that yields the
    minimal DFA.  Each subset in that last step holds a state the reversed
    machine reached, so it can reach acceptance and the result is already
    trim.  Discovery order numbers it breadth-first from the start, symbols
    in order, as `trimmed` would.
    """
    count, back_accepting, table = _determinize_raw(start, accepting, rows)
    back_start = reduce(or_, (1 << sid for sid in back_accepting), 0)
    back = _per_symbol(_reversed_table(table, count))
    machine = _subset_machine(alphabet, back_start, 1, back)
    machine._is_minimal = True
    return machine


# ---------------------------------------------------------------------------
# JSON text.  `json.dumps(doc, indent=2)` runs the pure-Python encoder, one
# generator step per item; `_json_text` writes the same bytes, joins each
# flat list of scalars at once and writes a list of such lists a row at a
# time, which is where word lists and machines spend their length.


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_json(value) -> Optional[str]:
    """The JSON text of a scalar, tested in the order `json` tests them, or
    None for anything else."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    return None


def _key_json(key) -> str:
    text = key if isinstance(key, str) else _scalar_json(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _quote(text)


# the text of a scalar by its exact type; subclasses take `_scalar_json`
_EXACT_JSON = {
    str: _quote,
    int: repr,
    float: _float_json,
    bool: _scalar_json,
    type(None): _scalar_json,
}
_EXACT_KINDS = frozenset(_EXACT_JSON)
_ROW_KINDS = frozenset((list, tuple))
_INT_KIND = frozenset((int,))


def _scalar_texts(values) -> Optional[Iterable[str]]:
    """The texts of a sequence of exact scalars, or None when it holds
    anything else."""
    kinds = set(map(type, values))
    if not kinds <= _EXACT_KINDS:
        return None
    if len(kinds) == 1:
        return map(_EXACT_JSON[kinds.pop()], values)
    return [_EXACT_JSON[type(item)](item) for item in values]


def _row_texts(rows, newline: str) -> Optional[Iterable[str]]:
    """The texts of equally long, nonempty flat lists of exact scalars whose
    lines start at `newline`, as a machine's edges are, or None for any
    other lists.  Each column's scalars are converted at once and every row
    is filled into one template."""
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    columns = []
    for column in zip(*rows):
        # "%s" writes an exact int as its repr, so ints go in as they are
        texts = column if set(map(type, column)) == _INT_KIND else _scalar_texts(column)
        if texts is None:
            return None
        columns.append(texts)
    inner = newline + "  "
    template = "[" + inner + ("," + inner).join(["%s"] * len(columns)) + newline + "]"
    return map(template.__mod__, zip(*columns))


def _write_json(value, newline: str, out: List[str]) -> None:
    """Append the JSON text of a value whose line starts at `newline`."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        texts = _scalar_texts(value)
        if texts is None and set(map(type, value)) <= _ROW_KINDS:
            texts = _row_texts(value, inner)
        if texts is not None:
            out.append("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out.append(separator + _key_json(key) + ": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        text = _scalar_json(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        out.append(text)


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte."""
    out: List[str] = []
    _write_json(doc, "\n", out)
    return "".join(out)


# ---------------------------------------------------------------------------
# the public automaton type


class LabeledAutomaton:
    """Finite automaton with symbol-labeled edges over a fixed alphabet.

    States are ints.  The machine may be nondeterministic; operations that
    need determinism say so.  Instances are immutable by convention.

    A deterministic machine keeps its edges as one transition table: per
    symbol, in alphabet order, the rank of each state's target (its index
    in `states`), None where it has no edge.  Counting, word extraction,
    the transfer matrix, minimization and JSON read that table; the edge
    set, the out-maps and every other view are derived from it on first
    use.  Machines of the subset construction are born from their table;
    the public constructor reads the table off the edges once.
    """

    def __init__(self, alphabet: Alphabet, states, start: int, accepting, edges):
        states = frozenset(states)
        accepting = frozenset(accepting)
        edges = frozenset(edges)
        if start not in states:
            raise ValueError("start state missing from state set")
        if not accepting <= states:
            raise ValueError("accepting states missing from state set")
        order = tuple(sorted(states))
        rank = {q: r for r, q in enumerate(order)}
        index = {s: i for i, s in enumerate(alphabet.symbols)}
        ranked = []
        for p, s, q in edges:
            if p not in rank or q not in rank:
                raise ValueError(f"edge {(p, s, q)} leaves the state set")
            if s not in index:
                raise ValueError(f"edge symbol {s!r} not in alphabet")
            ranked.append((rank[p], index[s], rank[q]))
        ranked.sort()
        table: Optional[List[List[Optional[int]]]] = [[None] * len(order) for _ in index]
        for p, s, q in ranked:
            # the edges are distinct, so a second target is nondeterminism
            if table[s][p] is not None:
                table = None
                break
            table[s][p] = q
        self._set(alphabet, order, start, accepting, table)
        self._edges = edges
        self._ranked = ranked

    @classmethod
    def _from_table(cls, alphabet: Alphabet, count: int, accepting, table) -> "LabeledAutomaton":
        """The DFA on states 0 .. count-1, started at 0, whose transition
        table is given; nothing is checked."""
        machine = cls.__new__(cls)
        machine._set(alphabet, tuple(range(count)), 0, frozenset(accepting), table)
        return machine

    def _set(self, alphabet, states, start, accepting, table) -> None:
        self.alphabet = alphabet
        self.states = states
        self.start = start
        self.accepting = accepting
        # None for a nondeterministic machine
        self._table = table
        # views built on first use
        self._edges: Optional[FrozenSet[tuple]] = None
        self._ranked: Optional[List[Tuple[int, int, int]]] = None
        self._out: Optional[Dict[int, Dict[object, FrozenSet[int]]]] = None
        # minimized() caches its result here; a minimal machine is flagged
        # instead of pointing at itself, so no machine is left to the cycle
        # collector
        self._minimal: Optional[LabeledAutomaton] = None
        self._is_minimal = False

    # -- basic structure

    @property
    def is_deterministic(self) -> bool:
        return self._table is not None

    def _ranked_edges(self) -> List[Tuple[int, int, int]]:
        """Every edge as (source rank, symbol rank, target rank), sorted."""
        if self._ranked is None:
            self._ranked = [
                (p, s, q)
                for p, row in enumerate(zip(*self._table))
                for s, q in enumerate(row)
                if q is not None
            ]
        return self._ranked

    @property
    def edges(self) -> FrozenSet[tuple]:
        if self._edges is None:
            states, symbols = self.states, self.alphabet.symbols
            self._edges = frozenset(
                (states[p], symbols[s], states[q]) for p, s, q in self._ranked_edges()
            )
        return self._edges

    def out_map(self, state: int) -> Dict[object, FrozenSet[int]]:
        if self._out is None:
            states, symbols = self.states, self.alphabet.symbols
            out: Dict[int, Dict[object, Set[int]]] = {q: {} for q in states}
            for p, s, q in self._ranked_edges():
                out[states[p]].setdefault(symbols[s], set()).add(states[q])
            self._out = {p: {s: frozenset(ts) for s, ts in m.items()} for p, m in out.items()}
        return self._out[state]

    def step(self, states: Iterable[int], symbol) -> FrozenSet[int]:
        nxt = set()
        for p in states:
            nxt |= self.out_map(p).get(symbol, frozenset())
        return frozenset(nxt)

    def accepts(self, word: Word) -> bool:
        current = frozenset({self.start})
        for s in word:
            current = self.step(current, s)
            if not current:
                return False
        return bool(current & self.accepting)

    def state_after(self, word: Word) -> Optional[int]:
        """Deterministic walk; None once a symbol has no edge."""
        if not self.is_deterministic:
            raise NondeterministicAutomatonError("state_after needs a deterministic machine")
        end = self._walk(bisect_left(self.states, self.start), word)
        return None if end is None else self.states[end]

    def _walk(self, rank: int, word: Word) -> Optional[int]:
        """The rank that `word` leads to from `rank` along the table; None
        once a symbol has no edge or lies outside the alphabet."""
        rows = dict(zip(self.alphabet.symbols, self._table))
        for s in word:
            rank = rows[s][rank] if s in rows else None
            if rank is None:
                return None
        return rank

    # -- transformations

    def _ends(self) -> Tuple[int, List[int]]:
        """Rank of the start state and ranks of the accepting states."""
        rank = partial(bisect_left, self.states)
        return rank(self.start), list(map(rank, self.accepting))

    def determinized(self) -> "LabeledAutomaton":
        n = len(self.states)
        rows = [[0] * n for _ in self.alphabet.symbols]
        for p, s, q in self._ranked_edges():
            rows[s][p] |= 1 << q
        start, accepting = self._ends()
        accepting_mask = reduce(or_, (1 << r for r in accepting), 0)
        return _subset_machine(self.alphabet, 1 << start, accepting_mask, _per_symbol(rows))

    def trimmed(self) -> "LabeledAutomaton":
        """Trim machine for the same language, with states numbered
        breadth-first from the start, symbols in order; a minimal machine
        returns itself.  For an empty language it is the start alone,
        without edges: the minimal machine, which is trim."""
        if self._is_minimal:
            return self
        if not self.is_deterministic:
            raise NondeterministicAutomatonError("trim needs a deterministic machine")
        start, accepting = self._ends()
        live = _distances(self._table, accepting)
        # the new id of each rank, None until it is reached and for every
        # rank that cannot reach acceptance, a dead start among them
        number: List[Optional[int]] = [None] * len(self.states)
        if live[start] is not None:
            number[start] = 0
        order = [start]  # the breadth-first queue, walked while it grows
        for p in order:
            for targets in self._table:
                q = targets[p]
                if q is not None and number[q] is None and live[q] is not None:
                    number[q] = len(order)
                    order.append(q)
        table = [
            [None if q is None else number[q] for q in map(targets.__getitem__, order)]
            for targets in self._table
        ]
        kept = [number[q] for q in accepting if number[q] is not None]
        return LabeledAutomaton._from_table(self.alphabet, len(order), kept, table)

    def is_trim(self) -> bool:
        """Does trimming keep every state and every edge?"""
        trim = self.trimmed()
        missing = [sum(targets.count(None) for targets in m._table) for m in (self, trim)]
        return len(trim.states) == len(self.states) and missing[0] == missing[1]

    def minimized(self) -> "LabeledAutomaton":
        """Minimal trim machine for the same language, by double reversal,
        with states numbered breadth-first from the start.  For an empty
        language that is the start state alone, without edges, as `trimmed`
        gives it.

        Computed once per machine; a minimal machine returns itself.
        """
        if self._is_minimal:
            return self
        if self._minimal is None:
            if not self.is_deterministic:
                raise NondeterministicAutomatonError("minimize needs a deterministic machine")
            start, accepting = self._ends()
            back_start = reduce(or_, (1 << r for r in accepting), 0)
            back = _per_symbol(_reversed_table(self._table, len(self.states)))
            self._minimal = _minimal_raw(self.alphabet, back_start, 1 << start, back)
        return self._minimal

    # -- serialization

    def to_json_dict(self) -> dict:
        states, symbols = self.states, self.alphabet.symbols
        return {
            "alphabet": self.alphabet.to_text(),
            "states": list(states),
            "start": self.start,
            "accepting": sorted(self.accepting),
            "edges": [[states[p], symbols[s], states[q]] for p, s, q in self._ranked_edges()],
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "LabeledAutomaton":
        doc = json.loads(text)
        alphabet = Alphabet.parse(doc["alphabet"])
        edges = {(p, s, q) for p, s, q in doc["edges"]}
        return cls(alphabet, doc["states"], doc["start"], doc["accepting"], edges)

    def to_dot(self) -> str:
        lines = ["digraph {", "  rankdir=LR;", "  __start [shape=point];"]
        lines.append(f"  __start -> {self.start};")
        for q in self.states:
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f"  {q} [shape={shape}];")
        states, symbols = self.states, self.alphabet.symbols
        for p, s, q in self._ranked_edges():
            lines.append(f'  {states[p]} -> {states[q]} [label="{symbols[s]}"];')
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledAutomaton)
            and self.alphabet == other.alphabet
            and self.states == other.states
            and self.start == other.start
            and self.accepting == other.accepting
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.alphabet, self.states, self.start, self.accepting, self.edges))

    def __repr__(self):
        kind = "DFA" if self.is_deterministic else "NFA"
        return (
            f"<{kind} {len(self.states)} states, {len(self._ranked_edges())} edges, "
            f"{len(self.accepting)} accepting>"
        )


# ---------------------------------------------------------------------------
# construction for duplication systems

# the largest duplication bound whose languages are regular, and so have an
# automaton; beyond it the exhaustive searches of `enumeration` answer
REGULAR_KMAX = 3


def seed_regex(symbols: Tuple, kmax: int):
    """Positions of the expression for the language of the duplication
    system with this seed and block bound.

    Write a+ for a run of a, P(a, b) = (a+ b+)* for interleaved runs and
    T(a, b, c) = a+ P(c, a) b+ P(a, b) c+ P(b, c) for a three-symbol block.
    For the seed s1 .. sm the expression is

        kmax = 1:  s1+ s2+ .. sm+
        kmax = 2:  s1+ s2+ P(s1, s2) s3+ P(s2, s3) .. sm+ P(sm-1, sm)
        kmax = 3:  as for kmax = 2, with T(si-2, si-1, si)* after each
                   P(si-1, si) from i = 3 on

    and s1+ for a one-symbol seed.  So for kmax = 1 only runs pump, for
    kmax = 2 adjacent runs interleave, and for kmax = 3 every window of
    three seed symbols additionally spins off its own block language.  The
    expression is the same whether or not seed symbols repeat: with every
    position renamed apart it describes the duplication language of the
    renamed seed, and renaming positions back commutes with duplication.

    The expression is never built: each piece goes straight to its
    (nullable, first mask, last mask) and its follow links, in reading
    order, which numbers the positions 1..n.  Returns (symbols, first,
    last, follows): symbols[p - 1] is the symbol at position p, `first` the
    positions that can read the first symbol, `last` the accepting ones,
    and each pair (last mask, first mask) in `follows` is one follow link:
    every position of the first mask may follow every position of the last.
    """
    if kmax > REGULAR_KMAX:
        raise UnsupportedDuplicationLength(
            f"regular construction needs kmax <= {REGULAR_KMAX}, got {kmax}"
        )
    if not symbols:
        raise ValueError("seed must be nonempty")
    letters: List[object] = []
    follows: List[Tuple[int, int]] = []

    def symbol(s):
        letters.append(s)
        bit = 1 << len(letters)
        return False, bit, bit

    def loop(piece, optional=False):
        # piece+, or piece* when optional: its last positions lead back to its first
        nullable, first, last = piece
        follows.append((last, first))
        return nullable or optional, first, last

    def concatenation(*pieces):
        nullable, first, last = True, 0, 0
        for pn, pf, pl in pieces:
            if last:
                follows.append((last, pf))
            if nullable:
                first |= pf
            last = (last | pl) if pn else pl
            nullable = nullable and pn
        return nullable, first, last

    # arguments are evaluated left to right, so positions come in reading order
    def run(a):
        return loop(symbol(a))

    def pair(a, b):
        return loop(concatenation(run(a), run(b)), optional=True)

    s = symbols
    if kmax == 1 or len(s) == 1:
        pieces = [run(a) for a in s]
    else:
        pieces = [run(s[0]), run(s[1]), pair(s[0], s[1])]
        for i in range(2, len(s)):
            pieces += [run(s[i]), pair(s[i - 1], s[i])]
            if kmax == 3:
                a, b, c = s[i - 2 : i + 1]
                block = concatenation(run(a), pair(c, a), run(b), pair(a, b), run(c), pair(b, c))
                pieces.append(loop(block, optional=True))
    _, first, last = concatenation(*pieces)
    return tuple(letters), first, last, follows


def regex_to_nfa(positions, alphabet: Alphabet) -> LabeledAutomaton:
    """The position NFA of `seed_regex`'s positions: state 0 is the start
    and state p reads the symbol at position p."""
    symbols, first, last, follows = positions
    follow = _followers(first, follows, len(symbols) + 1)
    edges = {
        (p, symbols[q - 1], q) for p, mask in enumerate(follow) for q in _members(mask)
    }
    return LabeledAutomaton(alphabet, range(len(follow)), 0, _members(last), edges)


def build_automaton(
    system: DuplicationSystem, minimize: bool = False
) -> LabeledAutomaton:
    """Deterministic trim automaton for the language of a kmax <= 3 system,
    the minimal one when `minimize` is set."""
    if system.kmax > REGULAR_KMAX:
        raise UnsupportedDuplicationLength(
            f"automaton construction needs kmax <= {REGULAR_KMAX}, got {system.kmax}"
        )
    symbols, first, last, follows = seed_regex(tuple(system.seed), system.kmax)
    order = system.alphabet.symbols
    if minimize:
        back = _per_symbol(_reversed_positions(symbols, first, follows, order))
        return _minimal_raw(system.alphabet, last, 1, back)
    # One row, the followers, whose union is formed once per subset and cut
    # per symbol.  No trim pass: every Glushkov position of `seed_regex` can
    # reach acceptance, so every subset can too, and discovery is
    # breadth-first with symbols in order, the numbering `trimmed` would give.
    follow = _followers(first, follows, len(symbols) + 1)
    return _subset_machine(system.alphabet, 1, last, [(follow, _carriers(symbols, order))])


def avoidance_automaton(alphabet: Alphabet, forbidden: Iterable[Word]) -> LabeledAutomaton:
    """Minimal DFA of the words over `alphabet` with no factor in `forbidden`.

    It is built as a pattern trie (Aho and Corasick), breadth-first from the
    empty prefix.  A state is the longest suffix of the text read that is a
    proper prefix of a forbidden word, and every state accepts.  An edge that
    would end a forbidden word is left out.  So the states grow with the total
    length of the forbidden words, not exponentially in the longest one.
    """
    patterns = [tuple(w) for w in forbidden]
    foreign = [s for p in patterns for s in p if s not in alphabet]
    if foreign:
        raise ValueError(f"forbidden symbol {foreign[0]!r} outside alphabet")
    banned = set(patterns)
    prefixes = sorted(
        {p[:n] for p in patterns for n in range(len(p))} | {()},
        key=lambda w: (len(w), [alphabet.index(s) for s in w]),
    )
    index = {w: i for i, w in enumerate(prefixes)}
    table = [[None] * len(prefixes) for _ in alphabet.symbols]
    for i, w in enumerate(prefixes):
        for targets, s in zip(table, alphabet.symbols):
            # every forbidden word the symbol ends is a tail, as is the next state
            tails = [(w + (s,))[j:] for j in range(len(w) + 2)]
            if banned.isdisjoint(tails):
                targets[i] = next(index[t] for t in tails if t in index)
    # the empty word is a factor of every word
    accepting = () if () in banned else range(len(prefixes))
    return LabeledAutomaton._from_table(alphabet, len(prefixes), accepting, table).minimized()


def position_walk(system: DuplicationSystem) -> Callable[[Word], bool]:
    """A membership test for the language of a kmax <= 3 system that walks
    the seed's position NFA; no automaton is built.

    The live positions are one mask.  A step is the union of the live
    positions' followers, cut down to the positions that carry the symbol,
    as in the forward subset construction of `build_automaton`.  The union
    is formed once per mask and remembered across the words the test is
    given, so the walks build lazily just the part of the subset DFA that
    they visit.  A symbol outside the alphabet, like one outside the seed,
    leaves no position live.
    """
    symbols, first, last, follows = seed_regex(tuple(system.seed), system.kmax)
    follow = _followers(first, follows, len(symbols) + 1)
    order = system.alphabet.symbols
    carriers = dict(zip(order, _carriers(symbols, order)))
    reach: Dict[int, int] = {}

    def accepts(word: Word) -> bool:
        mask = 1
        for s in word:
            carrier = carriers.get(s)
            if carrier is None:
                return False
            after = reach.get(mask)
            if after is None:
                after = reach[mask] = _union(mask, follow)
            mask = after & carrier
            if not mask:
                return False
        return bool(mask & last)

    return accepts


# ---------------------------------------------------------------------------
# counting and language extraction


def accepted_counts(automaton: LabeledAutomaton, max_length: int) -> List[int]:
    """Numbers of accepted words of each length 0 .. max_length, with exact
    integers, from one forward sweep of per-state path counts.

    The sweep runs on the minimal machine, which accepts the same words.
    """
    if not automaton.is_deterministic:
        raise NondeterministicAutomatonError(
            "counting walks each word once, so the machine must be deterministic"
        )
    if max_length < 0:
        raise ValueError("length must be nonnegative")
    machine = automaton.minimized()
    # a minimal machine numbers its states 0 .. n-1, so its states are their
    # own ranks and every edge of its table is one (source, target) move
    moves = [(p, q) for targets in machine._table for p, q in enumerate(targets) if q is not None]
    accepting = sorted(machine.accepting)
    n = len(machine.states)
    vec = [0] * n
    vec[machine.start] = 1
    counts = [sum([vec[q] for q in accepting])]
    for _ in range(max_length):
        nxt = [0] * n
        for p, q in moves:
            nxt[q] += vec[p]
        vec = nxt
        counts.append(sum([vec[q] for q in accepting]))
    return counts


def count_accepted(automaton: LabeledAutomaton, n: int) -> int:
    """Number of accepted words of length exactly n: the last entry of
    `accepted_counts`."""
    return accepted_counts(automaton, n)[n]


def _completed(automaton: LabeledAutomaton) -> Tuple[np.ndarray, np.ndarray]:
    """A DFA's table by rank as an array, one row of targets per state, and
    the acceptance of each state, with one more state for a sink: a missing
    edge leads to the sink, which leads to itself and accepts nothing."""
    sink = len(automaton.states)
    rows = [[sink if q is None else q for q in targets] + [sink] for targets in automaton._table]
    accepting = np.zeros(sink + 1, dtype=bool)
    accepting[automaton._ends()[1]] = True
    return np.array(rows, dtype=np.intp).T, accepting


def language_upto(automaton: LabeledAutomaton, max_length: int) -> Dict[int, Set[Word]]:
    """Accepted words grouped by length, read off level by level.

    A level is one array of prefixes packed as codes, in the format of the
    enumeration's level loop, beside the array of states they lead to.  A
    level grows into the next by one table lookup per prefix and symbol,
    and its accepted words are decoded at once.  A prefix is extended only
    while an accepting state is still within reach of the length left, so
    no prefix is built that ends nowhere.
    """
    if not automaton.is_deterministic:
        raise NondeterministicAutomatonError(
            "language extraction needs a deterministic machine"
        )
    if max_length < 0:
        return {}
    alphabet = automaton.alphabet
    table, accepting = _completed(automaton)
    start, ranks = automaton._ends()
    # fewest symbols from each state to acceptance; the sink, like a state
    # that cannot reach acceptance, lies beyond every length
    far = max_length + 1
    distance = [far if d is None else d for d in _distances(automaton._table, ranks)]
    distance = np.array(distance + [far])

    out: Dict[int, Set[Word]] = {n: set() for n in range(max_length + 1)}
    if accepting[start]:
        out[0].add("" if alphabet.single_char else ())
    packing = _Packing(alphabet, max_length)
    shift = packing.shift(1)
    states = np.array([start], dtype=np.intp)
    codes = packing.array([0])
    for n in range(1, max_length + 1):
        # (prefix, symbol) pairs whose target can still reach acceptance
        steps = table[states]
        prefixes, ranks = np.nonzero(distance[steps] <= max_length - n)
        if not len(prefixes):
            break
        states = steps[prefixes, ranks]
        codes = (codes[prefixes] << shift) | ranks.astype(packing.dtype)
        hits = codes[accepting[states]]
        if len(hits):
            out[n].update(packing.decode(hits, n))
    return out


@dataclass(frozen=True)
class TransferMatrix:
    """Edge-count matrix of a trim DFA: entry [i, j] is the number of symbols
    labeling an edge from state i to state j (in `states` order)."""

    states: tuple
    matrix: np.ndarray


def transfer_matrix(automaton: LabeledAutomaton) -> TransferMatrix:
    if not automaton.is_deterministic:
        raise NondeterministicAutomatonError(
            "transfer counts need a deterministic machine"
        )
    trim = automaton.trimmed()
    # entry p * n + q of the flat matrix, once for every edge of the table
    n = len(trim.states)
    cells = [p * n + q for targets in trim._table for p, q in enumerate(targets) if q is not None]
    m = np.bincount(np.array(cells, dtype=np.intp), minlength=n * n).astype(np.int64, copy=False)
    return TransferMatrix(trim.states, m.reshape(n, n))


# ---------------------------------------------------------------------------
# closure certification


def _inclusion(automaton: LabeledAutomaton) -> np.ndarray:
    """included[p, q]: is everything accepted from rank p also accepted
    from rank q?  Over the ranks of a DFA and the sink of its completed
    table.  It is the greatest fixpoint of two demands: an accepting p
    needs an accepting q, and every symbol must lead p and q into an
    included pair.  Each round drops the pairs some symbol leads out."""
    table, accepting = _completed(automaton)
    included = ~accepting[:, None] | accepting[None, :]
    while True:
        kept = included.copy()
        for targets in table.T:
            kept &= included[np.ix_(targets, targets)]
        if np.array_equal(kept, included):
            return included
        included = kept


VERDICT_LABEL_SETS = "label-sets"
VERDICT_SUPERSTATE = "superstate"
VERDICT_FAIL = "fail"


@dataclass(frozen=True)
class ClosureCheck:
    """Outcome for one (state, path length) pair.

    `label-sets`: every length-j label arriving at the state also labels a
    cycle at the state.  `superstate`: some labels do not cycle but can be
    replayed from the state into a superstate; those are listed.  `fail`:
    a label admits neither, recorded as the counterexample.
    """

    state: int
    path_length: int
    verdict: str
    fallback_labels: tuple = ()
    counterexample: Optional[Word] = None


@dataclass(frozen=True)
class ClosureCertificate:
    """Per-state evidence that the language is closed under duplications
    of blocks up to kmax.

    Together with seed acceptance this pins the automaton's language to a
    superset of the duplication language; equality at small lengths is
    checked against enumeration separately.
    """

    kmax: int
    checks: Tuple[ClosureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.verdict != VERDICT_FAIL for c in self.checks)

    def fallbacks(self, path_length: Optional[int] = None) -> List[ClosureCheck]:
        return [
            c
            for c in self.checks
            if c.verdict == VERDICT_SUPERSTATE
            and (path_length is None or c.path_length == path_length)
        ]

    def counterexamples(self) -> List[ClosureCheck]:
        return [c for c in self.checks if c.verdict == VERDICT_FAIL]

    def to_json_dict(self) -> dict:
        return {
            "kmax": self.kmax,
            "passed": self.passed,
            "checks": [
                {
                    "state": c.state,
                    "pathLength": c.path_length,
                    "verdict": c.verdict,
                    "fallbackLabels": list(c.fallback_labels),
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
        }


def verify_duplication_closure(
    automaton: LabeledAutomaton, kmax: int
) -> ClosureCertificate:
    """Certify closure under duplication of blocks up to kmax.

    For every state u and every j <= kmax, each label of a length-j path
    ending in u must label some path from u to a superstate of u.  A word
    pqr read through u after q can then be re-read as pqqr: replay q from
    u, land in a superstate, and finish r from there.  Labels that cycle
    straight back to u satisfy this with u itself; the rest need an
    explicit superstate target.

    The machine must be a trim DFA: `is_trim` refuses an NFA.
    """
    if not automaton.is_trim():
        raise ValueError("closure certification expects a trim automaton")
    states, symbols = automaton.states, automaton.alphabet.symbols

    # arriving[j][q]: labels of the length-j paths ending in rank q
    arriving = [[{()} for _ in states]]
    for j in range(kmax):
        after: List[Set[tuple]] = [set() for _ in states]
        for p, s, q in automaton._ranked_edges():
            symbol = (symbols[s],)
            after[q].update(label + symbol for label in arriving[j][p])
        arriving.append(after)

    # computed once, when some label does not cycle
    included: Optional[np.ndarray] = None
    join = automaton.alphabet.join
    checks: List[ClosureCheck] = []
    for u, state in enumerate(states):
        for j in range(1, kmax + 1):
            # labels that do not cycle at u, with the ranks they reach from u
            offending = []
            for label in sorted(arriving[j][u]):
                end = automaton._walk(u, label)
                if end != u:
                    offending.append((label, end))
            if not offending:
                checks.append(ClosureCheck(state, j, VERDICT_LABEL_SETS))
                continue
            if included is None:
                included = _inclusion(automaton)
            fallback = []
            counterexample = None
            for label, end in offending:
                if end is not None and included[u, end]:
                    fallback.append(join(label))
                else:
                    counterexample = join(label)
                    break
            verdict = VERDICT_SUPERSTATE if counterexample is None else VERDICT_FAIL
            checks.append(ClosureCheck(state, j, verdict, tuple(fallback), counterexample))
    return ClosureCertificate(kmax, tuple(checks))
