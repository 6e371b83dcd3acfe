"""Finite automata for duplication languages with block bound at most 3.

For kmax <= 3 the language of a duplication system is regular.  The
construction here writes one fixed expression over the seed's own symbols
(`seed_regex`) straight into its position (Glushkov) automaton and
determinizes that.  Repeated seed symbols need no special care: Glushkov
states are expression positions, so two occurrences of one symbol stay
apart as states while sharing their edge label.  The minimal machine comes
straight from the NFA by double reversal (Brzozowski), which never builds
the forward subset construction.  A forward machine of `build_automaton`
keeps the reversal of the NFA it came from, so its `minimized()` takes the
same route instead of reversing its own, much larger, table.

Both steps run on Python-int bitmasks.  The position construction is
compiled: the parts of the expression, a head and the stage each further
seed symbol adds, made of runs, interleaved pairs and three-symbol blocks,
are turned once, at import, into masks of each position's followers and
predecessors relative to the part, and `seed_regex` returns a seed's rows
as these masks shifted into place.  A subset of NFA states is one int,
keyed as such.  The forward DFA of `build_automaton` walks the followers:
per subset it forms the union of its members' followers once and cuts it
per symbol by the positions that read that symbol, the step `position_walk`
takes along one word, one mask at a time.  One subset construction over
one row per symbol serves the two passes of double reversal and
`LabeledAutomaton.determinized`: NFA states are ranked by their index in
sorted order, and many subsets meet a row in the same members, so each row
remembers the target of every such hit.  The forward DFA keeps its own
loop because per-symbol rows of the followers would form the union once
per symbol, and their memo would never hit: every position has followers,
so there the hit is the whole subset, which never comes twice.

The subset construction hands its transition table (per symbol, the target
of each state) straight to the machine it builds, and that table is the
machine: walks, trimming, minimization, counting, word extraction, the
transfer matrix, the closure certificate and JSON read it, and the edge set
is derived from it when asked for.  The first pass of double reversal turns
its table around into the rows of the second.  A nondeterministic machine
is input only: it has its states, start, accepting states and edges, JSON,
DOT, equality, hash and repr, and `determinized()`; every operation that
reads the table refuses it.

The module also builds the minimal machine of the words that avoid a set
of forbidden factors from their pattern trie, and it certifies that an
automaton's language is closed under bounded duplication by a walk on
pairs of states: where a short label ends, and where the same label leads
from there.  A state that fails gets a counterexample that replays, a word
the machine accepts whose duplicate it rejects.

numpy is imported inside the functions that build arrays (`language_upto`,
`transfer_matrix` and the certificate's inclusion relation), not with the
module: building, walking, minimizing, counting and printing a machine
never need it, and its import is a large share of a command's start-up.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import or_
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

import json
import math
from json.encoder import encode_basestring_ascii as _quote

from .core import Alphabet, DuplicationSystem, Word
from .enumeration import _Packing
from .errors import NondeterministicAutomatonError, UnsupportedDuplicationLength

if TYPE_CHECKING:
    import numpy as np


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


def _carriers(symbols, symbol_order) -> List[int]:
    """Per symbol, the mask of the positions that read it.  Every edge into
    a position reads that position's symbol, so a state's successors under
    a symbol are its followers cut down to that symbol's carrier."""
    index = {s: i for i, s in enumerate(symbol_order)}
    carriers = [0] * len(symbol_order)
    for q, s in enumerate(symbols, 1):
        carriers[index[s]] |= 1 << q
    return carriers


def _predecessor_rows(symbols, pred: List[int], symbol_order) -> List[List[int]]:
    """Per-symbol rows of the position NFA's reversal, from the mask of the
    predecessors of each state.  Every edge into a position reads that
    position's symbol, so the row of symbol s sends each position that
    carries s back to its predecessors, the start state among them for the
    first positions."""
    index = {s: i for i, s in enumerate(symbol_order)}
    rows = [[0] * len(pred) for _ in symbol_order]
    for q, s in enumerate(symbols, 1):
        rows[index[s]][q] = pred[q]
    return rows


# ---------------------------------------------------------------------------
# raw machine helpers.  For the subset construction an NFA's states are
# ranked 0 .. n-1, and a set of states is one int with bit r for rank r.
# Its edges come as one row per symbol, in alphabet order: a list that maps
# a rank to the mask of its successors under that symbol.  A DFA comes out
# as a transition table: per symbol, the target id of each state, None
# where it has no edge.  Elsewhere states are ints and edges are (source,
# symbol, target) triples.


def _support(row: List[int]) -> int:
    """Mask of the ranks that have a nonempty entry in a row, read as one
    binary string: OR-ing in one bit per rank would copy the mask each time."""
    return int("".join(map("01".__getitem__, map(bool, reversed(row)))), 2)


def _table_reversal(table, start: int, accepting: Iterable[int]) -> Tuple[int, int, list]:
    """The reversal of a DFA given by its transition table, its start rank
    and its accepting ranks, as `_minimal_raw` takes it: (start mask,
    accepting mask, per-symbol rows).  The reversal starts at the accepting
    ranks and accepts at the start."""
    rows = [[0] * len(targets) for targets in table]
    for row, targets in zip(rows, table):
        for p, q in enumerate(targets):
            if q is not None:
                row[q] |= 1 << p
    back_start = reduce(or_, (1 << r for r in accepting), 0)
    return back_start, 1 << start, rows


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


def _determinize_raw(start: int, accepting: int, rows: List[List[int]]):
    """Subset construction from the start mask over one row per symbol.

    Each subset is one int, the key of `ids`.  A row's support picks out
    the members of a subset that have an entry, the hit, and only those are
    read, so a position of a Glushkov NFA's reversal, which reads one
    symbol, is read once per subset.  The hit alone decides the target,
    which is never empty, and many subsets share their hit, so each row
    remembers the target id of every hit and forms its union once.  State
    ids follow discovery order, breadth-first with symbols in order, so the
    result is stable for a fixed symbol order and does not depend on how
    the NFA's states are ranked.  Returns the number of states, the ids of
    the subsets that meet `accepting` and the transition table.
    """
    ids = {start: 0}
    subsets = [start]
    table: List[List[Optional[int]]] = [[] for _ in rows]
    steps = [(row, _support(row), targets, {}) for row, targets in zip(rows, table)]
    find = ids.get
    # the list grows while it is walked: it is the breadth-first queue
    for subset in subsets:
        for row, support, targets, known in steps:
            hit = subset & support
            if not hit:
                targets.append(None)
                continue
            tid = known.get(hit)
            if tid is None:
                target = _union(hit, row)
                tid = find(target)
                if tid is None:
                    tid = ids[target] = len(subsets)
                    subsets.append(target)
                known[hit] = tid
            targets.append(tid)
    det_accepting = [sid for sid, subset in enumerate(subsets) if subset & accepting]
    return len(subsets), det_accepting, table


def _subset_machine(alphabet: Alphabet, start: int, accepting: int, rows) -> "LabeledAutomaton":
    """The DFA of the subset construction over per-symbol rows."""
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
    _, back_accepting, table = _determinize_raw(start, accepting, rows)
    machine = _subset_machine(alphabet, *_table_reversal(table, 0, back_accepting))
    machine._is_minimal = True
    return machine


# ---------------------------------------------------------------------------
# JSON text.  The program's documents are dicts with str keys, lists and
# tuples, and scalars of exactly the types str, int, float, bool and None.
# `json.dumps(doc, indent=2)` runs the pure-Python encoder, one generator
# step per item; `_json_text` writes the same bytes, joins each flat list of
# scalars at once and fills a list of equally long flat lists into one
# template, which is where word lists and machines spend their length.
# Every other type is refused, as json refuses it, and so is every
# non-finite float, as `json.dumps(..., allow_nan=False)` refuses it.


def _finite_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# the text of a scalar by its exact type
_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    float: _finite_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _scalar_texts(values) -> Optional[Iterable[str]]:
    """The texts of a sequence of scalars, or None when it holds anything
    else."""
    kinds = set(map(type, values))
    if not kinds <= _SCALAR_TEXT.keys():
        return None
    if len(kinds) == 1:
        return map(_SCALAR_TEXT[kinds.pop()], values)
    return [_SCALAR_TEXT[type(item)](item) for item in values]


def _row_texts(rows, newline: str) -> Optional[Iterable[str]]:
    """The texts of equally long, nonempty flat lists of scalars whose lines
    start at `newline`, as a machine's edges are, or None for any other
    sequence.  Each column's scalars are converted at once and every row is
    filled into one template."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    columns = []
    for column in zip(*rows):
        # "%s" writes an int as its repr, so int columns go in as they are
        texts = column if set(map(type, column)) == {int} else _scalar_texts(column)
        if texts is None:
            return None
        columns.append(texts)
    inner = newline + "  "
    template = "[" + inner + ("," + inner).join(["%s"] * len(columns)) + newline + "]"
    return map(template.__mod__, zip(*columns)) if columns else None


def _json(value, newline: str) -> str:
    """The JSON text of a value whose line starts at `newline`."""
    kind = type(value)
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](value)
    inner = newline + "  "
    if kind is dict:
        for key in value:
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        texts = [f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        texts = (
            _scalar_texts(value)
            or _row_texts(value, inner)
            or [_json(item, inner) for item in value]
        )
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(texts)}{newline}{brackets[1]}"


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for a document of dicts
    with str keys, lists, tuples and scalars of exactly the types str, int,
    float, bool and None.  Any other type raises json's TypeError, a
    non-str key a TypeError and a non-finite float a ValueError."""
    return _json(doc, "\n")


# ---------------------------------------------------------------------------
# the public automaton type


class LabeledAutomaton:
    """Finite automaton with symbol-labeled edges over a fixed alphabet.

    States are ints.  Instances are immutable by convention.

    A deterministic machine keeps its edges as one transition table: per
    symbol, in alphabet order, the rank of each state's target (its index
    in `states`), None where it has no edge.  Walks, trimming, counting,
    word extraction, the transfer matrix, minimization and JSON read that
    table; the edge set is derived from it on first use.  Machines of the
    subset construction are born from their table; the public constructor
    reads the table off the edges once.

    The public constructor also takes edges that give a state two targets
    under one symbol.  Such a nondeterministic machine has no table: it
    offers `states`, `start`, `accepting`, `edges`, `is_deterministic`,
    JSON, DOT, equality, hash and repr, and `determinized()`, and every
    other operation raises NondeterministicAutomatonError.
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
        # None for a nondeterministic machine; read through `_table`
        self._transitions = table
        # views built on first use
        self._edges: Optional[FrozenSet[tuple]] = None
        self._ranked: Optional[List[Tuple[int, int, int]]] = None
        # minimized() caches its result here; a minimal machine is flagged
        # instead of pointing at itself, so no machine is left to the cycle
        # collector
        self._minimal: Optional[LabeledAutomaton] = None
        self._is_minimal = False
        # the reversal of an NFA for the same language, as `_minimal_raw`
        # takes it: (its start mask, its accepting mask, its rows).  A
        # forward machine of `build_automaton` keeps its position NFA's here
        # until minimized() has read them
        self._reversal: Optional[Tuple[int, int, list]] = None

    # -- basic structure

    @property
    def is_deterministic(self) -> bool:
        return self._transitions is not None

    @property
    def _table(self) -> List[List[Optional[int]]]:
        """The transition table, the one way in for every operation that
        reads it; a nondeterministic machine has none and is refused."""
        if self._transitions is None:
            raise NondeterministicAutomatonError(
                "this operation needs a deterministic machine; determinized() gives one"
            )
        return self._transitions

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

    def accepts(self, word: Word) -> bool:
        end = self._walk(bisect_left(self.states, self.start), word)
        return end is not None and self.states[end] in self.accepting

    def state_after(self, word: Word) -> Optional[int]:
        """Deterministic walk; None once a symbol has no edge."""
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
        return _subset_machine(self.alphabet, 1 << start, accepting_mask, rows)

    def trimmed(self) -> "LabeledAutomaton":
        """Trim machine for the same language, with states numbered
        breadth-first from the start, symbols in order; a minimal machine
        returns itself.  For an empty language it is the start alone,
        without edges: the minimal machine, which is trim."""
        if self._is_minimal:
            return self
        table = self._table
        start, accepting = self._ends()
        live = _distances(table, accepting)
        # the new id of each rank, None until it is reached and for every
        # rank that cannot reach acceptance, a dead start among them
        number: List[Optional[int]] = [None] * len(self.states)
        if live[start] is not None:
            number[start] = 0
        order = [start]  # the breadth-first queue, walked while it grows
        for p in order:
            for targets in table:
                q = targets[p]
                if q is not None and number[q] is None and live[q] is not None:
                    number[q] = len(order)
                    order.append(q)
        trim = [
            [None if q is None else number[q] for q in map(targets.__getitem__, order)]
            for targets in table
        ]
        kept = [number[q] for q in accepting if number[q] is not None]
        return LabeledAutomaton._from_table(self.alphabet, len(order), kept, trim)

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

        A forward machine of `build_automaton` reverses the position NFA it
        was determinized from, which is far smaller than its own table;
        every other machine reverses its table.  Both give the one minimal
        machine.  Computed once per machine; a minimal machine returns
        itself.
        """
        if self._is_minimal:
            return self
        if self._minimal is None:
            reversal = self._reversal or _table_reversal(self._table, *self._ends())
            self._reversal = None
            self._minimal = _minimal_raw(self.alphabet, *reversal)
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
        # a DOT string escapes its backslashes first, then its quotes
        labels = [s.replace("\\", "\\\\").replace('"', '\\"') for s in self.alphabet.symbols]
        states = self.states
        for p, s, q in self._ranked_edges():
            lines.append(f'  {states[p]} -> {states[q]} [label="{labels[s]}"];')
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


class _Pieces:
    """The closure mini-language of `seed_regex`'s expression.  Each call
    numbers the positions of one piece 1, 2, .. in reading order, links
    them and returns its (nullable, first mask, last mask); a letter is the
    index of the piece argument that a position reads.  follow[p] and
    pred[p] mask the followers and the predecessors of position p inside
    the part; entry 0 stands for the start state, which no piece links."""

    def __init__(self):
        self.letters: List[int] = []
        self.follow: List[int] = [0]
        self.pred: List[int] = [0]

    def _link(self, last, first):
        # every position of `first` may follow every position of `last`
        for p in _members(last):
            self.follow[p] |= first
        for q in _members(first):
            self.pred[q] |= last

    def symbol(self, a):
        self.letters.append(a)
        self.follow.append(0)
        self.pred.append(0)
        bit = 1 << len(self.letters)
        return False, bit, bit

    def loop(self, piece, optional=False):
        # piece+, or piece* when optional: its last positions lead back to its first
        nullable, first, last = piece
        self._link(last, first)
        return nullable or optional, first, last

    def concatenation(self, *pieces):
        nullable, first, last = True, 0, 0
        for pn, pf, pl in pieces:
            if last:
                self._link(last, pf)
            if nullable:
                first |= pf
            last = (last | pl) if pn else pl
            nullable = nullable and pn
        return nullable, first, last

    # arguments are evaluated left to right, so positions come in reading order
    def run(self, a):
        return self.loop(self.symbol(a))

    def pair(self, a, b):
        return self.loop(self.concatenation(self.run(a), self.run(b)), optional=True)

    def block(self, a, b, c):
        # T(a, b, c)*
        parts = [self.run(a), self.pair(c, a), self.run(b), self.pair(a, b)]
        parts += [self.run(c), self.pair(b, c)]
        return self.loop(self.concatenation(*parts), optional=True)


@dataclass(frozen=True)
class _Template:
    """A run-led part of the expression on its own positions 1 .. w: the
    part's argument each position reads, and per position the masks of
    its followers and predecessors inside the part.  Shifted left by the
    number of positions before it, each mask is the part's share of a
    seed's rows.  A run cannot be skipped, so the part has one first
    position, and the positions after it follow its last ones alone."""

    letters: Tuple[int, ...]
    first: int
    last: int
    ends: Tuple[int, ...]
    follow: Tuple[int, ...]
    pred: Tuple[int, ...]


def _template(part: Callable[[_Pieces], tuple]) -> _Template:
    """Compile a part of the expression, written in the closure language
    over the indices of its arguments."""
    pieces = _Pieces()
    _, first, last = part(pieces)
    return _Template(
        tuple(pieces.letters), first.bit_length() - 1, last, tuple(_members(last)),
        tuple(pieces.follow[1:]), tuple(pieces.pred[1:]),
    )


# the head s1+ s2+ P(s1, s2) and, per block bound, the stage that each
# further seed symbol si adds, over the window si-k+1 .. si; each compiled once
_HEAD = _template(lambda e: e.concatenation(e.run(0), e.run(1), e.pair(0, 1)))
_STAGES = {
    1: _template(lambda e: e.run(0)),
    2: _template(lambda e: e.concatenation(e.run(1), e.pair(0, 1))),
    3: _template(lambda e: e.concatenation(e.run(2), e.pair(1, 2), e.block(0, 1, 2))),
}


def seed_regex(symbols: Iterable, kmax: int) -> Tuple[tuple, int, List[int], List[int]]:
    """The position (Glushkov) automaton of the expression for the language
    of the duplication system with this seed and block bound.

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

    The expression is never built, and nothing in it is analysed per seed.
    It is a head s1+ s2+ P(s1, s2) and then one stage per further symbol
    si: si+ P(si-1, si), with T(si-2, si-1, si)* after it when kmax = 3
    (for kmax = 1, and for a one-symbol seed, each part is a run si+).  The
    head and each bound's stage are written once in the closure language
    of the three pieces a+, P and T* (`_Pieces`) and compiled at import
    into masks of the followers and predecessors of their positions,
    relative to the part (`_template`).  A seed's positions are these
    templates shifted into place in reading order, which numbers them
    1..n.  Every part starts with a run, which cannot be skipped, so its
    first position follows just the start state or the last positions of
    the part before it.

    Returns (symbols, last, follow, pred): symbols[p - 1] is the symbol at
    position p, `last` masks the accepting positions, and follow[p] and
    pred[p] mask the successors and the predecessors of state p, the start
    state 0 included.
    """
    if kmax > REGULAR_KMAX:
        raise UnsupportedDuplicationLength(
            f"automaton construction needs kmax <= {REGULAR_KMAX}, got {kmax}"
        )
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    seed = tuple(symbols)
    if not seed:
        raise ValueError("seed must be nonempty")
    if kmax == 1 or len(seed) == 1:
        parts = [(_STAGES[1], seed[i : i + 1]) for i in range(len(seed))]
    else:
        stage = _STAGES[kmax]
        parts = [(_HEAD, seed[:2])]
        parts += [(stage, seed[i + 1 - kmax : i + 1]) for i in range(2, len(seed))]
    symbols = []
    follow, pred = [0], [0]
    # the mask and the list of the states the next first position follows
    tail, ends = 1, [0]
    for part, window in parts:
        at = len(symbols)
        symbols += map(window.__getitem__, part.letters)
        follow += [mask << at for mask in part.follow]
        pred += [mask << at for mask in part.pred]
        first = at + part.first
        bit = 1 << first
        for p in ends:
            follow[p] |= bit
        pred[first] |= tail
        tail = part.last << at
        ends = [at + r for r in part.ends]
    return tuple(symbols), tail, follow, pred


def regex_to_nfa(positions, alphabet: Alphabet) -> LabeledAutomaton:
    """The position NFA of `seed_regex`'s (symbols, last, follow, pred):
    state 0 is the start, state p reads the symbol at position p, and an
    edge leads from each state to each of its followers."""
    symbols, last, follow, _ = positions
    edges = {
        (p, symbols[q - 1], q) for p, mask in enumerate(follow) for q in _members(mask)
    }
    return LabeledAutomaton(alphabet, range(len(follow)), 0, _members(last), edges)


def build_automaton(
    system: DuplicationSystem, minimize: bool = False
) -> LabeledAutomaton:
    """Deterministic trim automaton for the language of a kmax <= 3 system,
    the minimal one when `minimize` is set.

    The minimal machine comes from the position NFA by double reversal.  A
    forward machine keeps the rows of that reversal, so its `minimized()`
    starts from them too and never reverses the forward table, which is
    often ten times the minimal machine and more."""
    symbols, last, follow, pred = seed_regex(system.seed, system.kmax)
    order = system.alphabet.symbols
    back = _predecessor_rows(symbols, pred, order)
    if minimize:
        return _minimal_raw(system.alphabet, last, 1, back)
    # No trim pass: every Glushkov position of `seed_regex` can reach
    # acceptance, so every subset can too, and discovery is breadth-first
    # with symbols in order, the numbering `trimmed` would give.
    ids = {1: 0}
    subsets = [1]
    table: List[List[Optional[int]]] = [[] for _ in order]
    cuts = list(zip(_carriers(symbols, order), table))
    find = ids.get
    # the list grows while it is walked: it is the breadth-first queue
    for subset in subsets:
        after = _union(subset, follow)
        for carrier, targets in cuts:
            target = after & carrier
            if not target:
                targets.append(None)
                continue
            tid = find(target)
            if tid is None:
                tid = ids[target] = len(subsets)
                subsets.append(target)
            targets.append(tid)
    accepting = [sid for sid, subset in enumerate(subsets) if subset & last]
    machine = LabeledAutomaton._from_table(system.alphabet, len(subsets), accepting, table)
    machine._reversal = last, 1, back
    return machine


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
    positions' followers, cut down to the positions that carry the symbol:
    the step `build_automaton` takes from each subset of its forward
    machine, there for every symbol at once, so a walk visits just the
    subsets of that DFA that its word reaches.  Nothing is remembered
    between steps or words.  A symbol outside the alphabet, like one
    outside the seed, leaves no position live.
    """
    symbols, last, follow, _ = seed_regex(system.seed, system.kmax)
    order = system.alphabet.symbols
    carriers = dict(zip(order, _carriers(symbols, order)))

    def accepts(word: Word) -> bool:
        mask = 1
        for s in word:
            carrier = carriers.get(s)
            if carrier is None:
                return False
            mask = _union(mask, follow) & carrier
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
    import numpy as np

    sink = len(automaton.states)
    rows = [[sink if q is None else q for q in targets] + [sink] for targets in automaton._table]
    accepting = np.zeros(sink + 1, dtype=bool)
    accepting[automaton._ends()[1]] = True
    return np.array(rows, dtype=np.intp).T, accepting


def language_upto(automaton: LabeledAutomaton, max_length: int) -> Dict[int, List[Word]]:
    """Accepted words grouped by length, read off level by level, each
    length a list in alphabet order (lexicographic by symbol rank).

    A level is one array of prefixes packed as codes, in the format of the
    enumeration's level loop, beside the array of states they lead to.  A
    level grows into the next by one table lookup per prefix and symbol,
    and its accepted words are decoded at once.  A prefix is extended only
    while an accepting state is still within reach of the length left, so
    no prefix is built that ends nowhere.  The prefixes of a level come
    out in (prefix, symbol) order, so every level stays sorted.
    """
    # read before the length, so an NFA is refused at every length
    rows = automaton._table
    if max_length < 0:
        return {}
    import numpy as np

    alphabet = automaton.alphabet
    table, accepting = _completed(automaton)
    start, ranks = automaton._ends()
    # fewest symbols from each state to acceptance; the sink, like a state
    # that cannot reach acceptance, lies beyond every length
    far = max_length + 1
    distance = [far if d is None else d for d in _distances(rows, ranks)]
    distance = np.array(distance + [far])

    out: Dict[int, List[Word]] = {n: [] for n in range(max_length + 1)}
    if accepting[start]:
        out[0].append("" if alphabet.single_char else ())
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
        out[n] = packing.decode(codes[accepting[states]], n)
    return out


def transfer_matrix(automaton: LabeledAutomaton) -> np.ndarray:
    """Edge-count matrix of the trim DFA, as an int64 n x n array: entry
    [i, j] is the number of symbols labeling an edge from state i to state
    j, in the order of `automaton.trimmed().states`."""
    import numpy as np

    trim = automaton.trimmed()
    # entry p * n + q of the flat matrix, once for every edge of the table
    n = len(trim.states)
    cells = [p * n + q for targets in trim._table for p, q in enumerate(targets) if q is not None]
    m = np.bincount(np.array(cells, dtype=np.intp), minlength=n * n).astype(np.int64, copy=False)
    return m.reshape(n, n)


# ---------------------------------------------------------------------------
# closure certification


def _inclusion(automaton: LabeledAutomaton) -> np.ndarray:
    """included[p, q]: is everything accepted from rank p also accepted
    from rank q?  Over the ranks of a DFA and the sink of its completed
    table.  It is the greatest fixpoint of two demands: an accepting p
    needs an accepting q, and every symbol must lead p and q into an
    included pair.  Each round drops the pairs some symbol leads out."""
    import numpy as np

    table, accepting = _completed(automaton)
    included = ~accepting[:, None] | accepting[None, :]
    while True:
        kept = included.copy()
        for targets in table.T:
            kept &= included[np.ix_(targets, targets)]
        if np.array_equal(kept, included):
            return included
        included = kept


@dataclass(frozen=True)
class ClosureCheck:
    """Outcome for one state u: no counterexample when every label of
    length 1 .. kmax that arrives at u leads from u into a state whose right
    language holds u's.  Otherwise (prefix w, label q, suffix r): w leads
    from the start to where q starts and q on to u, from where r reaches
    acceptance, so wqr is accepted; the second q leads from u to a state
    that rejects r, so wqqr is not."""

    state: int
    counterexample: Optional[Tuple[Word, Word, Word]] = None


@dataclass(frozen=True)
class ClosureCertificate:
    """Per-state evidence that the language is closed under duplications of
    blocks up to kmax.  With seed acceptance it pins the machine's language
    to a superset of the duplication language."""

    kmax: int
    checks: Tuple[ClosureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.counterexample is None for c in self.checks)

    def to_json_dict(self) -> dict:
        checks = []
        for c in self.checks:
            # a counterexample is None or a nonempty triple of words
            words = c.counterexample and dict(zip(("prefix", "label", "suffix"), c.counterexample))
            checks.append({"state": c.state, "counterexample": words})
        return {"kmax": self.kmax, "passed": self.passed, "checks": checks}


def _shortest(table: List[List[int]], sources, goal) -> Tuple[tuple, List[int]]:
    """Breadth-first over tuples of ranks of a completed table, per symbol
    the target of each rank, every rank of a tuple stepped on its own: a
    source and the symbol ranks of a shortest word that leads from it to a
    tuple `goal` holds for.  The caller knows that one does."""
    parent = dict.fromkeys(sources)
    queue = list(parent)  # the breadth-first queue, walked while it grows
    for node in queue:
        if goal(*node):
            word = []
            while parent[node] is not None:
                node, s = parent[node]
                word.append(s)
            return node, word[::-1]
        for s, targets in enumerate(table):
            after = tuple(map(targets.__getitem__, node))
            if after not in parent:
                parent[after] = node, s
                queue.append(after)


def verify_duplication_closure(automaton: LabeledAutomaton, kmax: int) -> ClosureCertificate:
    """Certify closure under duplication of blocks up to kmax.

    Every label q of length 1 .. kmax that leads from some state to u must
    lead from u into a state y whose right language holds u's: then a word
    wqr read through u after q re-reads as wqqr, replaying q from u to y.
    On a DFA this depends only on pairs of states, where a label ends and
    where it leads from u.  So for each u the walk steps the pairs (p, u),
    p any rank, by each symbol on the completed table, breadth first, at
    most kmax steps, keeping per second component one mask of the label
    ends reached.  u fails exactly when a pair (u, y) turns up with y the
    sink or not above u in `_inclusion`, computed once a y other than u
    turns up.  A failing u gets a counterexample, each part a shortest
    word: the label of a pair (p, u) that leads to (u, y), an access word
    of p, and a word that u accepts and y rejects.

    The machine must be a trim DFA: `is_trim` refuses an NFA.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if not automaton.is_trim():
        raise ValueError("closure certification expects a trim automaton")
    completed, final = _completed(automaton)
    table = completed.T.tolist()
    n = sink = len(automaton.states)
    # per symbol: the target of each rank, the bit of that target (none for
    # the sink, which ends no label) and the image of each mask of label
    # ends met so far, as the same masks recur across u
    steps = [(targets, [0 if q == sink else 1 << q for q in targets], {}) for targets in table]
    # computed once a label leads from u to another state
    included = cache(partial(_inclusion, automaton))
    symbols, join = automaton.alphabet.symbols, automaton.alphabet.join
    checks = []
    for u in range(n):
        # per second component, the label ends seen and those new at the last step
        seen = [0] * (n + 1)
        seen[u] = (1 << n) - 1
        fresh, bad = {u: seen[u]}, None
        for _ in range(kmax):
            after: Dict[int, int] = {}
            for b, ends in fresh.items():
                for targets, row, image in steps:
                    ahead = image.get(ends)
                    if ahead is None:
                        ahead = image[ends] = _union(ends, row)
                    y = targets[b]
                    new = ahead & ~seen[y]
                    if new:
                        after[y] = after.get(y, 0) | new
            for y, new in after.items():
                seen[y] |= new
            moved = (y for y, new in after.items() if y != u and new >> u & 1)
            bad = next((y for y in moved if not included()[u, y]), None)
            if bad is not None or not after:
                break
            fresh = after
        counterexample = None
        if bad is not None:
            pairs = [(p, u) for p in range(n)]
            (p, _), label = _shortest(table, pairs, lambda a, b: (a, b) == (u, bad))
            _, prefix = _shortest(table, [(automaton._ends()[0],)], lambda a: a == p)
            _, suffix = _shortest(table, [(u, bad)], lambda a, b: final[a] and not final[b])
            counterexample = tuple(join(symbols[s] for s in w) for w in (prefix, label, suffix))
        checks.append(ClosureCheck(automaton.states[u], counterexample))
    return ClosureCertificate(kmax, tuple(checks))
