"""Finite automata for duplication languages with block bound at most 3.

For kmax <= 3 the language of a duplication system is regular.  The
construction here writes a structured regular expression over the seed's
own symbols, compiles it with the position (Glushkov) construction and
determinizes the result.  Repeated seed symbols need no special care:
Glushkov states are regex positions, so two occurrences of one symbol
stay apart as states while sharing their edge label.  The minimal
machine comes straight from the NFA by double reversal (Brzozowski), which
never builds the forward subset construction.

The module also carries the machinery to certify that an automaton's
language is closed under bounded duplication: every short path label into
a state must be replayable from that state to a "superstate", a state
whose right language contains the original one.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import reduce
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import json

import numpy as np

from .core import Alphabet, DuplicationSystem, Word
from .errors import NondeterministicAutomatonError, UnsupportedDuplicationLength


# ---------------------------------------------------------------------------
# structured regular expressions


class Regex:
    """Node of a structured regular expression."""

    __slots__ = ()


@dataclass(frozen=True)
class Sym(Regex):
    symbol: object


@dataclass(frozen=True)
class Cat(Regex):
    parts: tuple


@dataclass(frozen=True)
class Alt(Regex):
    parts: tuple


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


def sym(symbol) -> Regex:
    return Sym(symbol)


def cat(*parts: Regex) -> Regex:
    if not parts:
        raise ValueError("empty concatenation")
    return parts[0] if len(parts) == 1 else Cat(tuple(parts))


def alt(*parts: Regex) -> Regex:
    if not parts:
        raise ValueError("empty alternation")
    return parts[0] if len(parts) == 1 else Alt(tuple(parts))


def plus(inner: Regex) -> Regex:
    return Plus(inner)


def star(inner: Regex) -> Regex:
    return Star(inner)


def _glushkov(regex: Regex):
    """Position construction: an epsilon-free NFA with one state per occurrence.

    Returns (symbol_of_position, start, accepting, edges) where positions are
    numbered 1..n in reading order and 0 is the start state.
    """
    symbols: List[object] = []
    follow: Dict[int, Set[int]] = defaultdict(set)

    def analyse(r: Regex):
        if isinstance(r, Sym):
            symbols.append(r.symbol)
            p = len(symbols)
            return False, {p}, {p}
        if isinstance(r, Cat):
            nullable, first, last = True, set(), set()
            for part in r.parts:
                pn, pf, pl = analyse(part)
                for q in last:
                    follow[q] |= pf
                if nullable:
                    first |= pf
                last = pl if not pn else (last | pl)
                nullable = nullable and pn
            return nullable, first, last
        if isinstance(r, Alt):
            nullable, first, last = False, set(), set()
            for part in r.parts:
                pn, pf, pl = analyse(part)
                nullable = nullable or pn
                first |= pf
                last |= pl
            return nullable, first, last
        if isinstance(r, (Plus, Star)):
            pn, pf, pl = analyse(r.inner)
            for q in pl:
                follow[q] |= pf
            return (isinstance(r, Star) or pn), pf, pl
        raise TypeError(f"not a regex node: {r!r}")

    nullable, first, last = analyse(regex)
    edges = {(0, symbols[p - 1], p) for p in first}
    for p, targets in follow.items():
        for q in targets:
            edges.add((p, symbols[q - 1], q))
    accepting = set(last) | ({0} if nullable else set())
    return symbols, 0, accepting, edges


# ---------------------------------------------------------------------------
# raw machine helpers (states are ints, edges are (source, symbol, target))


def _determinize_raw(starts: Iterable[int], accepting: Set[int], edges, symbol_order):
    """Subset construction from the set of start states; state ids follow
    discovery order, so the result is stable for a fixed symbol order."""
    move: Dict[Tuple[int, object], Set[int]] = defaultdict(set)
    for p, s, q in edges:
        move[(p, s)].add(q)
    start_set = frozenset(starts)
    ids = {start_set: 0}
    queue = deque([start_set])
    det_edges = set()
    det_accepting = set()
    while queue:
        subset = queue.popleft()
        sid = ids[subset]
        if subset & accepting:
            det_accepting.add(sid)
        for s in symbol_order:
            target = set()
            for p in subset:
                target.update(move.get((p, s), ()))
            if not target:
                continue
            key = frozenset(target)
            if key not in ids:
                ids[key] = len(ids)
                queue.append(key)
            det_edges.add((sid, s, ids[key]))
    return set(ids.values()), 0, det_accepting, det_edges


def _reach_sets(start: int, accepting: Set[int], edges):
    forward = defaultdict(list)
    backward = defaultdict(list)
    for p, _, q in edges:
        forward[p].append(q)
        backward[q].append(p)
    reachable = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in forward[p]:
            if q not in reachable:
                reachable.add(q)
                queue.append(q)
    coreachable = set(a for a in accepting if a in reachable)
    queue = deque(coreachable)
    while queue:
        q = queue.popleft()
        for p in backward[q]:
            if p in reachable and p not in coreachable:
                coreachable.add(p)
                queue.append(p)
    return reachable, coreachable


def _trim_raw(states: Set[int], start: int, accepting: Set[int], edges, symbol_order):
    """Keep states reachable from the start and co-reachable to acceptance,
    renumbering in reachability order (stable for a fixed symbol order)."""
    _, coreachable = _reach_sets(start, accepting, edges)
    keep = coreachable if start in coreachable else {start}
    symbol_key = {s: i for i, s in enumerate(symbol_order)}
    by_source = defaultdict(list)
    for p, s, q in edges:
        by_source[p].append((s, q))
    renumber = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for s, q in sorted(by_source[p], key=lambda e: (symbol_key[e[0]], e[1])):
            if q in keep and q not in renumber:
                renumber[q] = len(renumber)
                queue.append(q)
    new_edges = {
        (renumber[p], s, renumber[q])
        for p, s, q in edges
        if p in renumber and q in renumber
    }
    new_accepting = {renumber[a] for a in accepting if a in renumber}
    return set(renumber.values()), 0, new_accepting, new_edges


def _minimal_raw(start: int, accepting: Set[int], edges, symbol_order):
    """Minimal trim DFA of any NFA, by Brzozowski's double reversal.

    Determinizing the reversal yields a reachable DFA for the reversed
    language; determinizing its reversal again yields the minimal DFA.
    Each subset in that last step holds a state the reversed machine
    reached, so it can reach acceptance and the result is already trim.
    Discovery order numbers it breadth-first from the start, symbols in
    order, as `_trim_raw` would.
    """
    reverse = {(q, s, p) for p, s, q in edges}
    _, _, back_accepting, back_edges = _determinize_raw(
        accepting, {start}, reverse, symbol_order
    )
    reverse = {(q, s, p) for p, s, q in back_edges}
    return _determinize_raw(back_accepting, {0}, reverse, symbol_order)


# ---------------------------------------------------------------------------
# the public automaton type


class LabeledAutomaton:
    """Finite automaton with symbol-labeled edges over a fixed alphabet.

    States are ints.  The machine may be nondeterministic; operations that
    need determinism say so.  Instances are immutable by convention.
    """

    def __init__(self, alphabet: Alphabet, states, start: int, accepting, edges):
        states = frozenset(states)
        accepting = frozenset(accepting)
        edges = frozenset(edges)
        if start not in states:
            raise ValueError("start state missing from state set")
        if not accepting <= states:
            raise ValueError("accepting states missing from state set")
        for p, s, q in edges:
            if p not in states or q not in states:
                raise ValueError(f"edge {(p, s, q)} leaves the state set")
            if s not in alphabet:
                raise ValueError(f"edge symbol {s!r} not in alphabet")
        self.alphabet = alphabet
        self.states = tuple(sorted(states))
        self.start = start
        self.accepting = accepting
        self.edges = edges
        out: Dict[int, Dict[object, Set[int]]] = {q: {} for q in states}
        for p, s, q in edges:
            out[p].setdefault(s, set()).add(q)
        self._out = {
            p: {s: frozenset(ts) for s, ts in m.items()} for p, m in out.items()
        }
        # minimized() caches its result here; a minimal machine is flagged
        # instead of pointing at itself, so no machine is left to the cycle
        # collector
        self._minimal: Optional[LabeledAutomaton] = None
        self._is_minimal = False

    # -- basic structure

    @property
    def is_deterministic(self) -> bool:
        return all(
            len(targets) == 1 for m in self._out.values() for targets in m.values()
        )

    def out_map(self, state: int) -> Dict[object, FrozenSet[int]]:
        return self._out[state]

    def step(self, states: Iterable[int], symbol) -> FrozenSet[int]:
        nxt = set()
        for p in states:
            nxt |= self._out[p].get(symbol, frozenset())
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
        q = self.start
        for s in word:
            targets = self._out[q].get(s)
            if not targets:
                return None
            (q,) = targets
        return q

    # -- transformations

    def determinized(self) -> "LabeledAutomaton":
        return LabeledAutomaton(self.alphabet, *_determinize_raw(
            {self.start}, set(self.accepting), self.edges, self.alphabet.symbols
        ))

    def trimmed(self) -> "LabeledAutomaton":
        states, start, accepting, edges = _trim_raw(
            set(self.states),
            self.start,
            set(self.accepting),
            self.edges,
            self.alphabet.symbols,
        )
        return LabeledAutomaton(self.alphabet, states, start, accepting, edges)

    def is_trim(self) -> bool:
        reachable, coreachable = _reach_sets(
            self.start, set(self.accepting), self.edges
        )
        return all(q in reachable and q in coreachable for q in self.states)

    def minimized(self) -> "LabeledAutomaton":
        """Minimal trim machine for the same language, by double reversal,
        with states numbered breadth-first from the start.

        Computed once per machine; a minimal machine returns itself.
        """
        if self._is_minimal:
            return self
        if self._minimal is None:
            if not self.is_deterministic:
                raise NondeterministicAutomatonError("minimize needs a deterministic machine")
            self._minimal = _minimal_machine(
                self.alphabet, self.start, set(self.accepting), self.edges
            )
        return self._minimal

    # -- serialization

    def to_json_dict(self) -> dict:
        rank = self.alphabet.index
        return {
            "alphabet": self.alphabet.to_text(),
            "states": list(self.states),
            "start": self.start,
            "accepting": sorted(self.accepting),
            "edges": [
                [p, s, q]
                for p, s, q in sorted(self.edges, key=lambda e: (e[0], rank(e[1]), e[2]))
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

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
        rank = self.alphabet.index
        for p, s, q in sorted(self.edges, key=lambda e: (e[0], rank(e[1]), e[2])):
            lines.append(f'  {p} -> {q} [label="{s}"];')
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
            f"<{kind} {len(self.states)} states, {len(self.edges)} edges, "
            f"{len(self.accepting)} accepting>"
        )


def _minimal_machine(alphabet: Alphabet, start: int, accepting: Set[int], edges):
    """The minimal machine of an NFA given as raw parts, flagged as minimal.

    Its states are 0 .. n-1, numbered breadth-first from the start.
    """
    machine = LabeledAutomaton(
        alphabet, *_minimal_raw(start, accepting, edges, alphabet.symbols)
    )
    machine._is_minimal = True
    return machine


# ---------------------------------------------------------------------------
# construction for duplication systems

# the largest duplication bound whose languages are regular, and so have an
# automaton; beyond it the exhaustive searches of `enumeration` answer
REGULAR_KMAX = 3


def _pair_loop(a, b) -> Regex:
    # (a+ b+)*
    return star(cat(plus(sym(a)), plus(sym(b))))


def _triple_block(a, b, c) -> Regex:
    # a+(c+a+)* b+(a+b+)* c+(b+c+)*
    return cat(
        plus(sym(a)), _pair_loop(c, a),
        plus(sym(b)), _pair_loop(a, b),
        plus(sym(c)), _pair_loop(b, c),
    )


def seed_regex(symbols: Tuple, kmax: int) -> Regex:
    """Language of the duplication system with this seed and block bound.

    For kmax = 1 only runs pump, for kmax = 2 adjacent runs interleave, and
    for kmax = 3 every window of three seed symbols additionally spins off
    its own three-symbol block language.  Seeds shorter than the window
    degenerate to the smaller forms.  The expression is the same whether or
    not seed symbols repeat: with every position renamed apart it describes
    the duplication language of the renamed seed, and renaming positions
    back commutes with duplication.
    """
    if kmax > REGULAR_KMAX:
        raise UnsupportedDuplicationLength(
            f"regular construction needs kmax <= {REGULAR_KMAX}, got {kmax}"
        )
    m = len(symbols)
    runs = [plus(sym(s)) for s in symbols]
    if kmax == 1 or m == 1:
        return cat(*runs)
    parts = [runs[0], runs[1], _pair_loop(symbols[0], symbols[1])]
    for i in range(2, m):
        parts.append(runs[i])
        parts.append(_pair_loop(symbols[i - 1], symbols[i]))
        if kmax == 3:
            parts.append(star(_triple_block(symbols[i - 2], symbols[i - 1], symbols[i])))
    return cat(*parts)


def regex_to_nfa(regex: Regex, alphabet: Alphabet) -> LabeledAutomaton:
    """Compile a regex to an epsilon-free NFA via the position construction."""
    symbols, start, accepting, edges = _glushkov(regex)
    states = set(range(len(symbols) + 1))
    return LabeledAutomaton(alphabet, states, start, accepting, edges)


def build_automaton(
    system: DuplicationSystem, minimize: bool = False
) -> LabeledAutomaton:
    """Deterministic trim automaton for the language of a kmax <= 3 system,
    the minimal one when `minimize` is set."""
    if system.kmax > REGULAR_KMAX:
        raise UnsupportedDuplicationLength(
            f"automaton construction needs kmax <= {REGULAR_KMAX}, got {system.kmax}"
        )
    _, start, accepting, edges = _glushkov(seed_regex(tuple(system.seed), system.kmax))
    if minimize:
        return _minimal_machine(system.alphabet, start, accepting, edges)
    # No trim pass: every Glushkov position of `seed_regex` can reach
    # acceptance, so every subset can too, and discovery is breadth-first
    # with symbols in order, the numbering `_trim_raw` would give.
    return LabeledAutomaton(system.alphabet, *_determinize_raw(
        {start}, accepting, edges, system.alphabet.symbols
    ))


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
    # a minimal machine numbers its states 0 .. n-1, so states index lists
    targets = [
        [t for ts in machine.out_map(q).values() for t in ts] for q in machine.states
    ]
    accepting = sorted(machine.accepting)
    vec = [0] * len(targets)
    vec[machine.start] = 1
    counts = [sum(vec[q] for q in accepting)]
    for _ in range(max_length):
        nxt = [0] * len(targets)
        for q, c in enumerate(vec):
            if c:
                for t in targets[q]:
                    nxt[t] += c
        vec = nxt
        counts.append(sum(vec[q] for q in accepting))
    return counts


def count_accepted(automaton: LabeledAutomaton, n: int) -> int:
    """Number of accepted words of length exactly n: the last entry of
    `accepted_counts`."""
    return accepted_counts(automaton, n)[n]


def language_upto(automaton: LabeledAutomaton, max_length: int) -> Dict[int, Set[Word]]:
    """Accepted words grouped by length, read off level by level.

    A prefix is extended only while an accepting state is still within
    reach of the length left, so no prefix is built that ends nowhere.
    """
    if not automaton.is_deterministic:
        raise NondeterministicAutomatonError(
            "language extraction needs a deterministic machine"
        )
    # fewest symbols from each state to acceptance, by breadth-first search backwards
    backward = defaultdict(list)
    for p, _, q in automaton.edges:
        backward[q].append(p)
    distance = dict.fromkeys(automaton.accepting, 0)
    queue = deque(automaton.accepting)
    while queue:
        q = queue.popleft()
        for p in backward[q]:
            if p not in distance:
                distance[p] = distance[q] + 1
                queue.append(p)
    single = automaton.alphabet.single_char
    steps = {
        q: [
            (s if single else (s,), t)
            for s, (t,) in automaton.out_map(q).items()
            if t in distance
        ]
        for q in automaton.states
    }
    out: Dict[int, Set[Word]] = {n: set() for n in range(max_length + 1)}
    empty: Word = "" if single else ()
    level = [(automaton.start, empty)]
    for n in range(max_length + 1):
        room = max_length - n - 1
        nxt = []
        for q, prefix in level:
            if q in automaton.accepting:
                out[n].add(prefix)
            for piece, t in steps[q]:
                if distance[t] <= room:
                    nxt.append((t, prefix + piece))
        level = nxt
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
    index = {q: i for i, q in enumerate(trim.states)}
    m = np.zeros((len(trim.states), len(trim.states)), dtype=np.int64)
    for p, _, q in trim.edges:
        m[index[p], index[q]] += 1
    return TransferMatrix(trim.states, m)


# ---------------------------------------------------------------------------
# closure certification


def right_language_subset(automaton: LabeledAutomaton, lower: int, upper: int) -> bool:
    """Is everything accepted from `lower` also accepted from `upper`?

    Exact inclusion through a pairwise subset walk, so it works for
    nondeterministic machines as well.
    """
    accepting = automaton.accepting
    start = (frozenset({lower}), frozenset({upper}))
    seen = {start}
    stack = [start]
    while stack:
        left, right = stack.pop()
        if (left & accepting) and not (right & accepting):
            return False
        for s in automaton.alphabet.symbols:
            left2 = automaton.step(left, s)
            if not left2:
                continue
            right2 = automaton.step(right, s)
            pair = (left2, right2)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


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
    """
    if not automaton.is_trim():
        raise ValueError("closure certification expects a trim automaton")

    # arriving[j][q]: labels of the length-j paths ending in q
    arriving: Dict[int, Dict[int, Set[tuple]]] = {1: defaultdict(set)}
    for p, s, q in automaton.edges:
        arriving[1][q].add((s,))
    for j in range(2, kmax + 1):
        arriving[j] = defaultdict(set)
        for q, labels in arriving[j - 1].items():
            for s, targets in automaton.out_map(q).items():
                for r in targets:
                    arriving[j][r].update(label + (s,) for label in labels)

    inclusion_cache: Dict[Tuple[int, int], bool] = {}

    def is_superstate(lower: int, upper: int) -> bool:
        key = (lower, upper)
        if key not in inclusion_cache:
            inclusion_cache[key] = right_language_subset(automaton, lower, upper)
        return inclusion_cache[key]

    join = automaton.alphabet.join
    checks: List[ClosureCheck] = []
    for u in automaton.states:
        for j in range(1, kmax + 1):
            # labels that do not cycle at u, with the states they reach from u
            offending = []
            for label in sorted(arriving[j][u]):
                ends = reduce(automaton.step, label, frozenset({u}))
                if u not in ends:
                    offending.append((label, ends))
            if not offending:
                checks.append(ClosureCheck(u, j, VERDICT_LABEL_SETS))
                continue
            fallback = []
            counterexample = None
            for label, ends in offending:
                if any(is_superstate(u, q) for q in ends):
                    fallback.append(join(label))
                else:
                    counterexample = join(label)
                    break
            verdict = VERDICT_SUPERSTATE if counterexample is None else VERDICT_FAIL
            checks.append(ClosureCheck(u, j, verdict, tuple(fallback), counterexample))
    return ClosureCertificate(kmax, tuple(checks))
