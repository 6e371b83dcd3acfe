"""Answer checks for benchmark queries, run after the timed phase.

Each check compares an answer with a source that does not run the engine
under test: closed forms, machines loaded back from the CLI's own JSON,
a second engine of the package (the k <= 3 automaton against the level
loop and the reverse search), or the plain-loop enumerators below.
`check` returns None for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Dict, Optional, Set

from tandemdup import (
    DuplicationSystem,
    LabeledAutomaton,
    build_automaton,
    count_accepted,
    count_words,
)

# k = 4 word sets are compared in full up to this many symbols past the seed
BRUTE_DEPTH = 6


# ---------------------------------------------------------------------------
# independent oracles, written with plain loops


def brute_closure(seed: str, kmax: int, max_len: int) -> Dict[int, Set[str]]:
    """All words up to max_len, by depth-first duplication with one seen set."""
    seen = {seed}
    stack = [seed]
    while stack:
        w = stack.pop()
        for k in range(1, kmax + 1):
            if len(w) + k > max_len:
                break
            for i in range(len(w) - k + 1):
                child = w[: i + k] + w[i:]
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    by_length: Dict[int, Set[str]] = defaultdict(set)
    for w in seen:
        by_length[len(w)].add(w)
    return by_length


def has_square(word: str, kmax: int) -> bool:
    """Symbol-by-symbol scan for a square with block length <= kmax."""
    for i in range(len(word)):
        for k in range(1, kmax + 1):
            if i + 2 * k > len(word):
                break
            if all(word[i + j] == word[i + k + j] for j in range(k)):
                return True
    return False


def closed_form_capacity(base: int, seed: str, kmax: int) -> float:
    """The k <= 3 capacity from the gross shape of the seed."""
    if len(set(seed)) == 1 or kmax == 1:
        return 0.0
    distinct_window = any(len(set(seed[i : i + 3])) == 3 for i in range(len(seed) - 2))
    if kmax == 3 and distinct_window:
        return math.log((3 + math.sqrt(5)) / 2) / math.log(base)
    return math.log(2) / math.log(base)


def path_count(machine: LabeledAutomaton, n: int) -> int:
    """Accepted words of length n, by a forward sweep over the edge list."""
    vec = {machine.start: 1}
    for _ in range(n):
        nxt: Dict[int, int] = defaultdict(int)
        for p, _, q in machine.edges:
            if p in vec:
                nxt[q] += vec[p]
        vec = nxt
    return sum(c for q, c in vec.items() if q in machine.accepting)


# ---------------------------------------------------------------------------
# per-query checks


class Oracle:
    """Checks answers; caches the k <= 3 machines it builds per system."""

    def __init__(self):
        self._machines: Dict[tuple, LabeledAutomaton] = {}
        self._closures: Dict[tuple, Dict[int, Set[str]]] = {}

    def machine(self, q) -> LabeledAutomaton:
        key = (q.alphabet, q.seed, q.kmax)
        if key not in self._machines:
            system = DuplicationSystem.parse(q.alphabet, q.seed, q.kmax)
            self._machines[key] = build_automaton(system, minimize=True)
        return self._machines[key]

    def closure(self, q, max_len: int) -> Dict[int, Set[str]]:
        key = (q.seed, q.kmax, max_len)
        if key not in self._closures:
            self._closures[key] = brute_closure(q.seed, q.kmax, max_len)
        return self._closures[key]

    def check(self, q, rc: int, answer) -> Optional[str]:
        if rc == -1:
            return f"raised {answer.strip().splitlines()[-1]}"
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, "_" + q.op)(q, answer)
        except (KeyError, ValueError, TypeError) as exc:
            return f"unreadable answer: {exc!r}"

    # -- regular-k3

    def _automaton(self, q, text):
        machine = LabeledAutomaton.from_json(text)
        if not machine.is_deterministic:
            return "machine is not deterministic"
        if not machine.accepts(q.seed):
            return "machine rejects the seed"
        system = DuplicationSystem.parse(q.alphabet, q.seed, q.kmax)
        depth = len(q.seed) + (3 if len(q.seed) <= 16 else 2)
        counts = count_words(system, depth).counts
        for n in range(len(q.seed), depth + 1):
            if count_accepted(machine, n) != counts.get(n, 0):
                return f"machine count at length {n} differs from enumeration"
        return None

    def _capacity(self, q, text):
        doc = json.loads(text)
        if q.params["mode"] == "numeric":
            want = closed_form_capacity(len(q.alphabet), q.seed, q.kmax)
            if abs(doc["numericValue"] - want) > 1e-6 or abs(doc["value"] - want) > 1e-12:
                return f"capacity {doc['numericValue']} != closed form {want}"
            return None
        machine = self.machine(q)
        counts = {n: count_accepted(machine, n) for n in range(len(q.seed), q.params["max_len"] + 1)}
        ratios = {
            n: math.log(counts[n + 1] / counts[n]) / math.log(len(q.alphabet))
            for n in counts if n + 1 in counts and counts[n] and counts[n + 1]
        }
        got = {int(n): r for n, r in doc["ratios"].items()}
        if got.keys() != ratios.keys() or any(abs(got[n] - ratios[n]) > 1e-9 for n in got):
            return "growth ratios differ from automaton counts"
        tail = [ratios[n] for n in sorted(ratios)][-doc["window"]:]
        if abs(doc["value"] - sum(tail) / len(tail)) > 1e-9:
            return "growth estimate is not the tail mean"
        return None

    def _verify(self, q, text):
        doc = json.loads(text)
        if not (doc["closure"]["passed"] and doc["seedAccepted"] and doc["oracleAgrees"]):
            return "closure certificate or oracle comparison failed"
        return None

    def _count_accepted(self, q, value):
        n = q.params["n"]
        machine = self.machine(q)
        if value != path_count(machine, n):
            return f"count at length {n} differs from the edge sweep"
        return None

    # -- enumeration, forward half

    def _count(self, q, text):
        counts = {int(n): c for n, c in json.loads(text)["counts"].items()}
        return self._counts_ok(q, counts, q.params["max_len"])

    def _counts_ok(self, q, counts, max_len):
        expected_lengths = range(len(q.seed), max_len + 1)
        if sorted(counts) != list(expected_lengths):
            return "count table has the wrong lengths"
        if q.kmax <= 3:
            machine = self.machine(q)
            for n in expected_lengths:
                if counts[n] != count_accepted(machine, n):
                    return f"count at length {n} differs from the automaton"
            return None
        # k = 4: exact against the plain closure near the seed; beyond it the
        # count lies between the k = 3 count and |alphabet|^n
        depth = min(max_len, len(q.seed) + BRUTE_DEPTH)
        brute = self.closure(q, depth)
        lower = self.machine(_with_kmax(q, 3))
        for n in expected_lengths:
            if n <= depth and counts[n] != len(brute.get(n, ())):
                return f"count at length {n} differs from the plain closure"
            if not count_accepted(lower, n) <= counts[n] <= len(q.alphabet) ** n:
                return f"count at length {n} outside its bounds"
        return None

    def _generate(self, q, text):
        doc = json.loads(text)
        words = {int(n): ws for n, ws in doc["words"].items()}
        counts = {n: len(ws) for n, ws in words.items()}
        problem = self._counts_ok(q, counts, q.params["max_len"])
        if problem:
            return problem
        if any(len(set(ws)) != len(ws) or any(len(w) != n for w in ws) for n, ws in words.items()):
            return "word lists repeat words or mix lengths"
        if q.kmax <= 3:
            machine = self.machine(q)
            if not all(machine.accepts(w) for ws in words.values() for w in ws):
                return "a listed word is rejected by the automaton"
            return None
        brute = self.closure(q, q.params["max_len"])
        if any(set(ws) != brute.get(n, set()) for n, ws in words.items()):
            return "word sets differ from the plain closure"
        return None

    def _check_coverage(self, q, missing):
        length = q.params["length"]
        brute = self.closure(q, q.params["max_len"])
        found = {w[i : i + length] for ws in brute.values() for w in ws for i in range(len(w) - length + 1)}
        want = {w for w in _all_words(q.alphabet, length) if w not in found}
        if set(missing) != want:
            return "missing factors differ from the plain closure"
        return None

    def _verify_witness_absent(self, q, absent):
        # the sigma4 witness is a proven non-factor at every length
        return None if absent is True else "a proven absent factor was reported present"

    # -- enumeration, reverse half

    def _member(self, q, text):
        got = json.loads(text)["member"]
        word = q.params["word"]
        if q.expect["member"]:
            return None if got is True else "a member by construction was rejected"
        if q.kmax <= 3:
            if self.machine(q).accepts(word):
                return "non-member accepted by the automaton"
        elif q.expect["absent"] not in word:
            return "non-member lacks its absent factor"
        return None if got is False else "a non-member was accepted"

    def _dedup(self, q, text):
        doc = json.loads(text)
        word = q.params["word"]
        roots = doc["roots"]
        if q.kmax <= 3:
            # roots are unique for k <= 3 and the square-free seed is one
            if roots != [q.seed]:
                return f"roots {roots} != [{q.seed}]"
        else:
            if q.seed not in roots:
                return "the seed is missing from the roots"
            for r in roots:
                if has_square(r, q.kmax) or (r[0], r[-1], set(r)) != (word[0], word[-1], set(word)):
                    return f"root {r} is reducible or breaks a deduplication invariant"
        if "distance" in q.expect and doc.get("distance") != q.expect["distance"]:
            return f"distance {doc.get('distance')} != {q.expect['distance']}"
        return None


def _with_kmax(q, kmax: int):
    from dataclasses import replace

    return replace(q, kmax=kmax)


def _all_words(alphabet: str, length: int):
    words = [""]
    for _ in range(length):
        words = [w + c for w in words for c in alphabet]
    return words
