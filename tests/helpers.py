"""Independent oracles used to cross-check the library.

Everything here is written from scratch with plain loops so that a bug in
the package cannot hide behind the same bug in the tests.
"""

import itertools
from collections import defaultdict, deque

from tandemdup import (
    BudgetExceededError,
    VERDICT_FAIL,
    VERDICT_LABEL_SETS,
    VERDICT_SUPERSTATE,
    ClosureCertificate,
    ClosureCheck,
    LabeledAutomaton,
)


def brute_duplicate(word, i, k):
    """Copy the block word[i:i+k] in place, written with explicit slices."""
    block = word[i : i + k]
    return word[:i] + block + block + word[i + k :]


def naive_closure(seed, kmax, max_length):
    """Fixed-point iteration of the duplication step, no level bookkeeping.

    Returns a dict mapping length -> set of words.  Deliberately not a BFS:
    it just sweeps the whole set until nothing new shows up.
    """
    words = {seed}
    changed = True
    while changed:
        changed = False
        for w in sorted(words):
            for k in range(1, kmax + 1):
                for i in range(0, len(w) - k + 1):
                    child = brute_duplicate(w, i, k)
                    if len(child) <= max_length and child not in words:
                        words.add(child)
                        changed = True
    by_length = {}
    for w in words:
        by_length.setdefault(len(w), set()).add(w)
    return by_length


def set_levels(system, max_length, budget):
    """The level loop on Python sets of words, the reference for the packed
    one: yield (length, words) pairs level by level, spending one budget
    unit per word."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    seed_len = len(system.seed)
    if max_length < seed_len:
        raise ValueError(f"max_length {max_length} is below the seed length {seed_len}")
    lengths = range(seed_len, max_length + 1)
    pending = {lengths.start: {system.seed}}
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


def square_locations(word, kmax=None):
    """All (offset, length) pairs where word[offset:offset+2*length] is a
    square, found by character-by-character comparison."""
    found = []
    top = len(word) // 2 if kmax is None else min(kmax, len(word) // 2)
    for i in range(len(word)):
        for k in range(1, top + 1):
            if i + 2 * k > len(word):
                break
            if all(word[i + j] == word[i + k + j] for j in range(k)):
                found.append((i, k))
    return found


def has_short_square(word, kmax):
    return bool(square_locations(word, kmax))


# ---------------------------------------------------------------------------
# the reverse searches on words as strings or tuples, the references for the
# packed ones: same input checks, pruning, visiting order and budget


def kept_by_deduplication(word):
    """First symbol, last symbol and symbol set: deduplication keeps all three."""
    return word[:1], word[-1:], frozenset(word)


def _without_square(word, offset, length):
    return word[: offset + length] + word[offset + 2 * length :]


def string_derives_from(system, word, budget):
    """Membership by depth-first square peeling, squares in (offset, length) order."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not system.alphabet.contains_word(word):
        raise ValueError(f"word {word!r} uses symbols outside the alphabet")
    seed = system.seed
    if len(word) < len(seed) or kept_by_deduplication(word) != kept_by_deduplication(seed):
        return False
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        if w == seed:
            return True
        for offset, length in square_locations(w, system.kmax):
            y = _without_square(w, offset, length)
            if len(y) >= len(seed) and y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(y)
                stack.append(y)
    return False


def collapse(word):
    """The word with every run of one symbol cut to a single symbol."""
    out = word[:0]
    for i in range(len(word)):
        if i == 0 or word[i] != word[i - 1]:
            out += word[i : i + 1]
    return out


def string_dedup_roots(word, kmax, budget, collapsed=False):
    """The kmax-irreducible words reachable from `word`, by depth-first peeling.

    With `collapsed`, the start word and every word found are first cut by
    `collapse`, so the budget counts run-free words only: the budget
    reference for the packed `dedup_roots`.  Without it, this is the full
    search over every descendant, the oracle for root sets.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    cut = collapse if collapsed else (lambda w: w)
    word = cut(word)
    seen = {word}
    stack = [word]
    roots = set()
    while stack:
        w = stack.pop()
        locations = square_locations(w, kmax)
        if not locations:
            roots.add(w)
        for offset, length in locations:
            y = cut(_without_square(w, offset, length))
            if y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(y)
                stack.append(y)
    return roots


def string_dedup_distance(word, target, kmax, budget):
    """Fewest deduplications from `word` to `target`, breadth first, each
    frontier a list in discovery order."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if len(target) > len(word):
        raise ValueError("target cannot be longer than the start word")
    if word == target:
        return 0
    if kept_by_deduplication(word) != kept_by_deduplication(target):
        return None
    frontier = [word]
    seen = {word}
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for w in frontier:
            for offset, length in square_locations(w, kmax):
                y = _without_square(w, offset, length)
                if y == target:
                    return steps
                if len(y) > len(target) and y not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceededError(budget)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return None


def accepted_by_scan(machine, alphabet_text, n):
    """Words of length n the machine accepts, by scanning all of Sigma^n."""
    hits = set()
    for tup in itertools.product(alphabet_text, repeat=n):
        w = "".join(tup)
        if machine.accepts(w):
            hits.add(w)
    return hits


def canonical_patterns(max_len, max_symbols=4):
    """Seed patterns up to relabeling: strings where each new symbol is the
    smallest digit not yet used.  Covers every seed shape once."""
    out = []

    def extend(prefix, used):
        if prefix:
            out.append(prefix)
        if len(prefix) == max_len:
            return
        for s in range(min(used + 1, max_symbols)):
            extend(prefix + str(s), max(used, s + 1))

    extend("", 0)
    return out


# ---------------------------------------------------------------------------
# the k <= 3 automaton pipeline on Python sets, the references for the
# bitmask one: same positions, same discovery order, same state numbers


def seed_expression(symbols, kmax):
    """The expression of the `seed_regex` docstring as nested tuples:
    ("sym", a), ("plus", e), ("star", e) and ("cat", e1, e2, ...)."""

    def run(a):
        return ("plus", ("sym", a))

    def pair(a, b):
        return ("star", ("cat", run(a), run(b)))

    s = tuple(symbols)
    if kmax == 1 or len(s) == 1:
        return ("cat", *map(run, s))
    parts = [run(s[0]), run(s[1]), pair(s[0], s[1])]
    for i in range(2, len(s)):
        parts += [run(s[i]), pair(s[i - 1], s[i])]
        if kmax == 3:
            a, b, c = s[i - 2 : i + 1]
            block = ("cat", run(a), pair(c, a), run(b), pair(a, b), run(c), pair(b, c))
            parts.append(("star", block))
    return ("cat", *parts)


def set_glushkov(expression):
    """Position construction with one set of followers per position.

    Returns (states, start, accepting, edges): positions are 1..n in
    reading order, 0 is the start state and edges are (p, symbol, q).
    """
    symbols = []
    follow = defaultdict(set)

    def analyse(node):
        kind, *parts = node
        if kind == "sym":
            symbols.append(parts[0])
            p = len(symbols)
            return False, {p}, {p}
        if kind == "cat":
            nullable, first, last = True, set(), set()
            for part in parts:
                pn, pf, pl = analyse(part)
                for q in last:
                    follow[q] |= pf
                if nullable:
                    first |= pf
                last = pl if not pn else (last | pl)
                nullable = nullable and pn
            return nullable, first, last
        if kind in ("plus", "star"):
            pn, pf, pl = analyse(parts[0])
            for q in pl:
                follow[q] |= pf
            return (kind == "star" or pn), pf, pl
        raise TypeError(f"not an expression node: {node!r}")

    nullable, first, last = analyse(expression)
    edges = {(0, symbols[p - 1], p) for p in first}
    for p, targets in follow.items():
        for q in targets:
            edges.add((p, symbols[q - 1], q))
    accepting = set(last) | ({0} if nullable else set())
    return set(range(len(symbols) + 1)), 0, accepting, edges


def set_determinize(starts, accepting, edges, symbol_order):
    """Subset construction on frozensets from the set of start states;
    state ids follow discovery order, breadth-first with symbols in order.

    Returns (states, start, accepting, edges).
    """
    move = defaultdict(set)
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


def set_minimal(start, accepting, edges, symbol_order):
    """Minimal trim DFA by double reversal, each pass `set_determinize`."""
    reverse = {(q, s, p) for p, s, q in edges}
    _, _, back_accepting, back_edges = set_determinize(accepting, {start}, reverse, symbol_order)
    reverse = {(q, s, p) for p, s, q in back_edges}
    return set_determinize(back_accepting, {0}, reverse, symbol_order)


def set_trim(start, accepting, edges, symbol_order):
    """Keep the states reachable from the start and co-reachable to
    acceptance, renumbered breadth-first from the start with symbols in
    order; the start stays even when nothing is accepted.

    Returns (states, start, accepting, edges).
    """
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
    coreachable = {a for a in accepting if a in reachable}
    queue = deque(coreachable)
    while queue:
        q = queue.popleft()
        for p in backward[q]:
            if p in reachable and p not in coreachable:
                coreachable.add(p)
                queue.append(p)
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
        (renumber[p], s, renumber[q]) for p, s, q in edges if p in renumber and q in renumber
    }
    return set(renumber.values()), 0, {renumber[a] for a in accepting if a in renumber}, new_edges


def set_pipeline(system):
    """(NFA, DFA, minimal DFA) of a k <= 3 system built by the set references."""
    alphabet = system.alphabet
    order = alphabet.symbols
    states, start, accepting, edges = set_glushkov(seed_expression(system.seed, system.kmax))
    nfa = LabeledAutomaton(alphabet, states, start, accepting, edges)
    dfa = LabeledAutomaton(alphabet, *set_determinize({start}, accepting, edges, order))
    minimal = LabeledAutomaton(alphabet, *set_minimal(start, accepting, edges, order))
    return nfa, dfa, minimal


def edge_count_matrix(machine):
    """Transfer matrix of a machine by a plain loop over its edges, rows and
    columns in `states` order."""
    index = {q: i for i, q in enumerate(machine.states)}
    rows = [[0] * len(index) for _ in index]
    for p, _, q in machine.edges:
        rows[index[p]][index[q]] += 1
    return rows


def window_graph(alphabet_text, forbidden):
    """Transfer matrix of the sliding-window graph of the words over
    `alphabet_text` with no factor in `forbidden`, the reference for the
    pattern-trie machine.  With L the longest forbidden length, the states
    are the windows of L - 1 symbols that hold no forbidden word, and a
    window w steps to w[1:] + s unless w + s ends in a forbidden word."""
    width = max(len(f) for f in forbidden) - 1
    windows = []
    for tup in itertools.product(alphabet_text, repeat=width):
        w = "".join(tup)
        clean = True
        for f in forbidden:
            if f in w:
                clean = False
        if clean:
            windows.append(w)
    index = {w: i for i, w in enumerate(windows)}
    rows = [[0] * len(windows) for _ in windows]
    for w in windows:
        for s in alphabet_text:
            grown = w + s
            ends_forbidden = False
            for f in forbidden:
                if grown.endswith(f):
                    ends_forbidden = True
            if not ends_forbidden:
                rows[index[w]][index[grown[1:]]] += 1
    return rows


def prefix_language_upto(machine, max_length):
    """Accepted words of a DFA grouped by length, one prefix at a time: the
    reference for the packed `language_upto`.  A prefix is extended only
    while an accepting state is still within reach of the length left."""
    # fewest symbols from each state to acceptance, by breadth-first search backwards
    back = defaultdict(set)
    for p, _, q in machine.edges:
        back[q].add(p)
    distance = {q: 0 for q in machine.accepting}
    queue = deque(machine.accepting)
    while queue:
        q = queue.popleft()
        for p in back[q]:
            if p not in distance:
                distance[p] = distance[q] + 1
                queue.append(p)
    single = machine.alphabet.single_char
    out = {n: set() for n in range(max_length + 1)}
    level = [(machine.start, "" if single else ())]
    for n in range(max_length + 1):
        room = max_length - n - 1
        nxt = []
        for q, prefix in level:
            if q in machine.accepting:
                out[n].add(prefix)
            for s, (t,) in machine.out_map(q).items():
                if distance.get(t, room + 1) <= room:
                    nxt.append((t, prefix + (s if single else (s,))))
        level = nxt
    return out


def moore_minimized(machine):
    """Minimal machine by Moore partition refinement, for cross-checking
    the library's double reversal.

    Works on the trimmed machine completed with one dead state.  Block ids
    follow the first state of each block in the trimmed machine's
    breadth-first numbering, so the result uses the same state numbers as
    the library's minimal machine, not just an isomorphic copy.
    """
    a = machine.trimmed()
    symbols = a.alphabet.symbols
    dead = max(a.states) + 1
    succ = {q: {} for q in a.states}
    for p, s, q in a.edges:
        succ[p][s] = q
    states = list(a.states) + [dead]
    block = {q: (1 if q in a.accepting else 0) for q in states}
    while True:
        signature_ids = {}
        refined = {}
        for q in states:
            targets = succ.get(q, {})
            signature = (block[q], tuple(block[targets.get(s, dead)] for s in symbols))
            refined[q] = signature_ids.setdefault(signature, len(signature_ids))
        stable = len(signature_ids) == len(set(block.values()))
        # keep the first-occurrence ids of the round that found the
        # partition stable, so a machine that starts out minimal (one state,
        # say) keeps its numbering instead of the 1/0 acceptance ids
        block = refined
        if stable:
            break
    # trim states have nonempty right languages, so unless the language is
    # empty the dead state sits in a block of its own and drops out here
    return LabeledAutomaton(
        a.alphabet,
        {block[q] for q in a.states},
        block[a.start],
        {block[q] for q in a.accepting},
        {(block[p], s, block[q]) for p, s, q in a.edges},
    )


def right_language_subset(automaton, lower, upper):
    """Is everything accepted from `lower` also accepted from `upper`?

    Exact inclusion through a pairwise subset walk, one pair of state sets
    at a time, for cross-checking the library's inclusion relation; it
    works for nondeterministic machines as well.
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


def path_table_certificate(automaton, kmax):
    """Closure certificate from a table of path labels for every state pair,
    for cross-checking the library's per-state arrival sets.

    Same checks, verdicts and order as `verify_duplication_closure`: the
    labels arriving at u are read off the table column of u, the cycling
    ones off the entry (u, u), and the states a label reaches from u off
    the row of u.
    """
    paths = {1: defaultdict(set)}
    for p, s, q in automaton.edges:
        paths[1][(p, q)].add((s,))
    for j in range(2, kmax + 1):
        paths[j] = defaultdict(set)
        for (p, q), labels in paths[j - 1].items():
            for s, targets in automaton.out_map(q).items():
                for r in targets:
                    paths[j][(p, r)].update(label + (s,) for label in labels)

    join = automaton.alphabet.join
    checks = []
    for u in automaton.states:
        for j in range(1, kmax + 1):
            arriving = set()
            for (p, q), labels in paths[j].items():
                if q == u:
                    arriving |= labels
            offending = sorted(arriving - paths[j].get((u, u), set()))
            if not offending:
                checks.append(ClosureCheck(u, j, VERDICT_LABEL_SETS))
                continue
            fallback = []
            counterexample = None
            for label in offending:
                ends = [q for (p, q), labels in paths[j].items() if p == u and label in labels]
                if any(right_language_subset(automaton, u, q) for q in ends):
                    fallback.append(join(label))
                else:
                    counterexample = join(label)
                    break
            verdict = VERDICT_SUPERSTATE if counterexample is None else VERDICT_FAIL
            checks.append(ClosureCheck(u, j, verdict, tuple(fallback), counterexample))
    return ClosureCertificate(kmax, tuple(checks))
