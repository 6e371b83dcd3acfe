"""Independent oracles used to cross-check the library.

Everything here is written from scratch with plain loops so that a bug in
the package cannot hide behind the same bug in the tests.
"""

import functools
import itertools
from collections import defaultdict, deque

from tandemdup import BudgetExceededError, LabeledAutomaton


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


def rank_sorted(alphabet, words):
    """The words as a list in alphabet order, lexicographic by symbol rank,
    by a sort on each word's list of ranks."""
    return sorted(words, key=lambda w: [alphabet.index(s) for s in w])


def levels_by_rank(alphabet, levels, seq=list):
    """A {length: words} map with each length's words as a `seq` in
    alphabet order."""
    return {n: seq(rank_sorted(alphabet, ws)) for n, ws in levels.items()}


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


# ---------------------------------------------------------------------------
# the reverse searches on words as strings or tuples, the references for the
# packed ones: same input checks, pruning, visiting order and budget


def kept_by_deduplication(word):
    """First symbol, last symbol and symbol set: deduplication keeps all three."""
    return word[:1], word[-1:], frozenset(word)


def _without_square(word, offset, length):
    return word[: offset + length] + word[offset + 2 * length :]


def string_derives_from(system, word, budget, collapsed=False):
    """Membership by depth-first square peeling, squares in (offset, length) order.

    With `collapsed` and a seed that has no run, the word and every word
    found are first cut by `collapse`, so the budget counts run-free words
    only: the budget reference for the packed `derives_from`.  Without it,
    this is the full search over every descendant, the membership oracle.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not system.alphabet.contains_word(word):
        raise ValueError(f"word {word!r} uses symbols outside the alphabet")
    seed = system.seed
    if len(word) < len(seed) or kept_by_deduplication(word) != kept_by_deduplication(seed):
        return False
    cut = collapse if collapsed and collapse(seed) == seed else (lambda w: w)
    word = cut(word)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        if w == seed:
            return True
        for offset, length in square_locations(w, system.kmax):
            y = cut(_without_square(w, offset, length))
            if len(y) >= len(seed) and y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget)
                seen.add(y)
                stack.append(y)
    return False


def string_first_square_root(word, kmax):
    """Delete the first square of block length <= kmax, in (offset, length)
    order, until none is left: the one root when kmax <= 3."""
    locations = square_locations(word, kmax)
    while locations:
        word = _without_square(word, *locations[0])
        locations = square_locations(word, kmax)
    return word


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


def _distance_search(search):
    """`search` behind the input checks of a distance and the answers that
    need no search."""

    @functools.wraps(search)
    def distance(word, target, kmax, budget):
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
        return search(word, target, kmax, budget)

    return distance


@_distance_search
def string_dedup_distance(word, target, kmax, budget):
    """Fewest deduplications from `word` to `target`, best first: the budget
    reference for the packed `dedup_distance`.

    A word y reached in s steps has the bound s + ceil((|y| - |target|) / kmax).
    Two stacks hold the words of the least open bound and of the bound
    one above it, as (word, steps) pairs; each pops its newest pair, and a
    word's children are pushed in (offset, length) order.  A word reached
    again in fewer steps is pushed again, and its old pair is skipped.
    The budget counts distinct words reached, the start word included.
    When kmax <= 3, a target whose root differs from the word's is
    answered before any search.
    """

    # every word has exactly one root when kmax <= 3
    if kmax <= 3 and string_first_square_root(word, kmax) != string_first_square_root(target, kmax):
        return None

    def bound(w, steps):
        return steps + -(-(len(w) - len(target)) // kmax)

    best = {word: 0}
    level, later = [(word, 0)], []
    while level or later:
        if not level:
            level, later = later, []
        w, steps = level.pop()
        if best[w] < steps:
            continue
        for offset, length in square_locations(w, kmax):
            y = _without_square(w, offset, length)
            if y == target:
                return steps + 1
            if len(y) <= len(target):
                continue
            if y in best:
                if best[y] <= steps + 1:
                    continue
            elif len(best) >= budget:
                raise BudgetExceededError(budget)
            best[y] = steps + 1
            if bound(y, steps + 1) == bound(w, steps):
                level.append((y, steps + 1))
            else:
                later.append((y, steps + 1))
    return None


@_distance_search
def breadth_first_dedup_distance(word, target, kmax, budget):
    """Fewest deduplications from `word` to `target`, breadth first, each
    frontier a list in discovery order: the distance oracle."""
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
    """Words of length n the machine accepts, by scanning all of Sigma^n and
    walking, for each word, the set of states it reaches on the edge set.
    The machine may be nondeterministic."""
    succ = successors(machine.edges)
    hits = set()
    for tup in itertools.product(alphabet_text, repeat=n):
        current = {machine.start}
        for s in tup:
            current = {q for p in current for q in succ[p][s]}
        if current & machine.accepting:
            hits.add("".join(tup))
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


def successors(edges):
    """Successor map {state: {symbol: set of targets}} read off an edge set."""
    succ = defaultdict(lambda: defaultdict(set))
    for p, s, q in edges:
        succ[p][s].add(q)
    return succ


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
    succ = successors(machine.edges)
    single = machine.alphabet.single_char
    out = {n: set() for n in range(max_length + 1)}
    level = [(machine.start, "" if single else ())]
    for n in range(max_length + 1):
        room = max_length - n - 1
        nxt = []
        for q, prefix in level:
            if q in machine.accepting:
                out[n].add(prefix)
            for s, (t,) in succ[q].items():
                if distance.get(t, room + 1) <= room:
                    nxt.append((t, prefix + (s if single else (s,))))
        level = nxt
    return out


def moore_minimized(machine):
    """Minimal machine by Moore partition refinement, for cross-checking
    the library's double reversal.

    Works on the machine trimmed by `set_trim`, completed with one dead
    state.  Block ids follow the first state of each block in the trimmed
    machine's breadth-first numbering, so the result uses the same state
    numbers as the library's minimal machine, not just an isomorphic copy.
    """
    symbols = machine.alphabet.symbols
    trim_states, start, accepting, edges = set_trim(
        machine.start, machine.accepting, machine.edges, symbols
    )
    dead = max(trim_states) + 1
    succ = {q: {} for q in trim_states}
    for p, s, q in edges:
        succ[p][s] = q
    states = sorted(trim_states) + [dead]
    block = {q: (1 if q in accepting else 0) for q in states}
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
    # empty the dead state sits in a block of its own and drops out here;
    # when it is empty every state shares the dead block, whose edges go too
    return LabeledAutomaton(
        machine.alphabet,
        {block[q] for q in trim_states},
        block[start],
        {block[q] for q in accepting},
        {(block[p], s, block[q]) for p, s, q in edges if block[q] != block[dead]},
    )


def right_language_subset(automaton, lower, upper):
    """Is everything accepted from `lower` also accepted from `upper`?

    Exact inclusion through a pairwise subset walk, one pair of state sets
    at a time, for cross-checking the library's inclusion relation; it
    works for nondeterministic machines as well.
    """
    accepting = automaton.accepting
    succ = successors(automaton.edges)

    def step(states, s):
        return frozenset(q for p in states for q in succ[p].get(s, ()))

    start = (frozenset({lower}), frozenset({upper}))
    seen = {start}
    stack = [start]
    while stack:
        left, right = stack.pop()
        if (left & accepting) and not (right & accepting):
            return False
        for s in automaton.alphabet.symbols:
            left2 = step(left, s)
            if not left2:
                continue
            right2 = step(right, s)
            pair = (left2, right2)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


# the verdicts of `path_table_certificate` for one (state, length) pair:
# every arriving label cycles, some only replay into a superstate, or one
# replays into neither
LABEL_SETS = "label-sets"
SUPERSTATE = "superstate"
FAIL = "fail"


def path_table_certificate(automaton, kmax):
    """Closure certificate from a table of path labels for every state pair,
    the reference for the pair walk of `verify_duplication_closure`.

    Returns {(state, j): (verdict, fallbacks, counterexample)} for every
    state and every j = 1 .. kmax.  The labels arriving at u are read off
    the table column of u, the cycling ones off the entry (u, u), and the
    states a label reaches from u off the row of u.  A label that does not
    cycle is a fallback when some state it reaches from u is a superstate
    of u; the first, in sorted order, that is not is the counterexample.
    """
    succ = successors(automaton.edges)
    paths = {1: defaultdict(set)}
    for p, s, q in automaton.edges:
        paths[1][(p, q)].add((s,))
    for j in range(2, kmax + 1):
        paths[j] = defaultdict(set)
        for (p, q), labels in paths[j - 1].items():
            for s, targets in succ[q].items():
                for r in targets:
                    paths[j][(p, r)].update(label + (s,) for label in labels)

    join = automaton.alphabet.join
    verdicts = {}
    for u in automaton.states:
        for j in range(1, kmax + 1):
            arriving = set()
            for (p, q), labels in paths[j].items():
                if q == u:
                    arriving |= labels
            offending = sorted(arriving - paths[j].get((u, u), set()))
            fallback = []
            counterexample = None
            for label in offending:
                ends = [q for (p, q), labels in paths[j].items() if p == u and label in labels]
                if any(right_language_subset(automaton, u, q) for q in ends):
                    fallback.append(join(label))
                else:
                    counterexample = join(label)
                    break
            if counterexample is not None:
                verdict = FAIL
            else:
                verdict = SUPERSTATE if fallback else LABEL_SETS
            verdicts[(u, j)] = (verdict, tuple(fallback), counterexample)
    return verdicts
