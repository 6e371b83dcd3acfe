import enum
import hashlib
import itertools
import json
import random
from functools import partial

import numpy as np
import pytest

from tandemdup import (
    Alphabet,
    DuplicationSystem,
    LabeledAutomaton,
    NondeterministicAutomatonError,
    UnsupportedDuplicationLength,
    build_automaton,
    count_accepted,
    count_words,
    language_upto,
    regex_to_nfa,
    seed_regex,
    transfer_matrix,
    verify_duplication_closure,
)
from tandemdup import automaton as automaton_module
from tandemdup.automaton import _json_text, accepted_counts, avoidance_automaton, position_walk
from tandemdup.core import tandem_duplicate
from tandemdup.expressiveness import witness
from helpers import (
    FAIL,
    LABEL_SETS,
    SUPERSTATE,
    accepted_by_scan,
    canonical_patterns,
    edge_count_matrix,
    levels_by_rank,
    moore_minimized,
    naive_closure,
    path_table_certificate,
    prefix_language_upto,
    rank_sorted,
    right_language_subset,
    seed_expression,
    set_determinize,
    set_glushkov,
    set_minimal,
    set_pipeline,
    set_trim,
    successors,
)


def _language_set(machine, max_length):
    lang = language_upto(machine, max_length)
    return {n: set(ws) for n, ws in lang.items() if ws}


class TestRegexPieces:
    def test_seed_regex_rejects_large_blocks(self):
        with pytest.raises(UnsupportedDuplicationLength):
            seed_regex(("0", "1"), 4)

    def test_large_blocks_name_the_automaton_bound(self):
        system = DuplicationSystem.parse("01", "01", 4)
        message = "^automaton construction needs kmax <= 3, got 4$"
        for call in (
            partial(seed_regex, ("0", "1"), 4),
            partial(build_automaton, system),
            partial(position_walk, system),
        ):
            with pytest.raises(UnsupportedDuplicationLength, match=message):
                call()

    def test_seed_regex_over_repeated_symbols(self):
        m = regex_to_nfa(seed_regex(("0", "1", "0"), 2), Alphabet("01")).determinized()
        assert _language_set(m, 9) == naive_closure("010", 2, 9)

    def test_runs_language_for_unit_blocks(self):
        m = regex_to_nfa(seed_regex(("0", "1"), 1), Alphabet("01")).determinized().trimmed()
        got = _language_set(m, 8)
        want = naive_closure("01", 1, 8)
        assert got == want


@pytest.mark.parametrize(
    "alphabet,seed,kmax,depth",
    [
        ("01", "01", 2, 10),
        ("012", "012", 3, 9),
        ("012", "0112", 3, 9),
        ("012", "010", 2, 9),
        ("0123", "0123", 3, 8),
        ("01", "0", 1, 8),
    ],
)
def test_machine_language_equals_duplication_closure(alphabet, seed, kmax, depth):
    sys = DuplicationSystem.parse(alphabet, seed, kmax)
    machine = build_automaton(sys)
    assert machine.is_deterministic
    assert _language_set(machine, depth) == naive_closure(seed, kmax, depth)


def test_counting_agrees_with_raw_scan(ternary_automaton, binary_automaton):
    for n in range(8):
        assert count_accepted(ternary_automaton, n) == len(
            accepted_by_scan(ternary_automaton, "012", n)
        )
    for n in range(9):
        assert count_accepted(binary_automaton, n) == len(
            accepted_by_scan(binary_automaton, "01", n)
        )


def test_binary_counts_from_machine(binary_automaton):
    assert [count_accepted(binary_automaton, n) for n in range(2, 11)] == [
        2 ** (n - 2) for n in range(2, 11)
    ]


@pytest.mark.parametrize("source", ["constructor", "regex_to_nfa"])
def test_an_nfa_is_input_only(source):
    """A nondeterministic machine keeps what the traced replay of
    `build_automaton` reads of it, and every operation on the transition
    table refuses it."""
    if source == "constructor":
        nfa = LabeledAutomaton(Alphabet("a"), {0, 1}, 0, {1}, {(0, "a", 0), (0, "a", 1)})
    else:
        # the repeated 0 puts two positions that read it behind one state
        nfa = regex_to_nfa(seed_regex(("0", "1", "0"), 2), Alphabet("01"))
    assert not nfa.is_deterministic
    word = nfa.alphabet.symbols[0]
    for call in (
        partial(nfa.accepts, word),
        partial(nfa.accepts, ""),
        partial(nfa.state_after, word),
        nfa.trimmed,
        nfa.is_trim,
        nfa.minimized,
        partial(language_upto, nfa, 3),
        partial(language_upto, nfa, -1),
        partial(accepted_counts, nfa, 3),
        partial(count_accepted, nfa, 3),
        partial(transfer_matrix, nfa),
        partial(verify_duplication_closure, nfa, 1),
    ):
        with pytest.raises(NondeterministicAutomatonError):
            call()
    rebuilt = LabeledAutomaton(nfa.alphabet, nfa.states, nfa.start, nfa.accepting, nfa.edges)
    assert rebuilt == nfa and hash(rebuilt) == hash(nfa)
    assert repr(rebuilt) == repr(nfa) and repr(nfa).startswith("<NFA ")
    assert LabeledAutomaton.from_json(nfa.to_json()) == nfa
    dfa = nfa.determinized()
    assert dfa.is_deterministic
    letters = "".join(nfa.alphabet.symbols)
    scans = {n: accepted_by_scan(nfa, letters, n) for n in range(7)}
    assert _language_set(dfa, 6) == {n: ws for n, ws in scans.items() if ws}


class TestMachineBasics:
    @pytest.mark.parametrize(
        "start,accepting,edges,message",
        [
            (2, {1}, {(0, "a", 1)}, "start state missing"),
            (0, {2}, {(0, "a", 1)}, "accepting states missing"),
            (0, {1}, {(0, "a", 2)}, "leaves the state set"),
            (0, {1}, {(2, "a", 1)}, "leaves the state set"),
            (0, {1}, {(0, "b", 1)}, "not in alphabet"),
        ],
    )
    def test_constructor_rejects_what_lies_outside(self, start, accepting, edges, message):
        with pytest.raises(ValueError, match=message):
            LabeledAutomaton(Alphabet("a"), {0, 1}, start, accepting, edges)

    def test_accepts_rejects_foreign_symbols(self, ternary_automaton):
        assert not ternary_automaton.accepts("013")

    def test_seed_is_accepted(self, ternary_automaton, quaternary_automaton):
        assert ternary_automaton.accepts("012")
        assert quaternary_automaton.accepts("0123")

    def test_state_after(self, ternary_automaton):
        assert ternary_automaton.state_after("012") in ternary_automaton.accepting
        assert ternary_automaton.state_after("210") is None

    def test_trim_is_idempotent(self, ternary_automaton):
        assert ternary_automaton.is_trim()
        assert ternary_automaton.trimmed() == ternary_automaton

    def test_trim_drops_dead_states(self):
        m = LabeledAutomaton(
            Alphabet("a"), {0, 1, 2}, 0, {1}, {(0, "a", 1), (2, "a", 1)}
        )
        assert not m.is_trim()
        t = m.trimmed()
        assert len(t.states) == 2
        assert t.accepts("a")

    def test_minimized_sizes_and_language(self, binary_automaton, ternary_automaton):
        mb = binary_automaton.minimized()
        assert len(mb.states) == 3
        assert _language_set(mb, 10) == _language_set(binary_automaton, 10)
        mt = ternary_automaton.minimized()
        assert len(mt.states) == 7
        assert _language_set(mt, 9) == _language_set(ternary_automaton, 9)


def machine_word(system, rng, length):
    """A member of at least `length` symbols, by random duplications of the seed."""
    word = system.seed
    while len(word) < length:
        k = rng.randint(1, system.kmax)
        if k <= len(word):
            word = tandem_duplicate(word, rng.randrange(len(word) - k + 1), k)
    return word


class TestPositionWalk:
    """`member` at kmax <= 3 walks the seed's position NFA with a lazy
    subset step; the minimal machine's `accepts` is the reference."""

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep(self, kmax):
        rng = random.Random(kmax)
        short = {
            text: ["".join(w) for n in range(7) for w in itertools.product(text, repeat=n)]
            for text in ("01", "012")
        }
        for pattern in canonical_patterns(5):
            system = DuplicationSystem.parse("0123", pattern, kmax)
            machine = build_automaton(system, minimize=True)
            # every short word over the seed's symbols, or over 012 for a
            # seed with all four; random words over 0123 and random members
            words = short["01" if max(pattern) <= "1" else "012"] + [
                "".join(rng.choice("0123") for _ in range(rng.randint(1, 16)))
                for _ in range(200)
            ]
            words += [machine_word(system, rng, 16) for _ in range(50)]
            walk = position_walk(system)
            for word in words:
                assert walk(word) == machine.accepts(word), (pattern, word)

    def test_regular_bounds_only(self):
        with pytest.raises(UnsupportedDuplicationLength):
            position_walk(DuplicationSystem.parse("012", "012", 4))

    def test_empty_word_is_never_a_member(self, ternary_system):
        assert not position_walk(ternary_system)("")

    def test_symbol_outside_the_seed_or_alphabet(self):
        system = DuplicationSystem.parse("0123", "012", 3)
        machine = build_automaton(system, minimize=True)
        for word in ("0123", "3", "0112", "01a2", "0122"):
            assert position_walk(system)(word) == machine.accepts(word), word
        assert position_walk(system)("0112")
        assert not position_walk(system)("0123")
        assert not position_walk(system)("01a2")

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_one_symbol_seed(self, kmax):
        system = DuplicationSystem.parse("01", "0", kmax)
        assert [position_walk(system)("0" * n) for n in range(4)] == [False, True, True, True]
        assert not position_walk(system)("010")
        assert not position_walk(system)("1")

    def test_comma_separated_symbols(self):
        system = DuplicationSystem.parse("ab,cd,ef", "ab,cd,ef,ab", 3)
        machine = build_automaton(system, minimize=True)
        for word in [
            ("ab", "cd", "ef", "ab"),
            ("ab", "cd", "ef", "cd", "ef", "ab", "ab"),
            ("ab", "ef", "cd", "ab"),
            ("ab", "cd", "ab"),
        ]:
            assert position_walk(system)(word) == machine.accepts(word), word

    def test_a_long_word(self):
        rng = random.Random(5)
        system = DuplicationSystem.parse("012", "0120210", 3)
        machine = build_automaton(system, minimize=True)
        member = machine_word(system, rng, 10_000)
        assert len(member) >= 10_000
        i = rng.randrange(1, len(member) - 1)
        twisted = member[:i] + "21" + member[i:]
        assert position_walk(system)(member) and machine.accepts(member)
        assert position_walk(system)(twisted) == machine.accepts(twisted)
        assert not position_walk(system)(member + "1")


class TestSerialization:
    def test_json_round_trip(self, ternary_automaton):
        again = LabeledAutomaton.from_json(ternary_automaton.to_json())
        assert again == ternary_automaton

    def test_json_document_shape(self, binary_automaton):
        doc = json.loads(binary_automaton.to_json())
        assert set(doc) == {"alphabet", "states", "start", "accepting", "edges"}
        assert all(len(e) == 3 for e in doc["edges"])

    def test_dot_output(self):
        loop = LabeledAutomaton(Alphabet("0"), {0}, 0, {0}, {(0, "0", 0)})
        dot = loop.to_dot()
        assert dot.startswith("digraph")
        assert '0 -> 0 [label="0"];' in dot
        assert "doublecircle" in dot


def test_colored_machine_projects_onto_final_language(ternary_system, ternary_automaton):
    # Color every seed position apart, then erase the colors from each
    # accepted word: the words left are those of the plain machine.
    tokens = tuple(f"{s}~{i}" for i, s in enumerate(ternary_system.seed))
    colored = regex_to_nfa(
        seed_regex(tokens, ternary_system.kmax), Alphabet(tokens)
    ).determinized()
    lang = language_upto(colored, 8)
    projected = {}
    for n, ws in lang.items():
        if ws:
            projected[n] = {"".join(t.rsplit("~", 1)[0] for t in w) for w in ws}
    assert projected == _language_set(ternary_automaton, 8)


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_subset_constructions_come_out_trim(kmax):
    # The plain seed's machine equals the one built with every seed
    # position colored apart and the colors erased before determinizing;
    # build_automaton skips the trim pass, so it must come out trim.
    # Exact equality, state numbering included.
    for pattern in canonical_patterns(6):
        alphabet = "0123"[: int(max(pattern)) + 1]
        sys = DuplicationSystem.parse(alphabet, pattern, kmax)
        tokens = tuple(f"{s}~{i}" for i, s in enumerate(pattern))
        colored = regex_to_nfa(seed_regex(tokens, kmax), Alphabet(tokens))
        erased = {(p, s.rsplit("~", 1)[0], q) for p, s, q in colored.edges}
        decolored = LabeledAutomaton(
            sys.alphabet, colored.states, colored.start, colored.accepting, erased
        ).determinized()
        machine = build_automaton(sys)
        assert machine == decolored == machine.trimmed(), (pattern, kmax)


def test_transfer_matrix_counts_edges(ternary_automaton):
    matrix = transfer_matrix(ternary_automaton)
    n = len(ternary_automaton.trimmed().states)
    assert matrix.shape == (n, n)
    assert matrix.dtype == np.int64
    assert int(matrix.sum()) == len(ternary_automaton.edges)
    # row sums never exceed the alphabet size on a deterministic machine
    assert matrix.sum(axis=1).max() <= 3


def _assert_inclusion_matches_the_walk(machine):
    included = automaton_module._inclusion(machine)
    n = len(machine.states)
    assert included.shape == (n + 1, n + 1)
    # the sink's right language is empty: below everything, above only the
    # states that accept nothing
    assert included[n].all()
    for (u, p), (v, q) in itertools.product(enumerate(machine.states), repeat=2):
        assert included[u, v] == right_language_subset(machine, p, q), (machine, p, q)


def _random_trim_dfa(rng, alphabet):
    """A random trim DFA whose state ids, drawn from -50..400, are not in
    the order of its breadth-first numbering."""
    size = rng.randint(1, 6)
    edges = {
        (p, s, rng.randrange(size))
        for p in range(size)
        for s in alphabet.symbols
        if rng.random() < 0.6
    }
    accepting = rng.sample(range(size), rng.randint(1, size))
    trim = LabeledAutomaton(alphabet, range(size), 0, accepting, edges).trimmed()
    ids = dict(zip(trim.states, rng.sample(range(-50, 401), len(trim.states))))
    return LabeledAutomaton(
        alphabet,
        ids.values(),
        ids[trim.start],
        {ids[q] for q in trim.accepting},
        {(ids[p], s, ids[q]) for p, s, q in trim.edges},
    )


class TestRightLanguageOrder:
    """`_inclusion` is the greatest fixpoint on the table; the pairwise
    subset walk `right_language_subset` is its reference."""

    def test_reflexive(self, ternary_automaton):
        included = automaton_module._inclusion(ternary_automaton)
        assert included.diagonal().all()

    def test_claimed_inclusions_hold_on_bounded_languages(self, ternary_automaton):
        a = ternary_automaton
        included = automaton_module._inclusion(a)
        suffixes = {}
        for q in a.states:
            from_q = LabeledAutomaton(a.alphabet, a.states, q, a.accepting, a.edges)
            lang = language_upto(from_q, 8)
            suffixes[q] = set().union(*lang.values()) if lang else set()
        for u, v in itertools.product(range(len(a.states)), repeat=2):
            if included[u, v]:
                assert suffixes[a.states[u]] <= suffixes[a.states[v]], (u, v)

    def test_accepting_not_below_start(self, ternary_automaton):
        # the accepting side holds the empty word, the start does not
        a = ternary_automaton
        included = automaton_module._inclusion(a)
        q = a.state_after("012")
        assert not included[a.states.index(q), a.states.index(a.start)]

    def test_minimal_canonical_machines_match_the_walk(self):
        for kmax in (1, 2, 3):
            for pattern in canonical_patterns(4):
                alphabet = "0123"[: int(max(pattern)) + 1]
                system = DuplicationSystem.parse(alphabet, pattern, kmax)
                _assert_inclusion_matches_the_walk(build_automaton(system, minimize=True))

    def test_random_trim_dfas_match_the_walk(self):
        rng = random.Random(16)
        for _ in range(200):
            _assert_inclusion_matches_the_walk(_random_trim_dfa(rng, Alphabet("cab")))


def _assert_counterexamples_replay(machine, certificate):
    """Every counterexample (w, q, r) of a certificate, read back from its
    JSON texts through `alphabet.word`, has 1 <= |q| <= kmax, and the
    machine accepts wqr and rejects wqqr."""
    alphabet = machine.alphabet
    doc = json.loads(_json_text(certificate.to_json_dict()))
    found = [c["counterexample"] for c in doc["checks"] if c["counterexample"] is not None]
    for texts in found:
        parts = (texts[part] for part in ("prefix", "label", "suffix"))
        w, q, r = (alphabet.word(alphabet.text(part)) for part in parts)
        assert 1 <= len(q) <= certificate.kmax, (machine, texts)
        assert machine.accepts(w + q + r), (machine, texts)
        assert not machine.accepts(w + q + q + r), (machine, texts)
    return len(found)


def _assert_matches_the_path_table(machine, kmax):
    """The pair walk fails at exactly the states where the label walk of
    `path_table_certificate` has a `fail` verdict, and its counterexamples
    replay.  Returns the set of the oracle's verdicts."""
    certificate = verify_duplication_closure(machine, kmax)
    oracle = path_table_certificate(machine, kmax)
    failing = {u for (u, _), (verdict, _, _) in oracle.items() if verdict == FAIL}
    assert [c.state for c in certificate.checks] == list(machine.states)
    got = {c.state for c in certificate.checks if c.counterexample is not None}
    assert got == failing, (machine, kmax)
    assert certificate.passed == (not failing)
    assert _assert_counterexamples_replay(machine, certificate) == len(failing)
    return {verdict for verdict, _, _ in oracle.values()}


class TestClosureCertificates:
    def test_core_machines_certify(
        self,
        binary_automaton,
        ternary_automaton,
        quaternary_automaton,
        repeat_seed_automaton,
    ):
        for machine, k in [
            (binary_automaton, 2),
            (ternary_automaton, 3),
            (quaternary_automaton, 3),
            (repeat_seed_automaton, 3),
        ]:
            cert = verify_duplication_closure(machine, k)
            assert cert.passed
            assert len(cert.checks) == len(machine.states)
            assert all(c.counterexample is None for c in cert.checks)

    def test_ternary_certificate_needs_superstate_fallbacks(self, ternary_automaton, monkeypatch):
        # "012" arrives at some state as a length-3 label that does not
        # cycle there, so that state is closed only through a superstate
        oracle = path_table_certificate(ternary_automaton, 3)
        falls = [v for (_, j), v in oracle.items() if j == 3 and v[0] == SUPERSTATE]
        assert any("012" in fallbacks for _, fallbacks, _ in falls)
        assert all(verdict != FAIL for verdict, _, _ in oracle.values())
        # the pair walk passes the machine through the inclusion relation
        calls = []
        inclusion = automaton_module._inclusion
        monkeypatch.setattr(
            automaton_module, "_inclusion", lambda m: calls.append(m) or inclusion(m)
        )
        assert verify_duplication_closure(ternary_automaton, 3).passed
        assert calls == [ternary_automaton]

    def test_certificate_json_shape(self, binary_automaton):
        doc = verify_duplication_closure(binary_automaton, 2).to_json_dict()
        assert doc["passed"] is True
        assert doc["kmax"] == 2
        assert [c["state"] for c in doc["checks"]] == list(binary_automaton.states)
        assert all(c == {"state": c["state"], "counterexample": None} for c in doc["checks"])
        system = DuplicationSystem.parse("012", "011112", 4)
        machine = avoidance_automaton(system.alphabet, ["02"])
        doc = verify_duplication_closure(machine, 4).to_json_dict()
        assert doc["passed"] is False
        found = [c["counterexample"] for c in doc["checks"] if c["counterexample"]]
        assert found and all(set(c) == {"prefix", "label", "suffix"} for c in found)

    @pytest.mark.parametrize("kmax", [0, -1])
    def test_kmax_below_one_is_refused(self, binary_automaton, kmax):
        with pytest.raises(ValueError, match="^kmax must be at least 1$"):
            verify_duplication_closure(binary_automaton, kmax)

    def test_requires_trim_input(self):
        m = LabeledAutomaton(
            Alphabet("a"), {0, 1, 2}, 0, {1}, {(0, "a", 1), (2, "a", 1)}
        )
        with pytest.raises(ValueError):
            verify_duplication_closure(m, 1)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_arrival_sets_match_the_path_table(self, kmax):
        verdicts = set()
        for pattern in canonical_patterns(5):
            alphabet = "0123"[: int(max(pattern)) + 1]
            sys = DuplicationSystem.parse(alphabet, pattern, kmax)
            for machine in (build_automaton(sys), build_automaton(sys, minimize=True)):
                verdicts |= _assert_matches_the_path_table(machine, kmax)
        # every machine is closed, some only through a superstate
        assert verdicts == {LABEL_SETS, SUPERSTATE}

    @pytest.mark.parametrize("kmax", [4, 5])
    def test_minimal_machines_beyond_their_bound_match_the_path_table(self, kmax):
        # the k = 3 machines checked at a larger bound: many are not closed
        verdicts = []
        for pattern in canonical_patterns(5):
            alphabet = "0123"[: int(max(pattern)) + 1]
            machine = build_automaton(DuplicationSystem.parse(alphabet, pattern, 3), minimize=True)
            verdicts.append(_assert_matches_the_path_table(machine, kmax))
        assert sum(FAIL in v for v in verdicts) == {4: 42, 5: 43}[kmax]
        # closed, some only through a superstate
        assert sum(v == {LABEL_SETS, SUPERSTATE} for v in verdicts) == {4: 29, 5: 28}[kmax]

    def test_failing_and_nondeterministic_machines_match_the_path_table(self):
        ab = Alphabet("ab")
        machines = [
            # just "ab": duplicating either symbol leaves the language
            LabeledAutomaton(ab, {0, 1, 2}, 0, {2}, {(0, "a", 1), (1, "b", 2)}),
            # a+ b, nondeterministic on a
            LabeledAutomaton(
                ab, {0, 1, 2}, 0, {2}, {(0, "a", 0), (0, "a", 1), (1, "b", 2)}
            ),
            # a+ b?, where 1 replays "a" into its twin 2 but 3 cannot replay "b"
            LabeledAutomaton(
                ab,
                {0, 1, 2, 3},
                0,
                {1, 2, 3},
                {(0, "a", 1), (1, "a", 2), (2, "a", 2), (1, "b", 3), (2, "b", 3)},
            ),
        ]
        verdicts = set()
        for machine in machines:
            for kmax in (1, 2, 3):
                if not machine.is_deterministic:
                    with pytest.raises(NondeterministicAutomatonError):
                        verify_duplication_closure(machine, kmax)
                    with pytest.raises(NondeterministicAutomatonError):
                        machine.is_trim()
                    continue
                verdicts |= _assert_matches_the_path_table(machine, kmax)
        assert verdicts == {LABEL_SETS, SUPERSTATE, FAIL}

    @pytest.mark.parametrize("text", ["ba", "cab", "2,10,1"])
    def test_sparse_ids_and_unsorted_symbols_match_the_path_table(self, text):
        # neither the state ids nor the symbols are in rank order: the
        # certificate walks ranks, but reports ids and sorts labels by text
        rng = random.Random(16)
        alphabet = Alphabet.parse(text)
        letters = alphabet.symbols + ("z",)
        verdicts = set()
        through_inclusion = 0
        for _ in range(69):
            machine = _random_trim_dfa(rng, alphabet)
            assert machine.is_trim()
            for kmax in (1, 2, 3, 4):
                found = _assert_matches_the_path_table(machine, kmax)
                verdicts |= found
                through_inclusion += found == {LABEL_SETS, SUPERSTATE}
            succ = successors(machine.edges)
            for n in range(4):
                for letters_read in itertools.product(letters, repeat=n):
                    word = "".join(letters_read) if alphabet.single_char else letters_read
                    q = machine.start
                    for s in word:
                        targets = succ[q][s] if q is not None else None
                        q = next(iter(targets)) if targets else None
                    assert machine.state_after(word) == q, (machine, word)
                    if "z" in letters_read:
                        assert machine.state_after(word) is None
        assert verdicts == {LABEL_SETS, SUPERSTATE, FAIL}
        assert through_inclusion

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep(self, kmax):
        for pattern in canonical_patterns(4, max_symbols=3):
            sys = DuplicationSystem.parse("012", pattern, kmax)
            machine = build_automaton(sys)
            assert verify_duplication_closure(machine, kmax).passed, (pattern, kmax)


class TestAvoidanceAutomaton:
    @pytest.mark.parametrize("forbidden, states", [("0123130", 7), ("01231320", 8)])
    def test_one_state_per_proper_prefix_of_the_witness(self, forbidden, states):
        # the sigma-4 witnesses; a window automaton would need 4^6 and 4^7 states
        assert len(avoidance_automaton(Alphabet("0123"), [forbidden]).states) == states

    @staticmethod
    def _random_avoidance(rng):
        """A random alphabet of two or three symbols, a few short forbidden
        words over it and the machine of the words avoiding them."""
        alphabet = rng.choice(["01", "012"])
        forbidden = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        return alphabet, forbidden, avoidance_automaton(Alphabet(alphabet), forbidden)

    def test_accepts_exactly_the_avoiding_words(self):
        rng = random.Random(7)
        for _ in range(40):
            alphabet, forbidden, machine = self._random_avoidance(rng)
            assert machine.is_trim()
            assert machine == moore_minimized(machine), forbidden
            for n in range(7):
                want = {
                    "".join(t)
                    for t in itertools.product(alphabet, repeat=n)
                    if not any(f in "".join(t) for f in forbidden)
                }
                assert accepted_by_scan(machine, alphabet, n) == want, (forbidden, n)

    def test_random_avoidance_machines_match_the_path_table(self):
        rng = random.Random(7)
        verdicts = set()
        for _ in range(40):
            _, _, machine = self._random_avoidance(rng)
            for kmax in (1, 2, 3, 4):
                verdicts |= _assert_matches_the_path_table(machine, kmax)
        assert verdicts == {LABEL_SETS, SUPERSTATE, FAIL}

    def test_no_word_avoids_the_empty_word(self):
        machine = avoidance_automaton(Alphabet("01"), ["", "11"])
        assert not machine.accepting
        assert not any(accepted_by_scan(machine, "01", n) for n in range(4))
        # the empty language is closed under duplication
        assert machine.is_trim()
        for kmax in (1, 2, 3):
            assert verify_duplication_closure(machine, kmax).passed
            assert _assert_matches_the_path_table(machine, kmax) == {LABEL_SETS}

    def test_foreign_symbol_rejected(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            avoidance_automaton(Alphabet("01"), ["012"])

    def test_witness_avoidance_machines_certify_closure(self):
        # every "no" of the ladder on these seeds: the machine avoiding the
        # witness holds the seed and is closed under duplication, so it
        # holds the whole language
        systems = 0
        for alphabet in ("01", "012", "0123"):
            for pattern in canonical_patterns(4):
                if not set(pattern) <= set(alphabet):
                    continue
                for kmax in range(1, 6):
                    system = DuplicationSystem.parse(alphabet, pattern, kmax)
                    found = witness(system)
                    if found is None:
                        continue
                    systems += 1
                    machine = avoidance_automaton(system.alphabet, [found.word])
                    _assert_inclusion_matches_the_walk(machine)
                    assert machine.accepts(system.seed), (alphabet, pattern, kmax)
                    assert verify_duplication_closure(machine, kmax).passed, (
                        alphabet,
                        pattern,
                        kmax,
                    )
        assert systems == 242

    def test_unclosed_avoidance_machine_fails_the_certificate(self):
        # the seed avoids 02, but the words avoiding 02 are not closed under
        # duplication: 20 doubles to 2020, which holds 02
        system = DuplicationSystem.parse("012", "011112", 4)
        machine = avoidance_automaton(system.alphabet, ["02"])
        assert machine.accepts(system.seed)
        certificate = verify_duplication_closure(machine, 4)
        assert not certificate.passed
        assert _assert_counterexamples_replay(machine, certificate)
        _assert_matches_the_path_table(machine, 4)

    @pytest.mark.parametrize("alphabet", ["0123", "01234"])
    def test_witness_machines_certify_far_beyond_the_label_walk(self, alphabet):
        # the label walk lists up to |alphabet|^k labels per state and takes
        # seconds from k = 8 or 9 on; the pair walk holds n(n + 1) pairs
        system = DuplicationSystem.parse(alphabet, alphabet, 12)
        machine = avoidance_automaton(system.alphabet, [witness(system).word])
        assert machine.accepts(system.seed)
        certificate = verify_duplication_closure(machine, 12)
        assert certificate.passed
        assert len(certificate.checks) == len(machine.states)


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_canonical_seed_languages_match_closure(kmax):
    for pattern in canonical_patterns(3, max_symbols=3):
        sys = DuplicationSystem.parse("012", pattern, kmax)
        machine = build_automaton(sys)
        depth = len(pattern) + 4
        assert _language_set(machine, depth) == naive_closure(pattern, kmax, depth), (
            pattern,
            kmax,
        )


class TestMinimalMachine:
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep_matches_moore_and_closure(self, kmax):
        for pattern in canonical_patterns(6):
            alphabet = "0123"[: int(max(pattern)) + 1]
            sys = DuplicationSystem.parse(alphabet, pattern, kmax)
            full = build_automaton(sys)
            minimal = build_automaton(sys, minimize=True)
            # exact equality, state numbering included
            assert minimal == full.minimized() == moore_minimized(full), (pattern, kmax)
            depth = len(pattern) + 3
            assert _language_set(minimal, depth) == naive_closure(pattern, kmax, depth), (
                pattern,
                kmax,
            )

    def test_non_trim_dfa_loses_unreachable_dead_and_twin_states(self):
        # 1 and 4 are equivalent, 2 is dead, 3 is unreachable
        m = LabeledAutomaton(
            Alphabet("ab"),
            {0, 1, 2, 3, 4},
            0,
            {1, 4},
            {(0, "a", 1), (1, "a", 4), (4, "a", 1), (0, "b", 2), (2, "b", 2), (3, "a", 0)},
        )
        want = LabeledAutomaton(Alphabet("ab"), {0, 1}, 0, {1}, {(0, "a", 1), (1, "a", 1)})
        assert m.minimized() == want == moore_minimized(m)
        words = language_upto(m, 6)
        for n in range(7):
            assert count_accepted(m, n) == len(accepted_by_scan(m, "ab", n))
            assert words[n] == rank_sorted(m.alphabet, accepted_by_scan(m, "ab", n))

    @pytest.mark.parametrize("accepting", [set(), {2}], ids=["none", "unreachable"])
    def test_empty_language_gives_one_rejecting_state(self, accepting):
        m = LabeledAutomaton(
            Alphabet("a"), {0, 1, 2}, 0, accepting, {(0, "a", 1), (1, "a", 1), (2, "a", 2)}
        )
        want = LabeledAutomaton(Alphabet("a"), {0}, 0, set(), set())
        assert m.minimized() == want == moore_minimized(m)
        assert [count_accepted(m, n) for n in range(4)] == [0, 0, 0, 0]

    def test_one_state_machine_is_already_minimal(self):
        m = LabeledAutomaton(Alphabet("01"), {0}, 0, {0}, {(0, "0", 0), (0, "1", 0)})
        assert m.minimized() == m == moore_minimized(m)
        assert [count_accepted(m, n) for n in range(5)] == [1, 2, 4, 8, 16]

    def test_counting_minimizes_once_per_machine(self, monkeypatch, ternary_system):
        calls = []
        real = automaton_module._minimal_raw

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(automaton_module, "_minimal_raw", counted)
        machine = build_automaton(ternary_system)
        counts = [count_accepted(machine, n) for n in range(6, 11)]
        assert len(calls) == 1
        assert counts == [21, 54, 138, 353, 906]

    def test_a_minimal_machine_is_its_own_minimization(self, ternary_system):
        built = build_automaton(ternary_system, minimize=True)
        assert built.minimized() is built
        minimal = build_automaton(ternary_system).minimized()
        assert minimal.minimized() is minimal
        assert minimal == built

    def test_one_sweep_counts_every_length(self, ternary_system):
        counts = accepted_counts(build_automaton(ternary_system), 10)
        table = count_words(ternary_system, 10).counts
        assert counts == [table.get(n, 0) for n in range(11)]
        assert accepted_counts(build_automaton(ternary_system), 0) == [0]
        with pytest.raises(ValueError, match="nonnegative"):
            accepted_counts(build_automaton(ternary_system), -1)

    def test_long_seed_skips_the_forward_subset_blow_up(self):
        # the forward subset construction for the 96-symbol seed has about
        # 58 000 states; double reversal never builds it
        rng = random.Random(1)
        seeds = ["".join(rng.choice("012") for _ in range(n)) for n in (48, 96)]
        sys = DuplicationSystem.parse("012", seeds[1], 3)
        machine = build_automaton(sys, minimize=True)
        assert len(machine.states) == 147
        assert machine.accepts(seeds[1])
        # 557 and 1 133 Glushkov positions: every mask is wider than 64 bits
        small = DuplicationSystem.parse("012", seeds[0], 3)
        nfa, dfa, minimal = set_pipeline(small)
        assert len(nfa.states) == 557
        assert build_automaton(small) == dfa
        assert (
            build_automaton(small, minimize=True)
            == minimal
            == dfa.minimized()
            == build_automaton(small).minimized()
        )
        _, start, accepting, edges = set_glushkov(seed_expression(seeds[1], 3))
        assert machine == LabeledAutomaton(
            sys.alphabet, *set_minimal(start, accepting, edges, sys.alphabet.symbols)
        )


def _reference_determinized(machine):
    return LabeledAutomaton(machine.alphabet, *set_determinize(
        {machine.start}, set(machine.accepting), machine.edges, machine.alphabet.symbols
    ))


class TestBitmaskSubsetConstruction:
    """The bitmask pipeline against the frozenset references of
    `tests/helpers.py`, state numbering included."""

    # the seed's symbols in sorted order, reversed, and reversed behind an
    # unused multi-character symbol, which makes words tuples: a carrier or
    # row indexed by sorted order instead of alphabet order fails the last two
    @pytest.mark.parametrize("kmax, order", [
        pytest.param(kmax, order, id=str(kmax) if order == "sorted" else f"{kmax}-{order}")
        for order in ("sorted", "reversed", "tuple")
        for kmax in (1, 2, 3)
    ])
    def test_canonical_seed_sweep_matches_the_set_references(self, kmax, order):
        for pattern in canonical_patterns(6):
            used = tuple("0123"[: int(max(pattern)) + 1])
            symbols = {"sorted": used, "reversed": used[::-1], "tuple": ("99", *used[::-1])}
            alphabet = Alphabet(symbols[order])
            sys = DuplicationSystem(alphabet, alphabet.join(pattern), kmax)
            nfa, dfa, minimal = set_pipeline(sys)
            full = build_automaton(sys)
            built = build_automaton(sys, minimize=True)
            assert regex_to_nfa(seed_regex(tuple(pattern), kmax), sys.alphabet) == nfa
            assert full == nfa.determinized() == dfa, (pattern, kmax)
            # full.minimized() reverses full's positions; the NFA's own DFA has
            # no positions, so its minimized() reverses its table
            by_table = nfa.determinized().minimized()
            assert built == full.minimized() == by_table == moore_minimized(full) == minimal, (
                pattern, kmax
            )
            # a minimal machine is its own trim, and the transfer matrix reads
            # it as is: its rows and columns in the machine's state order
            assert built.trimmed() is built
            for machine in (full, built):
                assert transfer_matrix(machine).tolist() == edge_count_matrix(machine), (
                    pattern, kmax
                )

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_colored_seed_nfas_keep_their_edges(self, kmax):
        for pattern in canonical_patterns(6):
            tokens = tuple(f"{s}~{i}" for i, s in enumerate(pattern))
            states, start, accepting, edges = set_glushkov(seed_expression(tokens, kmax))
            nfa = regex_to_nfa(seed_regex(tokens, kmax), Alphabet(tokens))
            assert (set(nfa.states), nfa.start, set(nfa.accepting), set(nfa.edges)) == (
                states, start, accepting, edges
            ), (pattern, kmax)
            # the layout's rows against the set construction over the seed's own symbols
            order = "0123"[: int(max(pattern)) + 1]
            _, _, accepting, edges = set_glushkov(seed_expression(tuple(pattern), kmax))
            symbols, last, follow, pred = seed_regex(tuple(pattern), kmax)
            n = len(follow)
            want_follow, want_back = [0] * n, [[0] * n for _ in order]
            for p, s, q in edges:
                want_follow[p] |= 1 << q
                want_back[order.index(s)][q] |= 1 << p
            assert len(symbols) == n - 1
            assert all(symbols[q - 1] == s for _, s, q in edges)
            assert last == sum(1 << q for q in accepting)
            assert follow == want_follow, (pattern, kmax)
            back = automaton_module._predecessor_rows(symbols, pred, order)
            assert back == want_back, (pattern, kmax)
        for bad, k in [(("0", "1"), 4), ((), kmax), (("0",), 0)]:
            with pytest.raises((UnsupportedDuplicationLength, ValueError)):
                seed_regex(bad, k)

    @pytest.mark.parametrize(
        "states,start,accepting,edges",
        [
            ({-3, 7, 1000}, -3, {1000}, {(-3, "0", 7), (7, "1", 1000), (1000, "0", -3), (1000, "1", 1000)}),
            ({-9, -4, -1}, -1, {-9}, {(-1, "0", -4), (-4, "0", -9), (-4, "1", -1), (-9, "1", -9)}),
            ({0, 64, 4096}, 4096, {0, 64}, {(4096, "0", 64), (64, "1", 0), (0, "0", 4096), (64, "0", 64)}),
            ({2**70, 3 * 2**80, 5}, 3 * 2**80, {5}, {(3 * 2**80, "1", 2**70), (2**70, "0", 5), (5, "0", 2**70)}),
            (
                {-2, 0, 5, 9},
                0,
                {9},
                {(0, "0", 0), (0, "0", 5), (0, "1", -2), (5, "1", 9), (-2, "1", 9), (9, "0", 9), (9, "0", -2)},
            ),
            ({-3, 7, 1000}, 7, set(), {(7, "0", -3), (-3, "1", 1000), (1000, "0", 7)}),
        ],
        ids=["mixed", "negative", "sparse", "large", "nfa", "no-accepting"],
    )
    def test_any_int_state_ids(self, states, start, accepting, edges):
        machine = LabeledAutomaton(Alphabet.parse("01"), states, start, accepting, edges)
        want = _reference_determinized(machine)
        assert machine.determinized() == want
        order = machine.alphabet.symbols
        minimal = LabeledAutomaton(machine.alphabet, *set_minimal(start, set(accepting), edges, order))
        assert want.minimized() == moore_minimized(want) == minimal
        if machine.is_deterministic:
            assert machine.minimized() == minimal

    def test_random_nfas_match_the_reference(self):
        rng = random.Random(9)
        ab = Alphabet("abc")
        for _ in range(300):
            ids = rng.sample(range(-40, 300), rng.randint(1, 7))
            edges = {
                (rng.choice(ids), rng.choice(ab.symbols), rng.choice(ids))
                for _ in range(rng.randint(0, 18))
            }
            accepting = set(rng.sample(ids, rng.randint(0, len(ids))))
            machine = LabeledAutomaton(ab, ids, ids[0], accepting, edges)
            want = _reference_determinized(machine)
            assert machine.determinized() == want
            assert want.minimized() == LabeledAutomaton(
                ab, *set_minimal(machine.start, accepting, edges, ab.symbols)
            )

    def test_determinism_is_read_from_the_edges(self):
        ab = Alphabet("ab")
        assert LabeledAutomaton(ab, {0, 1}, 0, {1}, {(0, "a", 1), (0, "b", 1)}).is_deterministic
        assert not LabeledAutomaton(ab, {0, 1}, 0, {1}, {(0, "a", 0), (0, "a", 1)}).is_deterministic
        assert LabeledAutomaton(ab, {0}, 0, set(), set()).is_deterministic


class TestTrim:
    """`trimmed` is a backward search from acceptance and a forward
    numbering on the table; `set_trim` is the plain-loop reference."""

    def test_empty_language_trims_to_the_minimal_machine(self):
        m = LabeledAutomaton(Alphabet("ab"), {0}, 0, set(), {(0, "a", 0)})
        want = LabeledAutomaton(Alphabet("ab"), {0}, 0, set(), set())
        assert m.trimmed() == m.minimized() == moore_minimized(m) == want

    def test_nondeterministic_machine_is_refused(self):
        nfa = LabeledAutomaton(Alphabet("ab"), {0, 1}, 0, {1}, {(0, "a", 0), (0, "a", 1)})
        with pytest.raises(NondeterministicAutomatonError):
            nfa.trimmed()
        assert nfa.determinized().trimmed().accepts("aa")

    def test_random_dfas_match_the_reference(self):
        rng = random.Random(11)
        ab = Alphabet("abc")
        empty = 0
        for i in range(1000):
            ids = rng.sample(range(-50, 400), rng.randint(1, 8))
            edges = {
                (p, s, rng.choice(ids)) for p in ids for s in ab.symbols if rng.random() < 0.5
            }
            accepting = set(rng.sample(ids, rng.randint(0, min(2, len(ids)))))
            start = rng.choice(ids)
            machine = LabeledAutomaton(ab, ids, start, accepting, edges)
            want = LabeledAutomaton(ab, *set_trim(start, accepting, edges, ab.symbols))
            trim = machine.trimmed()
            if want.accepting:
                assert trim == want
                assert trim.is_trim()
                assert machine.is_trim() == (len(want.states) == len(machine.states))
            else:
                empty += 1
                assert trim == machine.minimized() == LabeledAutomaton(ab, {0}, 0, set(), set())
                assert machine.is_trim() == (len(machine.states) == 1 and not machine.edges)
            if i % 5 == 0:
                words = language_upto(machine, 4)
                assert words == {
                    n: rank_sorted(ab, accepted_by_scan(machine, "abc", n)) for n in range(5)
                }
        assert 50 < empty < 950


class TestLanguageUpto:
    """`language_upto` reads a DFA level by level on packed codes;
    `prefix_language_upto` is the one-prefix-at-a-time reference, whose
    words each level must list in alphabet order."""

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep(self, kmax):
        for pattern in canonical_patterns(5):
            system = DuplicationSystem.parse("0123", pattern, kmax)
            for minimize in (False, True):
                machine = build_automaton(system, minimize=minimize)
                top = len(pattern) + 4
                want = levels_by_rank(machine.alphabet, prefix_language_upto(machine, top))
                assert language_upto(machine, top) == want, pattern

    def test_multi_character_symbols(self):
        system = DuplicationSystem.parse("a,bb,c", "a,bb,c,a", 3)
        machine = build_automaton(system, minimize=True)
        words = language_upto(machine, 9)
        assert words == levels_by_rank(machine.alphabet, prefix_language_upto(machine, 9))
        assert ("a", "bb", "c", "a") in words[4]
        assert all(isinstance(w, tuple) for ws in words.values() for w in ws)
        assert {n: len(ws) for n, ws in words.items()} == {
            n: c for n, c in enumerate(accepted_counts(machine, 9))
        }

    @pytest.mark.parametrize("max_length", [-1, 0, 1])
    def test_shortest_lengths(self, max_length):
        ab = Alphabet("ab")
        accepting_start = LabeledAutomaton(ab, {0, 1}, 0, {0}, {(0, "a", 1), (1, "b", 0)})
        rejecting_start = LabeledAutomaton(ab, {0, 1}, 0, {1}, {(0, "a", 1)})
        for machine in (accepting_start, rejecting_start):
            got = language_upto(machine, max_length)
            assert got == levels_by_rank(ab, prefix_language_upto(machine, max_length))
            assert sorted(got) == list(range(max_length + 1))
        if max_length >= 0:
            assert language_upto(accepting_start, max_length)[0] == [""]
            assert language_upto(rejecting_start, max_length)[0] == []

    @pytest.mark.parametrize(
        "alphabet, seed, max_length",
        [("01", "01", 70), ("012", "012", 33), ("a,bb,c", "a,bb,c", 33)],
    )
    def test_wide_codes(self, alphabet, seed, max_length):
        # max_length symbols take more than 64 bits, so codes are Python ints
        system = DuplicationSystem.parse(alphabet, seed, 1)
        machine = build_automaton(system, minimize=True)
        assert max_length * max(1, (len(system.alphabet) - 1).bit_length()) > 64
        words = language_upto(machine, max_length)
        assert words == levels_by_rank(machine.alphabet, prefix_language_upto(machine, max_length))
        assert len(words[max_length]) == count_accepted(machine, max_length) > 0

    def test_sparse_negative_ids_and_dead_states(self):
        ab = Alphabet("abc")
        edges = {
            (-7, "a", 3), (3, "b", 100), (100, "a", -7), (100, "c", 100),
            (-7, "b", 42), (42, "a", 42), (3, "c", 42),  # 42 is dead
            (5000, "a", 100),  # 5000 is unreachable
        }
        machine = LabeledAutomaton(ab, {-7, 3, 42, 100, 5000}, -7, {100}, edges)
        words = language_upto(machine, 7)
        assert words == levels_by_rank(ab, prefix_language_upto(machine, 7))
        assert words == {n: rank_sorted(ab, accepted_by_scan(machine, "abc", n)) for n in range(8)}
        assert words[2] == ["ab"] and words[5] == ["abaab", "abccc"]

    def test_random_dfas_match_the_reference(self):
        rng = random.Random(12)
        ab = Alphabet("abc")
        for _ in range(300):
            ids = rng.sample(range(-50, 400), rng.randint(1, 9))
            edges = {
                (p, s, rng.choice(ids)) for p in ids for s in ab.symbols if rng.random() < 0.6
            }
            accepting = set(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
            machine = LabeledAutomaton(ab, ids, rng.choice(ids), accepting, edges)
            top = rng.randint(0, 7)
            assert language_upto(machine, top) == levels_by_rank(ab, prefix_language_upto(machine, top))


def _rebuilt(machine):
    """The same machine through the public constructor, which reads its
    table off the edges."""
    return LabeledAutomaton(
        machine.alphabet, machine.states, machine.start, machine.accepting, machine.edges
    )


def _edge_json(machine):
    """The JSON of a machine with its edges sorted from the edge set, as
    `to_json` wrote it before machines kept a table."""
    rank = machine.alphabet.index
    return json.dumps(
        {
            "alphabet": machine.alphabet.to_text(),
            "states": list(machine.states),
            "start": machine.start,
            "accepting": sorted(machine.accepting),
            "edges": [
                [p, s, q] for p, s, q in sorted(machine.edges, key=lambda e: (e[0], rank(e[1]), e[2]))
            ],
        },
        indent=2,
    )


class TestTransitionTable:
    """A DFA keeps one transition table; a machine born from the subset
    construction must behave exactly as the same machine built from its
    edges, and every reader of the table must agree with the edge set."""

    @staticmethod
    def assert_same(born, rebuilt, top):
        assert born == rebuilt and rebuilt == born
        assert hash(born) == hash(rebuilt)
        assert born.is_deterministic and rebuilt.is_deterministic
        assert born.to_json() == rebuilt.to_json() == _edge_json(rebuilt)
        assert LabeledAutomaton.from_json(born.to_json()) == born
        assert born.to_dot() == rebuilt.to_dot()
        assert repr(born) == repr(rebuilt)
        words = [w for n in range(5) for w in born.alphabet.words_of_length(n)]
        assert [born.accepts(w) for w in words] == [rebuilt.accepts(w) for w in words]
        assert born.minimized() == rebuilt.minimized()
        assert born.trimmed() == rebuilt.trimmed()
        assert born.is_trim() == rebuilt.is_trim()
        assert born.trimmed().states == rebuilt.trimmed().states
        assert np.array_equal(transfer_matrix(born), transfer_matrix(rebuilt))
        assert accepted_counts(born, top) == accepted_counts(rebuilt, top)
        assert language_upto(born, top) == language_upto(rebuilt, top)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep(self, kmax):
        for pattern in canonical_patterns(5):
            system = DuplicationSystem.parse("0123", pattern, kmax)
            for minimize in (False, True):
                machine = build_automaton(system, minimize=minimize)
                self.assert_same(machine, _rebuilt(machine), len(pattern) + 2)

    def test_random_dfas_with_sparse_and_negative_ids(self):
        rng = random.Random(14)
        ab = Alphabet("abc")
        for _ in range(300):
            ids = rng.sample(range(-50, 400), rng.randint(1, 8))
            edges = {
                (p, s, rng.choice(ids)) for p in ids for s in ab.symbols if rng.random() < 0.6
            }
            accepting = set(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
            machine = LabeledAutomaton(ab, ids, rng.choice(ids), accepting, edges)
            # the public machine's table against references read off its edges
            assert machine.to_json() == _edge_json(machine)
            assert LabeledAutomaton.from_json(machine.to_json()) == machine
            assert machine.minimized() == moore_minimized(machine)
            assert transfer_matrix(machine).tolist() == edge_count_matrix(machine.trimmed())
            counts = accepted_counts(machine, 5)
            assert counts == [len(accepted_by_scan(machine, "abc", n)) for n in range(6)]
            assert language_upto(machine, 5) == levels_by_rank(ab, prefix_language_upto(machine, 5))
            # and every machine the subset construction gives it
            for born in (machine.determinized(), machine.trimmed(), machine.minimized()):
                self.assert_same(born, _rebuilt(born), 5)

    @pytest.mark.parametrize("text,foreign", [("abc", "z"), ("2,10,1", "3")])
    def test_accepts_walks_the_table(self, text, foreign):
        """A DFA's `accepts` walks its table; the reference walks sets of
        states on the edge set, over the alphabet and one symbol outside
        it."""
        rng = random.Random(17)
        ab = Alphabet.parse(text)
        symbols = list(ab.symbols) + [foreign]
        words = [w for n in range(5) for w in itertools.product(symbols, repeat=n)]
        for _ in range(100):
            ids = rng.sample(range(-50, 400), rng.randint(1, 6))
            edges = {
                (p, s, rng.choice(ids)) for p in ids for s in ab.symbols if rng.random() < 0.7
            }
            accepting = set(rng.sample(ids, rng.randint(0, len(ids))))
            machine = LabeledAutomaton(ab, ids, rng.choice(ids), accepting, edges)
            assert machine.is_deterministic
            succ = successors(machine.edges)
            for word in words:
                current = {machine.start}
                for s in word:
                    current = {q for p in current for q in succ[p][s]}
                assert machine.accepts(word) == bool(current & machine.accepting), word

    def test_nondeterministic_machines_keep_their_edges(self):
        ab = Alphabet("ab")
        edges = {(5, "a", -1), (5, "a", 5), (-1, "b", 5), (5, "b", 9)}
        nfa = LabeledAutomaton(ab, {-1, 5, 9}, 5, {9}, edges)
        assert not nfa.is_deterministic
        assert nfa.edges == edges
        assert nfa.to_json() == _edge_json(nfa)
        assert LabeledAutomaton.from_json(nfa.to_json()) == nfa
        dfa = nfa.determinized()
        assert dfa.accepts("ab") and dfa.accepts("aab") and not dfa.accepts("a")
        assert _language_set(dfa, 4) == {
            n: accepted_by_scan(nfa, "ab", n) for n in range(5) if accepted_by_scan(nfa, "ab", n)
        }


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Name(str):
    pass


class _Row(list):
    pass


class TestJsonText:
    """`_json_text` must write `json.dumps(doc, indent=2)` byte for byte for
    documents of dicts with str keys, lists, tuples and scalars of exactly
    the types str, int, float, bool and None, and refuse everything else."""

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            (),
            [[]],
            [{}],
            {"a": {}, "b": [], "c": [[], {}]},
            (1, 2),
            ("x", (3, ("y",))),
            "plain",
            "é ü \u00ff \u2603 \U0001f600",
            ["tab\t", "newline\n", 'quote"', "back\\slash", "nul\x00", "bell\x07", "\u007f"],
            -0.0,
            [0.0, -0.0, 1e-7, 1e16, 1.5, -2.25, 1e308, 5e-324, 0.1 + 0.2],
            [True, False, None],
            True,
            None,
            [1, True, 0, False],
            [2**70, -(2**70), 0, -1],
            [[0, "a", 1], [1, "b", 0]],
            # lists of flat rows, which are written a row at a time
            [(0, "a", 1), [1, "b", 0], (2, "c", 2)],
            [[1.5, 0.5, None], [-0.0, 1e16, True], [2**70, -1, False]],
            [[0, "a"], [1, 2.5], [None, "b"]],
            [[0, "a", 1], []],
            [[], []],
            [[0, "a", 1], [1, "b"]],
            [[0, [1]], [2, 3]],
            [[0, "a"], {"k": 1}],
            [[0, "a"], "b"],
            {"edges": [[0, "a", 1], [1, "b", 0]], "states": [0, 1]},
            [1, "mixed", 2.0, None, True, [3], {"k": ()}],
            {"outer": {"inner": {"deep": [1, [2, [3, []]]]}}},
        ],
        ids=repr,
    )
    def test_matches_json_dumps(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [
            object(),
            [np.int64(3)],
            {"set": {1, 2}},
            [b"bytes"],
            [[1, 2], [np.int64(3), 4]],
        ],
        # a bare object's repr carries its address, which would change the
        # test's name from run to run
        ids=lambda doc: "object()" if type(doc) is object else repr(doc),
    )
    def test_refuses_what_json_dumps_refuses(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as got:
            _json_text(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "doc, kind",
        [
            ([_Level.LOW, _Level.HIGH, 3], "_Level"),
            (_Level.HIGH, "_Level"),
            ([_Name("sub"), "str"], "_Name"),
            ({"key": _Name("value")}, "_Name"),
            ([[_Level.LOW, 1], [2, _Level.HIGH]], "_Level"),
            ([[_Name("x"), "y"], ["z", _Name("w")]], "_Name"),
            ([_Row([1, 2]), [3, 4]], "_Row"),
            ([np.float64(0.1), np.float64(-0.0), np.float64("inf")], "float64"),
        ],
        ids=repr,
    )
    def test_refuses_subclasses_and_numpy_scalars(self, doc, kind):
        # json.dumps writes these through isinstance; no document holds one
        with pytest.raises(TypeError, match=f"^Object of type {kind} is not JSON serializable$"):
            _json_text(doc)

    @pytest.mark.parametrize(
        "key",
        [1, 2.5, True, False, None, _Level.HIGH, np.float64(1.5), -0.0, float("nan"), _Name("key"), (1, 2)],
        ids=repr,
    )
    def test_refuses_keys_other_than_str(self, key):
        with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
            _json_text({"first": 1, key: "value"})

    @pytest.mark.parametrize(
        "doc",
        [
            float("nan"),
            [float("nan"), float("inf"), float("-inf")],
            {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")},
            [[1.5, float("nan"), None], [-0.0, 1e16, True], [2**70, -1, False]],
            [[0, "a"], [1, float("-inf")]],
        ],
        ids=repr,
    )
    def test_refuses_non_finite_floats(self, doc):
        with pytest.raises(ValueError) as want:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            _json_text(doc)
        assert str(got.value) == str(want.value)


def test_canonical_machines_keep_their_json_digest():
    # every machine of the k <= 3 pipeline on the canonical seeds, as JSON,
    # pinned byte for byte: a rewrite of the construction must not move
    # one state number
    digest = hashlib.sha256()
    machines = 0
    for pattern in canonical_patterns(6):
        for kmax in (1, 2, 3):
            for minimize in (False, True):
                sys = DuplicationSystem.parse("0123", pattern, kmax)
                digest.update((build_automaton(sys, minimize=minimize).to_json() + "\n").encode())
                machines += 1
    assert machines == 1566
    assert digest.hexdigest() == "470b46faf8050c33c69bd3942dac60aae388bfd68367838c1c7b7cdf78c76ec0"
