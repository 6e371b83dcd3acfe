import itertools
import json
import random

import numpy as np
import pytest

from tandemdup import (
    Alphabet,
    DuplicationSystem,
    LabeledAutomaton,
    NondeterministicAutomatonError,
    UnsupportedDuplicationLength,
    VERDICT_FAIL,
    VERDICT_LABEL_SETS,
    VERDICT_SUPERSTATE,
    build_automaton,
    count_accepted,
    count_words,
    language_upto,
    regex_to_nfa,
    right_language_subset,
    seed_regex,
    transfer_matrix,
    verify_duplication_closure,
)
from tandemdup import automaton as automaton_module
from tandemdup.automaton import accepted_counts, alt, cat, plus, star, sym
from helpers import (
    accepted_by_scan,
    canonical_patterns,
    moore_minimized,
    naive_closure,
    path_table_certificate,
)


def _language_set(machine, max_length):
    lang = language_upto(machine, max_length)
    return {n: set(ws) for n, ws in lang.items() if ws}


class TestRegexPieces:
    def test_plus_of_symbol(self):
        nfa = regex_to_nfa(plus(sym("a")), Alphabet("a"))
        m = nfa.determinized().trimmed()
        assert m.accepts("a") and m.accepts("aaa")
        assert not m.accepts("")

    def test_alternation_and_star(self):
        rx = cat(sym("a"), star(alt(sym("b"), sym("c"))))
        m = regex_to_nfa(rx, Alphabet("abc")).determinized().trimmed()
        for w in ["a", "ab", "acb", "abcbc"]:
            assert m.accepts(w)
        for w in ["", "b", "ba", "aa"]:
            assert not m.accepts(w)

    def test_seed_regex_rejects_large_blocks(self):
        with pytest.raises(UnsupportedDuplicationLength):
            seed_regex(("0", "1"), 4)

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


def test_counting_rejects_nondeterminism():
    nfa = LabeledAutomaton(
        Alphabet("a"), {0, 1}, 0, {1}, {(0, "a", 0), (0, "a", 1)}
    )
    with pytest.raises(NondeterministicAutomatonError):
        count_accepted(nfa, 3)
    with pytest.raises(NondeterministicAutomatonError):
        accepted_counts(nfa, 3)
    with pytest.raises(NondeterministicAutomatonError):
        language_upto(nfa, 3)
    with pytest.raises(NondeterministicAutomatonError):
        nfa.minimized()


class TestMachineBasics:
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
    tm = transfer_matrix(ternary_automaton)
    n = len(tm.states)
    assert tm.matrix.shape == (n, n)
    assert tm.matrix.dtype == np.int64
    assert int(tm.matrix.sum()) == len(ternary_automaton.edges)
    # row sums never exceed the alphabet size on a deterministic machine
    assert tm.matrix.sum(axis=1).max() <= 3


class TestRightLanguageOrder:
    def test_reflexive(self, ternary_automaton):
        for q in ternary_automaton.states:
            assert right_language_subset(ternary_automaton, q, q)

    def test_claimed_inclusions_hold_on_bounded_languages(self, ternary_automaton):
        a = ternary_automaton
        suffixes = {}
        for q in a.states:
            from_q = LabeledAutomaton(a.alphabet, a.states, q, a.accepting, a.edges)
            lang = language_upto(from_q, 8)
            suffixes[q] = set().union(*lang.values()) if lang else set()
        for u in a.states:
            for v in a.states:
                if right_language_subset(a, u, v):
                    assert suffixes[u] <= suffixes[v], (u, v)

    def test_accepting_not_below_start(self, ternary_automaton):
        # the accepting side holds the empty word, the start does not
        a = ternary_automaton
        q = a.state_after("012")
        assert not right_language_subset(a, q, a.start)


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
            assert not cert.counterexamples()

    def test_ternary_certificate_needs_superstate_fallbacks(self, ternary_automaton):
        cert = verify_duplication_closure(ternary_automaton, 3)
        falls = cert.fallbacks(path_length=3)
        assert falls
        assert all(c.verdict == VERDICT_SUPERSTATE for c in falls)
        labels = {lbl for c in falls for lbl in c.fallback_labels}
        assert "012" in labels

    def test_certificate_json_shape(self, binary_automaton):
        doc = verify_duplication_closure(binary_automaton, 2).to_json_dict()
        assert doc["passed"] is True
        assert doc["kmax"] == 2
        assert all({"state", "pathLength", "verdict"} <= set(c) for c in doc["checks"])

    def test_requires_trim_input(self):
        m = LabeledAutomaton(
            Alphabet("a"), {0, 1, 2}, 0, {1}, {(0, "a", 1), (2, "a", 1)}
        )
        with pytest.raises(ValueError):
            verify_duplication_closure(m, 1)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_arrival_sets_match_the_path_table(self, kmax):
        for pattern in canonical_patterns(5):
            alphabet = "0123"[: int(max(pattern)) + 1]
            sys = DuplicationSystem.parse(alphabet, pattern, kmax)
            for machine in (build_automaton(sys), build_automaton(sys, minimize=True)):
                got = verify_duplication_closure(machine, kmax).to_json_dict()
                assert got == path_table_certificate(machine, kmax).to_json_dict(), (
                    pattern,
                    kmax,
                    len(machine.states),
                )

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
                cert = verify_duplication_closure(machine, kmax)
                assert cert.to_json_dict() == path_table_certificate(machine, kmax).to_json_dict()
                verdicts |= {c.verdict for c in cert.checks}
        assert verdicts == {VERDICT_LABEL_SETS, VERDICT_SUPERSTATE, VERDICT_FAIL}

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep(self, kmax):
        for pattern in canonical_patterns(4, max_symbols=3):
            sys = DuplicationSystem.parse("012", pattern, kmax)
            machine = build_automaton(sys)
            assert verify_duplication_closure(machine, kmax).passed, (pattern, kmax)


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
            assert words[n] == accepted_by_scan(m, "ab", n)

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
