import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tandemdup
from tandemdup import (
    Alphabet,
    BudgetExceededError,
    DuplicationSystem,
    build_automaton,
    check_coverage,
    count_words,
    dedup_distance,
    dedup_roots,
    derives_from,
    enumerate_words,
    language_upto,
    tandem_duplicate,
    thue_square_free,
    verify_witness_absent,
)
from tandemdup.enumeration import _Packing, _Peeling, greedy_root, length_range
from helpers import (
    breadth_first_dedup_distance,
    canonical_patterns,
    collapse,
    kept_by_deduplication,
    levels_by_rank,
    naive_closure,
    prefix_language_upto,
    rank_sorted,
    set_levels,
    square_locations,
    string_dedup_distance,
    string_dedup_roots,
    string_derives_from,
    string_first_square_root,
)


@pytest.mark.parametrize(
    "alphabet,seed,kmax,max_length",
    [
        ("01", "01", 2, 10),
        ("012", "012", 3, 9),
        ("012", "0112", 3, 9),
        ("0123", "0123", 2, 8),
        ("01", "01", 1, 10),
    ],
)
def test_enumeration_matches_fixed_point_closure(alphabet, seed, kmax, max_length):
    sys = DuplicationSystem.parse(alphabet, seed, kmax)
    got = enumerate_words(sys, max_length).by_length
    want = naive_closure(seed, kmax, max_length)
    assert got == levels_by_rank(sys.alphabet, want, tuple)


def test_binary_slice_small_lengths(binary_system):
    by_length = enumerate_words(binary_system, 4).by_length
    assert by_length[2] == ("01",)
    assert by_length[3] == ("001", "011")
    assert by_length[4] == ("0001", "0011", "0101", "0111")


class TestAlphabetOrder:
    """Both engines list each length's words once each, in alphabet order:
    lexicographic by symbol rank, which is not text order on every
    alphabet."""

    @staticmethod
    def assert_in_alphabet_order(alphabet, levels):
        for ws in levels.values():
            # a set drops repeats, so equal lengths mean there were none
            assert list(ws) == rank_sorted(alphabet, set(ws))

    @pytest.mark.parametrize("kmax", [2, 3, 4])
    def test_ranks_against_text_order(self, kmax):
        # 2 ranks first over 210, so rank order is the reverse of text order
        system = DuplicationSystem.parse("210", "20", kmax)
        piece = enumerate_words(system, 6)
        by_length = piece.by_length
        assert by_length[3] == ("220", "200")
        self.assert_in_alphabet_order(system.alphabet, by_length)
        # the document sorts them as text
        assert piece.to_json_dict()["words"]["3"] == ["200", "220"]
        if kmax <= 3:
            words = language_upto(build_automaton(system, minimize=True), 6)
            assert words[3] == ["220", "200"]
            assert words == {n: list(by_length.get(n, ())) for n in range(7)}

    @pytest.mark.parametrize("kmax", [2, 3, 4])
    def test_multi_character_symbols(self, kmax):
        system = DuplicationSystem.parse("a,bb,c", "c,a,bb", kmax)
        by_length = enumerate_words(system, 7).by_length
        assert all(isinstance(w, tuple) for ws in by_length.values() for w in ws)
        self.assert_in_alphabet_order(system.alphabet, by_length)
        if kmax <= 3:
            words = language_upto(build_automaton(system, minimize=True), 7)
            assert words == {n: list(by_length.get(n, ())) for n in range(8)}


def test_binary_counts_double(binary_system):
    counts = count_words(binary_system, 12).counts
    assert counts == {n: 2 ** (n - 2) for n in range(2, 13)}


def test_ternary_counts_table(ternary_system):
    counts = count_words(ternary_system, 10).counts
    assert counts == {3: 1, 4: 3, 5: 8, 6: 21, 7: 54, 8: 138, 9: 353, 10: 906}


def test_counts_agree_with_slice_sizes(ternary_system):
    sl = enumerate_words(ternary_system, 8)
    assert sl.counts() == count_words(ternary_system, 8)
    for n, ws in sl.by_length.items():
        assert all(len(w) == n for w in ws)


def test_budget_is_enforced(ternary_system):
    with pytest.raises(BudgetExceededError) as err:
        enumerate_words(ternary_system, 8, budget=10)
    assert err.value.limit == 10
    assert err.value.depth_reached == 4
    assert "budget" in str(err.value)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_bad_input(ternary_system, budget):
    searches = [
        lambda: count_words(ternary_system, 5, budget),
        lambda: enumerate_words(ternary_system, 5, budget),
        lambda: check_coverage(ternary_system, 2, 5, budget),
        # the seed itself and a word too short to search: no search runs
        lambda: derives_from(ternary_system, "012", budget),
        lambda: derives_from(ternary_system, "0", budget),
        lambda: dedup_roots("012", 3, budget),
        lambda: dedup_distance("0121", "0121", 3, budget),
    ]
    for search in searches:
        with pytest.raises(ValueError, match="budget must be at least 1"):
            search()


@pytest.mark.parametrize("kmax", [0, -1])
def test_dedup_kmax_below_one_is_bad_input(kmax):
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        dedup_roots("0121", kmax)
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        dedup_distance("0121", "01", kmax)
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        greedy_root("0121", kmax)


def test_reverse_searches_report_no_level_progress(ternary_system):
    # these searches build no levels, so the error names no complete length
    word = "011212012012001122"
    searches = [
        lambda: derives_from(ternary_system, word, 5),
        lambda: dedup_roots(word, 3, 5),
        lambda: dedup_distance(word, "012", 3, 5),
    ]
    for search in searches:
        with pytest.raises(BudgetExceededError) as err:
            search()
        assert err.value.limit == 5
        assert err.value.depth_reached is None
        assert str(err.value) == "word budget of 5 exceeded"


def test_language_grows_with_kmax():
    slices = {}
    for k in (1, 2, 3):
        sys = DuplicationSystem.parse("012", "012", k)
        slices[k] = enumerate_words(sys, 8).by_length
        assert slices[k] == levels_by_rank(sys.alphabet, naive_closure("012", k, 8), tuple)
    for n in range(3, 9):
        assert set(slices[1].get(n, ())) <= set(slices[2].get(n, ()))
        assert set(slices[2].get(n, ())) <= set(slices[3].get(n, ()))


def test_slice_is_closed_under_bounded_duplication(ternary_system):
    sl = enumerate_words(ternary_system, 8)
    seen = set().union(*sl.by_length.values())
    for w in seen:
        for k in range(1, 4):
            for i in range(0, len(w) - k + 1):
                child = tandem_duplicate(w, i, k)
                if len(child) <= 8:
                    assert child in seen


def test_slice_json_shapes(binary_system):
    sl = enumerate_words(binary_system, 4)
    bare = sl.counts().to_json_dict()
    assert set(bare) == {"system", "maxLength", "counts"}
    rich = sl.to_json_dict()
    assert sorted(rich["words"]["4"]) == ["0001", "0011", "0101", "0111"]


class TestMembership:
    def test_every_enumerated_word_is_a_member(self, ternary_system):
        sl = enumerate_words(ternary_system, 7)
        for ws in sl.by_length.values():
            for w in ws:
                assert derives_from(ternary_system, w)

    @pytest.mark.parametrize("word", ["00000", "0102", "210", "2", "0121021"])
    def test_non_members(self, word, ternary_system):
        assert not derives_from(ternary_system, word)

    def test_seed_is_a_member(self, ternary_system):
        assert derives_from(ternary_system, "012")

    def test_rejects_foreign_symbols(self, ternary_system):
        with pytest.raises(ValueError):
            derives_from(ternary_system, "013")


class TestSubstringProfile:
    def test_ternary_misses_three_windows(self, ternary_system):
        missing = check_coverage(ternary_system, 3, 12)
        assert missing == _set_loop_missing(ternary_system, 3, 12, 10**7)
        assert missing == {"021", "102", "210"}

    def test_profile_monotone_in_depth(self, ternary_system):
        shallow = check_coverage(ternary_system, 3, 6)
        deep = check_coverage(ternary_system, 3, 10)
        assert shallow >= deep

    def test_binary_sees_everything_quickly(self, binary_system):
        assert check_coverage(binary_system, 2, 6) == set()

    @pytest.mark.parametrize("length", [0, -1])
    def test_length_below_one_is_bad_input(self, binary_system, length):
        with pytest.raises(ValueError, match="substring length must be positive"):
            check_coverage(binary_system, length, 6)


class TestDedup:
    def test_roots_example(self):
        res = dedup_roots("012101212", 4)
        assert res.roots == {"012", "0121012"}
        assert not any(square_locations(r, 4) for r in res.roots)

    def test_roots_depend_on_kmax(self):
        assert dedup_roots("012101212", 2).roots == {"0121012"}

    def test_distance_example(self):
        assert dedup_distance("012101212", "012", 4) == 2
        assert dedup_distance("012101212", "012", 2) is None

    @pytest.mark.parametrize(
        "word,via", [("0110011", ("011011", "011")), ("0011001", ("001001", "001"))]
    )
    def test_distance_reopens_a_word_reached_by_a_shorter_path(self, word, via):
        # three steps, through the two words of `via`.  A best-first search
        # that keeps the first step count it finds for a word answers 4 on
        # one of the two, which one depending on the order it visits
        # children in; this search's order would fail on 0011001
        assert dedup_distance(word, "01", 3) == 3
        assert dedup_distance(word, via[0], 3) == 1
        assert dedup_distance(via[0], via[1], 3) == 1
        assert dedup_distance(via[1], "01", 3) == 1

    def test_distance_zero_to_self(self):
        assert dedup_distance("0101", "0101", 2) == 0

    def test_distance_lower_bound(self):
        # each step removes at most kmax symbols
        for word, target, k in [("012101212", "012", 4), ("00110011", "01", 2)]:
            d = dedup_distance(word, target, k)
            if d is not None:
                assert d >= math.ceil((len(word) - len(target)) / k)

    def test_greedy_root_is_the_only_root_up_to_kmax_three(self):
        # roots are unique for kmax <= 3, so deleting the first square until
        # none is left must land on the one root the full search finds
        rng = random.Random(2017)
        for _ in range(1500):
            kmax = rng.randint(1, 3)
            alphabet = "0123"[: rng.randint(2, 4)]
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 16)))
            assert dedup_roots(word, kmax).roots == {greedy_root(word, kmax)}, (word, kmax)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_greedy_root_on_long_words(self, kmax):
        # deleting the first square of the word as it stands, with no run
        # cut first, lands on the same one root
        rng = random.Random(kmax)
        for letters in ("01", "012", "0123"):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(200, 1000)))
            assert greedy_root(word, kmax) == string_first_square_root(word, kmax), word
        symbols = Alphabet.parse("2,10,1").symbols
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(200, 1000)))
        root = greedy_root(word, kmax)
        assert isinstance(root, tuple)
        assert root == string_first_square_root(word, kmax), word

    def test_greedy_root_is_one_of_several_roots_beyond(self):
        roots = dedup_roots("012101212", 4).roots
        assert len(roots) == 2
        assert greedy_root("012101212", 4) in roots
        # the one-pass root is a root at every kmax, and over every alphabet
        rng = random.Random(4)
        for _ in range(400):
            kmax = rng.randint(4, 6)
            alphabet = "0123"[: rng.randint(2, 4)]
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 16)))
            assert greedy_root(word, kmax) in _full_roots(word, kmax), (word, kmax)

    def test_target_longer_than_word_is_an_error(self):
        with pytest.raises(ValueError):
            dedup_distance("01", "0101", 2)


def _gap_property_holds(seed, word, kmax):
    """Last occurrence of seed[i] sits at least kmax-1 symbols before the
    first occurrence of seed[i+kmax]."""
    for i in range(len(seed) - kmax):
        a, b = seed[i], seed[i + kmax]
        last_a = max(j for j, c in enumerate(word) if c == a)
        first_b = min(j for j, c in enumerate(word) if c == b)
        if not (last_a < first_b and first_b - last_a - 1 >= kmax - 1):
            return False
    return True


def test_gap_between_separated_seed_symbols():
    rng = random.Random(90125)
    for _ in range(200):
        m = rng.randint(2, 6)
        kmax = rng.randint(1, 3)
        seed = "012345"[:m]
        word = seed
        for _ in range(rng.randint(0, 20)):
            k = rng.randint(1, min(kmax, len(word)))
            i = rng.randint(0, len(word) - k)
            word = tandem_duplicate(word, i, k)
        assert _gap_property_holds(seed, word, kmax), (seed, kmax, word)


def test_count_bound_when_a_window_is_missing(ternary_system):
    # 01210 never shows up, so each 5-block has at most 3^5 - 1 choices
    counts = count_words(ternary_system, 12).counts
    sl = enumerate_words(ternary_system, 12)
    assert all("01210" not in w for ws in sl.by_length.values() for w in ws)
    m = 5
    for n, c in counts.items():
        q, r = divmod(n, m)
        assert c <= (3**m - 1) ** q * 3**r


# ---------------------------------------------------------------------------
# the packed level loop against the set loop it replaced (`set_levels`)


def _factors(by_length, m):
    return {
        w[i : i + m] for ws in by_length.values() for w in ws for i in range(len(w) - m + 1)
    }


def _outcome(search):
    """A search's answer, or the limit, depth and message of its budget error."""
    try:
        return search()
    except BudgetExceededError as err:
        return err.limit, err.depth_reached, str(err)


def _set_loop_counts(system, top, budget):
    return {n: len(ws) for n, ws in set_levels(system, top, budget)}


def _all_words(system, m):
    """Every length-m word over the system's alphabet, as its seed is typed."""
    join = "".join if isinstance(system.seed, str) else tuple
    return {join(t) for t in itertools.product(system.alphabet.symbols, repeat=m)}


def _set_loop_missing(system, m, top, budget):
    """`check_coverage` on the set loop, with the same early stops."""
    full = len(system.alphabet) ** m
    found = set()
    for n, words in set_levels(system, top, budget):
        if len(found) == full:
            break
        if n < m:
            continue
        found |= _factors({n: words}, m)
        if len(found) == full:
            break
    return _all_words(system, m) - found


def _set_loop_absent(system, word, top, budget):
    """`verify_witness_absent` on the set loop, with the same early return."""
    if len(word) > top:
        return True
    for n, words in set_levels(system, top, budget):
        if n >= len(word) and word in _factors({n: words}, len(word)):
            return False
    return True


def _block_totals(system, top):
    """The level loop's word count after each (level, block length) pair,
    in loop order, on sets of words; the seed alone comes first."""
    seed = system.seed
    pending = {len(seed): {seed}}
    totals = [1]
    for n in length_range(system, top):
        words = pending.pop(n, set())
        for k in range(1, min(system.kmax, top - n, n) + 1):
            target = pending.setdefault(n + k, set())
            before = len(target)
            target.update(w[: i + k] + w[i:] for w in words for i in range(n - k + 1))
            totals.append(totals[-1] + len(target) - before)
    return totals


def _agrees_with_the_set_loop(system, top, words_to_find):
    want = {n: set(ws) for n, ws in set_levels(system, top, 10**7)}
    got = enumerate_words(system, top).by_length
    assert got == levels_by_rank(system.alphabet, want, tuple)
    assert count_words(system, top).counts == {n: len(ws) for n, ws in want.items()}
    for m in (1, 2, 3):
        assert check_coverage(system, m, top) == _all_words(system, m) - _factors(want, m), m
    for word in words_to_find:
        absent = word not in _factors(want, len(word))
        assert verify_witness_absent(system, word, top) == absent, word
    return want


class TestPackedLevels:
    @pytest.mark.parametrize("kmax", [1, 2, 3, 4, 5])
    def test_canonical_seed_sweep(self, kmax):
        # max length |seed| + kmax, so that every block length up to kmax
        # is duplicated; one present and one random word are searched
        rng = random.Random(kmax)
        for pattern in canonical_patterns(5):
            alphabet = "".join(sorted(set(pattern)))
            system = DuplicationSystem.parse(alphabet, pattern, kmax)
            top = len(pattern) + kmax
            longest = sorted(enumerate_words(system, top).by_length[top])
            member = rng.choice(longest)
            i = rng.randrange(len(member))
            present = member[i : i + rng.randint(1, 4)]
            other = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 5)))
            want = _agrees_with_the_set_loop(system, top, [present, other])
            assert want == naive_closure(pattern, kmax, top), pattern

    @pytest.mark.parametrize(
        "alphabet,seed,kmax,top",
        [("01", "01", 2, 7), ("012", "012", 4, 8), ("0123", "0120", 3, 7), ("012", "0", 5, 6)],
    )
    def test_budget_sweep(self, alphabet, seed, kmax, top):
        system = DuplicationSystem.parse(alphabet, seed, kmax)
        total = sum(_set_loop_counts(system, top, 10**7).values())
        present = seed[-1] + seed[0]
        for budget in range(1, total + 2):
            assert _outcome(lambda: count_words(system, top, budget).counts) == _outcome(
                lambda: _set_loop_counts(system, top, budget)
            ), budget
            for m in (1, 2):
                assert _outcome(
                    lambda: check_coverage(system, m, top, budget)
                ) == _outcome(lambda: _set_loop_missing(system, m, top, budget)), (budget, m)
            for word in (present, alphabet[::-1]):
                assert _outcome(
                    lambda: verify_witness_absent(system, word, top, budget)
                ) == _outcome(lambda: _set_loop_absent(system, word, top, budget)), (budget, word)

    def test_budget_at_every_block_total(self):
        # levels large enough that the loop merges inside block lengths
        # too (27 merges for 18 (level, block length) pairs); budgets at
        # each pair's cumulative total and next to it, where the first
        # level to overrun the budget changes, plus a stride
        system = DuplicationSystem.parse("0123", "0123", 4)
        top = 10
        totals = _block_totals(system, top)
        budgets = {t + d for t in totals for d in (-1, 0, 1) if t + d >= 1}
        budgets |= set(range(1, totals[-1] + 2, 37))
        for budget in sorted(budgets):
            assert _outcome(lambda: count_words(system, top, budget).counts) == _outcome(
                lambda: _set_loop_counts(system, top, budget)
            ), budget
            for m in (1, 2):
                assert _outcome(
                    lambda: check_coverage(system, m, top, budget)
                ) == _outcome(lambda: _set_loop_missing(system, m, top, budget)), (budget, m)
            for word in ("30", "3210"):
                assert _outcome(
                    lambda: verify_witness_absent(system, word, top, budget)
                ) == _outcome(lambda: _set_loop_absent(system, word, top, budget)), (budget, word)

    @pytest.mark.parametrize(
        "alphabet,seed_length,kmax,top,width",
        [
            ("012", 29, 3, 31, 62),
            ("012", 30, 2, 32, 64),
            ("012", 30, 1, 33, 66),
            ("01", 62, 2, 64, 64),
            ("01", 63, 1, 65, 65),
        ],
    )
    def test_both_sides_of_the_64_bit_width(self, alphabet, seed_length, kmax, top, width):
        packing = _Packing(Alphabet(alphabet), top)
        assert top * packing.bits == width
        assert packing.dtype == (object if width > 64 else np.uint64)
        if alphabet == "012":
            seed = thue_square_free(seed_length)
        else:
            seed = ("01" * 40)[:seed_length]
        system = DuplicationSystem.parse(alphabet, seed, kmax)
        tail = seed[-5:] + seed[-1]
        want = _agrees_with_the_set_loop(system, top, [seed, tail, seed[:3] + seed[:3]])
        assert len(want[top]) > 1

    @pytest.mark.parametrize(
        "alphabet,seed_length,kmax,top,width",
        [
            ("01", 30, 2, 32, 32),
            ("01", 31, 2, 33, 33),
            ("012", 13, 2, 15, 30),
            ("012", 14, 2, 16, 32),
            ("012", 15, 2, 17, 34),
            ("0123", 12, 3, 15, 30),
            ("0123", 13, 3, 16, 32),
            ("0123", 14, 3, 17, 34),
        ],
    )
    def test_both_sides_of_the_32_bit_width(self, alphabet, seed_length, kmax, top, width):
        packing = _Packing(Alphabet(alphabet), top)
        assert top * packing.bits == width
        assert packing.dtype == (np.uint32 if width <= 32 else np.uint64)
        if alphabet == "01":
            seed = ("01" * 40)[:seed_length]
        elif alphabet == "012":
            seed = thue_square_free(seed_length)
        else:
            # square-free, with every symbol of 0123
            seed = thue_square_free(seed_length - 1) + "3"
        system = DuplicationSystem.parse(alphabet, seed, kmax)
        tail = seed[-5:] + seed[-1]
        want = _agrees_with_the_set_loop(system, top, [seed, tail, seed[:3] + seed[:3]])
        assert len(want[top]) > 1
        if alphabet == "0123":
            # the k <= 3 machine's words, packed by the same rule
            machine = build_automaton(system, minimize=True)
            words = language_upto(machine, top)
            assert words == levels_by_rank(machine.alphabet, prefix_language_upto(machine, top))
            assert words[top] == rank_sorted(system.alphabet, want[top])

    def test_comma_separated_symbols(self):
        system = DuplicationSystem.parse("a,bb,ccc", "a,bb,ccc,a", 3)
        words = [("bb", "a"), ("a", "a", "a"), ("ccc", "bb", "ccc"), ("a", "ccc")]
        want = _agrees_with_the_set_loop(system, 8, words)
        assert want == naive_closure(system.seed, 3, 8)
        assert all(isinstance(w, tuple) for ws in want.values() for w in ws)


# ---------------------------------------------------------------------------
# the packed reverse searches against the string searches they replaced


def _agree_with_the_string_searches(alphabet, word, kmax, others, budget=10**7):
    """`dedup_roots` of the word, and `dedup_distance` to each other word and
    `derives_from` with it as the seed, give the string searches' answers
    or budget errors.

    Each packed search spends its budget as its string reference does:
    `dedup_roots`, and `derives_from` from a run-free seed, on run-free
    words, and `dedup_distance` best first.  Their answers are those of
    the full searches, which visit every descendant breadth or depth
    first."""
    roots = _outcome(lambda: dedup_roots(word, kmax, budget).roots)
    assert roots == _outcome(
        lambda: string_dedup_roots(word, kmax, budget, collapsed=True)
    ), (word, kmax, budget)
    if not isinstance(roots, tuple):
        assert roots == _full_roots(word, kmax), (word, kmax, budget)
    for other in others:
        distance = _outcome(lambda: dedup_distance(word, other, kmax, budget))
        assert distance == _outcome(
            lambda: string_dedup_distance(word, other, kmax, budget)
        ), (word, other, kmax, budget)
        if not isinstance(distance, tuple):
            assert distance == breadth_first_dedup_distance(word, other, kmax, 10**7)
        system = DuplicationSystem(alphabet, other, kmax)
        member = _outcome(lambda: derives_from(system, word, budget))
        assert member == _outcome(
            lambda: string_derives_from(system, word, budget, collapsed=True)
        ), (word, other, kmax, budget)
        if not isinstance(member, tuple):
            assert member == string_derives_from(system, word, 10**7), (word, other, kmax)


@functools.lru_cache(maxsize=None)
def _full_roots(word, kmax):
    """The roots by the full string search, which visits every descendant."""
    return frozenset(string_dedup_roots(word, kmax, 10**7))


def _lemma_sweep():
    """(word, kmax) for every word over 01 up to length 10 and over 012 up
    to length 7, at kmax = 1..5."""
    for letters, top in (("01", 10), ("012", 7)):
        for n in range(top + 1):
            for symbols in itertools.product(letters, repeat=n):
                for kmax in range(1, 6):
                    yield "".join(symbols), kmax


def _distances(word, kmax):
    """The fewest deduplications from `word` to each word it reaches, itself
    included, by one breadth-first search."""
    steps = {word: 0}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for offset, length in square_locations(w, kmax):
                y = w[: offset + length] + w[offset + 2 * length :]
                if y not in steps:
                    steps[y] = steps[w] + 1
                    nxt.append(y)
        frontier = nxt
    return steps


def _grown(rng, word, kmax, extra):
    """The word after random duplications of at most kmax symbols, until it
    has grown by at least `extra` symbols."""
    while extra > 0:
        k = rng.randint(1, min(kmax, len(word)))
        i = rng.randint(0, len(word) - k)
        word = tandem_duplicate(word, i, k)
        extra -= k
    return word


class TestPackedPeeling:
    def test_random_words(self):
        rng = random.Random(8)
        for _ in range(600):
            kmax = rng.randint(1, 5)
            letters = "0123"[: rng.randint(1, 4)]
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 18)))
            root = rng.choice(sorted(string_dedup_roots(word, kmax, 10**7)))
            other = "".join(rng.choice(letters) for _ in range(rng.randint(1, len(word))))
            _agree_with_the_string_searches(Alphabet(letters), word, kmax, [root, other])

    @pytest.mark.parametrize("kmax", [1, 2, 3, 4, 5])
    def test_canonical_seed_members_and_mutants(self, kmax):
        rng = random.Random(kmax)
        for pattern in canonical_patterns(5):
            alphabet = Alphabet("".join(sorted(set(pattern))))
            member = _grown(rng, pattern, kmax, 8)
            i = rng.randrange(len(member))
            mutant = member[:i] + rng.choice(alphabet.symbols) + member[i + 1 :]
            for word in (member, mutant):
                _agree_with_the_string_searches(alphabet, word, kmax, [pattern])
            assert derives_from(DuplicationSystem(alphabet, pattern, kmax), member)

    def test_comma_separated_symbols(self):
        alphabet = Alphabet.parse("a,bb,ccc")
        rng = random.Random(3)
        for _ in range(60):
            kmax = rng.randint(1, 4)
            seed = tuple(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 4)))
            word = _grown(rng, seed, kmax, 8)
            _agree_with_the_string_searches(alphabet, word, kmax, [seed])
            assert all(isinstance(root, tuple) for root in dedup_roots(word, kmax).roots)

    @pytest.mark.parametrize(
        "word,bits", [("", 1), ("0000", 1), ("0101", 1), ("0212", 2), ("3120", 2), ("01234", 3)]
    )
    def test_symbol_width_and_leading_bit(self, word, bits):
        peeling = _Peeling(word, 2)
        assert peeling.bits == bits
        code = peeling.encode(word)
        assert code.bit_length() == bits * len(word) + 1
        assert peeling.decode(code) == word

    def test_codes_wider_than_64_bits(self):
        # 40 square-free ternary symbols take 80 bits; three spaced squares
        seed = thue_square_free(40)
        word = tandem_duplicate(tandem_duplicate(tandem_duplicate(seed, 30, 3), 17, 2), 2, 1)
        assert _Peeling(word, 3).encode(word).bit_length() == 2 * len(word) + 1 > 64
        _agree_with_the_string_searches(Alphabet("012"), word, 3, [seed, seed[:38]])
        assert dedup_roots(word, 3).roots == {seed}
        assert dedup_distance(word, seed, 3) == 3
        assert derives_from(DuplicationSystem.parse("012", seed, 3), word)

    @pytest.mark.parametrize(
        "alphabet,word,kmax,others",
        [
            ("012", "012101212", 4, ["012", "0121012"]),
            ("01", "0011001100", 2, ["010", "0100"]),
            ("01", "0001", 1, ["011", "01"]),
            ("01", "0011011", 3, ["011", "01"]),
            ("012", "22100220002110", 4, ["2210", "20"]),
            ("0123", "0123123312", 3, ["0123312", "012312"]),
            ("a,bb", ("a", "bb", "bb", "a", "bb", "a", "bb"), 3, [("a", "bb"), ("a", "bb", "a", "bb")]),
        ],
    )
    def test_budget_sweep(self, alphabet, word, kmax, others):
        alphabet = Alphabet.parse(alphabet)
        # up to one past the number of words deduplication reaches
        for budget in range(1, len(_distances(word, kmax)) + 2):
            _agree_with_the_string_searches(alphabet, word, kmax, others, budget)

    def test_a_run_never_changes_the_roots(self):
        # the lemma behind the run-free search, on the string oracle alone
        pairs = 0
        for word, kmax in _lemma_sweep():
            assert _full_roots(word, kmax) == _full_roots(collapse(word), kmax), (word, kmax)
            pairs += 1
        assert pairs == 26_635

    def test_a_run_never_changes_membership_of_a_run_free_seed(self):
        # the lemma behind the run-free `derives_from`, on the string oracle
        # alone: every word of the sweep that has a run, at kmax <= 4, with
        # every run-free seed of up to four symbols it could reach
        seeds = [
            "".join(symbols)
            for n in range(1, 5)
            for symbols in itertools.product("012", repeat=n)
            if collapse("".join(symbols)) == "".join(symbols)
        ]
        triples = 0
        for word, kmax in _lemma_sweep():
            if kmax > 4 or collapse(word) == word:
                continue
            for seed in seeds:
                if kept_by_deduplication(seed) != kept_by_deduplication(word):
                    continue
                system = DuplicationSystem(Alphabet("012"), seed, kmax)
                assert string_derives_from(system, word, 10**7) == string_derives_from(
                    system, collapse(word), 10**7
                ), (word, seed, kmax)
                triples += 1
        assert triples == 40_256

    def test_best_first_distance_to_every_descendant(self):
        # every descendant of the binary words up to length 9 and the
        # ternary words up to length 7, at its breadth-first distance
        pairs = 0
        for letters, top in (("01", 9), ("012", 7)):
            for n in range(top + 1):
                for symbols in itertools.product(letters, repeat=n):
                    word = "".join(symbols)
                    for kmax in (2, 3, 4):
                        for other, steps in _distances(word, kmax).items():
                            assert dedup_distance(word, other, kmax) == steps, (word, other, kmax)
                            pairs += 1
        assert pairs == 78_810

    def test_run_free_search_on_the_lemma_sweep(self):
        for word, kmax in _lemma_sweep():
            assert dedup_roots(word, kmax).roots == _full_roots(word, kmax), (word, kmax)

    @pytest.mark.parametrize("kmax", [1, 2, 3, 4, 5])
    def test_peel_lists_squares_in_offset_then_length_order(self, kmax):
        # the walk and the best-first search push children in this order,
        # which fixes where a budget runs out
        rng = random.Random(kmax)
        for _ in range(300):
            letters = "0123"[: rng.randint(1, 4)]
            word = "".join(rng.choice(letters) for _ in range(rng.randint(0, 24)))
            peeling = _Peeling(word, kmax)
            squares = peeling.peel(peeling.encode(word))
            want = square_locations(word, kmax)
            assert [(offset, length) for offset, length, _ in squares] == want, word
            for offset, length, child in squares:
                assert peeling.decode(child) == word[: offset + length] + word[offset + 2 * length :]
            runs_skipped = peeling.peel(peeling.encode(word), first=2)
            assert runs_skipped == [square for square in squares if square[1] >= 2], word

    def test_collapse_matches_the_string_collapse(self):
        rng = random.Random(11)
        words = ["", "0", "1111", "0110", ("a",), ("bb", "bb", "bb")]
        for _ in range(600):
            # 1 to 9 distinct symbols: one to four bits a symbol
            letters = "012345678"[: rng.randint(1, 9)]
            words.append("".join(rng.choice(letters) for _ in range(rng.randint(0, 30))))
        for _ in range(60):
            words.append(tuple(rng.choice(("a", "bb")) for _ in range(rng.randint(0, 12))))
        for word in words:
            peeling = _Peeling(word, 4)
            assert peeling.decode(peeling.collapse(peeling.encode(word))) == collapse(word), word

    def test_distance_budget_outcome_ignores_string_hashing(self):
        # the open words are lists in a fixed order: string hashing, which
        # orders a set of strings, cannot move the point where budget runs
        # out.  54 is the largest budget that runs out; 55 answers 6
        call = (
            "from tandemdup import BudgetExceededError, dedup_distance\n"
            "try:\n"
            "    print(dedup_distance('22100220002110', '2210', 4, budget=54))\n"
            "except BudgetExceededError as err:\n"
            "    print(err)\n"
        )
        src = str(Path(tandemdup.__file__).resolve().parent.parent)
        outcomes = {
            subprocess.run(
                [sys.executable, "-c", call],
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout
            for hash_seed in (1, 2)
        }
        assert outcomes == {"word budget of 54 exceeded\n"}


class TestPrunedSearches:
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_deduplication_keeps_the_ends_and_the_symbols(self, kmax):
        for seed in ("0", "01", "012", "0102", "0120", "01213"):
            kept = kept_by_deduplication(seed)
            for words in naive_closure(seed, kmax, len(seed) + 4).values():
                assert {kept_by_deduplication(w) for w in words} == {kept}, seed

    @pytest.mark.parametrize("word", ["0112120120120011221", "1112120120120011222", "011212011011001111"])
    def test_a_non_member_by_its_ends_or_symbols_spends_no_budget(self, ternary_system, word):
        assert not derives_from(ternary_system, word, budget=1)

    @pytest.mark.parametrize("target", ["0121", "12", "02"])
    def test_an_unreachable_target_by_its_ends_or_symbols_spends_no_budget(self, target):
        assert dedup_distance("011212012012001122", target, 3, budget=1) is None

    def test_a_search_with_matching_ends_and_symbols_still_spends_budget(self, ternary_system):
        word = "011212012012001122"
        with pytest.raises(BudgetExceededError):
            derives_from(ternary_system, word, budget=1)
        with pytest.raises(BudgetExceededError):
            dedup_distance(word, "0122", 3, budget=1)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_a_target_with_another_root_is_unreachable(self, kmax):
        # every word has one root at kmax <= 3, so a target whose root is
        # not the word's is answered before any search; the breadth-first
        # oracle searches
        rng = random.Random(kmax)
        shortcuts = 0
        for _ in range(150):
            word = "".join(rng.choice("012") for _ in range(rng.randint(6, 11)))
            middle = "".join(rng.choice("012") for _ in range(rng.randint(0, 4)))
            target = word[0] + middle + word[-1]
            if len(target) > len(word) or kept_by_deduplication(target) != kept_by_deduplication(word):
                continue
            want = breadth_first_dedup_distance(word, target, kmax, 10**7)
            assert dedup_distance(word, target, kmax) == want, (word, target, kmax)
            if string_first_square_root(word, kmax) != string_first_square_root(target, kmax):
                shortcuts += 1
                assert want is None
                assert dedup_distance(word, target, kmax, budget=1) is None
        assert shortcuts >= 20

    def test_pruning_follows_the_input_checks(self, ternary_system):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            derives_from(ternary_system, "0", budget=0)
        with pytest.raises(ValueError, match="outside the alphabet"):
            derives_from(ternary_system, "0113", budget=1)
        with pytest.raises(ValueError, match="kmax must be at least 1"):
            dedup_distance("0112", "12", 0)
        with pytest.raises(ValueError, match="longer than the start word"):
            dedup_distance("0112", "01212", 3)
