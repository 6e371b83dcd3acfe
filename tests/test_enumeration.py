import math
import random

import pytest

from tandemdup import (
    BudgetExceededError,
    DuplicationSystem,
    count_words,
    dedup_distance,
    dedup_roots,
    derives_from,
    enumerate_words,
    is_k_irreducible,
    substrings_of_length,
    tandem_duplicate,
)
from tandemdup.enumeration import greedy_root
from helpers import naive_closure


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
    assert {n: set(ws) for n, ws in got.items()} == want


def test_binary_slice_small_lengths(binary_system):
    by_length = enumerate_words(binary_system, 4).by_length
    assert by_length[2] == {"01"}
    assert by_length[3] == {"001", "011"}
    assert by_length[4] == {"0001", "0011", "0101", "0111"}


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
        lambda: substrings_of_length(ternary_system, 2, 5, budget),
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
    for n in range(3, 9):
        assert slices[1].get(n, set()) <= slices[2].get(n, set())
        assert slices[2].get(n, set()) <= slices[3].get(n, set())


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
        prof = substrings_of_length(ternary_system, 3, 12)
        assert prof.length == 3
        assert prof.search_depth == 12
        missing = {"".join(t) for t in __import__("itertools").product("012", repeat=3)} - prof.found
        assert missing == {"021", "102", "210"}

    def test_profile_monotone_in_depth(self, ternary_system):
        shallow = substrings_of_length(ternary_system, 3, 6).found
        deep = substrings_of_length(ternary_system, 3, 10).found
        assert shallow <= deep

    def test_binary_sees_everything_quickly(self, binary_system):
        prof = substrings_of_length(binary_system, 2, 6)
        assert prof.found == {"00", "01", "10", "11"}


class TestDedup:
    def test_roots_example(self):
        res = dedup_roots("012101212", 4)
        assert res.roots == {"012", "0121012"}
        assert all(is_k_irreducible(r, 4) for r in res.roots)

    def test_roots_depend_on_kmax(self):
        assert dedup_roots("012101212", 2).roots == {"0121012"}

    def test_distance_example(self):
        assert dedup_distance("012101212", "012", 4) == 2
        assert dedup_distance("012101212", "012", 2) is None

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

    def test_greedy_root_is_one_of_several_roots_beyond(self):
        roots = dedup_roots("012101212", 4).roots
        assert len(roots) == 2
        assert greedy_root("012101212", 4) in roots

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
