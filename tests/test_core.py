import itertools

import pytest
from hypothesis import given, strategies as st

from tandemdup import (
    Alphabet,
    DuplicationSystem,
    RepeatLocation,
    deduplicate,
    find_tandem_repeat,
    is_k_irreducible,
    iter_tandem_repeats,
    tandem_duplicate,
    thue_square_free,
)
from helpers import has_short_square, square_locations


@pytest.mark.parametrize(
    "word,offset,length,expected",
    [
        ("0120", 1, 2, "012120"),
        ("01", 0, 1, "001"),
        ("01", 1, 1, "011"),
        ("012", 0, 3, "012012"),
        ("0", 0, 1, "00"),
        # block runs past the end, rule does not apply
        ("01", 1, 2, "01"),
        ("012", 3, 1, "012"),
    ],
)
def test_tandem_duplicate_examples(word, offset, length, expected):
    assert tandem_duplicate(word, offset, length) == expected


def test_tandem_duplicate_rejects_negative_arguments():
    with pytest.raises(ValueError):
        tandem_duplicate("01", -1, 1)
    with pytest.raises(ValueError):
        tandem_duplicate("01", 0, -1)


def test_deduplicate_undoes_duplicate():
    word = tandem_duplicate("0120", 1, 2)
    assert word == "012120"
    assert deduplicate(word, RepeatLocation(1, 2)) == "0120"


def test_deduplicate_requires_a_square():
    with pytest.raises(ValueError):
        deduplicate("0120", RepeatLocation(0, 2))


@pytest.mark.parametrize("location", [(3, 1), (0, 3), (-1, 1), (1, 0)])
def test_deduplicate_requires_room_for_the_square(location):
    with pytest.raises(ValueError, match="^no room for a square"):
        deduplicate("0120", RepeatLocation(*location))


@pytest.mark.parametrize(
    "word,kmax,expected",
    [
        ("00101", 2, RepeatLocation(0, 1)),
        ("012120", 2, RepeatLocation(1, 2)),
        ("0121012", 4, None),
        ("012", 3, None),
        ("abab", 2, RepeatLocation(0, 2)),
    ],
)
def test_find_tandem_repeat_examples(word, kmax, expected):
    assert find_tandem_repeat(word, kmax) == expected


def test_find_tandem_repeat_prefers_smaller_offset_then_length():
    # 0101 has a length-2 square at 0; 00 at offset 2 would be later
    assert find_tandem_repeat("010100", 2) == RepeatLocation(0, 2)
    assert find_tandem_repeat("001010", 2) == RepeatLocation(0, 1)


def test_iter_tandem_repeats_matches_brute_force():
    for word in ["0101", "0121012", "001122", "012012012", "0"]:
        got = sorted((loc.offset, loc.length) for loc in iter_tandem_repeats(word, 3))
        want = sorted(square_locations(word, 3))
        assert got == want


def test_is_k_irreducible_against_scan():
    for n in range(1, 9):
        for tup in itertools.product("01", repeat=n):
            w = "".join(tup)
            assert is_k_irreducible(w, 2) == (not has_short_square(w, 2))


@pytest.mark.parametrize(
    "n,expected",
    [(1, "0"), (5, "01202"), (12, "012021012102")],
)
def test_thue_prefix_values(n, expected):
    assert thue_square_free(n) == expected


def test_thue_prefix_is_square_free():
    w = thue_square_free(300)
    assert not square_locations(w)


def test_thue_prefix_over_another_alphabet():
    assert thue_square_free(6, Alphabet("abc")) == "abcacb"


def test_thue_needs_three_symbols():
    with pytest.raises(ValueError):
        thue_square_free(5, Alphabet("01"))


# word strategies over small alphabets
binary_words = st.text(alphabet="01", min_size=1, max_size=12)
ternary_words = st.text(alphabet="012", min_size=1, max_size=12)


@given(ternary_words, st.integers(0, 12), st.integers(1, 4))
def test_duplicate_then_deduplicate_round_trips(word, offset, length):
    out = tandem_duplicate(word, offset, length)
    if out == word:
        assert offset + length > len(word)
    else:
        assert len(out) == len(word) + length
        assert deduplicate(out, RepeatLocation(offset, length)) == word


@given(binary_words, st.integers(0, 12), st.integers(1, 3))
def test_duplicate_preserves_ends_and_symbols(word, offset, length):
    out = tandem_duplicate(word, offset, length)
    assert out[0] == word[0]
    assert out[-1] == word[-1]
    assert set(out) == set(word)


@given(ternary_words)
def test_reported_repeat_is_a_real_square(word):
    loc = find_tandem_repeat(word, 3)
    if loc is None:
        assert not has_short_square(word, 3)
    else:
        i, k = loc
        assert word[i : i + k] == word[i + k : i + 2 * k]


class TestAlphabet:
    def test_single_char_parse(self):
        a = Alphabet.parse("012")
        assert a.symbols == ("0", "1", "2")
        assert a.single_char

    def test_multi_char_parse(self):
        a = Alphabet.parse("0,1,10")
        assert a.symbols == ("0", "1", "10")
        assert not a.single_char

    def test_multi_char_words_are_tuples(self):
        a = Alphabet.parse("0,1,10")
        w = a.word("10,0,1")
        assert w == ("10", "0", "1")
        assert a.text(w) == "10,0,1"
        assert tandem_duplicate(w, 0, 2) == ("10", "0", "10", "0", "1")

    def test_word_text_round_trip(self):
        a = Alphabet.parse("012")
        assert a.word("0120") == "0120"
        assert a.text("0120") == "0120"

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))

    @pytest.mark.parametrize(
        "symbols,message",
        [
            ("", "at least one symbol"),
            ((), "at least one symbol"),
            (("0", ""), "nonempty strings"),
            (("0", 1), "nonempty strings"),
            (("0", "a,b"), "word separator"),
        ],
    )
    def test_rejects_bad_symbols(self, symbols, message):
        with pytest.raises(ValueError, match=message):
            Alphabet(symbols)

    def test_parse_rejects_an_empty_symbol(self):
        with pytest.raises(ValueError, match="nonempty strings"):
            Alphabet.parse("0,,1")

    def test_rejects_unknown_symbols(self):
        a = Alphabet.parse("01")
        with pytest.raises(ValueError):
            a.word("012")

    def test_index_and_contains(self):
        a = Alphabet.parse("012")
        assert a.index("2") == 2
        assert a.contains_word("0101")
        assert not a.contains_word("013")

    def test_words_of_length(self):
        a = Alphabet.parse("01")
        assert set(a.words_of_length(2)) == {"00", "01", "10", "11"}
        assert len(set(a.words_of_length(4))) == 16


class TestDuplicationSystem:
    def test_parse_and_fields(self):
        sys = DuplicationSystem.parse("012", "012", 3)
        assert sys.seed == "012"
        assert sys.kmax == 3
        assert sys.base == 3
        assert sys.to_json_dict() == {"alphabet": "012", "seed": "012", "kmax": 3}

    def test_seed_must_use_alphabet(self):
        with pytest.raises(ValueError):
            DuplicationSystem.parse("01", "02", 2)
        # built directly, the check is the system's own
        with pytest.raises(ValueError, match="uses symbols outside"):
            DuplicationSystem(Alphabet("01"), "02", 2)

    def test_seed_must_be_nonempty(self):
        with pytest.raises(ValueError):
            DuplicationSystem.parse("01", "", 2)

    def test_kmax_must_be_positive(self):
        with pytest.raises(ValueError):
            DuplicationSystem.parse("01", "01", 0)
