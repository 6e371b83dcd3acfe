import hashlib
import itertools
import json

import pytest

from tandemdup import (
    ANSWER_NO,
    ANSWER_UNKNOWN,
    ANSWER_YES,
    Alphabet,
    DuplicationSystem,
    check_coverage,
    derives_from,
    is_fully_expressive,
    verify_witness_absent,
    witness,
)
from helpers import square_locations

D = DuplicationSystem.parse


@pytest.mark.parametrize(
    "alphabet,seed,kmax,answer,rule",
    [
        ("01", "0", 1, ANSWER_NO, "missing-symbol"),
        ("0123", "123", 2, ANSWER_NO, "missing-symbol"),
        ("0", "0", 5, ANSWER_YES, "unary"),
        ("0", "000", 1, ANSWER_YES, "unary"),
        ("01", "01", 1, ANSWER_NO, "binary-k1"),
        ("01", "01", 2, ANSWER_YES, "binary-k2"),
        ("01", "10", 7, ANSWER_YES, "binary-k2"),
        ("012", "012", 3, ANSWER_NO, "ternary-k3"),
        ("012", "01210", 3, ANSWER_NO, "ternary-k3"),
        ("012", "0112", 2, ANSWER_NO, "ternary-k3"),
        ("012", "012", 4, ANSWER_YES, "ternary-abc-seed-k4"),
        ("012", "120", 4, ANSWER_YES, "ternary-abc-seed-k4"),
        ("012", "0112", 4, ANSWER_UNKNOWN, "uncharacterized"),
        ("0123", "0123", 2, ANSWER_NO, "sigma4-squarefree"),
        ("0123", "0123", 100, ANSWER_NO, "sigma4-squarefree"),
    ],
)
def test_verdict_ladder(alphabet, seed, kmax, answer, rule):
    verdict = is_fully_expressive(D(alphabet, seed, kmax))
    assert verdict.answer == answer
    assert verdict.rule == rule


def test_no_verdicts_carry_witnesses():
    for args in [("01", "0", 1), ("01", "01", 1), ("012", "012", 3), ("0123", "0123", 3)]:
        sys = D(*args)
        assert is_fully_expressive(sys).answer == ANSWER_NO
        w = witness(sys)
        assert w is not None
        assert sys.alphabet.contains_word(w.word)


def test_yes_and_unknown_have_no_witness():
    assert witness(D("01", "01", 2)) is None
    assert witness(D("012", "0112", 4)) is None


@pytest.mark.parametrize(
    "alphabet,seed,kmax,word",
    [
        ("01", "0", 1, "1"),
        ("01", "01", 1, "0101"),
        ("012", "012", 3, "01210121012101210"),
        ("012", "01210", 3, "0121012101210121012101210"),
        ("0123", "0123", 2, "0123130"),
    ],
)
def test_witness_words(alphabet, seed, kmax, word):
    assert witness(D(alphabet, seed, kmax)).word == word


class TestTernaryWitnessStructure:
    def test_irreducible_and_breaks_all_boundary_conditions(self):
        for seed in ["012", "01210", "0112"]:
            w = witness(D("012", seed, 3)).word
            assert len(w) == 4 * (len(seed) + 1) + 1
            assert not square_locations(w, 3)
            # neither end of the word echoes a nearby symbol
            assert w[0] != w[2]
            assert w[0] != w[3]
            assert w[-1] != w[-3]
            assert w[-1] != w[-4]

    def test_alternation_shape(self):
        w = witness(D("012", "012", 3)).word
        assert w == "0121" * 4 + "0"


class TestQuaternaryWitnessStructure:
    def test_interior_square_free_and_avoids_ends(self):
        for seed, kmax in [("0123", 2), ("0123", 9), ("00112233", 3)]:
            w = witness(D("0123", seed, kmax)).word
            interior = w[1:-1]
            assert w[0] == "0" and w[-1] == "0"
            assert len(interior) == max(len(seed), kmax) + 1
            assert "0" not in interior
            assert not square_locations(interior)

    def test_longer_of_seed_and_kmax_wins(self):
        short_seed = witness(D("0123", "0123", 9)).word
        assert len(short_seed) == 9 + 1 + 2


class TestBinaryWitness:
    def test_alternation_beats_the_seed_length(self):
        for seed in ["01", "0011", "010101"]:
            w = witness(D("01", seed, 1)).word
            m = len(w) // 2
            assert w == "01" * m
            assert 2 * m > len(seed)


class TestCoverage:
    def test_ternary_k3_misses_exactly_three_windows(self, ternary_system):
        assert check_coverage(ternary_system, 3, 12) == {"021", "102", "210"}

    def test_ternary_k4_covers_short_windows(self):
        sys4 = D("012", "012", 4)
        for ell in (1, 2, 3):
            assert check_coverage(sys4, ell, 12) == set()

    def test_ternary_k4_covers_length_four_by_depth_14(self):
        sys4 = D("012", "012", 4)
        # at depth 12 six windows are still waiting for room to appear
        assert check_coverage(sys4, 4, 12) == {
            "0021", "0211", "0221", "1002", "1022", "1102",
        }
        assert check_coverage(sys4, 4, 14) == set()

    @pytest.mark.parametrize("kmax", [4, 5])
    def test_ternary_abc_seed_covers_length_six_by_depth_16(self, kmax):
        # the bounded evidence behind the ternary-abc-seed-k4 rule: every
        # ternary word of length 6, so every shorter one too, is a factor
        # of a member by length 16, and each depth below leaves some out
        system = D("012", "012", kmax)
        assert check_coverage(system, 5, 14) == {"02102"}
        assert check_coverage(system, 5, 15) == set()
        assert check_coverage(system, 6, 15) == {
            "002102", "010212", "021002", "021022", "021102", "022102",
        }
        assert check_coverage(system, 6, 16) == set()

    def test_binary_covers_everything(self, binary_system):
        for ell in (1, 2, 3, 4):
            assert check_coverage(binary_system, ell, 12) == set()


class TestWitnessAbsence:
    def test_known_absent_window(self, ternary_system):
        assert verify_witness_absent(ternary_system, "210", 14)

    def test_seed_is_present(self, ternary_system):
        assert not verify_witness_absent(ternary_system, "012", 5)

    def test_k4_generates_the_window(self):
        assert not verify_witness_absent(D("012", "012", 4), "210", 12)

    def test_binary_witness_absent_non_vacuously(self):
        sys = D("01", "01", 1)
        w = witness(sys).word
        assert verify_witness_absent(sys, w, len(w) + 8)

    def test_quaternary_witness_absent_non_vacuously(self):
        sys = D("0123", "0123", 2)
        w = witness(sys).word
        assert verify_witness_absent(sys, w, len(w) + 6)

    def test_words_longer_than_the_horizon_are_vacuously_absent(self, ternary_system):
        w = witness(ternary_system).word
        assert len(w) == 17
        assert verify_witness_absent(ternary_system, w, 14)

    def test_budget_is_checked_on_the_vacuous_path(self):
        # the same call with the word "01" enumerates and rejects budget 0
        with pytest.raises(ValueError, match="budget must be at least 1"):
            verify_witness_absent(D("012", "012", 4), "0000000000", 8, budget=0)

    @pytest.mark.parametrize("word,max_length", [("3", 14), ("0123", 14), ("3" * 20, 14)])
    def test_symbols_outside_the_alphabet_are_bad_input(self, ternary_system, word, max_length):
        with pytest.raises(ValueError, match="outside the alphabet"):
            verify_witness_absent(ternary_system, word, max_length)


def test_every_no_system_charges_nothing_for_its_witness():
    """The cheap half of soundness: the witness is never derivable itself."""
    for args in [("01", "01", 1), ("012", "012", 3), ("0123", "0123", 2)]:
        sys = D(*args)
        w = witness(sys).word
        assert not derives_from(sys, w)


def test_verdict_json_round_trip(ternary_system):
    verdict = is_fully_expressive(ternary_system)
    doc = verdict.to_json_dict(ternary_system.alphabet)
    assert doc["answer"] == "no"
    assert doc["rule"] == "ternary-k3"
    assert doc["witness"] == "01210121012101210"


# sha256 of the verdict lines of `test_the_whole_ladder_is_pinned`, joined by
# newlines; any change to an answer, rule or witness word changes it
LADDER_DIGEST = "46d5f9b57f93cb55b050700cda1c36bdc0adf3ef0cbec3ea4822410d8d31ca55"


def test_the_whole_ladder_is_pinned():
    """Every seed of length 1-5 (1-4 past three symbols) at k = 1-6, over
    alphabets of one to five symbols and one of multi-character symbols:
    11 478 systems, each verdict written as one JSON line."""
    lines = []
    for text in ["0", "01", "012", "0123", "01234", "a,bb,c"]:
        alphabet = Alphabet.parse(text)
        top = 5 if len(alphabet) <= 3 else 4
        for n in range(1, top + 1):
            for seed in alphabet.words_of_length(n):
                for k in range(1, 7):
                    system = DuplicationSystem(alphabet, seed, k)
                    verdict = is_fully_expressive(system)
                    assert witness(system) == verdict.witness
                    if verdict.answer == ANSWER_NO:
                        assert verdict.witness.reason == verdict.rule
                    else:
                        assert verdict.witness is None
                    doc = verdict.to_json_dict(alphabet)
                    lines.append(json.dumps([text, alphabet.text(seed), k, doc]))
    assert len(lines) == 11478
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LADDER_DIGEST
