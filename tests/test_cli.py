import argparse
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tandemdup
from tandemdup import (
    DuplicationSystem,
    cli,
    count_words,
    dedup_roots,
    derives_from,
    empirical_capacity,
    enumerate_words,
    errors,
)
from tandemdup.automaton import _json_text
from tandemdup.cli import build_parser, main
from helpers import canonical_patterns


@pytest.fixture(autouse=True)
def _emitted_json_matches_json_dumps(monkeypatch):
    """Every document a test here prints goes through the JSON writer, which
    must give `json.dumps(doc, indent=2)` byte for byte."""

    def checked(doc):
        text = _json_text(doc)
        assert text == json.dumps(doc, indent=2)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0, out
    return json.loads(out)


SYS3 = ["--alphabet", "012", "--seed", "012", "--max-dup", "3"]
SYS2 = ["--alphabet", "01", "--seed", "01", "--max-dup", "2"]
SYS4 = ["--alphabet", "012", "--seed", "012", "--max-dup", "4"]


class TestGenerate:
    def test_json_document(self, capsys):
        doc = run_json(capsys, "generate", *SYS2, "--max-len", "4")
        assert doc["counts"] == {"2": 1, "3": 2, "4": 4}
        assert doc["words"]["4"] == ["0001", "0011", "0101", "0111"]

    def test_text_lines_are_sorted_words(self, capsys):
        code, out = run(capsys, "generate", *SYS2, "--max-len", "3", "--format", "text")
        assert code == 0
        assert out.splitlines() == ["2\t01", "3\t001", "3\t011"]

    @pytest.mark.parametrize("kmax", ["2", "4"], ids=["machine", "level-loop"])
    def test_words_are_written_in_text_order(self, capsys, kmax):
        # alphabet 210 ranks 2 first, so both engines list 220 before 200;
        # the output still sorts them as text
        argv = ["--alphabet", "210", "--seed", "20", "--max-dup", kmax, "--max-len", "4"]
        code, out = run(capsys, "generate", *argv, "--format", "text")
        assert code == 0
        assert out.splitlines()[:3] == ["2\t20", "3\t200", "3\t220"]
        assert run_json(capsys, "generate", *argv)["words"]["3"] == ["200", "220"]


class TestCount:
    def test_json_and_text_agree(self, capsys):
        doc = run_json(capsys, "count", *SYS3, "--max-len", "8")
        code, out = run(capsys, "count", *SYS3, "--max-len", "8", "--format", "text")
        assert code == 0
        text_counts = dict(line.split("\t") for line in out.splitlines())
        assert {k: str(v) for k, v in doc["counts"].items()} == text_counts
        assert doc["counts"]["8"] == 138

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_counts_past_the_int_digit_limit(self, capsys, monkeypatch, fmt):
        # exact counts of long words run past the 4 300 digits to which
        # Python limits writing an int as text
        monkeypatch.setattr(cli, "accepted_counts", lambda machine, n: [10**5000] * (n + 1))
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "count", *SYS2, "--max-len", "3", "--format", fmt)
        assert code == 0
        assert out.count("1" + "0" * 5000) == 2
        assert sys.get_int_max_str_digits() == limit
        # the command line is still read under the limit
        assert run(capsys, "count", *SYS2, "--max-len", "9" * 5000)[0] == 2


class TestMember:
    def test_yes(self, capsys):
        doc = run_json(capsys, "member", *SYS3, "--word", "01212")
        assert doc["member"] is True

    def test_no(self, capsys):
        code, out = run(capsys, "member", *SYS3, "--word", "00000", "--format", "text")
        assert code == 0
        assert out.strip() == "member\tfalse"


    def test_regular_member_builds_no_machine(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_automaton", _raising(AssertionError("built a machine")))
        assert run_json(capsys, "member", *SYS3, "--word", "01212")["member"] is True
        assert run_json(capsys, "member", *SYS3, "--word", "0210")["member"] is False
        assert run_json(capsys, "member", *SYS2, "--word", "0110")["member"] is False


class TestAutomaton:
    def test_json_machine(self, capsys):
        doc = run_json(capsys, "automaton", *SYS3)
        assert len(doc["states"]) == 17
        assert all(len(e) == 3 for e in doc["edges"])

    def test_minimize_flag(self, capsys):
        doc = run_json(capsys, "automaton", *SYS3, "--minimize")
        assert len(doc["states"]) == 7

    def test_dot_output(self, capsys):
        code, out = run(capsys, "automaton", *SYS2, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "->" in out

    def test_dot_labels_escape_quotes_and_backslashes(self, capsys):
        quoted = 'x",y\\'
        code, out = run(
            capsys, "automaton", "--alphabet", quoted, "--seed", quoted, "--max-dup", "1",
            "--format", "dot",
        )
        assert code == 0
        edges = [line for line in out.splitlines() if "label=" in line]
        assert edges == [
            '  0 -> 1 [label="x\\""];',
            '  1 -> 1 [label="x\\""];',
            '  1 -> 2 [label="y\\\\"];',
            '  2 -> 2 [label="y\\\\"];',
        ]
        # each label is one DOT string that reads back to its symbol
        string = re.compile(r'\[label="((?:[^"\\]|\\.)*)"\];$')
        labels = [re.sub(r"\\(.)", r"\1", string.search(line).group(1)) for line in edges]
        assert labels == ['x"', 'x"', "y\\", "y\\"]


class TestCapacity:
    def test_exact_json(self, capsys):
        doc = run_json(capsys, "capacity", *SYS3)
        assert doc["case"] == "abc-substring"
        assert doc["exactForm"] == "log_3((3+sqrt(5))/2)"
        assert abs(doc["value"] - 0.8760357589718848) < 1e-12

    def test_numeric_cross_check(self, capsys):
        doc = run_json(capsys, "capacity", *SYS3, "--numeric")
        assert abs(doc["numericValue"] - doc["value"]) < 1e-8

    def test_zero_tolerance_converges(self, capsys):
        doc = run_json(capsys, "capacity", *SYS3, "--numeric", "--tolerance", "0")
        assert abs(doc["numericValue"] - doc["value"]) < 1e-8

    def test_empirical(self, capsys):
        doc = run_json(capsys, "capacity", *SYS3, "--empirical", "--max-len", "12")
        assert doc["case"] == "empirical"
        assert abs(doc["value"] - 0.876036) < 0.05

    def test_empirical_over_one_symbol_is_zero(self, capsys):
        doc = run_json(
            capsys,
            "capacity",
            "--alphabet", "0", "--seed", "0", "--max-dup", "2",
            "--empirical", "--max-len", "6",
        )
        assert doc["value"] == 0.0
        assert set(doc["ratios"].values()) == {0.0}

    def test_bits_conversion(self, capsys):
        doc = run_json(capsys, "capacity", *SYS3, "--bits")
        assert abs(doc["valueBits"] - doc["value"] * math.log2(3)) < 1e-12


class TestExpress:
    def test_negative_verdict_with_witness(self, capsys):
        doc = run_json(capsys, "express", *SYS3)
        assert doc["answer"] == "no"
        assert doc["rule"] == "ternary-k3"
        assert doc["witness"] == "01210121012101210"

    def test_positive_verdict(self, capsys):
        doc = run_json(capsys, "express", "--alphabet", "012", "--seed", "012", "--max-dup", "4")
        assert doc["answer"] == "yes"
        assert doc["witness"] is None

    def test_rule_of_a_no_verdict_names_the_witness_construction(self, capsys):
        doc = run_json(capsys, "express", "--alphabet", "01", "--seed", "01", "--max-dup", "1")
        assert doc == {"answer": "no", "rule": "binary-k1", "witness": "0101"}


class TestDedup:
    def test_roots(self, capsys):
        doc = run_json(
            capsys, "dedup", "--alphabet", "012", "--word", "012101212", "--max-dup", "4"
        )
        assert doc["roots"] == ["012", "0121012"]

    def test_distance(self, capsys):
        doc = run_json(
            capsys,
            "dedup",
            "--alphabet", "012",
            "--word", "012101212",
            "--max-dup", "4",
            "--target", "012",
        )
        assert doc["distance"] == 2

    def test_unreachable_distance_prints_none(self, capsys):
        code, out = run(
            capsys,
            "dedup",
            "--alphabet", "012",
            "--word", "012101212",
            "--max-dup", "2",
            "--target", "012",
            "--format", "text",
        )
        assert code == 0
        assert "distance\tNone" in out

    def test_a_target_with_another_root_spends_no_budget(self, capsys):
        # at kmax <= 3 a word has one root: the word's is 21012101 and the
        # target's 201, so the answer needs no search and no budget
        doc = run_json(
            capsys,
            "dedup",
            "--alphabet", "012",
            "--word", "22210111121011",
            "--max-dup", "3",
            "--target", "22001",
            "--budget", "20",
        )
        assert doc["roots"] == ["21012101"]
        assert doc["distance"] is None


class TestVerify:
    def test_certificate_and_oracle(self, capsys):
        doc = run_json(capsys, "verify", *SYS3, "--check-upto", "9")
        assert doc["seedAccepted"] is True
        assert doc["closure"]["passed"] is True
        assert doc["oracleAgrees"] is True
        assert doc["oracleDepth"] == 9

    @pytest.mark.parametrize("system", [SYS2, SYS3], ids=["binary", "ternary"])
    def test_certifies_the_minimal_machine(self, capsys, system):
        doc = run_json(capsys, "verify", *system)
        machine = run_json(capsys, "automaton", *system, "--minimize")
        assert doc["states"] == len(machine["states"])
        assert doc["closure"]["passed"] is True
        # one check per state of that machine, none with a counterexample
        checks = doc["closure"]["checks"]
        assert [c["state"] for c in checks] == machine["states"]
        assert all(c["counterexample"] is None for c in checks)


class TestSquarefree:
    def test_word_is_emitted(self, capsys):
        code, out = run(capsys, "squarefree", "--length", "12", "--format", "text")
        assert code == 0
        assert out.strip() == "012021012102"

    def test_custom_alphabet(self, capsys):
        doc = run_json(capsys, "squarefree", "--length", "5", "--alphabet", "abc")
        assert doc["word"] == "abcac"


class TestAvoid:
    def test_three_window_value(self, capsys):
        doc = run_json(
            capsys,
            "avoid",
            "--alphabet", "012",
            "--forbid", "210", "--forbid", "021", "--forbid", "102",
        )
        assert abs(doc["value"] - 0.914838) < 1e-4

    def test_long_sigma4_witness_is_answered(self, capsys):
        # the pattern-trie machine has 8 states; numpy's eigenvalues give
        # 0.999989
        doc = run_json(capsys, "avoid", "--alphabet", "0123", "--forbid", "01231320")
        assert doc["forbidden"] == ["01231320"]
        assert abs(doc["value"] - 0.999989) < 1e-4


class TestRegularEnginesMatchTheSearches:
    """At kmax <= 3 the automaton and first-square deletion answer `count`,
    `generate`, `member` and `dedup`; their documents must equal the ones
    built from the exhaustive searches."""

    @staticmethod
    def _documents(parser, flags, system, max_len, words):
        def document(*argv):
            args = parser.parse_args([*argv[:1], *flags, *argv[1:]])
            return args.func(args)[0]

        text = system.alphabet.text
        top = str(max_len)
        assert document("count", "--max-len", top) == count_words(system, max_len).to_json_dict()
        piece = enumerate_words(system, max_len)
        assert document("generate", "--max-len", top) == piece.to_json_dict()
        for word in words:
            assert document("member", "--word", text(word)) == {
                "system": system.to_json_dict(),
                "word": text(word),
                "member": derives_from(system, word),
            }, word
            args = parser.parse_args([
                "dedup", "--alphabet", system.alphabet.to_text(), "--word", text(word),
                "--max-dup", str(system.kmax),
            ])
            assert args.func(args)[0] == {
                "word": text(word),
                "kmax": system.kmax,
                "roots": sorted(text(r) for r in dedup_roots(word, system.kmax).roots),
            }, word

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_canonical_seed_sweep(self, kmax):
        parser = build_parser()
        rng = random.Random(kmax)
        for pattern in canonical_patterns(5):
            alphabet = "0123"[: int(max(pattern)) + 1]
            system = DuplicationSystem.parse(alphabet, pattern, kmax)
            max_len = len(pattern) + 4
            members = sorted(set().union(*enumerate_words(system, max_len).by_length.values()))
            words = rng.sample(members, min(3, len(members)))
            # one changed symbol: mostly non-members
            for word in list(words):
                i = rng.randrange(len(word))
                words.append(word[:i] + rng.choice(alphabet) + word[i + 1 :])
            # shorter than the seed, and longer than any enumerated word
            words.append(pattern[:-1])
            words.append("".join(rng.choice(alphabet) for _ in range(max_len + 3)))
            flags = ["--alphabet", alphabet, "--seed", pattern, "--max-dup", str(kmax)]
            self._documents(parser, flags, system, max_len, words)

    def test_comma_separated_symbols(self):
        system = DuplicationSystem.parse("ab,cd,ef", "ab,cd,ef,ab", 3)
        flags = ["--alphabet", "ab,cd,ef", "--seed", "ab,cd,ef,ab", "--max-dup", "3"]
        words = [
            ("ab", "cd", "ef", "ab"),
            ("ab", "cd", "ef", "cd", "ef", "ab", "ab"),
            ("ab", "ef", "cd", "ab"),
            ("ab", "cd", "ab"),
        ]
        self._documents(build_parser(), flags, system, 8, words)


class TestExitCodes:
    def test_domain_error_from_large_kmax(self, capsys):
        code, _ = run(capsys, "automaton", "--alphabet", "012", "--seed", "012", "--max-dup", "4")
        assert code == 1

    def test_domain_error_from_budget(self, capsys):
        code, _ = run(capsys, "count", *SYS4, "--max-len", "9", "--budget", "10")
        assert code == 1

    def test_domain_error_from_empty_avoidance(self, capsys):
        code, _ = run(
            capsys,
            "avoid",
            "--alphabet", "01",
            "--forbid", "00", "--forbid", "01", "--forbid", "10", "--forbid", "11",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["member", *SYS4, "--word", "011212012012001122"],
            ["dedup", "--alphabet", "012", "--word", "011212012012001122", "--max-dup", "4"],
            # the distance search spends the budget at any kmax; at kmax 3
            # the word's root is the target, so it is searched
            ["dedup", "--alphabet", "012", "--word", "011212012012001122", "--max-dup", "3",
             "--target", "012"],
        ],
        ids=["member", "dedup", "dedup-target"],
    )
    def test_reverse_search_budget_names_no_levels(self, capsys, argv):
        code = main([*argv, "--budget", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: word budget of 5 exceeded\n"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["count", *SYS3, "--max-len", "9", "--budget", "10"],
             lambda system: count_words(system, 9).to_json_dict()),
            (["generate", *SYS3, "--max-len", "7", "--budget", "3"],
             lambda system: enumerate_words(system, 7).to_json_dict()),
            (["capacity", *SYS3, "--empirical", "--max-len", "10", "--budget", "3"],
             lambda system: empirical_capacity(count_words(system, 10)).to_json_dict()),
            (["member", *SYS3, "--word", "011212012012001122", "--budget", "5"],
             lambda system: {"system": system.to_json_dict(),
                             "word": "011212012012001122",
                             "member": derives_from(system, "011212012012001122")}),
            (["dedup", "--alphabet", "012", "--word", "011212012012001122", "--max-dup", "3",
              "--budget", "5"],
             lambda system: {"word": "011212012012001122", "kmax": 3,
                             "roots": sorted(dedup_roots("011212012012001122", 3).roots)}),
        ],
        ids=["count", "generate", "capacity-empirical", "member", "dedup"],
    )
    def test_regular_questions_spend_no_budget(self, capsys, argv, want):
        # at kmax <= 3 the automaton or the first-square deletion answers, so a
        # budget the searches would exhaust is never spent
        doc = run_json(capsys, *argv)
        assert doc == want(DuplicationSystem.parse("012", "012", 3))

    @pytest.mark.parametrize(
        "argv",
        [
            ["avoid", "--alphabet", "012", "--forbid", "210", "--tolerance", "-1e-6"],
            ["capacity", *SYS3, "--numeric", "--tolerance", "-1e-6"],
            ["avoid", "--alphabet", "012", "--tolerance", "-1e-6"],
        ],
        ids=["avoid", "capacity-numeric", "avoid-nothing-forbidden"],
    )
    def test_negative_exponent_tolerance_reaches_its_check(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: tolerance must be nonnegative\n"

    @pytest.mark.parametrize("system", [SYS3, SYS4], ids=["k3", "k4"])
    @pytest.mark.parametrize(
        "command",
        [["count"], ["generate"], ["capacity", "--empirical"]],
        ids=["count", "generate", "capacity-empirical"],
    )
    def test_max_len_below_the_seed_names_both_lengths(self, capsys, system, command):
        assert main([*command, *system, "--max-len", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: max_length 2 is below the seed length 3\n"

    def test_usage_error_from_foreign_seed(self, capsys):
        code, _ = run(capsys, "count", "--alphabet", "01", "--seed", "02", "--max-dup", "2", "--max-len", "5")
        assert code == 2

    def test_usage_error_from_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage error: argument command: invalid choice: 'frobnicate'"
        )
        assert len(captured.err.splitlines()) == 1, captured.err

    def test_error_messages_go_to_stderr(self, capsys):
        code = main(["automaton", "--alphabet", "012", "--seed", "012", "--max-dup", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "kmax" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["squarefree", "--length", "-1"],
        ["squarefree", "--length", "5", "--alphabet", "01"],
        ["count", *SYS3, "--max-len", "2"],
        ["dedup", "--alphabet", "012", "--word", "012", "--max-dup", "3", "--target", "01210"],
        ["dedup", "--alphabet", "012", "--word", "0121", "--max-dup", "0"],
        ["avoid", "--alphabet", "012", "--forbid", "0"],
        ["capacity", *SYS3, "--empirical", "--max-len", "10", "--window", "0"],
        ["capacity", *SYS3, "--empirical", "--max-len", "10", "--window", "-1"],
        ["capacity", *SYS3, "--numeric", "--tolerance", "-0.1"],
        ["avoid", "--alphabet", "012", "--forbid", "210", "--tolerance", "-0.1"],
        ["capacity", *SYS3, "--exact"],
        ["express", *SYS3, "--witness"],
        ["witness", *SYS3],
        ["count", "--alphabet", "012", "--max-dup", "3", "--max-len", "5"],
        ["count", "--alphabet", "012", "--seed", "012", "--max-dup", "x", "--max-len", "5"],
        ["avoid", "--alphabet", "012", "--forbid", "210", "--tolerance", "-1e-6"],
        ["capacity", *SYS3, "--numeric", "--empirical"],
        ["count", *SYS3, "--max-len", "5", "--budget", "0"],
        ["member", *SYS3, "--word", "01212", "--budget", "0"],
        ["dedup", "--alphabet", "012", "--word", "0121", "--max-dup", "3", "--budget", "0"],
        ["verify", *SYS3, "--budget", "0"],
        ["capacity", *SYS3, "--budget", "-5"],
        ["count", "--alphabet", "0,,1", "--seed", "01", "--max-dup", "2", "--max-len", "4"],
    ],
    ids=["negative-length", "two-symbol-squarefree", "max-len-below-seed",
         "target-longer-than-word", "max-dup-zero", "one-symbol-forbidden-word",
         "zero-window", "negative-window", "negative-numeric-tolerance",
         "negative-avoid-tolerance", "capacity-exact", "express-witness",
         "witness-subcommand", "missing-seed", "non-integer-max-dup",
         "exponent-avoid-tolerance", "numeric-with-empirical", "count-budget-zero",
         "member-budget-zero", "dedup-budget-zero", "verify-budget-zero",
         "capacity-negative-budget", "empty-alphabet-symbol"],
)
def test_bad_input_is_a_one_line_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), captured.err


def test_non_integer_budget_is_named(capsys):
    assert main(["count", *SYS3, "--max-len", "5", "--budget", "x"]) == 2
    assert capsys.readouterr().err == (
        "usage error: argument --budget: invalid budget value: 'x'\n"
    )


_SAMPLE_DOMAIN_ERRORS = [
    errors.BudgetExceededError(5),
    errors.EmptyLanguageError("no long words"),
    errors.InsufficientDataError("too few counts"),
    errors.NonConvergenceError(2.5, 10),
    errors.NondeterministicAutomatonError("not deterministic"),
    errors.UnsupportedDuplicationLength("kmax too large"),
]


def _raising(exc):
    def call(*args, **kwargs):
        raise exc

    return call


def test_a_plain_value_error_from_any_library_call_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "exact_capacity", _raising(ValueError("bad seed shape")))
    code = main(["capacity", *SYS3])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: bad seed shape\n"


@pytest.mark.parametrize("exc", _SAMPLE_DOMAIN_ERRORS, ids=lambda e: type(e).__name__)
def test_every_domain_error_exits_one(capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "exact_capacity", _raising(exc))
    code = main(["capacity", *SYS3])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


@pytest.mark.parametrize(
    "kind, base",
    [
        (errors.BudgetExceededError, RuntimeError),
        (errors.EmptyLanguageError, ValueError),
        (errors.InsufficientDataError, ValueError),
        (errors.NonConvergenceError, RuntimeError),
        (errors.NondeterministicAutomatonError, ValueError),
        (errors.UnsupportedDuplicationLength, ValueError),
    ],
)
def test_domain_errors_keep_their_builtin_base(kind, base):
    assert issubclass(kind, errors.DomainError)
    assert issubclass(kind, base)


def _subcommands():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices


def test_every_subcommand_reports_an_unknown_flag_in_one_line(capsys):
    for name in _subcommands():
        code = main([name, "--no-such-flag"])
        captured = capsys.readouterr()
        assert code == 2, name
        assert captured.out == "", name
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: "), (name, captured.err)


def test_help_and_version_still_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert main(["capacity", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tandemdup capacity")
    assert "[--numeric | --empirical]" in captured.out
    assert captured.err == ""


# one command line per subcommand that sets each of its options (capacity
# twice: --numeric and --empirical exclude each other); `OUT` stands for a
# file under the test's temporary directory
_EVERY_OPTION = {
    "generate": ["generate", *SYS2, "--max-len", "4", "--budget", "50", "--format", "text",
                 "--out", "OUT"],
    "count": ["count", *SYS2, "--max-len", "4", "--budget", "50", "--format", "text",
              "--out", "OUT"],
    "member": ["member", *SYS2, "--word", "0101", "--budget", "50", "--format", "text",
               "--out", "OUT"],
    "automaton": ["automaton", *SYS2, "--minimize", "--format", "dot", "--out", "OUT"],
    "capacity-numeric": ["capacity", *SYS2, "--numeric", "--max-len", "8", "--window", "3",
                         "--budget", "50", "--tolerance", "1e-8", "--bits", "--format", "text",
                         "--out", "OUT"],
    "capacity-empirical": ["capacity", *SYS2, "--empirical", "--max-len", "8", "--window", "3",
                           "--budget", "500", "--tolerance", "1e-8", "--bits", "--format",
                           "text", "--out", "OUT"],
    "express": ["express", *SYS2, "--format", "text", "--out", "OUT"],
    "dedup": ["dedup", "--alphabet", "01", "--word", "0110", "--max-dup", "2", "--target", "01",
              "--budget", "50", "--format", "text", "--out", "OUT"],
    "verify": ["verify", *SYS2, "--check-upto", "5", "--budget", "100", "--format", "text",
               "--out", "OUT"],
    "squarefree": ["squarefree", "--length", "5", "--alphabet", "012", "--format", "text",
                   "--out", "OUT"],
    "avoid": ["avoid", "--alphabet", "012", "--forbid", "00", "11", "--forbid", "22",
              "--tolerance", "1e-6", "--format", "text", "--out", "OUT"],
}


@pytest.fixture
def parses(monkeypatch):
    """The namespaces that `argparse.ArgumentParser.parse_known_args`
    returns, one per call, in call order."""
    seen = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        seen.append(result[0])
        return result

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return seen


def _every_option_argv(name, tmp_path):
    return [str(tmp_path / "out") if a == "OUT" else a for a in _EVERY_OPTION[name]]


def test_every_option_argv_sets_every_option():
    subcommands = _subcommands()
    assert {argv[0] for argv in _EVERY_OPTION.values()} == set(subcommands)
    for name, sub in subcommands.items():
        given = {a for argv in _EVERY_OPTION.values() if argv[0] == name for a in argv}
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert given & set(action.option_strings), (name, action.dest)


@pytest.mark.parametrize("name", sorted(_EVERY_OPTION))
def test_main_parses_as_the_top_level_parser_does(tmp_path, parses, name):
    argv = _every_option_argv(name, tmp_path)
    assert main(argv) == 0
    routed = vars(parses[-1])
    whole = vars(build_parser().parse_args(argv))
    assert whole.pop("command") == argv[0]
    routed.pop("command", None)
    assert routed == whole


@pytest.mark.parametrize("name", sorted(_EVERY_OPTION))
def test_a_valid_command_line_is_parsed_once(tmp_path, parses, name):
    assert main(_every_option_argv(name, tmp_path)) == 0
    assert len(parses) == 1


class TestTopLevelParser:
    """Command lines that do not start with a subcommand name go to the
    top-level parser, which prints help or the version or reports a usage
    error."""

    def test_no_arguments_name_the_missing_command(self, capsys):
        assert main([]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: the following arguments are required: command\n"
        )

    def test_an_option_before_the_command_is_an_invalid_choice(self, capsys):
        assert main(["--alphabet", "012", "count"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: argument command: invalid choice: '012'")
        assert len(captured.err.splitlines()) == 1, captured.err

    def test_help(self, capsys):
        assert main(["-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: tandemdup [-h] [--version]")
        assert captured.err == ""

    def test_version_after_the_command_is_unrecognized(self, capsys):
        assert main(["count", *SYS3, "--max-len", "4", "--version"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --version\n"

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        answer = run(capsys, "squarefree", "--length", "7")
        monkeypatch.setattr(sys, "argv", ["tandemdup", "squarefree", "--length", "7"])
        assert main() == 0
        assert capsys.readouterr().out == answer[1]
        monkeypatch.setattr(sys, "argv", ["tandemdup"])
        assert main() == 2
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: command\n"
        )


# subcommands, a usage error from argparse and one from the library, a
# domain error, --help and --version; `avoid` twice, so a default list
# that parsing extended in place would show up in the second answer
_MIXED_RUN = [
    ["count", *SYS3, "--max-len", "6", "--format", "text"],
    ["avoid", "--alphabet", "012", "--forbid", "210"],
    ["count", *SYS4, "--max-len", "9", "--budget", "10"],
    ["member", *SYS4, "--word", "01212"],
    ["dedup", "--alphabet", "012", "--word", "0121", "--max-dup", "3", "--no-such-flag"],
    ["capacity", "--help"],
    ["avoid", "--alphabet", "012", "--forbid", "021"],
    ["count", *SYS3, "--max-len", "2"],
    ["--version"],
    ["generate", *SYS2, "--max-len", "4"],
]


def test_one_parser_serves_a_run_of_calls(capsys, monkeypatch):
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())

    def answer(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    separate = []
    for argv in _MIXED_RUN:
        cli._parser.cache_clear()
        separate.append(answer(argv))
    assert len(builds) == len(_MIXED_RUN)
    assert [code for code, _, _ in separate] == [0, 0, 1, 0, 2, 0, 0, 2, 0, 0]

    builds.clear()
    cli._parser.cache_clear()
    assert [answer(argv) for argv in _MIXED_RUN] == separate
    assert len(builds) == 1

    # handlers still look library functions up when they run
    monkeypatch.setattr(cli, "derives_from", lambda *args: True)
    assert answer(["member", *SYS4, "--word", "210", "--format", "text"])[1] == "member\ttrue\n"
    cli._parser.cache_clear()


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    code = main(["squarefree", "--length", "5", "--out", str(tmp_path / "missing" / "w.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("shared", [False, True], ids=["own-stderr", "shared-pipe"])
def test_closed_standard_output_is_named_as_such(shared):
    # the answer is about 1 MB, far more than a pipe holds, so the write
    # fails once the reader has taken one line and closed its end; with one
    # pipe for both streams, as after `2>&1 | head -n 1`, the message that
    # names it fails too, and the exit code stays that of the write
    src = str(Path(tandemdup.__file__).resolve().parent.parent)
    argv = ["generate", "--alphabet", "012", "--seed", "012", "--max-dup", "3",
            "--max-len", "14", "--format", "text"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tandemdup", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if shared else subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "3\t012\n"
    proc.stdout.close()
    if shared:
        assert proc.wait(timeout=60) == 2
        return
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert len(err.splitlines()) == 1, err
    assert err.startswith("usage error: cannot write standard output: ")
    assert "--out" not in err


_COUNT012 = ["count", "--alphabet", "012", "--seed", "012", "--max-len", "12"]
_CANNOT_WRITE = "usage error: cannot write standard output: "


@pytest.mark.parametrize(
    "argv,closed,code,lines",
    [
        (["squarefree", "--length", "5"], "stdout", 2, [_CANNOT_WRITE]),
        # argparse's help and version, which it writes itself
        (["--version"], "stdout", 0, []),
        (["count", "--help"], "stdout", 0, []),
        # a library ValueError, a domain error (the budget runs out) and a
        # usage error of argparse's
        ([*_COUNT012, "--max-dup", "0"], "stderr", 2, []),
        ([*_COUNT012, "--max-dup", "4", "--budget", "10"], "stderr", 1, []),
        (["count"], "stderr", 2, []),
    ],
    ids=["stdout-answer", "stdout-version", "stdout-help", "stderr-usage-error",
         "stderr-domain-error", "stderr-argparse-error"],
)
def test_a_closed_pipe_keeps_the_exit_code(argv, closed, code, lines):
    # a buffered text that fits the buffer would fail only in the flush at
    # exit, which would change the exit code to 120, and after `main` had
    # reported it; what goes to the closed stream is lost, and the other
    # stream holds the expected lines, each given by its start
    src = str(Path(tandemdup.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tandemdup", *argv],
            env=env, text=True, timeout=60, **streams,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    other = (proc.stderr if closed == "stdout" else proc.stdout).splitlines()
    assert len(other) == len(lines) and all(map(str.startswith, other, lines)), other


_COUNT9 = ["count", "--alphabet", "012", "--seed", "012", "--max-len", "9"]


@pytest.mark.parametrize(
    "argv,closed,code,err",
    [
        ([*_COUNT9, "--max-dup", "3"], (1,), 2, [_CANNOT_WRITE]),
        (["--version"], (1,), 0, None),
        (["count", "--help"], (1,), 0, None),
        ([], (1, 2), 2, None),
        ([*_COUNT9, "--max-dup", "0"], (2,), 2, None),
        ([*_COUNT012, "--max-dup", "4", "--budget", "10"], (2,), 1, None),
    ],
    ids=["stdout-answer", "stdout-version", "stdout-help", "both-no-arguments",
         "stderr-usage-error", "stderr-domain-error"],
)
def test_a_stream_closed_at_start_up_counts_as_closed(argv, closed, code, err):
    # as after `>&-` or `2>&-`: the descriptor is not open when the
    # interpreter starts, so its sys stream is None.  Nothing goes to
    # standard output in place of standard error, and standard error
    # holds the expected lines, each given by its start, where checked
    proc = _fresh_python("-m", "tandemdup", *argv, closed=closed)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    if err is not None:
        lines = proc.stderr.splitlines()
        assert len(lines) == len(err) and all(map(str.startswith, lines, err)), lines


@pytest.mark.parametrize("argv", [["--version"], ["count", "--help"]], ids=["version", "help"])
def test_help_and_version_are_dropped_with_standard_output_closed(argv):
    # argparse writes them to standard error when sys.stdout is None
    proc = _fresh_python("-m", "tandemdup", *argv, closed=(1,))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_out_needs_no_standard_output(tmp_path):
    target = tmp_path / "counts.json"
    proc = _fresh_python("-m", "tandemdup", *_COUNT9, "--max-dup", "3", "--out", str(target),
                         closed=(1,))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(target.read_text())["counts"]["9"] > 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "machine.json"
    code, out = run(capsys, "automaton", *SYS2, "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc["states"]) == 5


def _args_read(function):
    return set(re.findall(r"\bargs\.(\w+)", inspect.getsource(function)))


def test_every_option_is_read_by_its_handler():
    # main() sends every result through _emit; _system reads the shared system flags
    emitted = _args_read(cli._emit)
    for name, sub in _subcommands().items():
        handler = sub.get_default("func")
        read = _args_read(handler) | emitted
        if "_system(args)" in inspect.getsource(handler):
            read |= _args_read(cli._system)
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert dests <= read, (name, sorted(dests - read))


def _fresh_python(*argv, closed=()):
    """Run the interpreter in a fresh process on this checkout's package,
    with the descriptors in `closed` not open at its start.  This is the
    interpreter itself, not a launcher that might reopen a descriptor."""
    src = str(Path(tandemdup.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: [os.close(fd) for fd in closed],
    )


# commands that build no array, so they must answer without numpy
_WITHOUT_NUMPY = {
    "automaton": ["automaton", *SYS3],
    "automaton-dot": ["automaton", *SYS3, "--format", "dot"],
    "member-k3": ["member", *SYS3, "--word", "011212012"],
    "member-k4": ["member", *SYS4, "--word", "011212012"],
    "dedup-k4": ["dedup", "--alphabet", "012", "--word", "0101122", "--max-dup", "4"],
    "dedup-k3-target": ["dedup", "--alphabet", "012", "--word", "0101122", "--max-dup", "3",
                        "--target", "012"],
    "count-k3": ["count", *SYS3, "--max-len", "10"],
    "capacity": ["capacity", *SYS3],
    "express": ["express", "--alphabet", "0123", "--seed", "0123", "--max-dup", "4"],
    "squarefree": ["squarefree", "--length", "12"],
}

# answers each command in turn in one process and prints, per command, its
# exit code and whether numpy is loaded once it has answered
_NUMPY_PROBE = """
import contextlib, io, json, sys
from tandemdup.cli import main
seen = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[name] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""


class TestStartUp:
    def test_commands_that_build_no_array_never_import_numpy(self):
        # verify comes last and cold: it builds arrays, so it loads numpy on
        # its first use and still answers
        commands = {**_WITHOUT_NUMPY, "verify": ["verify", *SYS3, "--check-upto", "8"]}
        proc = _fresh_python("-c", _NUMPY_PROBE, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen == {**{name: [0, False] for name in _WITHOUT_NUMPY}, "verify": [0, True]}

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["squarefree", "--length", "12"], 0),
            (["automaton", *SYS4], 1),
            (["automaton", "--alphabet", "012", "--seed", "012", "--max-dup", "0"], 2),
        ],
        ids=["answer", "domain-error", "usage-error"],
    )
    def test_module_entry_point_exit_codes(self, capsys, argv, code):
        proc = _fresh_python("-m", "tandemdup", *argv)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
        else:
            assert proc.stderr == ""
            assert proc.stdout == run(capsys, *argv)[1]
