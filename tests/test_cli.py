import argparse
import inspect
import json
import math
import random
import re

import pytest

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
from tandemdup.cli import build_parser, main
from helpers import canonical_patterns


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


class TestCount:
    def test_json_and_text_agree(self, capsys):
        doc = run_json(capsys, "count", *SYS3, "--max-len", "8")
        code, out = run(capsys, "count", *SYS3, "--max-len", "8", "--format", "text")
        assert code == 0
        text_counts = dict(line.split("\t") for line in out.splitlines())
        assert {k: str(v) for k, v in doc["counts"].items()} == text_counts
        assert doc["counts"]["8"] == 138


class TestMember:
    def test_yes(self, capsys):
        doc = run_json(capsys, "member", *SYS3, "--word", "01212")
        assert doc["member"] is True

    def test_no(self, capsys):
        code, out = run(capsys, "member", *SYS3, "--word", "00000", "--format", "text")
        assert code == 0
        assert out.strip() == "member\tfalse"


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
            # the breadth-first distance search spends the budget at any kmax
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
             lambda system: empirical_capacity(count_words(system, 10), 3).to_json_dict()),
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
        ],
        ids=["avoid", "capacity-numeric"],
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
    ],
    ids=["negative-length", "two-symbol-squarefree", "max-len-below-seed",
         "target-longer-than-word", "max-dup-zero", "one-symbol-forbidden-word",
         "zero-window", "negative-window", "negative-numeric-tolerance",
         "negative-avoid-tolerance", "capacity-exact", "express-witness",
         "witness-subcommand", "missing-seed", "non-integer-max-dup",
         "exponent-avoid-tolerance", "numeric-with-empirical", "count-budget-zero",
         "member-budget-zero", "dedup-budget-zero", "verify-budget-zero",
         "capacity-negative-budget"],
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


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    code = main(["squarefree", "--length", "5", "--out", str(tmp_path / "missing" / "w.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage error: ") and len(captured.err.splitlines()) == 1


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
