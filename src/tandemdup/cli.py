"""Command line front end.

Each question has one engine per duplication bound.  For kmax <= 3 the
language is regular and the minimal automaton answers: `count` and
`capacity --empirical` sweep it once for every length, `generate` reads
its words off, `member` walks it, and `dedup` deletes the first square
until none is left (the root is unique).  None of these spends the
`--budget`.  For kmax >= 4 the exhaustive searches of
`tandemdup.enumeration` answer under the budget, and so do
`dedup --target` and `verify --check-upto` at any bound.

Exit codes: 0 on success, 1 on a `tandemdup.errors.DomainError` (budget
exhausted, unsupported duplication bound, degenerate inputs), 2 on usage
errors: a bad command line, any other `ValueError` from the library, or
an unwritable `--out`.  `main` maps exception types to exit codes once;
handlers call the library directly.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .automaton import (
    REGULAR_KMAX,
    accepted_counts,
    build_automaton,
    language_upto,
    verify_duplication_closure,
)
from .capacity import (
    avoidance_capacity,
    empirical_capacity,
    exact_capacity,
    spectral_capacity,
)
from .core import Alphabet, DuplicationSystem, thue_square_free
from .enumeration import (
    DEFAULT_BUDGET,
    CountTable,
    LanguageSlice,
    count_words,
    dedup_distance,
    dedup_roots,
    derives_from,
    enumerate_words,
    greedy_root,
    length_range,
)
from .errors import DomainError
from .expressiveness import is_fully_expressive


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `usage error:` line, exit code 2;
    subcommand parsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponent forms such as -1e-6 and
        # would read them as options, so the value would never be checked
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def budget(text: str) -> int:
    """The `--budget` type; argparse names it in "invalid budget value"."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _system(args) -> DuplicationSystem:
    return DuplicationSystem.parse(args.alphabet, args.seed, args.max_dup)


def _add_system_flags(sub):
    sub.add_argument("--alphabet", required=True, help="symbols in rank order")
    sub.add_argument("--seed", required=True, help="start word")
    sub.add_argument(
        "--max-dup", type=int, required=True, help="largest duplicated block"
    )


def _add_output_flags(sub, formats=("json", "text")):
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--out", help="write the result to this file")


def _add_budget_flag(sub, when):
    sub.add_argument(
        "--budget",
        type=budget,
        default=DEFAULT_BUDGET,
        help=f"word budget of the exhaustive search, which runs {when}",
    )


def _count_table(system, max_len, limit) -> CountTable:
    """Counts of every length up to max_len, from one sweep over the
    minimal automaton for kmax <= 3 and from the level loop beyond."""
    if system.kmax > REGULAR_KMAX:
        return count_words(system, max_len, limit)
    lengths = length_range(system, max_len)
    counts = accepted_counts(build_automaton(system, minimize=True), max_len)
    return CountTable(system, max_len, {n: counts[n] for n in lengths})


def cmd_generate(args):
    system = _system(args)
    if system.kmax > REGULAR_KMAX:
        piece = enumerate_words(system, args.max_len, args.budget)
    else:
        lengths = length_range(system, args.max_len)
        words = language_upto(build_automaton(system, minimize=True), args.max_len)
        by_length = {n: frozenset(words[n]) for n in lengths}
        piece = LanguageSlice(system, args.max_len, by_length)
    doc = piece.to_json_dict()
    lines = []
    for n in sorted(piece.by_length):
        for w in sorted(system.alphabet.text(x) for x in piece.by_length[n]):
            lines.append(f"{n}\t{w}")
    return doc, lines


def cmd_count(args):
    system = _system(args)
    table = _count_table(system, args.max_len, args.budget)
    doc = table.to_json_dict()
    lines = [f"{n}\t{table.counts[n]}" for n in sorted(table.counts)]
    return doc, lines


def cmd_member(args):
    system = _system(args)
    word = system.alphabet.word(args.word)
    if system.kmax > REGULAR_KMAX:
        member = derives_from(system, word, args.budget)
    else:
        member = build_automaton(system, minimize=True).accepts(word)
    doc = {
        "system": system.to_json_dict(),
        "word": args.word,
        "member": member,
    }
    return doc, [f"member\t{str(member).lower()}"]


def cmd_automaton(args):
    system = _system(args)
    machine = build_automaton(system, minimize=args.minimize)
    if args.format == "dot":
        return None, machine.to_dot().splitlines()
    return machine.to_json_dict(), None


def cmd_capacity(args):
    system = _system(args)
    if args.empirical:
        table = _count_table(system, args.max_len, args.budget)
        estimate = empirical_capacity(table, system.base, args.window)
        doc = estimate.to_json_dict()
    else:
        report = exact_capacity(system)
        doc = report.to_json_dict()
        if args.numeric:
            doc["numericValue"] = spectral_capacity(system, args.tolerance)
    if args.bits:
        doc["valueBits"] = doc["value"] * math.log2(system.base)
    lines = [f"{key}\t{doc[key]}" for key in doc]
    return doc, lines


def cmd_express(args):
    system = _system(args)
    verdict = is_fully_expressive(system)
    doc = verdict.to_json_dict(system.alphabet)
    lines = [f"{key}\t{doc[key]}" for key in doc]
    return doc, lines


def cmd_dedup(args):
    alphabet = Alphabet.parse(args.alphabet)
    word = alphabet.word(args.word)
    if args.max_dup > REGULAR_KMAX:
        roots = dedup_roots(word, args.max_dup, args.budget).roots
    else:
        roots = {greedy_root(word, args.max_dup)}
    doc = {
        "word": args.word,
        "kmax": args.max_dup,
        "roots": sorted(alphabet.text(r) for r in roots),
    }
    lines = [f"root\t{r}" for r in doc["roots"]]
    if args.target is not None:
        target = alphabet.word(args.target)
        distance = dedup_distance(word, target, args.max_dup, args.budget)
        doc["target"] = args.target
        doc["distance"] = distance
        lines.append(f"distance\t{distance}")
    return doc, lines


def cmd_verify(args):
    system = _system(args)
    machine = build_automaton(system, minimize=True)
    certificate = verify_duplication_closure(machine, system.kmax)
    doc = {
        "system": system.to_json_dict(),
        "states": len(machine.states),
        "seedAccepted": machine.accepts(system.seed),
        "closure": certificate.to_json_dict(),
    }
    if args.check_upto is not None:
        piece = enumerate_words(system, args.check_upto, args.budget)
        accepted = language_upto(machine, args.check_upto)
        agrees = all(
            piece.by_length.get(n, frozenset()) == frozenset(accepted.get(n, ()))
            for n in range(len(system.seed), args.check_upto + 1)
        )
        doc["oracleDepth"] = args.check_upto
        doc["oracleAgrees"] = agrees
    lines = [
        f"seed accepted\t{str(doc['seedAccepted']).lower()}",
        f"closure passed\t{str(certificate.passed).lower()}",
        f"superstate fallbacks\t{len(certificate.fallbacks())}",
    ]
    if "oracleAgrees" in doc:
        lines.append(f"oracle agrees\t{str(doc['oracleAgrees']).lower()}")
    return doc, lines


def cmd_squarefree(args):
    alphabet = Alphabet.parse(args.alphabet)
    word = thue_square_free(args.length, alphabet)
    doc = {"length": args.length, "word": alphabet.text(word)}
    return doc, [doc["word"]]


def cmd_avoid(args):
    alphabet = Alphabet.parse(args.alphabet)
    raw = args.forbid or []
    forbidden = [alphabet.word(w) for w in raw]
    value = avoidance_capacity(alphabet, forbidden, args.tolerance)
    doc = {
        "alphabet": alphabet.to_text(),
        "forbidden": list(raw),
        "value": value,
    }
    return doc, [f"value\t{value}"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tandemdup",
        description="bounded tandem duplication string systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("generate", help="enumerate all words up to a length")
    _add_system_flags(sub)
    sub.add_argument("--max-len", type=int, required=True)
    _add_budget_flag(sub, "only for kmax >= 4")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_generate)

    sub = commands.add_parser("count", help="per-length word counts")
    _add_system_flags(sub)
    sub.add_argument("--max-len", type=int, required=True)
    _add_budget_flag(sub, "only for kmax >= 4")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_count)

    sub = commands.add_parser(
        "member", help="membership: automaton for kmax <= 3, reverse search beyond"
    )
    _add_system_flags(sub)
    sub.add_argument("--word", required=True)
    _add_budget_flag(sub, "only for kmax >= 4")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_member)

    sub = commands.add_parser("automaton", help="build the kmax <= 3 automaton")
    _add_system_flags(sub)
    sub.add_argument("--minimize", action="store_true")
    _add_output_flags(sub, formats=("json", "dot"))
    sub.set_defaults(func=cmd_automaton)

    sub = commands.add_parser("capacity", help="growth rate of the language")
    _add_system_flags(sub)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--numeric", action="store_true", help="add the spectral value")
    mode.add_argument("--empirical", action="store_true", help="estimate from counts")
    sub.add_argument("--max-len", type=int, default=14)
    sub.add_argument("--window", type=int, default=5)
    _add_budget_flag(sub, "only for --empirical at kmax >= 4")
    sub.add_argument("--tolerance", type=float, default=1e-10)
    sub.add_argument("--bits", action="store_true", help="also report bits per symbol")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_capacity)

    sub = commands.add_parser("express", help="is every word a factor; a witness if not")
    _add_system_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_express)

    sub = commands.add_parser(
        "dedup",
        help="irreducible roots: first-square deletion for kmax <= 3, search beyond",
    )
    sub.add_argument("--alphabet", required=True)
    sub.add_argument("--word", required=True)
    sub.add_argument("--max-dup", type=int, required=True)
    sub.add_argument("--target", help="also report the distance to this word")
    _add_budget_flag(sub, "for kmax >= 4 and for --target")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_dedup)

    sub = commands.add_parser("verify", help="closure certificate for the automaton")
    _add_system_flags(sub)
    sub.add_argument(
        "--check-upto", type=int, help="also compare against enumeration up to here"
    )
    _add_budget_flag(sub, "only for --check-upto")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("squarefree", help="prefix of a square-free word")
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--alphabet", default="012")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_squarefree)

    sub = commands.add_parser("avoid", help="capacity under forbidden factors")
    sub.add_argument("--alphabet", required=True)
    # repeatable and greedy: --forbid 210 021 and --forbid 210 --forbid 021 both work
    sub.add_argument("--forbid", nargs="+", action="extend", default=None)
    sub.add_argument("--tolerance", type=float, default=1e-6)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_avoid)

    return parser


def _emit(args, doc, lines) -> None:
    if args.format == "json" and doc is not None:
        text = json.dumps(doc, indent=2)
    else:
        text = "\n".join(lines if lines is not None else [json.dumps(doc, indent=2)])
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, lines = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, doc, lines)
    except OSError as exc:
        print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
