"""Command line front end.

Each question has one engine per duplication bound.  For kmax <= 3 the
language is regular: `count` and `capacity --empirical` sweep the minimal
automaton once for every length, `generate` reads its words off it,
`member` walks the seed's position automaton and forms its subsets only
as the word reaches them, so no machine is built, and `dedup` deletes
each square as soon as a left-to-right pass completes it (the root is
unique).  None of these spends the `--budget`.  For kmax >= 4 the
exhaustive searches of `tandemdup.enumeration` answer under the budget,
and so do `dedup --target` and `verify --check-upto` at any bound.

Exit codes: 0 on success, 1 on a `tandemdup.errors.DomainError` (budget
exhausted, unsupported duplication bound, degenerate inputs), 2 on usage
errors: a bad command line, any other `ValueError` from the library, or
an unwritable `--out` or standard output, such as a pipe whose reader
has gone.  A closed standard error loses the one-line message, not the
exit code, and help or the version lost on a closed standard output
keep argparse's 0.  A stream closed at start-up, as after `>&-` or
`2>&-`, counts as closed: an answer with no standard output exits 2,
help or the version with none exits 0 and writes nothing, and an error
line with no standard error is lost; neither goes to the other stream.
`main` maps exception types to exit codes once; handlers call the
library directly.  `main` parses a command line that names a subcommand
with that subcommand's parser alone; the top-level parser serves help,
the version and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import __version__
from .automaton import (
    REGULAR_KMAX,
    _json_text,
    accepted_counts,
    build_automaton,
    language_upto,
    position_walk,
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

    def _print_message(self, message, file=None):
        # a sys.stdout closed at start-up is None, which argparse reads as stderr
        if file is not None:
            super()._print_message(message, file)


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
        by_length = {n: tuple(words[n]) for n in lengths}
        piece = LanguageSlice(system, args.max_len, by_length)
    doc = piece.to_json_dict()
    if args.format == "json":
        return doc, None
    return doc, [f"{n}\t{w}" for n, words in doc["words"].items() for w in words]


def cmd_count(args):
    system = _system(args)
    table = _count_table(system, args.max_len, args.budget)
    doc = table.to_json_dict()
    if args.format == "json":
        return doc, None
    return doc, [f"{n}\t{table.counts[n]}" for n in sorted(table.counts)]


def cmd_member(args):
    system = _system(args)
    word = system.alphabet.word(args.word)
    if system.kmax > REGULAR_KMAX:
        member = derives_from(system, word, args.budget)
    else:
        member = position_walk(system)(word)
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
        estimate = empirical_capacity(table, window=args.window)
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
            list(piece.by_length.get(n, ())) == accepted[n]
            for n in range(len(system.seed), args.check_upto + 1)
        )
        doc["oracleDepth"] = args.check_upto
        doc["oracleAgrees"] = agrees
    lines = [
        f"seed accepted\t{str(doc['seedAccepted']).lower()}",
        f"closure passed\t{str(certificate.passed).lower()}",
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
    text = _json_text(doc) if args.format == "json" else "\n".join(lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    elif sys.stdout is None:
        # closed at start-up: print would drop the text without an error
        import errno

        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    else:
        # flushed here, so a closed pipe fails inside `main`, not at exit
        print(text, flush=True)


def _flush(stream) -> None:
    """Flush `stream`, or, if it is closed, point its descriptor at devnull:
    the flush at exit would fail again on what is left in the buffer and
    change the exit code.  A stream closed at start-up is None, and has
    nothing to flush."""
    if stream is None:
        return
    try:
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _complain(line: str) -> None:
    """Write one line to standard error.  A closed one loses the line, not
    the exit code: the error is ignored, as argparse ignores it for its own
    messages.  One closed at start-up is None, and print would write the
    line to standard output instead."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


@functools.cache
def _parser() -> tuple:
    """The top-level parser and its subcommand parsers by name, built once
    per process: a build costs a few milliseconds, and parsing leaves a
    parser unchanged.  `main` parses a command line that starts with a
    subcommand name with that subparser alone, which reads each argument
    once, not twice; the top-level parser serves help, the version and
    usage errors.  Handlers are bound here but look library functions up
    as module globals on every call, so patching those still takes
    effect."""
    parser = build_parser()
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return parser, commands.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    if argv and argv[0] in commands:
        parser, argv = commands[argv[0]], argv[1:]
    # exact counts outgrow the interpreter's limit on writing an int as text
    # (4 300 digits by default), so it is lifted while the answer is computed
    # and written; the arguments are read under it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            doc, lines = args.func(args)
        except DomainError as exc:
            _complain(f"error: {exc}")
            return 1
        except ValueError as exc:
            _complain(f"usage error: {exc}")
            return 2
        try:
            _emit(args, doc, lines)
        except OSError as exc:
            target = "--out" if args.out else "standard output"
            _complain(f"usage error: cannot write {target}: {exc}")
            return 2
        return 0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        # a closed stream fails here, not in the flush at exit, which would
        # change the exit code; argparse ignores one, but leaves its text
        # in the buffer
        _flush(sys.stdout)
        _flush(sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
