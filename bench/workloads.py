"""Deterministic query lists for the benchmark workloads.

A query list is a pure function of the workload name and the workload
seed: the same pair always gives the same queries, in the same order.
Sizes follow fixed schedules and only the symbols are random, so lists for
different seeds differ in content, not in size.
Inputs are built from the seed with `random.Random` and a few helpers
from the package that only shape inputs (the k <= 3 automaton rejects
candidate non-members, `witness` supplies proven absent factors); no
query answer is computed here.  Facts the oracle needs later, such as
"this word is a member by construction", travel with each query in
`expect`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from tandemdup import DuplicationSystem, build_automaton
from tandemdup.expressiveness import witness

WORKLOADS = ("regular-k3", "enumeration")

# every query issued through the CLI names its subcommand in `op`;
# the rest are calls to public functions documented in the README
CALL_OPS = ("count_accepted", "check_coverage", "verify_witness_absent")


@dataclass(frozen=True)
class Query:
    qid: int
    op: str
    alphabet: str
    seed: str
    kmax: int
    params: Dict[str, object] = field(default_factory=dict)
    expect: Dict[str, object] = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.op not in CALL_OPS

    def argv(self) -> List[str]:
        """Command line for a CLI query, without the output flags."""
        p = self.params
        system = ["--alphabet", self.alphabet, "--seed", self.seed, "--max-dup", str(self.kmax)]
        if self.op == "automaton":
            return ["automaton", *system, "--minimize"]
        if self.op == "capacity":
            if p["mode"] == "numeric":
                return ["capacity", *system, "--numeric"]
            return ["capacity", *system, "--empirical", "--max-len", str(p["max_len"])]
        if self.op == "verify":
            return ["verify", *system, "--check-upto", str(p["check_upto"])]
        if self.op in ("count", "generate"):
            return [self.op, *system, "--max-len", str(p["max_len"])]
        if self.op == "member":
            return ["member", *system, "--word", p["word"]]
        if self.op == "dedup":
            argv = ["dedup", "--alphabet", self.alphabet, "--word", p["word"],
                    "--max-dup", str(self.kmax)]
            if "target" in p:
                argv += ["--target", p["target"]]
            return argv
        raise ValueError(f"{self.op} is not a CLI query")

    def label(self) -> str:
        return self.argv()[0] if self.is_cli else self.op


# ---------------------------------------------------------------------------
# word builders


def square_free(rng: random.Random, alphabet: str, length: int) -> str:
    """Random square-free word that uses every symbol of the alphabet."""
    while True:
        word = ""
        for _ in range(length):
            options = [
                c for c in alphabet
                if not any(
                    (word + c)[-2 * b : -b] == (word + c)[-b:]
                    for b in range(1, (len(word) + 1) // 2 + 1)
                )
            ]
            if not options:
                break
            word += rng.choice(options)
        if len(word) == length and set(word) == set(alphabet):
            return word


def spaced_squares(word: str, count: int) -> str:
    """Duplicate `count` blocks of 2 and 3 symbols, in turn, at evenly spaced
    places.  Random places make the subset blow-up heavy-tailed; even spacing
    keeps it near its mean."""
    for j in range(count):
        b = (2, 3)[j % 2]
        i = (j + 1) * len(word) // (count + 1) - b // 2
        word = word[: i + b] + word[i:]
    return word


def spread_growth(rng: random.Random, word: str, kmax: int, length: int) -> str:
    """Duplicate blocks of 1, 2, ..., kmax symbols in turn until the word has
    `length` symbols.  The j-th block starts at fraction (phase + j * 0.618...)
    mod 1 of the word, so duplications spread evenly instead of piling up,
    which is what gives random growth its heavy-tailed peeling cost."""
    phase = rng.random()
    j = 0
    while len(word) < length:
        b = min(1 + j % kmax, len(word), length - len(word))
        i = int((phase + j * 0.6180339887) % 1.0 * (len(word) - b + 1))
        word = word[: i + b] + word[i:]
        j += 1
    return word


def duplicate_at_random(rng: random.Random, word: str, block: int, count: int) -> str:
    """Apply `count` duplications of `block` symbols at random places."""
    for _ in range(count):
        i = rng.randrange(len(word) - block + 1)
        word = word[: i + block] + word[i:]
    return word


# ---------------------------------------------------------------------------
# regular-k3: the k <= 3 automaton pipeline


def _regular_k3(rng: random.Random) -> List[tuple]:
    out = []
    # seeds with a few short squares: the squares drive the subset blow-up
    for i in range(48):
        alphabet = ("012", "0123")[i % 2]
        base = square_free(rng, alphabet, 8 + 2 * (i // 2 % 6))
        seed = spaced_squares(base, 1 + i // 12)
        out.append(("automaton", alphabet, seed, 3, {}, {}))
    for i in range(12):
        alphabet = ("012", "0123")[i % 2]
        seed = "".join(rng.choice(alphabet) for _ in range(30 + 4 * i))
        out.append(("automaton", alphabet, seed, 2, {}, {}))
    for i in range(24):
        alphabet = ("012", "0123")[i % 2]
        kmax = (2, 3)[i // 2 % 2]
        base = square_free(rng, alphabet, 6 + 2 * (i // 4 % 6))
        seed = spaced_squares(base, i % 3)
        out.append(("capacity", alphabet, seed, kmax, {"mode": "numeric"}, {}))
    for i in range(12):
        alphabet = ("012", "0123")[i % 2]
        kmax = (2, 3)[i // 2 % 2]
        seed = square_free(rng, alphabet, 4 + i // 4)
        out.append(("verify", alphabet, seed, kmax, {"check_upto": len(seed) + 3}, {}))
    for i in range(12):
        alphabet = ("012", "0123")[i % 2]
        base = square_free(rng, alphabet, 6 + 2 * (i // 2 % 3))
        seed = spaced_squares(base, i // 6)
        out.append(("count_accepted", alphabet, seed, 3, {"n": 150 + 25 * (i % 6)}, {}))
    return out


# ---------------------------------------------------------------------------
# enumeration, forward half: the breadth-first level loop


def _forward_levels(rng: random.Random) -> List[tuple]:
    out = []
    for kmax in (3, 4):
        # seeds of 8-10 symbols grown by six to max-len 14-16: many
        # mid-sized counts spread seed-to-seed less than a few big ones
        for i in range(18):
            alphabet = ("012", "0123")[i % 2]
            seed = square_free(rng, alphabet, 8 + i // 2 % 3)
            out.append(("count", alphabet, seed, kmax, {"max_len": len(seed) + 6}, {}))
        for i in range(6):
            alphabet = ("012", "0123")[i % 2]
            seed = square_free(rng, alphabet, 4 + i // 2 % 2)
            out.append(("generate", alphabet, seed, kmax, {"max_len": len(seed) + 7}, {}))
    for i in range(4):
        alphabet = ("012", "0123")[i % 2]
        seed = square_free(rng, alphabet, 5 + i // 2)
        out.append(("capacity", alphabet, seed, 3, {"mode": "empirical", "max_len": len(seed) + 8}, {}))
    # the open cell of the expressiveness ladder: ternary, k >= 4, seed not abc
    for i in range(6):
        seed = square_free(rng, "012", 4 + i % 2)
        out.append(("check_coverage", "012", seed, 4, {"length": 5, "max_len": len(seed) + 8}, {}))
    for i in range(6):
        seed = square_free(rng, "0123", 4 + i % 2)
        absent = witness(DuplicationSystem.parse("0123", seed, 4)).word
        out.append(("verify_witness_absent", "0123", seed, 4,
                    {"word": absent, "max_len": len(seed) + 8}, {}))
    return out


# ---------------------------------------------------------------------------
# enumeration, reverse half: membership and deduplication by square peeling


_PEEL_SYSTEMS = (("012", 3), ("0123", 3), ("0123", 4), ("012", 4))


def _mutated_non_member(rng: random.Random, seed: str, member: str, dfa) -> str:
    """Change one interior symbol of a member until the k <= 3 automaton
    rejects the word, keeping its first and last symbol and symbol set."""
    while True:
        i = rng.randrange(1, len(member) - 1)
        c = rng.choice([x for x in seed if x != member[i]])
        word = member[:i] + c + member[i + 1 :]
        if set(word) == set(seed) and not dfa.accepts(word):
            return word


def _planted_non_member(rng: random.Random, member: str, absent: str) -> str:
    """Write a proven absent factor over the middle of a member; the first
    and last symbol stay, and the symbol set stays when the seed uses the
    whole alphabet."""
    i = rng.randrange(1, len(member) - len(absent))
    return member[:i] + absent + member[i + len(absent) :]


def _reverse_peel(rng: random.Random) -> List[tuple]:
    out = []
    # each (system, kind) pair gets every word length of its schedule once;
    # ternary k = 4 peels slowest, so its words stop at 21 symbols
    for i in range(64):
        alphabet, kmax = _PEEL_SYSTEMS[i % 4]
        seed = square_free(rng, alphabet, 5 if alphabet == "0123" else 4)
        system = DuplicationSystem.parse(alphabet, seed, kmax)
        step = i // 16 % 4
        length = 18 + (step if (alphabet, kmax) == ("012", 4) else 2 * step)
        word = spread_growth(rng, seed, kmax, length)
        kind = i // 4 % 4
        if kind == 0:
            out.append(("member", alphabet, seed, kmax, {"word": word}, {"member": True}))
        elif kind == 1:
            if alphabet == "012" and kmax == 4:
                # no proven absent factor over three symbols: a member instead
                out.append(("member", alphabet, seed, kmax, {"word": word}, {"member": True}))
                continue
            if kmax <= 3:
                bad = _mutated_non_member(rng, seed, word, build_automaton(system))
                expect = {"member": False}
            else:
                absent = witness(system).word
                bad = _planted_non_member(rng, word, absent)
                expect = {"member": False, "absent": absent}
            out.append(("member", alphabet, seed, kmax, {"word": bad}, expect))
        elif kind == 2:
            out.append(("dedup", alphabet, seed, kmax, {"word": word}, {}))
        else:
            # a target reached by j duplications of exactly kmax symbols lies at
            # dedup distance exactly j: each step removes at most kmax symbols
            steps = 2 + i // 16 % 2
            target = spread_growth(rng, seed, kmax, length - steps * kmax)
            word = duplicate_at_random(rng, target, kmax, steps)
            out.append(("dedup", alphabet, seed, kmax, {"word": word, "target": target},
                        {"distance": steps}))
    return out


# ---------------------------------------------------------------------------
# enumeration: the forward level loop and the reverse search side by side


def _enumeration(rng: random.Random) -> List[tuple]:
    # the reverse half repeats its size schedule six rounds, with fresh
    # symbols: its many short queries set the latency quantiles, and fewer
    # of them would let the seed move the 75th percentile
    return _forward_levels(rng) + [row for _ in range(6) for row in _reverse_peel(rng)]


_BUILDERS: Dict[str, Callable[[random.Random], List[tuple]]] = {
    "regular-k3": _regular_k3,
    "enumeration": _enumeration,
}

# one small fixed query per workload, answered during set-up
WARMUP: Dict[str, Tuple] = {
    "regular-k3": ("automaton", "012", "012", 3, {}, {}),
    "enumeration": ("count", "012", "012", 3, {"max_len": 8}, {}),
}


def build_queries(workload: str, seed: int) -> List[Query]:
    """The query list for one workload and workload seed, in the order it is sent."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    rows = _BUILDERS[workload](rng)
    rng.shuffle(rows)
    return [Query(qid, *row) for qid, row in enumerate(rows)]


def warmup_query(workload: str) -> Query:
    return Query(-1, *WARMUP[workload])
