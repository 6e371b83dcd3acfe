"""
A finite automaton for the whole language
=========================================

For block lengths up to 3 the duplication language is regular.  The
construction lays down a regular expression over the seed's own symbols,
compiles it to a position automaton with one state per symbol occurrence,
and determinizes.  The resulting machine answers questions that plain
enumeration cannot reach.
"""

from tandemdup import (
    Alphabet,
    DuplicationSystem,
    build_automaton,
    count_accepted,
    enumerate_words,
    language_upto,
    transfer_matrix,
    verify_duplication_closure,
)
from tandemdup.automaton import avoidance_automaton

system = DuplicationSystem.parse("012", "012", 3)
machine = build_automaton(system)
print(machine)

# the machine and the enumeration agree word for word
accepted = language_upto(machine, 9)
enumerated = enumerate_words(system, 9).by_length
print("agree up to length 9:", all(
    set(accepted.get(n, ())) == set(enumerated.get(n, ())) for n in range(3, 10)
))

# counting at lengths far beyond enumeration
for n in (20, 40, 80):
    print(f"words of length {n}:", count_accepted(machine, n))

# the transfer matrix drives the counting; its dominant eigenvalue is
# the growth factor per symbol
print("transfer matrix shape:", transfer_matrix(machine).shape)

# a certificate that the language really is closed under duplication:
# every short label arriving at a state replays from that state
certificate = verify_duplication_closure(machine, 3)
print("closure certified:", certificate.passed)

# the words avoiding 02 are not closed under duplication, and the failed
# certificate names a word they hold whose duplicate they do not
avoiding = avoidance_automaton(Alphabet("012"), ["02"])
failed = verify_duplication_closure(avoiding, 4)
prefix, label, suffix = next(c.counterexample for c in failed.checks if c.counterexample)
print("words avoiding 02 closed:", failed.passed)
print(f"they hold {prefix + label + suffix!r} but not {prefix + label + label + suffix!r}")

# smaller equivalent machine, and a DOT drawing for graphviz
print("minimized:", machine.minimized())
print("\n" + "\n".join(machine.minimized().to_dot().splitlines()[:6]) + "\n...")
