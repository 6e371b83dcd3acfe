"""
Enumerating a duplication language
==================================

Starting from a seed, apply every bounded duplication in breadth-first
order.  Each step makes the word longer, so one sweep per length is
exhaustive and the counts are exact.
"""

from tandemdup import (
    DuplicationSystem,
    count_words,
    derives_from,
    empirical_capacity,
    enumerate_words,
    exact_capacity,
)

system = DuplicationSystem.parse("012", "012", 3)

# the first few length classes in full
piece = enumerate_words(system, 6)
for n in sorted(piece.by_length):
    print(n, sorted(piece.by_length[n]))

# counts keep going well past the point where listing words is sensible
table = count_words(system, 14)
print("\n n  count")
for n in sorted(table.counts):
    print(f"{n:3d}  {table.counts[n]}")

# membership without enumerating: peel duplications off the candidate
print("\n01212 in the language:", derives_from(system, "01212"))
print("00000 in the language:", derives_from(system, "00000"))

# the growth rate of the counts approaches the exact capacity from below
estimate = empirical_capacity(table)
report = exact_capacity(system)
print(f"\nempirical growth ≈ {estimate.estimate:.5f}")
print(f"exact capacity   = {report.value:.5f}  ({report.exact_form})")
