"""
Which systems can say everything?
=================================

A system is fully expressive when every word over its alphabet shows up
as a substring of something it generates.  The answer depends almost
entirely on the alphabet size and the block bound, and when the answer
is no there is a concrete word that never appears.
"""

from tandemdup import (
    DuplicationSystem,
    check_coverage,
    derives_from,
    is_fully_expressive,
    iter_tandem_repeats,
    tandem_duplicate,
    verify_witness_absent,
    witness,
)

ladder = [
    ("0", "0", 3),
    ("01", "01", 1),
    ("01", "01", 2),
    ("012", "012", 3),
    ("012", "012", 4),
    ("012", "0112", 4),
    ("0123", "0123", 9),
]

for alphabet, seed, kmax in ladder:
    system = DuplicationSystem.parse(alphabet, seed, kmax)
    verdict = is_fully_expressive(system)
    found = witness(system)
    extra = f"  witness: {found.word}" if found else ""
    print(f"({alphabet}, {seed}, k={kmax}): {verdict.answer:8s} [{verdict.rule}]{extra}")

# the ternary k=3 witness is irreducible and never generated; a finite
# enumeration corroborates the claim for a shorter stand-in window
ternary = DuplicationSystem.parse("012", "012", 3)
w = witness(ternary).word
print("\nternary witness", w)
print("3-irreducible:", not any(iter_tandem_repeats(w, 3)))
print("missing windows of length 3 up to depth 12:", sorted(check_coverage(ternary, 3, 12)))
print("01210 absent to depth 14:", verify_witness_absent(ternary, "01210", 14))

# raising the block bound to 4 repairs all of it: the three missing
# windows each have an explicit derivation
boosted = DuplicationSystem.parse("012", "012", 4)
chains = [
    ["012", "01212", "012101212"],
    ["012", "012012", "01202012", "012021202012"],
    ["012", "012012", "01202012", "012020102012"],
]
for chain in chains:
    for earlier, later in zip(chain, chain[1:]):
        step = next(
            (i, k)
            for k in range(1, 5)
            for i in range(len(earlier) - k + 1)
            if tandem_duplicate(earlier, i, k) == later
        )
        assert derives_from(boosted, later)
        print(f"{earlier} -> {later}  (copy block {step[1]} at {step[0]})")
    print()
print("missing windows at k=4, depth 12:", check_coverage(boosted, 3, 12))
