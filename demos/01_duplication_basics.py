"""
Tandem duplication in ten lines
===============================

A duplication step picks a block of a word and repeats it in place:
uvw becomes uvvw.  Everything else in the package builds on this one
rewriting rule.
"""

from tandemdup import dedup_roots, iter_tandem_repeats, tandem_duplicate, thue_square_free
from tandemdup.enumeration import greedy_root

# copy the block "12" sitting at offset 1
word = tandem_duplicate("0120", 1, 2)
print("0120 with 12 doubled:", word)

# the rule is a no-op when the block sticks out past the end
print("out of range is identity:", tandem_duplicate("01", 1, 2))

# a duplication leaves a square behind, and we can find it again
offset, length = next(iter_tandem_repeats(word, 2))
print("first square in", word, "at offset", offset, "of length", length)
print("undone:", word[: offset + length] + word[offset + 2 * length :])

# all squares with block length at most 3, in (offset, length) order
for offset, length in iter_tandem_repeats("012012012", 3):
    print("square of length", length, "at offset", offset)

# words with no short square are the dead ends of deduplication
print("0121012 is 3-irreducible:", not any(iter_tandem_repeats("0121012", 3)))
print("0101 is 3-irreducible:", not any(iter_tandem_repeats("0101", 3)))

# undoing squares until none is left reaches a root; for block length
# at most 3 it is the only one, so one greedy pass finds it
print("root of 012101212 at k=3:", greedy_root("012101212", 3))
print("roots of 012101212 at k=4:", sorted(dedup_roots("012101212", 4).roots))

# arbitrarily long square-free words exist over three symbols
print("a 40-symbol square-free word:", thue_square_free(40))
