"""
Shrinking: from the failure you found to the failure you can read
=================================================================

Random sampling finds failures at arbitrary points.  Every draw is a
sequence of bounded integer choices, and a failing value is shrunk by
editing that sequence, replaying each edit into a fresh value, and keeping
it while the predicate still fails and the choices it used are
shortlex-smaller.  The report keeps both ends: the original hit and the
minimized one.
"""

from tricheck.fuzz import run_fuzz
from tricheck.harness import Property, RunConfig
from tricheck.prng import SplitMix64
from tricheck.strategies import int_range, list_of, random_tree

# A predicate that fails for roughly half the domain: the fuzzer trips over
# some large random value, then shrinking walks it down to the boundary.
threshold = Property("demo.threshold", int_range(0, 2**32 - 1),
                     lambda x: x < 50_000)
verdict = run_fuzz(threshold, RunConfig(seed=3, cases=256))
cex = verdict.counterexample
print("original failure:", cex.original)
print("shrunk failure:  ", cex.shrunk)   # exactly the smallest failing value
print("found at case:   ", cex.case_index, "with seed", cex.seed)

# An integer draw is one choice: its offset from the range's low end.  The
# edits of a choice v form a bisection ladder toward 0: 0 itself, then v
# minus half of v, a quarter, ... down to v-1.  Greedy descent over that
# ladder is why the shrunk value above is the exact boundary, not just
# "smaller".
tree = random_tree(int_range(0, 100), SplitMix64(9))
print()
print("a draw:       ", tree.current, "from the choices", tree.choices)
print("its ladder:   ", [t.current for t in tree.candidates()])

# A list is a size choice followed by its elements' choices, so it shrinks
# structurally first, then element-wise: a failing list tries truncations
# (shortest first), then dropping single positions (the size lowered and the
# element's choices deleted), then lowering each element's choice in place.
def no_big_sum(xs):
    return sum(xs) < 150

lists = Property("demo.lists", list_of(int_range(0, 100), 0, 6), no_big_sum)
verdict = run_fuzz(lists, RunConfig(seed=8, cases=500))
cex = verdict.counterexample
print()
print("original list:", cex.original, "sum", sum(cex.original))
print("shrunk list:  ", cex.shrunk, "sum", sum(cex.shrunk))
