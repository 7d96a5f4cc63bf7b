"""Counting cycles labeled by powers of a word, against the Betti number.

Walk through the basic objects: trace a word through an inverse automaton,
decompose the induced partial injection into orbit cycles, and watch the
class count stay below the first Betti number on random instances.
"""

import random

from wordcycles import (
    LabeledDigraph,
    TrialConfig,
    betti,
    check_main_inequality,
    decompose,
    format_word,
    oracle_counts,
    parse_word,
    random_inverse_automaton,
    random_simple_word,
    rose,
)

# The rose with loops a and b: every word traces closed at the single vertex,
# so the commutator gives exactly one cycle class, against Betti number 2.
g = rose(2)
w = parse_word("abAB")
dec = decompose(g, w)
print(f"rose(a,b), w = {format_word(w)}:")
print(f"  classes = {dec.class_count}, with multiplicity = {dec.count_with_multiplicity}")
print(f"  betti = {betti(g).total}")
print(f"  edge multiplicities = {dec.edge_multiplicity}  (each loop crossed twice)")

# The a-labeled square: tracing 'a' is a 4-cycle permutation, so there are
# four based cycles but a single equivalence class.
square = LabeledDigraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)))
a = parse_word("a")
dec = decompose(square, a)
print(f"\na-square, w = a:")
print(f"  classes = {dec.class_count}, with multiplicity = {dec.count_with_multiplicity}")
print(f"  brute-force oracle agrees: {oracle_counts(square, a)}")

# The inequality as a universal property over random instances.
cfg = TrialConfig(master_seed=1, max_vertices=20, alphabet=3, max_word_length=12)
print("\nrandom instances (classes <= betti):")
for seed in range(8):
    g = random_inverse_automaton(cfg, random.Random(seed))
    w = random_simple_word(cfg, random.Random(seed))
    rep = check_main_inequality(g, w)
    marker = "=" if rep.total_classes == rep.total_betti else "<"
    print(
        f"  |V|={g.num_vertices:2d}  w={format_word(w):12s}  "
        f"{rep.total_classes} {marker} {rep.total_betti}  passed={rep.passed}"
    )
