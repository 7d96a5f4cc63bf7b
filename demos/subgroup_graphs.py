"""Subgroup graphs of free groups: folding, fiber products, and the
Strengthened Hanna Neumann inequality.
"""

from wordcycles import (
    check_conjugate_intersection,
    check_restated_inequality,
    check_shnc,
    conjugate,
    count_conjugates_meeting,
    format_word,
    intersect,
    is_trivial,
    parse_word,
    rank,
    rose,
    stallings_graph,
)

# Build the folded core graph of H = <a^2, b> inside F(a, b).
h = stallings_graph([parse_word("aa"), parse_word("b")], 2)
print(f"H = <a^2, b>: rank {rank(h)}, graph {h.graph}")

# How many conjugates of <a> meet H?  One, bounded by rank(H) = 2.
rep = count_conjugates_meeting(h, parse_word("a"))
print(f"conjugates of <a> meeting H: {rep.count} <= rank {rep.rank}")

# Intersections through fiber products.
a, b = stallings_graph([parse_word("a")], 2), stallings_graph([parse_word("b")], 2)
print(f"<a> meet <b> trivial: {is_trivial(intersect(a, b))}")
print(f"H meet H is H again: {intersect(h, h).graph == h.graph}")

# Conjugating <a> by b hangs the a-loop off a b-edge.
c = conjugate(a, parse_word("b"))
print(f"b^-1 <a> b: {c.graph}")

# SHNC on the self-pair of H: the fiber product splits into a rank-2 and a
# rank-1 component, giving the equality case 1 = 1 of the inequality.
rep = check_shnc(h, h)
print(f"\nSHNC for (H, H): sum of reduced ranks {rep.lhs} <= {rep.rhs}")

# The Betti-number restatement: fiber with the circle reading w.
rep = check_restated_inequality(parse_word("abAB"), rose(2))
print(f"restated form, w = abAB vs rose: {rep.lhs} <= {rep.rhs}, "
      f"matches class count {rep.class_count}")

# A free factor <a> has more trivial conjugate intersections than its rank
# allows cosets: three distinct cosets force the meet to be trivial.
cosets = [parse_word(t) for t in ("", "b", "bb")]
rep = check_conjugate_intersection(a, cosets)
print(f"\n<a> with cosets {{H, Hb, Hbb}}: intersection trivial = "
      f"{rep.passed}")
