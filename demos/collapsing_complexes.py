"""Disc complexes and free-face collapsing.

Gluing one disc along a representative of each cycle class of a w-cycle
decomposition gives a 2-complex; when the class count equals the Betti
number the complex collapses to a tree, and every immersed complex over a
one-relator target has nonpositive Euler characteristic or is contractible.
"""

from wordcycles import (
    build_gamma_w,
    check_equality_collapse,
    check_npi,
    circle,
    collapses_to_tree,
    decompose,
    euler_characteristic,
    format_word,
    free_faces,
    parse_word,
    rose,
)

# A circle reading w once, with its disc: decompose finds one cycle class,
# build_gamma_w glues one disc along it.  This is the equality case 1 = 1,
# and the disc collapses away through any of its free faces.
w = parse_word("aab")
g = circle(w)
x = build_gamma_w(decompose(g, w))
print(f"disc over the circle reading {format_word(w)}:")
print(f"  euler characteristic = {euler_characteristic(x)}")
print(f"  free faces = {free_faces(x)}")
res = collapses_to_tree(x)
print(f"  collapses to a tree: {res.collapses}, sequence = {res.sequence}")

# The torus complex: rose(a,b) with a disc along the commutator.  No free
# faces (each loop is crossed twice), so no collapse, but chi = 0.
w = parse_word("abAB")
x = build_gamma_w(decompose(rose(2), w))
print(f"\ntorus complex (rose(a,b), commutator disc):")
print(f"  euler characteristic = {euler_characteristic(x)}")
print(f"  free faces = {free_faces(x)}")
print(f"  collapses to a tree: {collapses_to_tree(x).collapses}")

# The two verdicts side by side.
print("\nequality-forces-collapse check:")
for g, word in [(circle(parse_word("ab")), parse_word("ab")),
                (rose(2), parse_word("abAB"))]:
    rep = check_equality_collapse(g, word)
    print(f"  w={format_word(word):6s} classes={rep.class_count} betti={rep.betti}"
          f"  applicable={rep.applicable}  passed={rep.passed}")

print("\nnonpositive-immersion check:")
for g, word, att in [
    (circle(parse_word("ab")), parse_word("ab"), [(0, 1)]),   # a disc
    (rose(2), parse_word("abAB"), [(0, 1)]),                  # the torus
    (rose(2), parse_word("abAB"), []),                        # bare graph
]:
    rep = check_npi(g, word, att)
    print(f"  w={format_word(word):6s} cells={len(att)}  chi={rep.euler:2d}"
          f"  branch={rep.branch}  passed={rep.passed}")
