import json

import pytest

from wordcycles.graphs import (
    LabeledDigraph,
    betti,
    canonical_form,
    circle,
    components,
    core,
    dumps,
    fiber_product,
    fold,
    from_json,
    isomorphic,
    loads,
    rose,
    to_dot,
    to_json,
    validate,
    walk,
    wedge_of_words,
)
from wordcycles.cycles import trace
from wordcycles.words import parse_word


class TestValidate:
    def test_rose_is_valid(self):
        assert validate(rose(2)) == []

    def test_outgoing_violation(self):
        g = LabeledDigraph(1, 3, ((0, 1, 1), (0, 2, 1)))
        [v] = validate(g)
        assert (v.vertex, v.label, v.direction) == (0, 1, "outgoing")

    def test_incoming_violation(self):
        g = LabeledDigraph(1, 3, ((1, 0, 1), (2, 0, 1)))
        [v] = validate(g)
        assert v.direction == "incoming"

    def test_single_vertex_no_edges(self):
        assert validate(LabeledDigraph(2, 1, ())) == []

    def test_self_loop_occupies_both_slots(self):
        # a loop uses the outgoing and the incoming slot for its label
        g = LabeledDigraph(1, 2, ((0, 0, 1), (0, 1, 1)))
        assert len(validate(g)) == 1
        g = LabeledDigraph(1, 2, ((0, 0, 1), (1, 0, 1)))
        assert len(validate(g)) == 1


class TestBetti:
    def test_single_vertex(self):
        assert betti(LabeledDigraph(1, 1, ())).total == 0

    def test_rose(self):
        # |E| - |V| + 1 = 2 - 1 + 1
        assert betti(rose(2)).total == 2

    def test_disjoint_cycles(self):
        g = LabeledDigraph(1, 3, ((0, 0, 1), (1, 2, 1), (2, 1, 1)))
        report = betti(g)
        assert report.total == 2
        assert sorted(b for _, b in report.per_component) == [1, 1]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            betti(LabeledDigraph(1, 0, ()))

    def test_isolated_vertex_contributes_zero(self):
        g = LabeledDigraph(1, 2, ((0, 0, 1),))
        assert betti(g).total == 1
        assert len(components(g)) == 2


class TestFold:
    def test_identity_on_deterministic(self):
        g = rose(2)
        assert canonical_form(fold(g)) == canonical_form(g)

    def test_single_fold_step(self):
        g = LabeledDigraph(1, 3, ((0, 1, 1), (0, 2, 1)), basepoint=0)
        f = fold(g)
        assert f.num_vertices == 2
        assert validate(f) == []

    def test_wedge_a_and_aa(self):
        # loops reading "a" and "aa" fold to the single a-loop rose
        g = wedge_of_words([parse_word("a"), parse_word("aa")], 1)
        f = fold(g)
        assert f.num_vertices == 1
        assert f.edges == ((0, 0, 1),)
        for word in ("a", "aa"):
            end, _ = trace(f, f.basepoint, parse_word(word))
            assert end == f.basepoint

    def test_terminates_and_valid(self):
        g = wedge_of_words([parse_word("abA"), parse_word("ab"), parse_word("b")], 2)
        assert validate(fold(g)) == []


class TestZeroLetter:
    def test_circle_rejects_zero(self):
        with pytest.raises(ValueError, match="letters must be nonzero"):
            circle((1, 0))

    def test_walk_rejects_zero(self):
        with pytest.raises(ValueError, match="letters must be nonzero"):
            walk(rose(2), 0, (0,))
        with pytest.raises(ValueError, match="letters must be nonzero"):
            walk(rose(2), 0, iter((1, 0)))

    def test_walk_reads_an_iterator_once(self):
        g = circle(parse_word("ab"))
        assert walk(g, 0, iter(parse_word("ab"))) == 0
        assert walk(g, 0, iter(parse_word("a"))) == 1


class TestCore:
    def test_circle_unchanged(self):
        c = circle(parse_word("ab"))
        assert core(c) == c

    def test_segment_collapses_to_basepoint(self):
        g = LabeledDigraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)), basepoint=0)
        assert core(g) == LabeledDigraph(1, 1, (), basepoint=0)

    def test_pendant_arc_removed(self):
        # circle 0-1 plus arc hanging off vertex 0
        g = LabeledDigraph(
            2, 4, ((0, 1, 1), (1, 0, 2), (0, 2, 2), (2, 3, 1)), basepoint=0
        )
        c = core(g)
        assert c.num_vertices == 2
        assert betti(c).total == betti(g).total

    def test_missing_basepoint(self):
        with pytest.raises(ValueError):
            core(LabeledDigraph(1, 1, ()))


class TestFiberProduct:
    def test_rose_is_identity(self):
        g = circle(parse_word("ab"))
        g = LabeledDigraph(g.alphabet, g.num_vertices, g.edges, 0)
        product = fiber_product(g, rose(2))
        based = canonical_form(
            _component_of(product, product.basepoint)
        )
        assert based == canonical_form(g)

    def test_loop_against_square(self):
        loop = LabeledDigraph(1, 1, ((0, 0, 1),))
        square = LabeledDigraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)))
        product = fiber_product(loop, square)
        assert product.num_vertices == 4
        assert len(product.edges) == 4
        assert betti(product).total == 1
        assert len(components(product)) == 1

    def test_a2_b_self_product(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1), (1, 0, 1), (0, 0, 2)), basepoint=0)
        product = fiber_product(g, g)
        assert product.num_vertices == 4
        assert len(product.edges) == 5
        bettis = sorted(b for _, b in betti(product).per_component)
        assert bettis == [1, 2]

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            fiber_product(rose(1), rose(2))

    def test_edge_count_formula(self):
        g1 = wedge_of_words([parse_word("ab"), parse_word("ba")], 2)
        g2 = fold(wedge_of_words([parse_word("aab")], 2))
        product = fiber_product(fold(g1), g2)
        expected = 0
        for l in (1, 2):
            n1 = sum(1 for *_, lab in fold(g1).edges if lab == l)
            n2 = sum(1 for *_, lab in g2.edges if lab == l)
            expected += n1 * n2
        assert len(product.edges) == expected


def _component_of(g, v):
    from wordcycles.graphs import component_containing

    return component_containing(g, v)


class TestCanonicalForm:
    def test_permutation_invariance(self):
        g = LabeledDigraph(2, 3, ((0, 1, 1), (1, 2, 2), (2, 0, 1)), basepoint=0)
        perm = {0: 2, 1: 0, 2: 1}
        h = LabeledDigraph(
            2, 3,
            tuple((perm[s], perm[d], l) for s, d, l in g.edges),
            basepoint=perm[0],
        )
        assert canonical_form(g) == canonical_form(h)
        assert isomorphic(g, h)

    def test_rose_fixed(self):
        assert canonical_form(rose(2)) == rose(2)

    def test_distinguishes_non_isomorphic(self):
        g1 = LabeledDigraph(1, 2, ((0, 1, 1),))
        g2 = LabeledDigraph(1, 2, ((0, 0, 1),))  # loop + isolated vertex
        with pytest.raises(ValueError):
            canonical_form(g2)  # disconnected
        assert canonical_form(g1) != canonical_form(
            LabeledDigraph(1, 1, ((0, 0, 1),))
        )

    def test_no_basepoint_minimum_over_starts(self):
        g = LabeledDigraph(1, 2, ((0, 1, 1),))
        h = LabeledDigraph(1, 2, ((1, 0, 1),))
        assert canonical_form(g) == canonical_form(h)


class TestSerialization:
    def test_roundtrip(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1), (1, 0, 1), (0, 0, 2)), basepoint=0)
        assert loads(dumps(g)) == g

    def test_format_shape(self):
        obj = to_json(rose(2))
        assert obj == {
            "alphabet": 2,
            "vertices": ["v0"],
            "edges": [
                {"src": "v0", "dst": "v0", "label": 1},
                {"src": "v0", "dst": "v0", "label": 2},
            ],
            "basepoint": "v0",
        }

    def test_opaque_string_ids(self):
        obj = {
            "alphabet": 1,
            "vertices": ["start", "end"],
            "edges": [{"src": "start", "dst": "end", "label": 1}],
            "basepoint": "end",
        }
        g = from_json(obj)
        assert g.num_vertices == 2 and g.basepoint == 1

    def test_bad_vertex_id(self):
        with pytest.raises(ValueError, match="unknown vertex id 'nope'"):
            from_json(
                {
                    "alphabet": 1,
                    "vertices": ["v0"],
                    "edges": [{"src": "v0", "dst": "nope", "label": 1}],
                }
            )

    def test_dot_export(self):
        dot = to_dot(rose(2))
        assert dot.startswith("digraph")
        assert 'label="a"' in dot and 'label="b"' in dot
