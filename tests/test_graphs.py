import json
import random

import pytest

from wordcycles.generators import TrialConfig, random_simple_word
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
from wordcycles.words import parse_word


class TestConstructorChecks:
    """The public constructor checks what it is given; graphs the library
    builds for itself skip these checks, so they must hold for outside data."""

    @pytest.mark.parametrize("args, message", [
        ((-1, 1, ()), "alphabet size must be >= 0"),
        ((1, -1, ()), "vertex count must be >= 0"),
        ((1, 2, ((0, 2, 1),)), r"edge \(0,2,1\) has endpoint outside vertex range"),
        ((1, 2, ((-1, 0, 1),)), r"edge \(-1,0,1\) has endpoint outside vertex range"),
        ((2, 2, ((0, 1, 3),)), r"edge \(0,1,3\) has label outside 1..2"),
        ((2, 2, ((0, 1, 0),)), r"edge \(0,1,0\) has label outside 1..2"),
        ((1, 2, (), 2), "basepoint is not a vertex"),
        ((1, 2, (), -1), "basepoint is not a vertex"),
    ])
    def test_rejects(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LabeledDigraph(*args)


class TestValidate:
    def test_rose_is_valid(self):
        assert validate(rose(2)) == []

    def test_outgoing_violation(self):
        g = LabeledDigraph(1, 3, ((0, 1, 1), (0, 2, 1)))
        assert validate(g) == ["vertex 0: 2 outgoing edges with label 1"]

    def test_incoming_violation(self):
        g = LabeledDigraph(1, 3, ((1, 0, 1), (2, 0, 1)))
        assert validate(g) == ["vertex 0: 2 incoming edges with label 1"]

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
            assert walk(f, f.basepoint, parse_word(word)) == f.basepoint

    def test_terminates_and_valid(self):
        g = wedge_of_words([parse_word("abA"), parse_word("ab"), parse_word("b")], 2)
        assert validate(fold(g)) == []


class TestZeroLetter:
    def test_circle_rejects_zero(self):
        with pytest.raises(ValueError, match="letters must be nonzero"):
            circle((1, 0))

    @pytest.mark.parametrize("word, message", [
        ((), "word must be nonempty"),
        ((1, 2, -1), "word 'abA' is not cyclically reduced; apply cyclic_reduce first"),
    ])
    def test_circle_rejects_a_word_it_cannot_close(self, word, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            circle(word)

    def test_circle_takes_a_zero_alphabet_as_given(self):
        # an explicit 0 is an alphabet, as 1 is, not a missing one
        for alphabet in (0, 1):
            with pytest.raises(ValueError, match=f"label outside 1..{alphabet}$"):
                circle((1, 2), alphabet)

    def test_walk_rejects_zero(self):
        with pytest.raises(ValueError, match="letters must be nonzero"):
            walk(rose(2), 0, (0,))
        with pytest.raises(ValueError, match="letters must be nonzero"):
            walk(rose(2), 0, iter((1, 0)))

    def test_walk_reads_an_iterator_once(self):
        g = circle(parse_word("ab"))
        assert walk(g, 0, iter(parse_word("ab"))) == 0
        assert walk(g, 0, iter(parse_word("a"))) == 1


class TestBouquets:
    """circle and rose against their explicit edge lists: edge i of the
    circle reads letter i of w from vertex i, and the rose is one loop per
    letter at vertex 0."""

    @pytest.mark.parametrize("alphabet", [1, 2, 3])
    def test_circle_edges(self, alphabet):
        cfg = TrialConfig(alphabet=alphabet, max_word_length=7)
        for seed in range(60):
            w = random_simple_word(cfg, random.Random(seed))
            n = len(w)
            edges = tuple((i, (i + 1) % n, x) if x > 0 else ((i + 1) % n, i, -x)
                          for i, x in enumerate(w))
            for given in (None, alphabet, alphabet + 1):
                g = circle(w, given)
                assert (g.edges, g.num_vertices, g.basepoint) == (edges, n, 0)
                assert g.alphabet == (max(map(abs, w)) if given is None else given)

    @pytest.mark.parametrize("alphabet", range(6))
    def test_rose_edges(self, alphabet):
        g = rose(alphabet)
        assert g.edges == tuple((0, 0, l) for l in range(1, alphabet + 1))
        assert (g.alphabet, g.num_vertices, g.basepoint) == (alphabet, 1, 0)


class TestWalk:
    @pytest.mark.parametrize("v", [-3, -2, 3, 7])
    def test_walk_rejects_a_start_off_the_graph(self, v):
        # slot rows have n + 1 entries: -3 would read vertex 1's slot, 7 none
        g = LabeledDigraph(1, 3, ((0, 1, 1), (1, 2, 1)))
        with pytest.raises(ValueError, match=f"^walk: vertex {v} not in graph$"):
            walk(g, v, (1,))


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
