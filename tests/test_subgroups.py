import warnings

import pytest

from wordcycles.graphs import LabeledDigraph, canonical_form, rose
from wordcycles.subgroups import (
    SubgroupGraph,
    check_conjugate_intersection,
    check_restated_inequality,
    check_shnc,
    conjugate,
    contains,
    count_conjugates_meeting,
    intersect,
    is_trivial,
    rank,
    stallings_graph,
)
from wordcycles.words import parse_word


def w(text):
    return parse_word(text)


def sg(*texts, alphabet=2):
    return stallings_graph([w(t) for t in texts], alphabet)


class TestStallingsGraph:
    def test_basis_gives_rose(self):
        h = sg("a", "b")
        assert h.graph == rose(2)
        assert rank(h) == 2

    def test_a2_b(self):
        h = sg("aa", "b")
        assert h.graph.num_vertices == 2
        assert sorted(h.graph.edges) == [(0, 0, 2), (0, 1, 1), (1, 0, 1)]
        assert rank(h) == 2

    def test_a_and_aa_collapse(self):
        h = sg("a", "aa")
        assert h.graph == LabeledDigraph(2, 1, ((0, 0, 1),), 0)
        assert rank(h) == 1

    def test_unreduced_generator_warns(self):
        with pytest.warns(UserWarning, match="not freely reduced"):
            h = stallings_graph([w("abBa")], 2)
        assert rank(h) == 1

    @pytest.mark.parametrize("gens, messages, want", [
        (["abB"], ["generator abB was not freely reduced; using a"], ["a"]),
        (["aA", "b"], ["generator aA was not freely reduced; using (empty)"], ["b"]),
        (["aA"], ["generator aA was not freely reduced; using (empty)"], []),
        (["ab", "BbA", "abBA"], ["generator BbA was not freely reduced; using A",
                                 "generator abBA was not freely reduced; using (empty)"],
         ["ab", "A"]),
    ])
    @pytest.mark.parametrize("kind", [tuple, list])
    def test_unreduced_generator_warnings(self, gens, messages, want, kind):
        # one warning per unreduced generator, at the caller's line; an
        # empty reduction drops its generator, and a list reads as its tuple
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = stallings_graph([kind(w(t)) for t in gens], 2)
        assert [str(c.message) for c in caught] == messages
        assert {c.category for c in caught} <= {UserWarning}
        assert {c.filename for c in caught} <= {__file__}
        assert h == stallings_graph([w(t) for t in want], 2)

    def test_zero_letter_rejected_before_any_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would raise in place of the error
            for gens in [(1, 1, -1), (0,)], [[2, -2], [1, 0, -1]]:
                with pytest.raises(ValueError, match="letters must be nonzero"):
                    stallings_graph(gens, 2)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            stallings_graph([w("a")], 0)

    @pytest.mark.parametrize("gens", [[(-2,), (3,)], [(3,)], [(1, -3, 2)],
                                      [(3, -3), (1,)], [(1, -3, 3)]])
    def test_letter_outside_alphabet_rejected(self, gens):
        with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
            stallings_graph(gens, 2)

    def test_trivial_subgroup(self):
        h = stallings_graph([], 2)
        assert is_trivial(h) and rank(h) == 0

    def test_rank_bounded_by_generators(self):
        h = sg("ab", "ba", "aabb")
        assert rank(h) <= 3

    def test_generators_trace_closed(self):
        gens = ("abAB", "ba")
        h = sg(*gens)
        for text in gens:
            assert contains(h, w(text))


class TestConstructor:
    """SubgroupGraph(g) checks g, then keeps the canonical core of its based
    component, so graphs of one subgroup make equal subgroup graphs."""

    def test_spur_is_cored_away(self):
        h = SubgroupGraph(LabeledDigraph(1, 2, ((0, 1, 1),), 0))
        assert is_trivial(h)
        assert h == stallings_graph([], 1)

    def test_renumbered_from_the_basepoint(self):
        h = SubgroupGraph(LabeledDigraph(1, 2, ((0, 1, 1), (1, 0, 1)), 1))
        assert h == stallings_graph([w("aa")], 1)

    def test_other_components_dropped(self):
        h = SubgroupGraph(LabeledDigraph(2, 3, ((1, 2, 2), (0, 0, 1), (2, 1, 2)), 0))
        assert h == stallings_graph([w("a")], 2)

    def test_needs_a_basepoint(self):
        with pytest.raises(ValueError, match="needs a basepoint"):
            SubgroupGraph(LabeledDigraph(1, 1, ((0, 0, 1),)))

    def test_needs_a_folded_graph(self):
        with pytest.raises(ValueError):
            SubgroupGraph(LabeledDigraph(1, 2, ((0, 0, 1), (0, 1, 1)), 0))


class TestMembership:
    def test_powers(self):
        h = sg("aa", "b")
        assert contains(h, w("aa"))
        assert contains(h, w("aaaab"))
        assert not contains(h, w("a"))
        assert contains(h, ())


class TestConjugate:
    def test_empty_conjugator(self):
        h = sg("ab", "ba")
        assert conjugate(h, ()).graph == h.graph

    def test_b_conjugate_of_a(self):
        h = sg("a")
        c = conjugate(h, w("b"))
        # a-loop reached by a b-edge from the base
        assert c.graph.num_vertices == 2
        assert rank(c) == 1
        labels = sorted(l for *_, l in c.graph.edges)
        assert labels == [1, 2]

    @pytest.mark.parametrize("g", [(3,), (1, 3), (-3, 3)])
    def test_letter_outside_alphabet_rejected(self, g):
        with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
            conjugate(sg("ab", "B"), g)

    @pytest.mark.parametrize("g", [(0,), (1, 0, -1), (1, 0)])
    def test_zero_letter_rejected(self, g):
        with pytest.raises(ValueError, match="letters must be nonzero"):
            conjugate(sg("ab", "B"), g)

    def test_round_trip(self):
        h = sg("abA", "bb")
        back = conjugate(conjugate(h, w("ab")), w("BA"))
        assert back.graph == h.graph

    def test_intersection_keeps_its_rank(self):
        # an intersection is built from the product graph, not from words
        meet = intersect(sg("aa", "b"), sg("aaa", "b"))
        c = conjugate(meet, w("a"))
        assert rank(meet) == rank(c) == 2
        assert contains(c, w("Abbba")) and not contains(c, w("b"))
        assert conjugate(c, w("A")).graph == meet.graph


class TestIntersect:
    def test_full_rose_is_identity(self):
        h = sg("aa", "b")
        full = sg("a", "b")
        assert intersect(h, full).graph == h.graph

    def test_disjoint_cyclic(self):
        assert is_trivial(intersect(sg("a"), sg("b")))

    def test_idempotent(self):
        h = sg("aa", "b")
        assert intersect(h, h).graph == h.graph

    def test_commutative(self):
        h1, h2 = sg("ab"), sg("aabb", "ab")
        assert intersect(h1, h2).graph == intersect(h2, h1).graph

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            intersect(sg("a"), stallings_graph([w("a")], 3))


class TestConjugatesMeeting:
    def test_cyclic_on_itself(self):
        word = w("ab")
        h = sg("ab")
        rep = count_conjugates_meeting(h, word)
        assert (rep.count, rep.rank) == (1, 1) and rep.passed

    def test_a2_b_against_a(self):
        rep = count_conjugates_meeting(sg("aa", "b"), w("a"))
        assert (rep.count, rep.rank) == (1, 2) and rep.passed

    def test_no_cycles(self):
        rep = count_conjugates_meeting(sg("b"), w("a"))
        assert rep.count == 0 and rep.passed

    def test_rejects_power(self):
        with pytest.raises(ValueError):
            count_conjugates_meeting(sg("a"), w("abab"))


class TestShnc:
    def test_rose_pair(self):
        rep = check_shnc(sg("a", "b"), sg("a", "b"))
        assert rep.lhs == 1 and rep.rhs == 1 and rep.passed

    def test_a2_b_self_pair_equality(self):
        h = sg("aa", "b")
        rep = check_shnc(h, h)
        assert rep.lhs == 1 and rep.rhs == 1 and rep.passed

    def test_tree_factor(self):
        rep = check_shnc(sg("b"), sg("aa", "b"))
        assert rep.lhs == 0 and rep.rhs == 0 and rep.passed


class TestRestated:
    def test_circle_against_itself(self):
        word = w("ab")
        from wordcycles.graphs import circle

        rep = check_restated_inequality(word, circle(word))
        assert rep.lhs == 1 <= rep.rhs == 1
        assert rep.class_count == 1 and rep.passed

    def test_rose_commutator(self):
        rep = check_restated_inequality(w("abAB"), rose(2))
        assert rep.lhs == 1 and rep.rhs == 2 and rep.passed

    def test_no_cycles_components_are_arcs(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1),))
        rep = check_restated_inequality(w("ab"), g)
        assert rep.lhs == 0 and rep.class_count == 0 and rep.passed

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="^graph is empty$"):
            check_restated_inequality(w("ab"), LabeledDigraph(2, 0, ()))

    def test_nondeterministic_graph_rejected(self):
        # the check is fiber_product's, on g2 relabelled to w's alphabet
        g = LabeledDigraph(1, 2, ((0, 1, 1), (0, 0, 1)))
        with pytest.raises(ValueError) as raised:
            check_restated_inequality(w("ab"), g)
        assert str(raised.value) == ("graph is not deterministic: vertex 0: 2 outgoing "
                                     "edges with label 1")


class TestConjugateIntersection:
    def test_a_with_b_power_cosets(self):
        h = sg("a")
        rep = check_conjugate_intersection(h, [w(""), w("b"), w("bb")])
        assert rep.passed

    def test_too_few_cosets_rejected(self):
        h = sg("a")
        with pytest.raises(ValueError, match=r"need more than rank\(H\) = 1 cosets"):
            check_conjugate_intersection(h, [w("")])

    def test_coincident_cosets_rejected(self):
        h = sg("a")
        with pytest.raises(ValueError, match="coincide"):
            check_conjugate_intersection(h, [w(""), w("a"), w("b")])

    def test_non_free_factor_rejected(self):
        h = sg("aa", "b")
        with pytest.raises(ValueError, match="isolation not certified"):
            check_conjugate_intersection(h, [w(""), w("a"), w("b")])
