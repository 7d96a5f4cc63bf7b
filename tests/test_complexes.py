import pytest

from wordcycles import complexes
from wordcycles.cycles import collapsed_hypothesis
from wordcycles.graphs import LabeledDigraph, betti, circle, rose
from wordcycles.complexes import (
    CollapseResult,
    StaggeredPresentation,
    TwoComplex,
    build_gamma_w,
    check_equality_collapse,
    check_multiword_inequality,
    check_npi,
    collapses_to_tree,
    euler_characteristic,
    free_faces,
    is_staggered,
)
from wordcycles.words import parse_word


def w(text):
    return parse_word(text)


def disc():
    word = w("ab")
    return build_gamma_w(circle(word), word)


def torus():
    return build_gamma_w(rose(2), w("abAB"))


def wedge_of_tori(n):
    """One vertex with loops a_j, b_j and a cell a_j b_j A_j B_j per j."""
    g = LabeledDigraph(2 * n, 1, tuple((0, 0, l) for l in range(1, 2 * n + 1)))
    a, b = range(0, 2 * n, 2), range(1, 2 * n, 2)
    return TwoComplex(g, tuple(((e, 1), (f, 1), (e, -1), (f, -1)) for e, f in zip(a, b)))


class TestBuildGammaW:
    def test_disc(self):
        x = disc()
        assert len(x.cells) == 1
        assert euler_characteristic(x) == 1

    def test_torus(self):
        x = torus()
        assert len(x.cells) == 1
        assert euler_characteristic(x) == 0

    def test_no_cycles_no_cells(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1),))
        x = build_gamma_w(g, w("b"))
        assert x.cells == ()

    def test_chi_formula(self):
        # chi(Gamma^w) = chi(Gamma) + class count
        for g, word in [(rose(2), w("abAB")), (circle(w("aab")), w("aab"))]:
            x = build_gamma_w(g, word)
            chi_graph = g.num_vertices - len(g.edges)
            assert euler_characteristic(x) == chi_graph + len(x.cells)


class TestEuler:
    def test_bare_tree(self):
        g = LabeledDigraph(1, 5, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)))
        assert euler_characteristic(TwoComplex(g, ())) == 1


class TestCellValidation:
    def test_non_closed_cell_rejected(self):
        g = LabeledDigraph(1, 2, ((0, 1, 1),))
        with pytest.raises(ValueError, match="closed"):
            TwoComplex(g, (((0, 1),),))

    def test_broken_path_rejected(self):
        g = LabeledDigraph(1, 3, ((0, 1, 1), (2, 0, 1)))
        with pytest.raises(ValueError, match="not a path"):
            TwoComplex(g, (((0, 1), (0, 1)),))

    @pytest.mark.parametrize("step", [(1, 1), (-1, 1), (0, 7), (0, 0)])
    def test_step_outside_skeleton_rejected(self, step):
        g = LabeledDigraph(1, 1, ((0, 0, 1),))
        with pytest.raises(ValueError, match="cell 0"):
            TwoComplex(g, ((step,),))

    def test_empty_boundary_rejected(self):
        g = LabeledDigraph(1, 1, ((0, 0, 1),))
        with pytest.raises(ValueError, match="^cell 1 has an empty boundary$"):
            TwoComplex(g, (((0, 1),), ()))


# two one-letter loops at two vertices: valid, and in two components
TWO_LOOPS = LabeledDigraph(2, 2, ((0, 0, 1), (1, 1, 2)))
DISCONNECTED = {  # function: (what it names, a call on TWO_LOOPS)
    "collapses_to_tree": ("skeleton", lambda: collapses_to_tree(TwoComplex(TWO_LOOPS, ()))),
    "check_equality_collapse": ("graph", lambda: check_equality_collapse(TWO_LOOPS, w("ab"))),
    "check_npi": ("graph", lambda: check_npi(TWO_LOOPS, w("ab"), [])),
    "check_multiword_inequality": ("graph", lambda: check_multiword_inequality(
        TWO_LOOPS, StaggeredPresentation(2, (w("ab"),), (1,)))),
    "collapsed_hypothesis": ("graph", lambda: collapsed_hypothesis(TWO_LOOPS, w("ab"))),
}


@pytest.mark.parametrize("name", DISCONNECTED)
def test_disconnected_input_rejected(name):
    what, call = DISCONNECTED[name]
    with pytest.raises(ValueError, match=f"^{name}: {what} must be connected$"):
        call()


class TestFreeFaces:
    def test_disc_all_boundary_edges(self):
        x = disc()
        assert free_faces(x) == [(0, 0), (1, 0)]

    def test_torus_none(self):
        assert free_faces(torus()) == []

    def test_no_cells(self):
        g = rose(2)
        assert free_faces(TwoComplex(g, ())) == []


class TestCollapse:
    def test_disc_collapses(self):
        res = collapses_to_tree(disc())
        assert res.collapses
        assert len(res.sequence) == 1

    def test_torus_does_not(self):
        assert not collapses_to_tree(torus()).collapses

    def test_bare_tree(self):
        g = LabeledDigraph(1, 3, ((0, 1, 1), (1, 2, 1)))
        res = collapses_to_tree(TwoComplex(g, ()))
        assert res.collapses and res.sequence == ()

    def test_bare_loop_is_not_a_tree(self):
        g = LabeledDigraph(1, 1, ((0, 0, 1),))
        assert not collapses_to_tree(TwoComplex(g, ())).collapses

    def test_collapse_preserves_chi(self):
        x = disc()
        res = collapses_to_tree(x)
        # removing one edge and one cell leaves chi unchanged
        chi_after = (
            x.skeleton.num_vertices
            - (len(x.skeleton.edges) - len(res.sequence))
            + (len(x.cells) - len(res.sequence))
        )
        assert chi_after == euler_characteristic(x) == 1

    def test_cell_cap(self):
        # the greedy pass alone decides a disc, with no error
        words = w("ab")
        g = circle(words)
        x = build_gamma_w(g, words)
        collapses_to_tree(x)

    def test_collapse_frees_the_next_cell(self):
        # three parallel edges: edge 1 is shared and becomes free only once
        # cell 1 has collapsed, and is then the least free edge
        g = LabeledDigraph(3, 2, ((0, 1, 1), (0, 1, 2), (0, 1, 3)))
        x = TwoComplex(g, (((1, 1), (2, -1)), ((0, 1), (1, -1))))
        assert free_faces(x) == [(0, 1), (2, 0)]
        assert collapses_to_tree(x) == CollapseResult(True, ((0, 1), (1, 0)))

    def test_wedge_of_13_tori(self):
        # every loop is crossed twice, so no face is ever free; deciding
        # this needs no cap on the number of cells
        x = wedge_of_tori(13)
        assert collapses_to_tree(x) == CollapseResult(False, ())

    def test_long_greedy_descent(self):
        # a path with a disc on a loop at every vertex: more collapses in a
        # row than the default recursion limit allows frames
        n = 1100
        edges = tuple((v, v, 1) for v in range(n)) + tuple(
            (v, v + 1, 2) for v in range(n - 1))
        x = TwoComplex(LabeledDigraph(2, n, edges), tuple(((v, 1),) for v in range(n)))
        res = collapses_to_tree(x)
        assert res.collapses and not res.exhaustive_used
        assert res.sequence == tuple((v, v) for v in range(n))


class TestEqualityCollapse:
    def test_circle_equality(self):
        word = w("abb")
        rep = check_equality_collapse(circle(word), word)
        assert rep.applicable and rep.passed

    def test_rose_not_applicable(self):
        rep = check_equality_collapse(rose(2), w("abAB"))
        assert not rep.applicable and rep.passed

    def test_single_vertex_vacuous(self):
        rep = check_equality_collapse(LabeledDigraph(1, 1, ()), w("a"))
        assert rep.applicable and rep.passed  # 0 = 0, no cells, a tree


class TestNpi:
    def test_disc_contractible_branch(self):
        word = w("ab")
        g = circle(word)
        rep = check_npi(g, word, [(0, 1)])
        assert rep.passed and rep.branch == "contractible"

    def test_torus_chi_branch(self):
        rep = check_npi(rose(2), w("abAB"), [(0, 1)])
        assert rep.passed and rep.branch == "chi"
        assert rep.euler == 0

    def test_bare_graph_chi_branch(self):
        rep = check_npi(rose(2), w("abAB"), [])
        assert rep.passed and rep.branch == "chi"

    def test_fail_branch(self, monkeypatch):
        # a disc (chi = 1) that, as planted, does not collapse: the one failing verdict
        monkeypatch.setattr(complexes, "collapses_to_tree", lambda y: CollapseResult(False, ()))
        word = w("ab")
        rep = check_npi(circle(word), word, [(0, 1)])
        assert rep.euler == 1 and rep.branch == "fail" and not rep.passed

    def test_attachment_must_close(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1),))
        with pytest.raises(ValueError, match="never closes"):
            check_npi(g, w("b"), [(0, 1)])

    def test_non_minimal_exponent_rejected(self):
        word = w("ab")
        with pytest.raises(ValueError, match="not an immersion"):
            check_npi(circle(word), word, [(0, 2)])

    def test_duplicate_class_rejected(self):
        word = w("a")
        square = LabeledDigraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)))
        with pytest.raises(ValueError, match="not an immersion"):
            check_npi(square, word, [(0, 4), (1, 4)])

    def test_rejects_proper_power_word(self):
        with pytest.raises(ValueError):
            check_npi(rose(2), w("abab"), [])

    def test_nondeterministic_graph_reported_before_word(self):
        # decompose checks the graph, then the word; check_npi adds no check of its own
        g = LabeledDigraph(1, 2, ((0, 1, 1), (0, 0, 1)))
        with pytest.raises(ValueError, match="graph is not deterministic: vertex 0: "
                                             "2 outgoing edges with label 1"):
            check_npi(g, w("aA"), [])


class TestStaggered:
    def test_single_relator(self):
        p = StaggeredPresentation(2, (w("abAB"),), (1, 2))
        ok, diagnostics = is_staggered(p)
        assert ok and diagnostics == []

    def test_ab_ba_rejected(self):
        p = StaggeredPresentation(2, (w("ab"), w("ba")), (1, 2))
        ok, diagnostics = is_staggered(p)
        assert not ok
        assert len(diagnostics) == 2  # equal mins and equal maxes

    def test_no_ordered_letter(self):
        p = StaggeredPresentation(2, (w("a"),), (2,))
        ok, diagnostics = is_staggered(p)
        assert not ok
        assert "no ordered letter" in diagnostics[0]

    def test_unordered_letters_ignored_in_extents(self):
        # b is unordered; both relators use it freely
        p = StaggeredPresentation(3, (w("ab"), w("bc")), (1, 3))
        ok, _ = is_staggered(p)
        assert ok

    def test_non_cyclically_reduced_relator(self):
        p = StaggeredPresentation(2, (w("abA"),), (1, 2))
        ok, diagnostics = is_staggered(p)
        assert not ok

    @pytest.mark.parametrize("relator", ["ae", "E", "abc"])
    def test_relator_letter_outside_alphabet(self, relator):
        # such a relator traces nowhere, so it would count 0 classes and pass
        with pytest.raises(ValueError, match="outside alphabet"):
            StaggeredPresentation(2, (w(relator),), (1,))


class TestMultiword:
    def test_single_relator_reduces_to_main(self):
        p = StaggeredPresentation(2, (w("abAB"),), (1, 2))
        rep = check_multiword_inequality(rose(2), p)
        assert rep.passed and rep.total == 1 and rep.betti == 2

    def test_circle_with_extra_relator(self):
        word = w("ab")
        p = StaggeredPresentation(3, (word, w("bc")), (1, 2, 3))
        g = circle(word, alphabet=3)
        rep = check_multiword_inequality(g, p)
        assert rep.per_relator == (1, 0)
        assert rep.passed

    def test_rose_three_letters(self):
        p = StaggeredPresentation(3, (w("ab"), w("bc")), (1, 2, 3))
        rep = check_multiword_inequality(rose(3), p)
        assert rep.per_relator == (1, 1)
        assert rep.total == 2 <= rep.betti == 3
        assert rep.passed

    def test_rejects_non_staggered(self):
        p = StaggeredPresentation(2, (w("ab"), w("ba")), (1, 2))
        with pytest.raises(ValueError, match="not staggered"):
            check_multiword_inequality(rose(2), p)

    def test_rejects_power_relator(self):
        p = StaggeredPresentation(3, (w("ab"), w("bcbc")), (1, 2, 3))
        with pytest.raises(ValueError, match="proper power"):
            check_multiword_inequality(rose(3), p)

    def test_rejects_a_lone_power_relator(self):
        # decompose proves each relator simple
        p = StaggeredPresentation(2, (w("abab"),), (1, 2))
        with pytest.raises(ValueError, match="proper power"):
            check_multiword_inequality(rose(2), p)

    def test_no_relators_still_checks_the_graph(self):
        # with no relator to decompose, require_valid alone sees the graph
        g = LabeledDigraph(1, 2, ((0, 1, 1), (0, 0, 1)))
        with pytest.raises(ValueError, match="not deterministic"):
            check_multiword_inequality(g, StaggeredPresentation(1, (), ()))

    def test_rejects_alphabet_mismatch(self):
        p = StaggeredPresentation(2, (w("ab"),), (1, 2))
        with pytest.raises(ValueError, match="^graph and presentation alphabets differ$"):
            check_multiword_inequality(rose(3), p)


class TestThreeInARow:
    def test_equality_chain_forces_collapse(self):
        # If betti = cell count = count with multiplicity, collapse follows.
        word = w("aab")
        g = circle(word)
        x = build_gamma_w(g, word)
        b = betti(g).total
        from wordcycles.cycles import decompose

        dec = decompose(g, word)
        assert b == len(x.cells) == dec.count_with_multiplicity
        assert collapses_to_tree(x).collapses
