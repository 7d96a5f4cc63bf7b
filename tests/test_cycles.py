import random
from operator import le

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordcycles import cycles
from wordcycles.generators import TrialConfig, random_simple_word
from wordcycles.graphs import LabeledDigraph, betti, circle, rose, walk
from wordcycles.cycles import (
    _trace,
    check_main_inequality,
    check_strict_inequality,
    decompose,
    oracle_counts,
)
from wordcycles.words import parse_word

A_SQUARE = LabeledDigraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)))


def w(text):
    return parse_word(text)


class TestTrace:
    """_trace gives the steps of a walk that stays on the graph; walk, which
    checks its input, gives the endpoints."""

    def test_rose_commutator(self):
        path = _trace(rose(2), 0, w("abAB"))
        assert walk(rose(2), 0, w("abAB")) == 0
        assert len(path) == 4
        assert [d for _, d in path] == [1, 1, -1, -1]

    def test_missing_edge(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1),))
        assert walk(g, 0, w("b")) == -1

    def test_square_single_step(self):
        assert walk(A_SQUARE, 0, w("a")) == 1
        assert len(_trace(A_SQUARE, 0, w("a"))) == 1


class TestDecompose:
    def test_a_square(self):
        dec = decompose(A_SQUARE, w("a"))
        assert dec.count_with_multiplicity == 4
        assert dec.class_count == 1
        assert dec.classes[0].period == 4

    def test_circle_reading_w(self):
        word = w("abA" "b")  # any cyclically reduced simple word
        dec = decompose(circle(word), word)
        assert dec.count_with_multiplicity == 1
        assert dec.class_count == 1

    def test_rose_commutator(self):
        dec = decompose(rose(2), w("abAB"))
        assert dec.count_with_multiplicity == 1
        assert dec.class_count == 1
        assert dec.classes[0].period == 1

    def test_rejects_proper_power(self):
        with pytest.raises(ValueError, match="proper power"):
            decompose(rose(2), w("abab"))

    def test_rejects_non_cyclically_reduced(self):
        with pytest.raises(ValueError, match="cyclically reduced"):
            decompose(rose(2), w("abA"))

    def test_class_path_reads_w_period(self):
        dec = decompose(A_SQUARE, w("a"))
        cls = dec.classes[0]
        assert len(cls.path) == cls.period * 1
        # closed: ends where it starts
        g = A_SQUARE
        start = g.edges[cls.path[0][0]][0]
        v = start
        for e, d in cls.path:
            s, dst, _ = g.edges[e]
            assert (s if d > 0 else dst) == v
            v = dst if d > 0 else s
        assert v == start

    def test_edge_multiplicity(self):
        dec = decompose(rose(2), w("abAB"))
        assert dec.edge_multiplicity == {0: 2, 1: 2}
        dec = decompose(A_SQUARE, w("a"))
        assert dec.edge_multiplicity == {0: 1, 1: 1, 2: 1, 3: 1}


class TestOracle:
    def test_a_square(self):
        assert oracle_counts(A_SQUARE, w("a")) == (4, 1)

    def test_circle(self):
        word = w("abb")
        assert oracle_counts(circle(word), word) == (1, 1)

    def test_two_disjoint_circles(self):
        # two 1-cycles reading "a"
        g = LabeledDigraph(1, 2, ((0, 0, 1), (1, 1, 1)))
        assert oracle_counts(g, w("a")) == (2, 2)

    def test_bound(self):
        g = LabeledDigraph(1, 9, ())
        with pytest.raises(ValueError, match="bound"):
            oracle_counts(g, w("a"))


class TestMainInequality:
    def test_circle_equality(self):
        word = w("ab")
        rep = check_main_inequality(circle(word), word)
        assert rep.passed
        assert rep.component_classes == rep.betti_report.bettis == (1,)

    def test_rose_commutator(self):
        rep = check_main_inequality(rose(2), w("abAB"))
        assert rep.passed
        assert (rep.total_classes, rep.total_betti) == (1, 2)

    def test_no_trace_anywhere(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1),))
        rep = check_main_inequality(g, w("b"))
        assert rep.passed and rep.total_classes == 0

    @pytest.mark.parametrize("word", ["a", "ab"])
    def test_empty_graph_is_rejected(self, word):
        # no class, so no Betti number is needed, yet a graph with no
        # vertex has no Betti number to hold the count to
        with pytest.raises(ValueError, match="^betti: empty vertex set$"):
            check_main_inequality(LabeledDigraph(2, 0, ()), w(word))

    def test_word_is_checked_before_the_empty_graph(self):
        with pytest.raises(ValueError, match="cyclically reduced"):
            check_main_inequality(LabeledDigraph(2, 0, ()), w("aA"))


@st.composite
def main_draws(draw):
    """A random automaton on 1-10 vertices, up to 3 isolated vertices more,
    and a simple word w; half the draws add a circle reading w, so they
    have a class, and the other half have none.  The vertices are then
    renumbered at random, so components interleave."""
    alphabet = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    edges = [(v, t, l) for l in range(1, alphabet + 1)
             for v, t, kept in zip(range(n), draw(st.permutations(range(n))),
                                   draw(st.lists(st.booleans(), min_size=n, max_size=n)))
             if kept]
    word = random_simple_word(TrialConfig(alphabet=alphabet, max_word_length=6),
                              random.Random(draw(st.integers(0, 2**32))))
    with_class = draw(st.booleans())
    if with_class:
        loop = circle(word, alphabet)
        edges += [(n + s, n + d, l) for s, d, l in loop.edges]
        n += loop.num_vertices
    n += draw(st.integers(0, 3))
    order = draw(st.permutations(range(n)))
    g = LabeledDigraph(alphabet, n, tuple((order[s], order[d], l) for s, d, l in edges))
    assume(with_class or not decompose(g, word).cycles)
    return g, word


def eager_main_report(g, w) -> tuple:
    """The main check with its Betti side computed first, whatever the
    class count: betti(g), then the classes counted by g.component_of."""
    dec = decompose(g, w)
    report = betti(g)
    counts = [0] * len(report.bettis)
    for cycle in dec.cycles:
        counts[g.component_of[cycle[0]]] += 1
    passed = all(map(le, counts, report.bettis)) and dec.class_count <= report.total
    return (tuple(counts), report, report.bettis, dec.class_count, report.total, passed,
            dec.count_with_multiplicity)


class TestMainReportAgainstEagerTwin:
    @settings(max_examples=200, deadline=None)
    @given(main_draws())
    def test_six_attributes(self, draw):
        g, word = draw
        rep = check_main_inequality(g, word)
        twin = eager_main_report(LabeledDigraph(g.alphabet, g.num_vertices, g.edges), word)
        assert (rep.component_classes, rep.betti_report, rep.betti_report.bettis,
                rep.total_classes, rep.total_betti, rep.passed,
                rep.count_with_multiplicity) == twin


class TestCollapsedHypothesis:
    """Every edge crossed at least twice: the strict check's hypothesis."""

    def test_a_square_false(self):
        assert decompose(A_SQUARE, w("a")).edge_multiplicity == {0: 1, 1: 1, 2: 1, 3: 1}
        assert check_strict_inequality(A_SQUARE, w("a")).reasons == (
            "some edge has traversal multiplicity < 2",)

    def test_rose_commutator_true(self):
        assert decompose(rose(2), w("abAB")).edge_multiplicity == {0: 2, 1: 2}
        assert check_strict_inequality(rose(2), w("abAB")).reasons == ()

    def test_single_vertex_vacuous(self):
        # no edge to cross: only the single vertex excludes it
        assert check_strict_inequality(LabeledDigraph(1, 1, ()), w("a")).reasons == (
            "graph is a single vertex",)


class TestStrictInequality:
    def test_rose_commutator(self):
        rep = check_strict_inequality(rose(2), w("abAB"))
        assert rep.applicable and rep.passed
        assert (rep.count_with_multiplicity, rep.betti) == (1, 2)

    def test_single_vertex_excluded(self):
        rep = check_strict_inequality(LabeledDigraph(1, 1, ()), w("a"))
        assert not rep.applicable
        assert any("single vertex" in r for r in rep.reasons)

    def test_a_square_hypothesis_necessary(self):
        rep = check_strict_inequality(A_SQUARE, w("a"))
        assert not rep.applicable
        # without the hypothesis the strict inequality genuinely fails
        assert rep.count_with_multiplicity == 4 > rep.betti == 1

    def test_decomposes_once(self, monkeypatch):
        calls = []

        def counting(g, word):
            calls.append(word)
            return decompose(g, word)

        monkeypatch.setattr(cycles, "decompose", counting)
        rep = check_strict_inequality(rose(2), w("abAB"))
        assert rep.applicable and calls == [w("abAB")]
