"""Differential tests: each fast graph kernel against a naive reference.

The references are the straightforward quadratic algorithms, kept here
rather than in the library: a fold that rebuilds and rescans the whole edge
set once per merge, the based component of the full fiber product, and a
Betti count that rescans every edge for every component.  require_valid,
which reads the cached label maps, is checked against the full diagnostics
of validate.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles.graphs import (
    LabeledDigraph,
    betti,
    canonical_form,
    component_containing,
    components,
    core,
    fiber_product,
    fold,
    require_valid,
    validate,
    wedge_of_words,
)
from wordcycles.subgroups import intersect, stallings_graph
from wordcycles.words import free_reduce


def naive_fold(g: LabeledDigraph) -> LabeledDigraph:
    """Identify one clashing pair at a time, rescanning all edges each time."""
    parent = list(range(g.num_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    while True:
        edges = sorted({(find(s), find(d), l) for s, d, l in g.edges})
        by_out, by_in, clash = {}, {}, None
        for s, d, l in edges:
            if by_out.setdefault((s, l), d) != d:
                clash = (d, by_out[s, l])
                break
            if by_in.setdefault((d, l), s) != s:
                clash = (s, by_in[d, l])
                break
        if clash is None:
            break
        parent[find(clash[0])] = find(clash[1])
    roots = sorted({find(v) for v in range(g.num_vertices)})
    vmap = {r: i for i, r in enumerate(roots)}
    new_edges = tuple(sorted({(vmap[find(s)], vmap[find(d)], l) for s, d, l in g.edges}))
    base = vmap[find(g.basepoint)] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, len(roots), new_edges, base)


def naive_intersection(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    fp = fiber_product(g1, g2)
    return canonical_form(core(component_containing(fp, fp.basepoint)))


def naive_betti(g: LabeledDigraph) -> tuple:
    return tuple(
        (comp, sum(1 for s, _, _ in g.edges if s in comp) - len(comp) + 1)
        for comp in components(g)
    )


letters = st.integers(min_value=1, max_value=2).flatmap(lambda l: st.sampled_from([l, -l]))
words = st.lists(letters, min_size=1, max_size=10).map(lambda w: free_reduce(tuple(w)))
generator_sets = st.lists(words.filter(bool), min_size=1, max_size=5)


@st.composite
def connected_graphs(draw, max_vertices=8, alphabet=2):
    """Based, connected, usually nondeterministic labeled digraphs: a random
    spanning tree plus random extra edges."""
    n = draw(st.integers(1, max_vertices))
    label = st.integers(1, alphabet)
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, draw(label)) if draw(st.booleans()) else (v, u, draw(label)))
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex, label), max_size=2 * n))
    return LabeledDigraph(alphabet, n, tuple(edges), draw(vertex))


@st.composite
def any_graphs(draw, max_vertices=10, alphabet=2):
    """Labeled digraphs with no constraints: possibly disconnected, with
    isolated vertices, loops and parallel edges."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, alphabet)),
                          max_size=2 * n))
    return LabeledDigraph(alphabet, n, tuple(edges))


@st.composite
def graphs_with_repeats(draw):
    """any_graphs, sometimes with one edge repeated as a parallel duplicate
    and one loop added."""
    g = draw(any_graphs())
    edges = list(g.edges)
    if edges and draw(st.booleans()):
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
    if draw(st.booleans()):
        v = draw(st.integers(0, g.num_vertices - 1))
        edges.append((v, v, draw(st.integers(1, g.alphabet))))
    return LabeledDigraph(g.alphabet, g.num_vertices, tuple(edges))


def assert_fold_matches(g, rng):
    fast, slow = fold(g, rng), naive_fold(g)
    assert validate(fast) == []
    assert fast.num_vertices == slow.num_vertices
    assert canonical_form(fast) == canonical_form(slow)
    assert canonical_form(core(fast)) == canonical_form(core(slow))


class TestFoldAgainstReference:
    @settings(max_examples=80)
    @given(generator_sets)
    def test_wedges(self, gens):
        assert_fold_matches(wedge_of_words(gens, 2), None)

    @settings(max_examples=80)
    @given(generator_sets, st.integers(0, 2**32))
    def test_wedges_random_order(self, gens, seed):
        assert_fold_matches(wedge_of_words(gens, 2), random.Random(seed))

    @settings(max_examples=80)
    @given(connected_graphs())
    def test_small_graphs(self, g):
        assert_fold_matches(g, None)

    @settings(max_examples=80)
    @given(connected_graphs(), st.integers(0, 2**32))
    def test_small_graphs_random_order(self, g, seed):
        assert_fold_matches(g, random.Random(seed))

    def test_numbering_follows_least_member(self):
        # 1 and 2 are identified; the class is numbered after vertex 1
        g = LabeledDigraph(1, 4, ((0, 1, 1), (0, 2, 1), (3, 0, 1)), basepoint=3)
        assert fold(g) == LabeledDigraph(1, 3, ((0, 1, 1), (2, 0, 1)), basepoint=2)


class TestIntersectAgainstReference:
    @settings(max_examples=60)
    @given(generator_sets, generator_sets)
    def test_random_subgroups(self, gens1, gens2):
        h1, h2 = stallings_graph(gens1, 2), stallings_graph(gens2, 2)
        assert intersect(h1, h2).graph == naive_intersection(h1.graph, h2.graph)


class TestBettiAgainstReference:
    @settings(max_examples=100)
    @given(any_graphs())
    def test_per_component(self, g):
        report = betti(g)
        assert report.per_component == naive_betti(g)
        assert report.total == sum(b for _, b in naive_betti(g))


class TestRequireValidAgainstValidate:
    @settings(max_examples=200)
    @given(graphs_with_repeats())
    def test_raises_iff_violations(self, g):
        violations = validate(g)
        for _ in range(2):  # the second call reads the cached maps
            if violations:
                with pytest.raises(ValueError, match="not deterministic"):
                    require_valid(g)
            else:
                require_valid(g)
