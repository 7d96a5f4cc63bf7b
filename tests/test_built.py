"""graphs._built makes the graphs, subgroup graphs and complexes the library
builds for itself without running their constructors' checks.  Here every
such value is also built through the checked constructor, cls(*values),
which must not raise and must compare equal: what skips the checks would
have passed them.  Each index entry a builder hands its graph (successor,
_clashes, _partition) must equal what the checked twin computes from its
edges on first read; deterministic is never handed, and successor never
without _clashes.

_built is wrapped in every wordcycles module namespace that holds it, as
perfbench/layers.py wraps the kernels, and each wrapped call records the
function that made it, so each test also shows which builders it reached.
"""

import random
import sys
from collections import Counter

import pytest
from conftest import patch_everywhere
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles import graphs
from wordcycles.complexes import build_gamma_w, check_equality_collapse, check_npi
from wordcycles.cycles import decompose
from wordcycles.generators import (
    TrialConfig,
    random_connected_automaton,
    random_inverse_automaton,
    random_permutation_automaton,
    random_simple_word,
    random_subgroup,
)
from wordcycles.graphs import (
    LabeledDigraph,
    canonical_form,
    circle,
    component_containing,
    core,
    fiber_product,
    fold,
)
from wordcycles.subgroups import (SubgroupGraph, check_restated_inequality, conjugate,
                                  intersect, stallings_graph)
from wordcycles.words import free_reduce

SEEDS = st.integers(0, 2**32)


@pytest.fixture(scope="module")
def checked_calls():
    """The callers of _built, counted; every call is checked, and so is
    every index entry it seeds."""
    seen = Counter()
    current = graphs._built

    def checked(cls, *values, **index):
        # determinism is stored as _clashes alone; rows handed without them
        # would leave the _clashes getter reading itself forever
        assert "deterministic" not in index
        assert "successor" not in index or "_clashes" in index
        built = current(cls, *values, **index)
        twin = cls(*values)
        assert twin == built
        for name, value in index.items():
            assert getattr(twin, name) == value, name
        seen[sys._getframe(1).f_code.co_name] += 1
        return built

    with pytest.MonkeyPatch.context() as mp:
        patch_everywhere(mp, graphs, "_built", lambda _: checked)
        yield seen


@pytest.fixture
def sites(checked_calls):
    """The callers of _built in this test."""
    checked_calls.clear()
    return checked_calls


@st.composite
def configs(draw):
    return TrialConfig(max_vertices=draw(st.integers(1, 10)),
                       alphabet=draw(st.integers(1, 3)),
                       max_word_length=draw(st.integers(1, 6)),
                       edge_density=draw(st.sampled_from([0.3, 0.7, 1.0])))


@st.composite
def tangles(draw):
    """Based labeled digraphs with random edges: clashes, parallel
    duplicates, loops and several components."""
    alphabet, n = draw(st.integers(1, 3)), draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, alphabet)),
                          max_size=2 * n))
    return LabeledDigraph(alphabet, n, tuple(edges), draw(vertex))


def words(alphabet):
    letter = st.integers(1, alphabet).flatmap(lambda l: st.sampled_from([l, -l]))
    return st.lists(letter, max_size=8).map(lambda w: free_reduce(tuple(w)))


def test_generators(sites):
    @settings(max_examples=60, deadline=None)
    @given(configs(), SEEDS)
    def run(cfg, seed):
        random_inverse_automaton(cfg, random.Random(seed))
        random_connected_automaton(cfg, random.Random(seed))
        random_permutation_automaton(cfg, random.Random(seed))
        random_subgroup(cfg, random.Random(seed))

    run()
    assert {"random_inverse_automaton", "component_containing", "stallings_graph",
            "_bfs_form"} <= set(sites)


def test_graph_builders(sites):
    @settings(max_examples=80, deadline=None)
    @given(tangles(), configs(), SEEDS, st.data())
    def run(g, cfg, seed, data):
        h = fold(g)
        core(h)
        component_containing(g, data.draw(st.integers(0, g.num_vertices - 1)))
        other = random_inverse_automaton(
            TrialConfig(max_vertices=6, alphabet=g.alphabet), random.Random(seed))
        fiber_product(h, other)
        connected = random_connected_automaton(cfg, random.Random(seed))
        canonical_form(connected)
        vertex = data.draw(st.integers(0, connected.num_vertices - 1))
        canonical_form(LabeledDigraph(connected.alphabet, connected.num_vertices,
                                      connected.edges, vertex))

    run()
    assert {"fold", "core", "component_containing", "fiber_product",
            "_bfs_form"} <= set(sites)


def test_subgroup_builders(sites):
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda a: st.tuples(st.just(a), st.lists(words(a), max_size=4),
                            st.lists(words(a), max_size=4), words(a))))
    def run(args):
        alphabet, gens1, gens2, g = args
        h1, h2 = stallings_graph(gens1, alphabet), stallings_graph(gens2, alphabet)
        conjugate(h1, g)
        intersect(h1, h2)

    run()
    assert {"stallings_graph", "conjugate", "intersect"} <= set(sites)


def test_subgroup_rows_where_the_core_shrinks(sites):
    # the rows a subgroup graph is born with have n + 1 slots and keep only
    # the labels left on an edge, also where spur stripping removes vertices
    # and labels
    spur = SubgroupGraph(LabeledDigraph(3, 3, ((0, 0, 1), (0, 1, 2), (1, 2, 3)), 0))
    assert spur.graph.successor == {1: [0, -1], -1: [0, -1]}
    h = stallings_graph([(2, 1, -2)], 2)  # a loop at the end of a spur off the base
    assert h.graph.num_vertices == 2
    assert conjugate(h, (2,)).graph.successor == {1: [0, -1], -1: [0, -1]}
    # the old base is stripped, and the new one hangs off the loop's vertex
    assert conjugate(h, (2, 2)).graph.successor == {
        1: [-1, 1, -1], -1: [-1, 1, -1], 2: [-1, 0, -1], -2: [1, -1, -1]}
    assert stallings_graph([], 2).graph.successor == {}
    assert {"_bfs_form"} <= set(sites)


def test_restated_relabel(sites):
    @settings(max_examples=40, deadline=None)
    @given(configs(), SEEDS)
    def run(cfg, seed):
        rng = random.Random(seed)
        g = random_inverse_automaton(cfg, rng)
        w = random_simple_word(TrialConfig(alphabet=cfg.alphabet + 1), rng)
        check_restated_inequality(w, g)

    run()
    assert "check_restated_inequality" in sites


def test_complex_builders(sites):
    @settings(max_examples=80, deadline=None)
    @given(configs(), SEEDS, st.data())
    def run(cfg, seed, data):
        rng = random.Random(seed)
        g = random_connected_automaton(cfg, rng)
        w = random_simple_word(cfg, rng)
        build_gamma_w(decompose(g, w))
        check_equality_collapse(g, w)
        check_equality_collapse(circle(w, cfg.alphabet), w)  # one class, Betti number 1
        attachments = [(data.draw(st.sampled_from(cycle)), len(cycle))
                       for cycle in decompose(g, w).cycles if data.draw(st.booleans())]
        check_npi(g, w, attachments)

    run()
    assert "build_gamma_w" in sites
