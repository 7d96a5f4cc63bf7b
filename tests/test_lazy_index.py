"""A graph's edge_index is built only by the reader of edge paths, _trace.

Counting checks, walks, core, canonical_form and intersect read the
successor rows alone, so on the small graphs the verify suites draw they
do not pay for a second per-graph index.  Each case runs on fresh graphs
and then looks in their instance dicts, where cached properties live.

A builder that proves part of its graph's index hands it over, and the
graph never derives it from its edges: Stallings graphs, intersections
and canonical forms are born connected and deterministic, a component
knows its Betti number, and a fold, a drawn automaton and every subgroup
graph (Stallings graphs, conjugates, intersections and the SubgroupGraph
constructor's) hand over their rows.  fold merges copies of its input's
own rows and clash pairs, so folding a graph twice loads it once, and
folding a graph born with rows loads nothing.  Canonical forms are born without
rows, as nothing reads them, and their search writes none.  Those
cases count the calls of the union-find (_partition's function) and of
_load_rows.  The main check builds no partition for a trial with no
class, which passes whatever its Betti numbers are; the report builds it
when its Betti side is first read.
"""

import random
from collections import Counter

import pytest

from wordcycles import graphs

from wordcycles.cycles import check_main_inequality, decompose
from wordcycles.generators import (
    TrialConfig,
    random_connected_automaton,
    random_inverse_automaton,
    random_permutation_automaton,
    random_simple_word,
    random_subgroup,
)
from wordcycles.graphs import (LabeledDigraph, betti, canonical_form, component_containing,
                               core, fold, is_connected, wedge_of_words)
from wordcycles.subgroups import (SubgroupGraph, check_shnc, conjugate, contains,
                                  count_conjugates_meeting, intersect, rank, stallings_graph)
from wordcycles.verify import SUITES

CFG = TrialConfig(max_vertices=12, alphabet=2, max_word_length=6)
SEEDS = range(8)


def built_table(*graphs: LabeledDigraph) -> bool:
    return any("edge_index" in vars(g) for g in graphs)


def based_cover(seed: int) -> LabeledDigraph:
    g = random_permutation_automaton(CFG, random.Random(seed))
    return LabeledDigraph(g.alphabet, g.num_vertices, g.edges, 0)


@pytest.mark.parametrize("seed", SEEDS)
class TestCountsBuildNoLetterTable:
    def test_decompose_class_count(self, seed):
        g = random_permutation_automaton(CFG, random.Random(seed))  # every vertex on a cycle
        dec = decompose(g, random_simple_word(CFG, random.Random(seed)))
        assert dec.class_count > 0
        assert not built_table(g)

    def test_class_paths_do_build_it(self, seed):
        # the positive control: reading edge paths builds the index
        g = random_permutation_automaton(CFG, random.Random(seed))
        decompose(g, random_simple_word(CFG, random.Random(seed))).classes
        assert built_table(g)

    def test_check_main_inequality(self, seed):
        g = random_inverse_automaton(CFG, random.Random(seed))
        check_main_inequality(g, random_simple_word(CFG, random.Random(seed)))
        assert not built_table(g)

    def test_core(self, seed):
        g = random_inverse_automaton(CFG, random.Random(seed))  # partial: spurs to remove
        g = LabeledDigraph(g.alphabet, g.num_vertices, g.edges, 0)
        cover = based_cover(seed)  # no spur: core returns it
        assert not built_table(g, core(g), cover, core(cover))

    def test_canonical_form(self, seed):
        g = based_cover(seed)
        unbased = LabeledDigraph(g.alphabet, g.num_vertices, g.edges)
        assert not built_table(g, canonical_form(g), unbased, canonical_form(unbased))

    def test_intersect(self, seed):
        h1 = random_subgroup(CFG, random.Random(seed))
        h2 = random_subgroup(CFG, random.Random(seed + 100))
        assert not built_table(h1.graph, h2.graph, intersect(h1, h2).graph)

    def test_contains(self, seed):
        h = random_subgroup(CFG, random.Random(seed))
        for w in [(), (1,), (1, -2), (2, 2, -1), (3,)]:
            contains(h, w)
        assert not built_table(h.graph)

    def test_count_conjugates_meeting(self, seed):
        h = random_subgroup(CFG, random.Random(seed))
        count_conjugates_meeting(h, random_simple_word(CFG, random.Random(seed)))
        assert not built_table(h.graph)


def test_npi_draw():
    # attachments are read off the orbit cycles; only check_npi traces discs
    instances = [SUITES["npi"].draw(CFG, seed, random.Random(seed)) for seed in SEEDS]
    assert not built_table(*(i["g"] for i in instances))
    assert any(decompose(i["g"], i["w"]).cycles for i in instances)  # a class was drawn


@pytest.fixture
def derived(monkeypatch):
    """Counts of the union-find and _load_rows calls, the two ways a graph
    derives its index from its edges."""
    seen = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return call

    partition = vars(LabeledDigraph)["_partition"]
    monkeypatch.setattr(partition, "fn", counted("union-find", partition.fn))
    monkeypatch.setattr(graphs, "_load_rows", counted("_load_rows", graphs._load_rows))
    return seen


def tangle(seed: int) -> LabeledDigraph:
    """Random edges on 12 vertices: clashes and several components."""
    rng = random.Random(seed)
    edges = tuple((rng.randrange(12), rng.randrange(12), rng.randint(1, 2)) for _ in range(9))
    return LabeledDigraph(2, 12, edges, rng.randrange(12))


def connected_draw_seed(seed: int) -> int:
    """The first seed from 100 * seed on whose automaton draw is connected,
    so that random_connected_automaton returns the draw itself."""
    return next(s for s in range(100 * seed, 100 * seed + 100)
                if is_connected(random_inverse_automaton(CFG, random.Random(s))))


@pytest.mark.parametrize("seed", SEEDS)
class TestBuildersHandOverTheirIndex:
    def test_rank_of_a_stallings_graph(self, seed, derived):
        rng = random.Random(seed)
        h = stallings_graph([random_simple_word(CFG, rng) for _ in range(3)], 2)
        derived.clear()
        assert rank(h) == len(h.graph.edges) - h.graph.num_vertices + 1
        assert derived["union-find"] == 0

    def test_betti_of_an_intersection(self, seed, derived):
        h = intersect(random_subgroup(CFG, random.Random(seed)),
                      random_subgroup(CFG, random.Random(seed + 100)))
        derived.clear()
        betti(h.graph)
        assert derived["union-find"] == 0

    def test_shnc_factor_ranks(self, seed, derived):
        h1 = random_subgroup(CFG, random.Random(seed))
        h2 = random_subgroup(CFG, random.Random(seed + 100))
        derived.clear()
        check_shnc(h1, h2)
        assert derived["union-find"] == 1  # the fiber product's own

    def test_betti_of_a_component(self, seed, derived):
        g = tangle(seed)
        part = component_containing(g, g.basepoint)
        assert part.num_vertices < g.num_vertices  # g is disconnected
        derived.clear()
        assert betti(part).bettis == (len(part.edges) - part.num_vertices + 1,)
        assert derived["union-find"] == 0

    def test_canonical_form_of_a_fold(self, seed, derived):
        g = tangle(seed)
        canonical_form(fold(component_containing(g, g.basepoint)))
        assert derived["_load_rows"] == 1  # fold's input's

    def test_two_folds_of_a_wedge(self, seed, derived):
        rng = random.Random(seed)
        g = wedge_of_words([random_simple_word(CFG, rng) for _ in range(3)], 2)
        assert fold(g, random.Random(seed)) == fold(g, random.Random(seed + 1))
        assert derived["_load_rows"] == 1  # the wedge's own; each fold merges copies

    def test_fold_of_a_fold(self, seed, derived):
        g = fold(tangle(seed))
        derived.clear()
        assert fold(g) == g  # born with its rows, and deterministic
        assert derived["_load_rows"] == 0

    def test_fold_of_a_draw(self, seed, derived):
        g = random_inverse_automaton(CFG, random.Random(seed))
        assert fold(g).edges == tuple(sorted(g.edges))  # born deterministic
        assert derived["_load_rows"] == 0

    def test_conjugates_of_a_stallings_graph(self, seed, derived):
        rng = random.Random(seed)
        h = stallings_graph([random_simple_word(CFG, rng) for _ in range(3)], 2)
        count_conjugates_meeting(h, random_simple_word(CFG, rng))
        assert derived["_load_rows"] == 0

    def test_intersect_of_stallings_graphs(self, seed, derived):
        rng = random.Random(seed)
        h1, h2 = (stallings_graph([random_simple_word(CFG, rng) for _ in range(3)], 2)
                  for _ in range(2))
        contains(intersect(h1, h2), random_simple_word(CFG, rng))
        assert derived["_load_rows"] == 0

    def test_conjugate_intersection(self, seed, derived):
        rng = random.Random(seed)
        h = stallings_graph([random_simple_word(CFG, rng) for _ in range(2)], 2)
        cosets = [random_simple_word(CFG, rng) for _ in range(3)]
        result = conjugate(h, cosets[0])
        for g in cosets[1:]:
            result = intersect(result, conjugate(h, g))
        contains(result, cosets[0])
        assert derived["_load_rows"] == 0

    def test_decompose_on_a_constructed_subgroup_graph(self, seed, derived):
        g = fold(based_cover(seed))
        h = SubgroupGraph(LabeledDigraph(g.alphabet, g.num_vertices, g.edges, 0))
        derived.clear()  # the constructor loads its input's rows, once
        decompose(h.graph, random_simple_word(CFG, random.Random(seed)))
        assert derived["_load_rows"] == 0

    def test_canonical_forms_are_born_without_rows(self, seed):
        g = based_cover(seed)
        unbased = LabeledDigraph(g.alphabet, g.num_vertices, g.edges)
        assert "successor" not in vars(canonical_form(g))
        assert "successor" not in vars(canonical_form(unbased))

    def test_check_main_inequality_of_a_draw(self, seed, derived):
        g = random_inverse_automaton(CFG, random.Random(seed))
        check_main_inequality(g, random_simple_word(CFG, random.Random(seed)))
        assert derived["_load_rows"] == 0

    def test_check_main_inequality_of_a_connected_draw(self, seed, derived):
        s = connected_draw_seed(seed)
        g = random_connected_automaton(CFG, random.Random(s))
        assert g.num_vertices == random_inverse_automaton(CFG, random.Random(s)).num_vertices
        derived.clear()
        check_main_inequality(g, random_simple_word(CFG, random.Random(seed)))
        assert derived["_load_rows"] == 0


def main_draw_seed(seed: int, with_class: bool, connected: bool = False) -> int:
    """The first seed from 100 * seed on whose automaton draw (connected, if
    asked) and simple word, each drawn from random.Random(seed), have a
    class, or have none."""
    def fits(s):
        g = random_inverse_automaton(CFG, random.Random(s))
        w = random_simple_word(CFG, random.Random(s))
        return bool(decompose(g, w).cycles) == with_class and is_connected(g) >= connected
    return next(s for s in range(100 * seed, 100 * seed + 100) if fits(s))


def component_count(g: LabeledDigraph) -> int:
    """Components by merging neighbour sets, apart from the union-find."""
    parts = [{v} for v in range(g.num_vertices)]
    for s, d, _ in g.edges:
        if parts[s] is not parts[d]:
            merged = parts[s] | parts[d]
            for v in merged:
                parts[v] = merged
    return len({id(p) for p in parts})


@pytest.mark.parametrize("seed", SEEDS)
class TestMainReadsItsBettiSideWhenAsked:
    """A trial with no class passes whatever its Betti numbers are, so its
    check builds no partition; its report builds it when first read."""

    def test_classless_draw(self, seed, derived):
        s = main_draw_seed(seed, with_class=False)
        g = random_inverse_automaton(CFG, random.Random(s))
        derived.clear()  # the seed search's
        report = check_main_inequality(g, random_simple_word(CFG, random.Random(s)))
        assert report.passed and report.total_classes == 0
        assert derived["union-find"] == 0
        assert report.total_betti == len(g.edges) - g.num_vertices + component_count(g)
        assert derived["union-find"] == 1
        assert report.component_classes == (0,) * component_count(g)
        assert derived["union-find"] == 1

    def test_draw_with_a_class(self, seed, derived):
        s = main_draw_seed(seed, with_class=True)
        g = random_inverse_automaton(CFG, random.Random(s))
        derived.clear()  # the seed search's
        report = check_main_inequality(g, random_simple_word(CFG, random.Random(s)))
        assert report.total_classes > 0
        assert derived["union-find"] == 1
        assert report.total_betti == len(g.edges) - g.num_vertices + component_count(g)
        assert derived["union-find"] == 1

    @pytest.mark.parametrize("with_class", [False, True])
    def test_connected_draw(self, seed, derived, with_class):
        # component_containing hands its partition over: nothing to build
        s = main_draw_seed(seed, with_class, connected=True)
        g = random_connected_automaton(CFG, random.Random(s))
        derived.clear()
        report = check_main_inequality(g, random_simple_word(CFG, random.Random(s)))
        assert (report.total_classes > 0) == with_class
        assert report.total_betti == len(g.edges) - g.num_vertices + 1
        assert derived["union-find"] == 0


def test_draw_with_no_edge(derived):
    g = random_inverse_automaton(TrialConfig(edge_density=0.0), random.Random(5))
    assert g.edges == ()
    assert g.successor == {} and g.deterministic
    assert derived["_load_rows"] == 0
