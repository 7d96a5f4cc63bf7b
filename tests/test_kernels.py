"""Differential tests: each fast graph kernel against a naive reference.

The references are the straightforward quadratic algorithms, kept here
rather than in the library: a fold that rebuilds and rescans the whole edge
set once per merge, the based component of the full fiber product, a Betti
count that rescans every edge for every component, connected components by
breadth-first search over undirected neighbour lists, Stallings graphs and
conjugates made by folding the wedge of the (conjugated) generators, where
the library reads each word into the graph built so far, a collapse search
that rescans every live cell per collapse and backs its greedy pass with an
exhaustive search (the incremental greedy pass must decide the same), and a
core that recounts every degree once per round of spur removal.  The
successor rows, a dict keyed by signed letter with rows only for the labels
on edges (a row reads -1, the sink, where no edge leads), the edge index
that tracing looks each step's edge up in, and tracing, walks,
canonical_form and intersect's product search, which read them, are
checked against dicts keyed by (vertex, label) tuples; on tiny graphs declared with alphabet 10^6 each per-letter kernel
peaks under 1 MiB, and so does each subgroup builder on letters reaching 10^6.
decompose, which keeps only the edge indices of each trace, is checked
against a decomposition that stores every vertex's whole (edge, direction)
trace, on dense draws and on the sparse graphs where most walks fall off
in their first two steps: Stallings graphs, conjugates, intersections,
folds and connected draws.  require_valid, which reads the determinism
flag that loading the successor rows sets, is checked against the full
diagnostics of validate.  check_npi, which rotates the class paths of the
attached vertices alone, is checked against
the construction that rotates one for every cycle vertex.  fold's random pop
order, drawn from getrandbits, is checked against the fold that drew it with
rng.randrange: the same output and the same rng state after, and any two
pop orders give the same graph and rows, not just isomorphic ones.  fold
merges copies of its input's rows and clash pairs: two folds leave them
reading as a fresh load.  The finish that
every fold ends in, which reads the folded graph's rows and edges off the
class roots, is checked against the rows the checked graph on those edges
derives and the classes of the rescanning fold.
"""

import platform
import random
import re
import sys
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles import complexes
from wordcycles.complexes import NpiReport, TwoComplex, collapses_to_tree
from wordcycles.cycles import WCycleClass, _trace, check_main_inequality, decompose
from wordcycles.generators import (
    TrialConfig,
    random_connected_automaton,
    random_permutation_automaton,
    random_simple_word,
)
from wordcycles.graphs import (
    LabeledDigraph,
    _core_form,
    _fold_clashes,
    _load_rows,
    betti,
    canonical_form,
    component_containing,
    components,
    core,
    fiber_product,
    fold,
    is_connected,
    require_valid,
    validate,
    walk,
    wedge_of_words,
)
from wordcycles.subgroups import (SubgroupGraph, _read, _require_letters, conjugate,
                                  contains, intersect, stallings_graph)
from wordcycles.words import (cyclic_reduce, free_reduce, invert, is_simple,
                              parse_word, primitive_root, require_simple_cyclic)


def naive_classes(g: LabeledDigraph, merged=()) -> list[int]:
    """Each vertex's class in the fold of g with the vertex pairs in merged
    identified first, the classes numbered by their least vertices:
    identify one clashing pair at a time, rescanning all edges each time."""
    parent = list(range(g.num_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in merged:
        parent[find(a)] = find(b)
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
    first: dict[int, int] = {}
    return [first.setdefault(find(v), len(first)) for v in range(g.num_vertices)]


def naive_fold(g: LabeledDigraph) -> LabeledDigraph:
    number = naive_classes(g)
    new_edges = tuple(sorted({(number[s], number[d], l) for s, d, l in g.edges}))
    base = number[g.basepoint] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, max(number, default=-1) + 1, new_edges, base)


def randrange_fold(g: LabeledDigraph, rng: random.Random) -> LabeledDigraph:
    """fold as it was written with rng.randrange drawing the pop index,
    pushing a clash only when its ends are in two classes."""
    n = g.num_vertices
    parent = list(range(n))
    size = [1] * n
    rows = {l: ([-1] * n, [-1] * n) for l in {l for _, _, l in g.edges}}  # (out, in)
    pending: list[tuple[int, int]] = []
    for s, d, l in g.edges:
        out, into = rows[l]
        if out[s] >= 0:
            pending.append((out[s], d))
        if into[d] >= 0:
            pending.append((into[d], s))
        out[s], into[d] = d, s
    all_rows = [row for pair in rows.values() for row in pair]

    while pending:
        i = rng.randrange(len(pending))
        pending[i], pending[-1] = pending[-1], pending[i]
        a, b = pending.pop()
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if size[a] > size[b]:
            a, b = b, a
        parent[a] = b
        size[b] += size[a]
        for row in all_rows:
            u, other = row[a], row[b]
            if other < 0:
                row[b] = u
            elif u >= 0 and u != other:
                r, t = u, other
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
                while parent[t] != t:
                    parent[t] = t = parent[parent[t]]
                if r != t:
                    pending.append((other, u))

    root_number: dict[int, int] = {}
    number = []
    for v in range(n):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        number.append(root_number.setdefault(v, len(root_number)))
    new_edges = tuple(sorted((number[r], number[u], l)
                             for l, (out, _) in rows.items()
                             for r in root_number if (u := out[r]) >= 0))
    base = number[g.basepoint] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, len(root_number), new_edges, base)


def wedge_fold(gens, alphabet: int) -> LabeledDigraph:
    """The Stallings graph as the fold of the whole wedge of the freely
    reduced generators' loops, cored."""
    loops = [r for r in map(free_reduce, gens) if r]
    return canonical_form(core(fold(wedge_of_words(loops, alphabet))))


def naive_intersection(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    fp = fiber_product(g1, g2)
    return canonical_form(core(component_containing(fp, fp.basepoint)))


def naive_components(g: LabeledDigraph) -> list[frozenset[int]]:
    """Breadth-first search from each unseen vertex, in vertex order."""
    nbrs: list[set[int]] = [set() for _ in range(g.num_vertices)]
    for s, d, _ in g.edges:
        nbrs[s].add(d)
        nbrs[d].add(s)
    seen = [False] * g.num_vertices
    comps = []
    for start in range(g.num_vertices):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in sorted(nbrs[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        comps.append(frozenset(comp))
    return comps


def naive_component_containing(g: LabeledDigraph, v: int) -> LabeledDigraph:
    """The subgraph induced on v's component, renumbered in vertex order."""
    comp = next(c for c in naive_components(g) if v in c)
    vmap = {u: i for i, u in enumerate(sorted(comp))}
    edges = tuple((vmap[s], vmap[d], l) for s, d, l in g.edges
                  if s in comp and d in comp)
    base = vmap[g.basepoint] if g.basepoint in comp else None
    return LabeledDigraph(g.alphabet, len(comp), edges, base)


def naive_betti(g: LabeledDigraph) -> tuple:
    return tuple(
        (comp, sum(1 for s, _, _ in g.edges if s in comp) - len(comp) + 1)
        for comp in naive_components(g)
    )


def out_map(g: LabeledDigraph) -> dict[tuple[int, int], int]:
    """(vertex, label) -> edge index, following the edge forwards."""
    return {(s, l): i for i, (s, d, l) in enumerate(g.edges)}


def in_map(g: LabeledDigraph) -> dict[tuple[int, int], int]:
    """(vertex, label) -> edge index, crossing the edge backwards."""
    return {(d, l): i for i, (s, d, l) in enumerate(g.edges)}


def map_trace(g: LabeledDigraph, v: int, w) -> tuple | None:
    path = []
    for x in w:
        if x > 0:
            i = out_map(g).get((v, x))
            if i is None:
                return None
            path.append((i, +1))
            v = g.edges[i][1]
        else:
            i = in_map(g).get((v, -x))
            if i is None:
                return None
            path.append((i, -1))
            v = g.edges[i][0]
    return v, tuple(path)


def witness_decompose(g: LabeledDigraph, w) -> tuple:
    """(sigma, classes, edge_multiplicity): sigma_w from a map_trace of w
    from every vertex, each whole (edge, direction) trace kept as a witness
    path, and each class path joined from the witnesses of its vertices."""
    sigma, witness = {}, {}
    for v in range(g.num_vertices):
        res = map_trace(g, v, w)
        if res is not None:
            sigma[v], witness[v] = res
    if len(set(sigma.values())) != len(sigma):
        raise ValueError("sigma_w is not injective: graph is not deterministic")
    on_cycle, classes = {}, []
    for start in sigma:
        if start in on_cycle:
            continue
        walk, seen, v = [], set(), start
        while v is not None and v not in on_cycle and v not in seen:
            seen.add(v)
            walk.append(v)
            v = sigma.get(v)
        if v is not None and v in seen:
            for u in walk:
                on_cycle[u] = True
            path = tuple(step for u in walk for step in witness[u])
            classes.append(WCycleClass(tuple(walk), path))
        else:
            for u in walk:
                on_cycle[u] = False
    multiplicity = Counter()
    for c in classes:
        for edge_index, _ in c.path:
            multiplicity[edge_index] += 1
    return sigma, tuple(classes), dict(multiplicity)


def map_bfs_numbering(g: LabeledDigraph, start: int) -> LabeledDigraph:
    outs, ins = out_map(g), in_map(g)
    number = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for l in range(1, g.alphabet + 1):
            for lookup in (outs, ins):
                i = lookup.get((v, l))
                if i is None:
                    continue
                s, d, _ = g.edges[i]
                u = d if lookup is outs else s
                if u not in number:
                    number[u] = len(order)
                    order.append(u)
                    queue.append(u)
    if len(order) < g.num_vertices:
        raise ValueError("canonical_form: graph must be connected")
    edges = tuple(sorted((number[s], number[d], l) for s, d, l in g.edges))
    base = number[g.basepoint] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, g.num_vertices, edges, base)


def map_canonical_form(g: LabeledDigraph) -> LabeledDigraph:
    if g.num_vertices == 0:
        raise ValueError("canonical_form: graph must be connected")
    if g.basepoint is not None:
        return map_bfs_numbering(g, g.basepoint)
    return min((map_bfs_numbering(g, start) for start in range(g.num_vertices)),
               key=lambda h: h.edges)


def map_intersection(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    """Breadth-first search of the based component of the fiber product,
    one (vertex, label) dict lookup per factor and step."""
    maps1, maps2 = (out_map(g1), in_map(g1)), (out_map(g2), in_map(g2))
    start = (g1.basepoint, g2.basepoint)
    number = {start: 0}
    order = [start]
    edges = []
    for v1, v2 in order:
        for l in range(1, g1.alphabet + 1):
            for far, map1, map2 in ((1, maps1[0], maps2[0]), (0, maps1[1], maps2[1])):
                i1, i2 = map1.get((v1, l)), map2.get((v2, l))
                if i1 is None or i2 is None:
                    continue
                u = (g1.edges[i1][far], g2.edges[i2][far])
                if u not in number:
                    number[u] = len(order)
                    order.append(u)
                if far == 1:
                    edges.append((number[v1, v2], number[u], l))
    based = LabeledDigraph(g1.alphabet, len(order), tuple(edges), 0)
    return map_canonical_form(round_core(based))


def round_core(g: LabeledDigraph) -> LabeledDigraph:
    """Recount every degree each round and drop all degree-1 vertices other
    than the basepoint, with the edges they end, until none is left."""
    alive = set(range(g.num_vertices))
    edges = set(range(len(g.edges)))
    while True:
        degree = {v: 0 for v in alive}
        for i in edges:
            s, d, _ = g.edges[i]
            degree[s] += 1
            degree[d] += 1
        spurs = {v for v in alive if degree[v] == 1 and v != g.basepoint}
        if not spurs:
            break
        alive -= spurs
        edges = {i for i in edges
                 if g.edges[i][0] in alive and g.edges[i][1] in alive}
    order = sorted(alive)
    vmap = {v: i for i, v in enumerate(order)}
    new_edges = tuple((vmap[s], vmap[d], l) for i in sorted(edges)
                      for s, d, l in [g.edges[i]])
    return LabeledDigraph(g.alphabet, len(order), new_edges, vmap[g.basepoint])


def two_phase_collapse(x: TwoComplex, max_cells_exhaustive: int = 12) -> tuple:
    """(collapses, sequence, exhaustive_used): greedy first, always taking
    the least free face; if that fails, a memoised depth-first search from
    the start, allowed only up to max_cells_exhaustive cells."""
    g = x.skeleton

    def free(cells_left, edges_left):
        count = Counter(e for k in cells_left for e, _ in x.cells[k])
        owner = {e: k for k in cells_left for e, _ in x.cells[k]}
        return sorted((e, owner[e]) for e in edges_left if count[e] == 1)

    def is_tree(edges_left):
        live = LabeledDigraph(g.alphabet, g.num_vertices,
                              tuple(g.edges[i] for i in edges_left))
        return len(edges_left) == g.num_vertices - 1 and len(naive_components(live)) == 1

    cells, edges, seq = set(range(len(x.cells))), set(range(len(g.edges))), []
    while cells and (faces := free(cells, edges)):
        e, k = faces[0]
        cells.discard(k)
        edges.discard(e)
        seq.append((e, k))
    if not cells and is_tree(edges):
        return True, tuple(seq), False
    if not x.cells:
        return False, (), False
    if len(x.cells) > max_cells_exhaustive:
        raise ValueError(f"exhaustive collapse search needs <= {max_cells_exhaustive} "
                         f"cells, got {len(x.cells)}")
    dead = set()

    def search(cells_left, edges_left):
        if not cells_left:
            return [] if is_tree(edges_left) else None
        if (cells_left, edges_left) in dead:
            return None
        for e, k in free(cells_left, edges_left):
            rest = search(cells_left - {k}, edges_left - {e})
            if rest is not None:
                return [(e, k)] + rest
        dead.add((cells_left, edges_left))
        return None

    seq = search(frozenset(range(len(x.cells))), frozenset(range(len(g.edges))))
    return seq is not None, tuple(seq or ()), True


def all_vertex_npi(g: LabeledDigraph, w, attachments) -> tuple:
    """(report, cells) of check_npi as first written: the class path rotated
    to start at every vertex of every class is stored, then looked up for
    each attachment."""
    if not is_connected(g):
        raise ValueError("check_npi: graph must be connected")
    require_simple_cyclic(w)
    dec = decompose(g, w)
    by_vertex = {}
    for c in dec.classes:
        for i, v in enumerate(c.vertices):
            offset = i * len(w)
            by_vertex[v] = (c.period, c.path[offset:] + c.path[:offset])
    cells, used_orbits = [], set()
    orbit_of = {v: j for j, c in enumerate(dec.classes) for v in c.vertices}
    for v, n in attachments:
        if v not in by_vertex:
            raise ValueError(f"attachment at vertex {v}: w^n never closes there")
        period, path = by_vertex[v]
        if n != period:
            raise ValueError(
                f"attachment at vertex {v}: exponent {n} is not the minimal "
                f"closing exponent {period}, so this is not an immersion")
        if orbit_of[v] in used_orbits:
            raise ValueError(
                f"attachment at vertex {v}: duplicates another attachment's "
                "cycle class, so this is not an immersion")
        used_orbits.add(orbit_of[v])
        cells.append(path)
    chi = g.num_vertices - len(g.edges) + len(cells)
    if chi <= 0:
        return NpiReport(chi, "chi", True), cells
    result = collapses_to_tree(TwoComplex(g, tuple(cells)))
    branch = "contractible" if result.collapses else "fail"
    return NpiReport(chi, branch, result.collapses), cells


def letters_from(labels):
    return st.sampled_from(labels).flatmap(lambda l: st.sampled_from([l, -l]))


def words_from(labels):
    return st.lists(letters_from(labels), min_size=1, max_size=10).map(
        lambda w: free_reduce(tuple(w)))


def generator_sets_from(labels):
    return st.lists(words_from(labels).filter(bool), min_size=1, max_size=5)


letters = letters_from([1, 2])
words = words_from([1, 2])
generator_sets = generator_sets_from([1, 2])


def simple_words_from(labels):
    """Cyclically reduced words that are not proper powers."""
    return st.lists(letters_from(labels), min_size=1, max_size=8).map(
        lambda w: cyclic_reduce(free_reduce(tuple(w)))[0]).filter(
        lambda w: w and is_simple(w))


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


@st.composite
def deterministic_graphs(draw, max_vertices=9, alphabet=2, based=None):
    """Deterministic labeled digraphs, possibly disconnected, with loops
    and isolated vertices: random edges, each dropped if it would share a
    (vertex, label) slot with an earlier one.  based: True, False, or None
    for either."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    taken, edges = set(), []
    for s, d, l in draw(st.lists(st.tuples(vertex, vertex, st.integers(1, alphabet)),
                                 max_size=2 * n * alphabet)):
        if (s, l) not in taken and (d, -l) not in taken:
            taken |= {(s, l), (d, -l)}
            edges.append((s, d, l))
    if based is None:
        based = draw(st.booleans())
    return LabeledDigraph(alphabet, n, tuple(edges), draw(vertex) if based else None)


@st.composite
def graphs_with_hanging_trees(draw, max_vertices=12, alphabet=3):
    """Based, connected, deterministic graphs: each vertex hangs off an
    earlier one by a free slot, and extra edges are kept where both their
    slots are free, so trees hang off the cycles the extra edges close."""
    n = draw(st.integers(1, max_vertices))
    taken, edges = set(), []

    def add(v, u, x):  # the edge reading x from v to u
        taken.update({(v, x), (u, -x)})
        edges.append((v, u, x) if x > 0 else (u, v, -x))

    for u in range(1, n):
        v, x = draw(st.sampled_from([(v, x) for v in range(u) for l in range(1, alphabet + 1)
                                     for x in (l, -l) if (v, x) not in taken]))
        add(v, u, x)
    vertex = st.integers(0, n - 1)
    for v, u, x in draw(st.lists(st.tuples(vertex, vertex, letters_from(
            list(range(1, alphabet + 1)))), max_size=n)):
        if (v, x) not in taken and (u, -x) not in taken:
            add(v, u, x)
    return LabeledDigraph(alphabet, n, tuple(draw(st.permutations(edges))), draw(vertex))


@st.composite
def gamma_w_and_npi_complexes(draw):
    """Over a random connected automaton and a random simple word: Gamma_w,
    or a complex like check_npi builds, with a disc for some of the cycle
    classes, each read from a drawn vertex of its class."""
    cfg = TrialConfig(max_vertices=draw(st.integers(1, 10)),
                      alphabet=draw(st.integers(2, 3)),
                      max_word_length=draw(st.integers(1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_connected_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    classes = decompose(g, w).classes
    if draw(st.booleans()):
        return TwoComplex(g, tuple(c.path for c in classes))
    cells = []
    for c in classes:
        if draw(st.booleans()):
            offset = draw(st.integers(0, c.period - 1)) * len(w)
            cells.append(c.path[offset:] + c.path[:offset])
    return TwoComplex(g, tuple(cells))


@st.composite
def npi_instances(draw):
    """(graph, word, attachments) over a random connected automaton: one
    attachment at a drawn vertex of some of the cycle classes, and sometimes
    one more at any vertex with any exponent, which may fail any of
    check_npi's conditions."""
    cfg = TrialConfig(max_vertices=draw(st.integers(1, 10)),
                      alphabet=draw(st.integers(1, 3)),
                      max_word_length=draw(st.integers(1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_connected_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    attachments = [(draw(st.sampled_from(cycle)), len(cycle))
                   for cycle in decompose(g, w).cycles if draw(st.booleans())]
    if draw(st.booleans()):
        extra = (draw(st.integers(0, g.num_vertices - 1)), draw(st.integers(1, 4)))
        attachments.insert(draw(st.integers(0, len(attachments))), extra)
    return g, w, attachments


@st.composite
def wedge_complexes(draw):
    """A wedge of subdivided loops with a disc on every loop, sometimes one
    loop with a second disc: collapses of many cells, and stuck ones."""
    loops = draw(st.lists(st.lists(letters, min_size=1, max_size=4),
                          min_size=1, max_size=6))
    cells, first = [], 0
    for w in loops:
        cells.append(tuple((first + i, 1 if x > 0 else -1) for i, x in enumerate(w)))
        first += len(w)
    if draw(st.booleans()):
        cells.append(draw(st.sampled_from(cells)))
    g = wedge_of_words([tuple(w) for w in loops], 2)
    return TwoComplex(g, tuple(draw(st.permutations(cells))))


# last-in first-out, or a seeded random order
fold_orders = st.none() | st.integers(0, 2**32).map(random.Random)


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

    @settings(max_examples=80)
    @given(generator_sets_from([1, 2, 3]), fold_orders)
    def test_wedges_three_letters(self, gens, rng):
        assert_fold_matches(wedge_of_words(gens, 3), rng)

    @settings(max_examples=80)
    @given(generator_sets_from([1, 3]), st.sampled_from([3, 5]), fold_orders)
    def test_wedges_skipping_a_letter(self, gens, alphabet, rng):
        # labels 2, 4 and 5 are on no edge, so they get no rows
        assert_fold_matches(wedge_of_words(gens, alphabet), rng)

    @settings(max_examples=80)
    @given(connected_graphs(alphabet=3), fold_orders)
    def test_small_graphs_three_letters(self, g, rng):
        assert_fold_matches(g, rng)

    @settings(max_examples=300)
    @given(graphs_with_repeats() | connected_graphs(alphabet=3), fold_orders, fold_orders)
    def test_merge_order_changes_nothing(self, g, rng1, rng2):
        # exactly, not up to isomorphism: classes are numbered by least vertex
        a, b = fold(g, rng1), fold(g, rng2)
        assert a == b
        assert a.successor == b.successor

    def test_memory_ignores_declared_alphabet(self):
        g = wedge_of_words([(1, 2)], 10**6)
        tracemalloc.start()
        try:
            folded = fold(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert folded == LabeledDigraph(10**6, 2, ((0, 1, 1), (1, 0, 2)), 0)
        assert peak < 1 << 20

    def test_numbering_follows_least_member(self):
        # 1 and 2 are identified; the class is numbered after vertex 1
        g = LabeledDigraph(1, 4, ((0, 1, 1), (0, 2, 1), (3, 0, 1)), basepoint=3)
        assert fold(g) == LabeledDigraph(1, 3, ((0, 1, 1), (2, 0, 1)), basepoint=2)


class TestFoldOrderAgainstRandrange:
    """fold(g, rng) draws its pop index from getrandbits as rng.randrange
    would: the same graph out, and the rng left in the same state."""

    def assert_same_draws(self, g, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        assert fold(g, rng) == randrange_fold(g, ref)
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=300)
    @given(graphs_with_repeats() | connected_graphs(alphabet=3), st.integers(0, 2**64))
    def test_graphs(self, g, seed):
        self.assert_same_draws(g, seed)

    @settings(max_examples=100)
    @given(generator_sets_from([1, 2, 3]), st.integers(0, 2**64))
    def test_wedges(self, gens, seed):
        self.assert_same_draws(wedge_of_words(gens, 3), seed)

    def test_long_worklist(self):
        # 200 parallel loops: the worklist outgrows every small bit width
        g = LabeledDigraph(1, 201, tuple((0, v, 1) for v in range(1, 201)))
        for seed in range(5):
            self.assert_same_draws(g, seed)


class TestFoldLeavesItsInputIntact:
    """fold merges copies of its input's successor rows and clash pairs, so
    after any number of folds the input's index reads as a fresh load."""

    @settings(max_examples=200)
    @given(graphs_with_repeats() | connected_graphs(alphabet=3), fold_orders)
    def test_two_folds(self, g, rng):
        assert fold(g, rng) == fold(g, rng)
        rows, clashes = _load_rows(g.edges, g.num_vertices + 1)
        assert g.successor == rows
        assert g.deterministic == (not clashes)
        assert g._clashes == tuple(clashes)


class TestIntersectAgainstReference:
    @settings(max_examples=60)
    @given(generator_sets, generator_sets)
    def test_random_subgroups(self, gens1, gens2):
        h1, h2 = stallings_graph(gens1, 2), stallings_graph(gens2, 2)
        assert intersect(h1, h2).graph == naive_intersection(h1.graph, h2.graph)


@st.composite
def raw_generator_sets(draw):
    """(generators, alphabet) over 1-3 letters: words as drawn, so some are
    unreduced or reduce to nothing, plus repeats and proper powers."""
    alphabet = draw(st.integers(1, 3))
    letter = letters_from(list(range(1, alphabet + 1)))
    gens = draw(st.lists(st.lists(letter, max_size=8).map(tuple), max_size=5))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)) * draw(st.integers(2, 3)))
    return draw(st.permutations(gens)), alphabet


@st.composite
def cascading_generator_sets(draw):
    """(generators, alphabet) over 1-3 letters built to make reading clash
    and its merges cascade: words sharing a drawn prefix and suffix, so
    that they are read wholly forwards or backwards along each other, words
    whose whole reading follows earlier ones, their inverses and cyclic
    shifts, and unreduced words such as u x X v."""
    alphabet = draw(st.integers(1, 3))
    letter = letters_from(list(range(1, alphabet + 1)))
    part = st.lists(letter, max_size=4).map(tuple)
    prefix, suffix = draw(part), draw(part)
    gens = [prefix + draw(part) + suffix for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        w = draw(st.sampled_from(gens))
        k = draw(st.integers(0, len(w)))
        gens.append(draw(st.sampled_from([w[:k], w[k:], w[k:] + w[:k], invert(w),
                                          w * 2])))
    if draw(st.booleans()):
        x = draw(letter)
        gens.append(draw(part) + (x, -x) + draw(part))
    return draw(st.permutations(gens)), alphabet


class TestStallingsAgainstWedgeFold:
    """stallings_graph reads each word into the graph built so far and
    merges only the vertex pairs a clash forces together; the reference
    folds the whole wedge."""

    @settings(max_examples=400)
    @given(raw_generator_sets())
    @pytest.mark.filterwarnings("ignore:generator")
    def test_random_generators(self, instance):
        gens, alphabet = instance
        assert stallings_graph(gens, alphabet).graph == wedge_fold(gens, alphabet)

    @settings(max_examples=400)
    @given(cascading_generator_sets())
    @pytest.mark.filterwarnings("ignore:generator")
    def test_cascading_merges(self, instance):
        gens, alphabet = instance
        assert stallings_graph(gens, alphabet).graph == wedge_fold(gens, alphabet)

    @settings(max_examples=200)
    @given(raw_generator_sets() | cascading_generator_sets())
    @pytest.mark.filterwarnings("ignore:generator")
    def test_never_strips_spurs(self, instance):
        # a folded bouquet of reduced loops is core relative to its base
        gens, alphabet = instance
        want = wedge_fold(gens, alphabet)  # the reference cores through _strip_spurs
        with mock.patch("wordcycles.graphs._strip_spurs", side_effect=AssertionError):
            assert stallings_graph(gens, alphabet).graph == want

    # the pairs that reading leaves to merge, by the vertices it numbered
    PENDING = {("aa", "a"): [(1, 0)], ("ba", "a"): [(0, 1)], ("abA",): [(1, 2)]}

    @pytest.mark.parametrize("texts", [
        ("aa", "a"),   # the whole of a is read forwards, ending off the base
        ("ba", "a"),   # the whole of a is read backwards, starting off it
        ("abA",),      # the first and last new edges clash at the base
    ])
    def test_coincidences_need_fold(self, texts):
        gens = [parse_word(t) for t in texts]
        *_, pending = _read(gens, {1, 2})
        assert pending == self.PENDING[texts]
        assert stallings_graph(gens, 2).graph == wedge_fold(gens, 2)

    def test_memory_ignores_declared_alphabet(self):
        # reading and the finishing pass keep rows for the letters in use only
        tracemalloc.start()
        try:
            rows, n, pending = _read([(1, 2), (2, 1)], {1, 2})
            g = _core_form(10**6, rows, n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pending == []
        assert g == LabeledDigraph(10**6, 3, ((0, 1, 1), (0, 2, 2), (1, 0, 2), (2, 0, 1)), 0)
        assert peak < 1 << 20


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="the hash collision and dict sizes are CPython's")
class TestReadTableAgainstLoader:
    """CPython hashes -1 and -2 alike, so in an 8-slot dict a lookup of -2
    walks 13 probes.  _read keeps its rows in a larger table, with the keys
    and key order that _load_rows gives for one edge per label, and empty
    rows."""

    def test_table_is_larger_than_a_plain_dict(self):
        rows, *_ = _read([], {1, 2})
        assert sys.getsizeof(rows) > sys.getsizeof({1: 0, -1: 0, 2: 0, -2: 0})

    @pytest.mark.parametrize("loops", [
        [(1, 2)],
        [(2, 1, 2), (1,)],
        [(3, 195, 6, 10, 22)],  # this label set iterates in another order than its copy
    ])
    def test_keys_key_order_and_rows(self, loops):
        labels = _require_letters(loops, 195)
        size = 1 + sum(map(len, loops))
        one_edge_each = tuple((0, 0, l) for l in labels)  # the loader keys its edges' labels
        rows, *_ = _read([], labels)
        want = list(_load_rows(one_edge_each, 1)[0])
        assert list(rows.items()) == [(x, [-1]) for x in want]
        rows, *_ = _read(loops, labels)
        want = list(_load_rows(one_edge_each, size)[0])
        assert list(rows) == want
        assert [len(row) for row in rows.values()] == [size] * len(want)


def assert_finish_matches(before, rows, pending, getrandbits=None):
    """_fold_clashes on the slot rows and worklist of the graph before:
    the rows it hands back are those the checked graph on its edges derives,
    and number sends each vertex below n to its class."""
    n, merged = before.num_vertices, list(pending)
    m, folded, edges, number = _fold_clashes(rows, n, pending, getrandbits)
    checked = LabeledDigraph(before.alphabet, m, tuple(sorted(edges)))
    assert folded == checked.successor
    assert checked.deterministic
    assert number[:n] == naive_classes(before, merged)
    assert number[n:] == [-1]
    assert set(edges) == {(number[s], number[d], l) for s, d, l in before.edges}


class TestFoldFinishAgainstChecked:
    """The one finish of every fold, graphs.fold and Stallings graphs alike:
    _fold_clashes hands back the folded graph's rows and edges, whether its
    rows are the loader's, on n or n + 1 slots, or _read's, which have room
    to spare."""

    @settings(max_examples=200)
    @given(graphs_with_repeats() | connected_graphs(alphabet=3), fold_orders,
           st.sampled_from([0, 1]))
    def test_loaded_rows(self, g, rng, sink):
        # on n slots, or n + 1 as a graph's own successor rows, which fold copies
        rows, pending = _load_rows(g.edges, g.num_vertices + sink)
        assert_finish_matches(g, rows, pending, rng.getrandbits if rng else None)

    @settings(max_examples=200)
    @given(raw_generator_sets() | cascading_generator_sets())
    def test_read_rows(self, instance):
        gens, alphabet = instance
        loops = [r for r in map(free_reduce, gens) if r]
        rows, n, pending = _read(loops, {abs(x) for w in loops for x in w})
        assert all(len(row) > n for row in rows.values())  # room to spare
        # each edge fills two slots, and a clash overwrites at most one of them
        edges = {(v, u, x) if x > 0 else (u, v, -x)
                 for x, row in rows.items() for v, u in enumerate(row[:n]) if u >= 0}
        before = LabeledDigraph(alphabet, n, tuple(edges))
        assert_finish_matches(before, rows, pending)


class TestConjugateAgainstRefold:
    """conjugate reads g from the basepoint and creates the edges it
    misses; the reference folds the wedge of the conjugated generators."""

    @settings(max_examples=200)
    @given(raw_generator_sets(), st.lists(letters_from([1, 2, 3]), max_size=6))
    @pytest.mark.filterwarnings("ignore:generator")
    def test_random_subgroups(self, instance, g):
        gens, alphabet = instance
        g = tuple(x for x in g if abs(x) <= alphabet)  # g may be unreduced
        refold = wedge_fold([invert(g) + x + g for x in gens], alphabet)
        assert conjugate(stallings_graph(gens, alphabet), g).graph == refold

    def test_never_merges(self):
        # every fold, graphs.fold and Stallings graphs alike, merges in _fold_clashes,
        # which subgroups imports by name
        h = stallings_graph([parse_word("aba"), parse_word("bb")], 2)
        with mock.patch("wordcycles.graphs._fold_clashes", side_effect=AssertionError), \
                mock.patch("wordcycles.subgroups._fold_clashes", side_effect=AssertionError):
            for g in ("", "a", "ab", "bA", "aAb", "BBa", "abab"):
                conjugate(h, parse_word(g))


class TestCollapseAgainstTwoPhase:
    """The greedy pass decides what the exhaustive search decides: the
    strategies make at most 10 cells, under the reference's cap of 12."""

    @settings(max_examples=300)
    @given(gamma_w_and_npi_complexes() | wedge_complexes())
    def test_same_result(self, x):
        res = collapses_to_tree(x)
        assert (res.collapses, res.sequence) == two_phase_collapse(x)[:2]
        assert res.exhaustive_used is False

    def test_cascades(self):
        # n parallel edges with a disc between each neighbouring pair, listed
        # in shuffled orders: collapsing one disc frees an edge of the next
        for n in range(2, 8):
            g = LabeledDigraph(n, 2, tuple((0, 1, l) for l in range(1, n + 1)))
            cells = [((i, 1), (i + 1, -1)) for i in range(n - 1)]
            for seed in range(20):
                random.Random(seed).shuffle(cells)
                x = TwoComplex(g, tuple(cells))
                res = collapses_to_tree(x)
                assert res.collapses and len(res.sequence) == n - 1
                assert (res.collapses, res.sequence) == two_phase_collapse(x)[:2]


class TestBettiAgainstReference:
    @settings(max_examples=100)
    @given(any_graphs())
    def test_per_component(self, g):
        expected = naive_betti(g)
        report = betti(g)
        assert report.total == sum(b for _, b in expected)
        assert report.bettis == tuple(b for _, b in expected)
        assert report.per_component == expected
        assert report.total == sum(b for _, b in expected)
        # per_component read first, before the integers and the total
        report = betti(g)
        assert report.per_component == expected
        assert report.bettis == tuple(b for _, b in expected)
        assert report.total == sum(b for _, b in expected)

    @settings(max_examples=200)
    @given(graphs_with_repeats())
    def test_partition_counts(self, g):
        # loops, parallel duplicates and isolated vertices: the union-find
        # pass counts each edge inside a class once
        report = betti(g)
        assert report.bettis == tuple(b for _, b in naive_betti(g))
        assert report.total == sum(report.bettis)
        assert len(report.bettis) == len(naive_components(g))


class TestNpiAgainstAllVertexRotation:
    """check_npi rotates the class paths of the attached vertices alone."""

    def assert_matches(self, g, w, attachments):
        try:
            expected, cells = all_vertex_npi(g, w, attachments)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                complexes.check_npi(g, w, attachments)
            assert str(raised.value) == str(exc)
            return
        with mock.patch.object(complexes, "euler_characteristic",
                               wraps=complexes.euler_characteristic) as chi:
            assert complexes.check_npi(g, w, attachments) == expected
        assert chi.call_args.args[0].cells == tuple(cells)

    @settings(max_examples=300)
    @given(npi_instances())
    def test_random_attachments(self, instance):
        self.assert_matches(*instance)

    @pytest.mark.parametrize("w", [(1,), (-1,)])
    @pytest.mark.parametrize("attachments", [
        [(3, 5)], [(5, 1)], [(0, 1)], [(2, 5), (4, 5)], [(6, 1), (1, 5)], []])
    def test_rotations_and_errors(self, w, attachments):
        # a 5-cycle of a-edges, and a b-edge 0 -> 5 to an a-edge 5 -> 6:
        # vertices 5 and 6 lie on no cycle of a or A
        g = LabeledDigraph(2, 7, tuple((v, (v + 1) % 5, 1) for v in range(5))
                           + ((0, 5, 2), (5, 6, 1)))
        self.assert_matches(g, w, attachments)

    def test_disconnected_graph(self):
        g = LabeledDigraph(1, 2, ((0, 0, 1),))
        self.assert_matches(g, (1,), [(0, 1)])


def letters_in_use(g: LabeledDigraph) -> set[int]:
    return {x for _, _, l in g.edges for x in (l, -l)}


class TestSuccessorAgainstMaps:
    """The successor rows against the far ends of the (vertex, label) dicts,
    in which, as in the rows, the last of two edges sharing a slot wins."""

    @settings(max_examples=200)
    @given(graphs_with_repeats())
    def test_rows(self, g):
        n, outs, ins = g.num_vertices, out_map(g), in_map(g)
        fresh = replace(g)  # its flag read before its rows
        assert fresh.deterministic == (validate(g) == [])
        assert set(g.successor) == letters_in_use(g)
        assert fresh.successor == g.successor
        assert all(len(row) == n + 1 and row[-1] == -1 for row in g.successor.values())
        blank = [-1] * (n + 1)  # a letter on no edge has no row
        for v in range(n):
            for l in range(1, g.alphabet + 1):
                i, j = outs.get((v, l)), ins.get((v, l))
                assert g.successor.get(l, blank)[v] == (-1 if i is None else g.edges[i][1])
                assert g.successor.get(-l, blank)[v] == (-1 if j is None else g.edges[j][0])
        assert g.deterministic == (validate(g) == [])

    @settings(max_examples=200)
    @given(deterministic_graphs(), st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                                            max_size=8))
    def test_walk_from_every_vertex(self, g, w):
        # letters 3 and -3 lie beyond the alphabet: they lead every vertex to -1
        n, used = g.num_vertices, letters_in_use(g)
        for v in range(n):
            end = map_trace(g, v, w)
            assert walk(g, v, w) == (-1 if end is None else end[0])
            assert walk(g, -1, w) == -1  # the sink leads to itself
        for x in w:  # a letter on no edge has no row, read or not
            assert x in used or x not in g.successor


class TestReadsNeverGrowTheIndex:
    """A graph's successor keeps rows for the labels on its edges alone,
    whatever letters its readers read."""

    @settings(max_examples=150)
    @given(deterministic_graphs(based=True), deterministic_graphs(based=True),
           st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 7, -7]), min_size=1, max_size=6))
    def test_after_every_reader(self, g1, g2, w):
        # widened to alphabet 3, g reads 3 inside its alphabet and 7 beyond it,
        # both on no edge
        g = replace(component_containing(g1, g1.basepoint), alphabet=3)
        h1, h2 = SubgroupGraph(g), SubgroupGraph(replace(g2, alphabet=3))
        for v in range(-1, g.num_vertices):
            walk(g, v, w)
        contains(h1, w)
        if r := cyclic_reduce(tuple(w))[0]:
            decompose(g, primitive_root(r)[0]).classes
            decompose(h1.graph, primitive_root(r)[0]).classes
        canonical_form(g)
        canonical_form(replace(g, basepoint=None))
        core(g)
        intersect(h1, h2)
        for x in (g, h1.graph, h2.graph):
            assert set(x.successor) == letters_in_use(x)

    def test_two_thousand_absent_letters(self):
        h = stallings_graph([(1, 2), (2, 1, 1)], 2)
        assert len(h.graph.successor) == 4
        for x in range(3, 2003):
            assert not contains(h, (x,))
        assert len(h.graph.successor) == 4


class TestPartitionAgainstReference:
    """components, is_connected, component_containing and the connectivity
    check in canonical_form all read the one cached partition."""

    @settings(max_examples=200)
    @given(graphs_with_repeats(), st.data())
    def test_partition(self, g, data):
        vertex = st.integers(0, g.num_vertices - 1)
        g = replace(g, basepoint=data.draw(st.none() | vertex))
        comps = naive_components(g)
        assert components(g) == comps
        assert is_connected(g) == (len(comps) == 1)
        v = data.draw(vertex)
        assert component_containing(g, v) == naive_component_containing(g, v)
        if not validate(g):
            if len(comps) == 1:
                canonical_form(g)
            else:
                with pytest.raises(ValueError, match="must be connected"):
                    canonical_form(g)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_vertex_outside_graph(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} not in graph"):
            component_containing(LabeledDigraph(1, 3, ((0, 1, 1),)), v)

    def test_empty_graph(self):
        g = LabeledDigraph(1, 0, ())
        assert components(g) == [] and not is_connected(g)
        with pytest.raises(ValueError, match="must be connected"):
            canonical_form(g)


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


class TestLetterTableAgainstMaps:
    """The edge index, and trace, canonical_form and intersect, which read
    it or the successor rows, against the (vertex, label) dicts."""

    @settings(max_examples=200)
    @given(deterministic_graphs())
    def test_slots(self, g):
        outs, ins, rows = out_map(g), in_map(g), g.successor
        assert g.edge_index == {e: i for i, e in enumerate(g.edges)}
        for v in range(g.num_vertices):  # the lookups _trace makes, slot by slot
            for l in range(1, g.alphabet + 1):
                if (i := outs.get((v, l))) is not None:
                    assert g.edge_index[v, rows[l][v], l] == i
                if (j := ins.get((v, l))) is not None:
                    assert g.edge_index[rows[-l][v], v, l] == j
        assert g.deterministic

    @settings(max_examples=200)
    @given(deterministic_graphs(), st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                                            min_size=1, max_size=8))
    def test_trace_from_every_vertex(self, g, w):
        # letters 3 and -3 lie beyond the alphabet: they trace nowhere
        w = free_reduce(tuple(w)) or (1,)
        for v in range(g.num_vertices):
            if (expected := map_trace(g, v, w)) is not None:  # _trace's walks stay on g
                assert _trace(g, v, w) == expected[1]

    @settings(max_examples=200)
    @given(deterministic_graphs())
    def test_canonical_form(self, g):
        try:
            expected = map_canonical_form(g)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                canonical_form(g)
        else:
            assert canonical_form(g) == expected

    @settings(max_examples=150)
    @given(deterministic_graphs(based=True), deterministic_graphs(based=True))
    def test_intersect(self, g1, g2):
        got = intersect(SubgroupGraph(g1), SubgroupGraph(g2)).graph
        assert got == map_intersection(g1, g2)


def tiny(alphabet: int, based: bool = True) -> LabeledDigraph:
    """A 2-cycle on a at vertices 0 and 1, and a b-path 1 -> 2 -> 3 to a spur."""
    return LabeledDigraph(alphabet, 4, ((0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 3, 2)),
                          0 if based else None)


def shape(result):
    """A result with its graph's declared alphabet left out."""
    if isinstance(result, SubgroupGraph):
        result = result.graph
    if isinstance(result, LabeledDigraph):
        return result.num_vertices, result.edges, result.basepoint
    return result


PER_LETTER_KERNELS = {
    "decompose": lambda a: decompose(tiny(a), (1,)).cycles,
    "check_main_inequality": lambda a: check_main_inequality(tiny(a), (1,)).component_classes,
    "trace": lambda a: _trace(tiny(a), 0, (1, 2, 2)),
    "walk": lambda a: walk(tiny(a), 0, (1, 2, 3)),  # c is on no edge
    "canonical_form": lambda a: canonical_form(tiny(a)),
    "canonical_form_unbased": lambda a: canonical_form(tiny(a, based=False)),
    "core": lambda a: core(tiny(a)),
    "fiber_product": lambda a: fiber_product(tiny(a), tiny(a)),
    "intersect": lambda a: intersect(stallings_graph([(1,), (2, 1, -2)], a),
                                     stallings_graph([(1, 1), (2,)], a)),
    "conjugate": lambda a: conjugate(stallings_graph([(1, 2)], a), (3, 1)),
}


class TestMemoryIgnoresDeclaredAlphabet:
    """Every per-letter structure follows the labels on edges: each kernel,
    on tiny graphs declared with alphabet 10^6, peaks under 1 MiB and gives
    what it gives at alphabet 3."""

    @pytest.mark.parametrize("name", PER_LETTER_KERNELS)
    def test_peak(self, name):
        kernel = PER_LETTER_KERNELS[name]
        tracemalloc.start()
        try:
            result = kernel(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shape(result) == shape(kernel(3))
        assert peak < 1 << 20


BIG = 10**6  # a letter's value, as a table indexed by letter would pay for it

LETTER_VALUE_KERNELS = {  # (builder, its inputs), the inputs built untraced
    "stallings_graph": lambda: (stallings_graph, [(BIG,), (1, BIG, 1)], BIG),
    "SubgroupGraph": lambda: (SubgroupGraph, LabeledDigraph(
        BIG, 3, ((0, 1, BIG), (1, 0, 1), (1, 2, 2)), 0)),
    "conjugate": lambda: (conjugate, stallings_graph([(1, BIG)], BIG), (BIG, 2)),
    "intersect": lambda: (intersect, stallings_graph([(BIG,), (2, BIG, -2)], BIG),
                          stallings_graph([(BIG, BIG), (2,)], BIG)),
}


class TestMemoryIgnoresLetterValues:
    """A subgroup graph's rows are keyed by letter, not held in a table as
    long as the largest letter: each builder, on letters reaching 10^6,
    peaks under 1 MiB and is born with the rows of its letters."""

    @pytest.mark.parametrize("name", LETTER_VALUE_KERNELS)
    def test_peak(self, name):
        builder, *inputs = LETTER_VALUE_KERNELS[name]()
        tracemalloc.start()
        try:
            h = builder(*inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        letters = {l for _, _, l in h.graph.edges}
        assert BIG in letters
        assert sorted(h.graph.successor) == sorted(x for l in letters for x in (l, -l))
        assert peak < 1 << 20


class TestCanonicalIgnoresLettersRead:
    """Walks that read letters on no edge, and a declared alphabet widened
    past them, leave canonical forms and intersections as they were."""

    @settings(max_examples=150)
    @given(deterministic_graphs(based=True), deterministic_graphs(based=True),
           st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 7]), min_size=1, max_size=4))
    def test_after_walks(self, g1, g2, w):
        g1 = component_containing(g1, g1.basepoint)
        want = canonical_form(g1), canonical_form(replace(g1, basepoint=None))
        product = intersect(SubgroupGraph(g1), SubgroupGraph(g2)).graph
        g1, g2 = replace(g1, alphabet=7), replace(g2, alphabet=7)
        walk(g1, g1.basepoint, w)
        walk(g2, g2.basepoint, w[::-1])
        unbased = replace(g1, basepoint=None)
        walk(unbased, -1, w)
        assert shape(canonical_form(g1)) == shape(want[0])
        assert shape(canonical_form(unbased)) == shape(want[1])
        assert shape(intersect(SubgroupGraph(g1), SubgroupGraph(g2))) == shape(product)


class TestCoreFormAgainstCoreThenCanonical:
    """_core_form strips spurs and numbers the vertices on the slot rows
    alone: degrees are counted from the rows, after walks that read letters
    on no edge, and edges into removed vertices are skipped as the kept
    vertices are numbered."""

    @settings(max_examples=300)
    @given(graphs_with_hanging_trees(),
           st.lists(letters_from([1, 2, 3, 4]), min_size=1, max_size=4))
    def test_same_graph(self, g, letters):
        walk(g, g.basepoint, letters)  # letters on no edge included: no row added
        want = canonical_form(core(g))
        assert want == canonical_form(round_core(g))
        assert _core_form(g.alphabet, g.successor, g.num_vertices, g.basepoint) == want


class TestSubgroupGraphAgainstComponentFirst:
    """The public SubgroupGraph constructor keeps what the component-first
    path keeps: the core of the basepoint's component, in canonical form,
    whatever the other components, spurs and isolated vertices hold."""

    @settings(max_examples=300)
    @given(deterministic_graphs(max_vertices=14, based=True))
    def test_same_graph(self, g):
        want = canonical_form(core(component_containing(g, g.basepoint)))
        assert SubgroupGraph(g).graph == want


class TestCoreAgainstRounds:
    @settings(max_examples=300)
    @given(deterministic_graphs(based=True))
    def test_same_graph(self, g):
        assert core(g) == round_core(g)

    @settings(max_examples=100)
    @given(generator_sets, words)
    def test_grafted_subgroups(self, gens, g):
        # conjugate's input: a path hangs off a Stallings graph
        h = stallings_graph(gens, 2).graph
        edges, v = list(h.edges), h.basepoint
        for n, x in enumerate(g, start=h.num_vertices):
            edges.append((v, n, x) if x > 0 else (n, v, -x))
            v = n
        grafted = fold(LabeledDigraph(2, h.num_vertices + len(g), tuple(edges), v))
        assert core(grafted) == round_core(grafted)

    def test_isolated_edge_loses_both_ends(self):
        g = LabeledDigraph(1, 3, ((1, 2, 1),), basepoint=0)
        assert core(g) == round_core(g) == LabeledDigraph(1, 1, (), 0)

    def test_vertex_left_without_edges_stays(self):
        # 1 and 3 are spurs of the first round; 2 is left with degree 0
        g = LabeledDigraph(2, 4, ((1, 2, 1), (2, 3, 2), (0, 0, 1)), basepoint=0)
        assert core(g) == round_core(g) == LabeledDigraph(2, 2, ((0, 0, 1),), 0)



def assert_decompose_matches(g, w):
    dec = decompose(g, w)
    sigma, classes, multiplicity = witness_decompose(g, w)
    assert list(dec.sigma.items()) == list(sigma.items())  # filled in vertex order
    assert dec.classes == classes
    assert dec.edge_multiplicity == multiplicity
    # the lazy views read in the other order, on a fresh decomposition
    dec = decompose(g, w)
    assert dec.edge_multiplicity == multiplicity
    assert dec.classes == classes
    assert dec.count_with_multiplicity == sum(c.period for c in classes)
    assert dec.class_count == len(classes)


class TestDecomposeAgainstWitnessPaths:
    @settings(max_examples=300)
    @given(deterministic_graphs(), simple_words_from([1, 2, 3]))
    def test_deterministic_graphs(self, g, w):
        # letter 3 lies beyond the alphabet: a word with it traces nowhere
        assert_decompose_matches(g, w)

    @settings(max_examples=150)
    @given(st.integers(0, 2**32), st.integers(1, 12), simple_words_from([1, 2]))
    def test_permutation_covers(self, seed, n, w):
        # every word traces from every vertex, so every vertex is on a cycle
        g = random_permutation_automaton(TrialConfig(max_vertices=n, alphabet=2),
                                         random.Random(seed))
        assert_decompose_matches(g, w)
        assert sum(c.period for c in decompose(g, w).classes) == g.num_vertices

    def test_letter_beyond_the_alphabet(self):
        g = LabeledDigraph(2, 2, ((0, 1, 1), (1, 0, 1), (0, 0, 2)))
        for w in [(3,), (1, 3), (2, -3)]:
            assert_decompose_matches(g, w)
            assert decompose(g, w).sigma == {}
        assert_decompose_matches(g, (1, 2))


# one letter, two, and more, a letter on no edge of a 2-letter graph, and
# one beyond every alphabet drawn here
SPARSE_WORDS = [(1,), (-2,), (1, 2), (2, -1), (1, 1, 2), (1, 2, -1, -2), (2, 2, -1, 2, 1),
                (1, 3), (3,), (4, 1, 2)]
sparse_words = simple_words_from([1, 2, 3]) | st.sampled_from(SPARSE_WORDS)


class TestDecomposeOnSparseGraphs:
    """decompose takes each walk's first two steps before its loop over
    the rest of w; on these graphs most walks fall off in those two steps,
    and each graph reads the rows it was born with or loaded."""

    @settings(max_examples=200)
    @given(raw_generator_sets(), sparse_words)
    @pytest.mark.filterwarnings("ignore:generator")
    def test_stallings_graphs(self, instance, w):
        assert_decompose_matches(stallings_graph(*instance).graph, w)

    @settings(max_examples=150)
    @given(raw_generator_sets(), st.lists(letters_from([1, 2, 3]), max_size=6),
           sparse_words)
    @pytest.mark.filterwarnings("ignore:generator")
    def test_conjugates(self, instance, g, w):
        gens, alphabet = instance
        g = tuple(x for x in g if abs(x) <= alphabet)
        assert_decompose_matches(conjugate(stallings_graph(gens, alphabet), g).graph, w)

    @settings(max_examples=150)
    @given(generator_sets, generator_sets, sparse_words)
    def test_intersections(self, gens1, gens2, w):
        h = intersect(stallings_graph(gens1, 2), stallings_graph(gens2, 2))
        assert_decompose_matches(h.graph, w)

    @settings(max_examples=200)
    @given(graphs_with_repeats() | connected_graphs(alphabet=3), fold_orders, sparse_words)
    def test_folds(self, g, rng, w):
        assert_decompose_matches(fold(g, rng), w)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 14), st.sampled_from([0.2, 0.5, 0.8]),
           sparse_words)
    def test_connected_draws(self, seed, n, density, w):
        # most draws are disconnected, so component_containing cuts them down,
        # and its component loads its rows from its edges
        cfg = TrialConfig(max_vertices=n, alphabet=2, edge_density=density)
        assert_decompose_matches(random_connected_automaton(cfg, random.Random(seed)), w)

    @settings(max_examples=200)
    @given(deterministic_graphs(max_vertices=12, alphabet=3), st.data(), sparse_words)
    def test_components(self, g, data, w):
        v = data.draw(st.integers(0, g.num_vertices - 1))
        assert_decompose_matches(component_containing(g, v), w)

    @pytest.mark.parametrize("w", SPARSE_WORDS)
    def test_fixed_words(self, w):
        # a Stallings graph and a fold, where walks fall off at each of w's letters
        h = stallings_graph([parse_word(u) for u in ("aab", "bAbb", "abABa")], 2)
        assert_decompose_matches(h.graph, w)
        assert_decompose_matches(fold(wedge_of_words([(1, 2, 1), (2, 2, -1)], 2)), w)
