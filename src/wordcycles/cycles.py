"""Counting cycles labeled by powers of a word in an inverse automaton.

Tracing a reduced word w from every vertex induces a partial injection
sigma_w on the vertex set.  A based w-cycle is a vertex on a sigma_w-orbit
cycle; equivalence classes of w-cycles are exactly the orbit cycles.  The
central facts checked here: the class count is at most the first Betti
number, and strictly less with multiplicity when every edge is traversed
at least twice.  The counts come from sigma_w's cycles alone; class paths
and edge multiplicities are traced only when read.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import le

from .graphs import (BettiReport, LabeledDigraph, betti, cached_property, is_connected,
                     letter_steps, require_valid)
from .words import Word, is_reduced, require_simple_cyclic

# A path step is (edge index, direction); direction -1 crosses the edge
# against its orientation.
Step = tuple[int, int]
ORACLE_MAX_VERTICES = 8  # oracle_counts is a slow reference, not a kernel


def trace(g: LabeledDigraph, v: int, w: Word) -> tuple[int, tuple[Step, ...]] | None:
    """Follow w from v; None if some letter has no matching edge.

    Determinism makes the path unique.  Letters with sign -1 traverse an
    edge backwards.
    """
    require_valid(g)
    if not w or not is_reduced(w):
        raise ValueError("trace: word must be reduced and nonempty")
    if not (0 <= v < g.num_vertices):
        raise ValueError(f"trace: vertex {v} not in graph")
    sink, table, path = g.num_vertices, g.letter_table, []
    for x, row in zip(w, letter_steps(g, w)):
        u = row[v]
        if u == sink:
            return None
        path.append((table[x][v], 1 if x > 0 else -1))
        v = u
    return v, tuple(path)


@dataclass(frozen=True)
class WCycleClass:
    """One equivalence class: a cycle of sigma_w.

    vertices are in sigma_w order, so tracing w from vertices[i] ends at
    vertices[(i+1) % period]; path is the closed trace reading w^period
    based at vertices[0].
    """

    vertices: tuple[int, ...]
    path: tuple[Step, ...]

    @property
    def period(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class WCycleDecomposition:
    """classes and edge_multiplicity are built on first read (see decompose)."""

    word: Word
    sigma: dict[int, int]
    cycles: tuple[tuple[int, ...], ...]  # orbit cycles, vertices in sigma_w order
    graph: LabeledDigraph = field(repr=False)

    @property
    def count_with_multiplicity(self) -> int:
        return sum(map(len, self.cycles))

    @property
    def class_count(self) -> int:
        return len(self.cycles)

    def _traces(self) -> Iterator[list[int]]:
        """Per cycle, the edges crossed reading w^period from its first vertex."""
        g = self.graph  # with a cycle, every letter of w lies in the alphabet
        steps = [(g.letter_table[x], g.successor[x]) for x in self.word if self.cycles]
        for cycle in self.cycles:
            v, path = cycle[0], []
            for edge, row in steps * len(cycle):
                path.append(edge[v])
                v = row[v]
            yield path

    @cached_property
    def classes(self) -> tuple[WCycleClass, ...]:
        # a list: resizing a tuple(genexpr) hoards memory in the tuple free lists
        directions = [1 if x > 0 else -1 for x in self.word]
        return tuple(WCycleClass(c, tuple(zip(path, directions * len(c))))
                     for c, path in zip(self.cycles, self._traces()))

    @cached_property
    def edge_multiplicity(self) -> dict[int, int]:
        return dict(Counter(i for path in self._traces() for i in path))


def decompose(g: LabeledDigraph, w: Word) -> WCycleDecomposition:
    """Cycle decomposition of sigma_w.

    Only sigma_w and its orbit cycles, which give the counts, are computed
    here, walking w's successor rows from every vertex.  Class paths and
    edge multiplicities are built on first read by tracing w again from the
    cycle vertices alone.  Rejects words that are not cyclically reduced or
    not primitive; the caller must normalize first.
    """
    require_valid(g)
    require_simple_cyclic(w)

    sigma: dict[int, int] = {}
    sink, rows = g.num_vertices, letter_steps(g, w)
    for v in range(sink):
        u = v
        for row in rows:
            u = row[u]
            if u == sink:
                break
        else:
            sigma[v] = u
    if len(set(sigma.values())) != len(sigma):
        raise ValueError("sigma_w is not injective: graph is not deterministic")

    # Injectivity means every orbit is a simple path or a simple cycle, so a
    # walk meets a cycle only if it starts on it, and then goes all round it.
    unseen, cycles = dict(sigma), []
    for start in sigma:
        walk, v = [], start
        while v in unseen:
            walk.append(v)
            v = unseen.pop(v)
        if walk and v == start:
            cycles.append(tuple(walk))
    return WCycleDecomposition(w, sigma, tuple(cycles), g)


def oracle_counts(g: LabeledDigraph, w: Word) -> tuple[int, int]:
    """Brute-force (#_w, class count) by literal path enumeration.

    Independent of decompose: walks edge lists directly, finds for each
    vertex the minimal n <= |V| with w^n closing there, and groups base
    vertices into classes by reachability along w-power paths.
    """
    require_valid(g)
    require_simple_cyclic(w)
    if g.num_vertices > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"oracle bound exceeded: {g.num_vertices} > {ORACLE_MAX_VERTICES} vertices"
        )

    def step(v: int, letter: int) -> int | None:
        for s, d, l in g.edges:
            if letter > 0 and s == v and l == letter:
                return d
            if letter < 0 and d == v and l == -letter:
                return s
        return None

    def walk_word(v: int | None) -> int | None:
        for x in w:
            if v is None:
                return None
            v = step(v, x)
        return v

    base_vertices = []
    successor = {}
    for v in range(g.num_vertices):
        cur: int | None = v
        for n in range(1, g.num_vertices + 1):
            cur = walk_word(cur)
            if cur is None:
                break
            if cur == v:
                base_vertices.append(v)
                break
        nxt = walk_word(v)
        if nxt is not None:
            successor[v] = nxt

    # Union-find over base vertices: joined when a w-power path connects them.
    parent = {v: v for v in base_vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v in base_vertices:
        u = successor.get(v)
        if u in parent:
            parent[find(v)] = find(u)
    count = len(base_vertices)
    class_count = len({find(v) for v in base_vertices})
    return count, class_count


# ---------------------------------------------------------------------------
# Theorem checks


@dataclass(frozen=True)
class ComponentVerdict:
    vertices: frozenset[int]
    class_count: int
    betti: int
    passed: bool
    equality: bool


@dataclass(frozen=True)
class MainInequalityReport:
    """Class count <= first Betti number, per component and in total.  The
    per-component verdicts are built on first read."""

    word: Word
    component_classes: tuple[int, ...]  # in component order
    betti_report: BettiReport
    total_classes: int
    total_betti: int
    passed: bool
    count_with_multiplicity: int

    @property
    def per_component(self) -> tuple[ComponentVerdict, ...]:
        return tuple(ComponentVerdict(comp, k, b, k <= b, k == b) for (comp, b), k
                     in zip(self.betti_report.per_component, self.component_classes))


def check_main_inequality(g: LabeledDigraph, w: Word) -> MainInequalityReport:
    dec = decompose(g, w)
    report = betti(g)
    counts, comp_of = [0] * len(report.bettis), g.component_of
    for cycle in dec.cycles:
        counts[comp_of[cycle[0]]] += 1
    passed = all(map(le, counts, report.bettis)) and dec.class_count <= report.total
    return MainInequalityReport(w, tuple(counts), report, dec.class_count, report.total,
                                passed, dec.count_with_multiplicity)


def collapsed_hypothesis(g: LabeledDigraph, w: Word) -> tuple[bool, dict[int, int]]:
    """Does every edge carry total traversal multiplicity >= 2?

    Multiplicity sums traversals in either direction over all class trace
    paths; vacuously true on an edgeless graph.
    """
    if not is_connected(g):
        raise ValueError("collapsed_hypothesis: graph must be connected")
    return _hypothesis(g, decompose(g, w))


def _hypothesis(g: LabeledDigraph, dec: WCycleDecomposition) -> tuple[bool, dict[int, int]]:
    mult = {i: dec.edge_multiplicity.get(i, 0) for i in range(len(g.edges))}
    return all(m >= 2 for m in mult.values()), mult


@dataclass(frozen=True)
class StrictInequalityReport:
    word: Word
    applicable: bool
    reasons: tuple[str, ...]  # unmet preconditions, if any
    count_with_multiplicity: int
    betti: int
    passed: bool


def check_strict_inequality(g: LabeledDigraph, w: Word) -> StrictInequalityReport:
    """Count with multiplicity < Betti number, under the >= 2 edge hypothesis."""
    dec = decompose(g, w)
    reasons = []
    if not is_connected(g):
        reasons.append("graph is not connected")
    else:
        if g.num_vertices == 1 and not g.edges:
            reasons.append("graph is a single vertex")
        if not _hypothesis(g, dec)[0]:
            reasons.append("some edge has traversal multiplicity < 2")
    count = dec.count_with_multiplicity
    b = betti(g).total
    applicable = not reasons
    return StrictInequalityReport(
        w, applicable, tuple(reasons), count, b, applicable and count < b
    )
