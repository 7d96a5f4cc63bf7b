"""Counting cycles labeled by powers of a word in an inverse automaton.

Tracing a reduced word w from every vertex induces a partial injection
sigma_w on the vertex set.  A based w-cycle is a vertex on a sigma_w-orbit
cycle; equivalence classes of w-cycles are exactly the orbit cycles.  The
central facts checked here: the class count is at most the first Betti
number, and strictly less with multiplicity when every edge is traversed
at least twice.  The counts come from sigma_w's cycles alone, walked off
w's successor rows: each walk takes its first two steps before the loop
over the rest of w, so a start that falls off at once costs one compare,
and no walk reads a sink slot.  Class paths and edge multiplicities are
traced only when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import le

from .graphs import (BettiReport, LabeledDigraph, betti, cached_property, require_connected,
                     require_valid)
from .words import Word, require_simple_cyclic

# A path step is (edge index, direction); direction -1 crosses the edge
# against its orientation.
Step = tuple[int, int]
ORACLE_MAX_VERTICES = 8  # oracle_counts is a slow reference, not a kernel


def _trace(g: LabeledDigraph, v: int, w: Word) -> tuple[Step, ...]:
    """The (edge, direction) steps of reading w from v; letters with sign -1
    cross an edge backwards.

    The one walk into steps: class paths, edge multiplicities and NPI discs
    are all traces of w^n.  No checks: the callers pass a graph and a word
    that decompose has checked, and a vertex v on a sigma_w cycle, so that
    w^n read from v never falls off g.  Endpoints are walk's, which checks.
    """
    # a list: resizing a tuple(genexpr) hoards memory in the tuple free lists
    rows, index, path = g.successor, g.edge_index, []
    for x in w:  # each step's edge, looked up by its ends and label
        u, v = v, rows[x][v]
        path.append((index[u, v, x], 1) if x > 0 else (index[v, u, -x], -1))
    return tuple(path)


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
    """sigma_w and its orbit cycles.  On first read, each cycle's class path
    is the trace of w^period from its first vertex, and edge_multiplicity
    counts the edges of those paths."""

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

    @cached_property
    def classes(self) -> tuple[WCycleClass, ...]:
        """Per orbit cycle c, the closed trace of w^len(c) from c[0]."""
        return tuple(WCycleClass(c, _trace(self.graph, c[0], self.word * len(c)))
                     for c in self.cycles)

    @cached_property
    def edge_multiplicity(self) -> dict[int, int]:
        return dict(Counter(e for c in self.classes for e, _ in c.path))


def decompose(g: LabeledDigraph, w: Word) -> WCycleDecomposition:
    """Cycle decomposition of sigma_w.

    Only sigma_w and its orbit cycles, which give the counts, are computed
    here.  The walks start off w's first two rows: the row of w's first
    letter is enumerated (its last slot, the sink's, reads -1), and only a
    walk that survives both of its first two steps enters the loop over
    the rest of w; a one-letter word's row is sigma_w.  No sink slot is
    read, so the cost is O(|V| + the steps the walks take), and on sparse
    graphs most walks fall off in those two steps.  Class paths and
    edge multiplicities are built on first read, with _trace, from the cycle
    vertices alone.  Rejects words that are not cyclically reduced or
    not primitive; the caller must normalize first.
    """
    require_valid(g)
    require_simple_cyclic(w)

    successor = g.successor
    try:
        first, *rows = [successor[x] for x in w]
    except KeyError:  # a letter of w is on no edge: w reads from no vertex
        return WCycleDecomposition(w, {}, (), g)
    if not rows:  # one letter: sigma_w is its row
        sigma = {v: u for v, u in enumerate(first) if u >= 0}
    else:  # each walk's first two steps in the header: most starts fall off there
        sigma = {}
        second, *rows = rows
        for v, u in enumerate(first):  # the sink slot, last, reads -1
            if u >= 0 and (u := second[u]) >= 0:
                for row in rows:
                    if (u := row[u]) < 0:
                        break
                else:
                    sigma[v] = u

    # g is deterministic, so sigma_w is injective and each orbit a simple path
    # or cycle: a walk meets a cycle only if it starts on it, then goes round it.
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
class MainInequalityReport:
    """Class count <= first Betti number, per component and in total:
    component_classes[i] is held to betti_report.bettis[i]."""

    component_classes: tuple[int, ...]  # in component order
    betti_report: BettiReport
    total_classes: int
    total_betti: int
    passed: bool
    count_with_multiplicity: int


def check_main_inequality(g: LabeledDigraph, w: Word) -> MainInequalityReport:
    dec = decompose(g, w)
    report = betti(g)
    counts, comp_of = [0] * len(report.bettis), g.component_of
    for cycle in dec.cycles:
        counts[comp_of[cycle[0]]] += 1
    passed = all(map(le, counts, report.bettis)) and dec.class_count <= report.total
    return MainInequalityReport(tuple(counts), report, dec.class_count, report.total, passed,
                                dec.count_with_multiplicity)


@dataclass(frozen=True)
class StrictInequalityReport:
    """The strict inequality's preconditions (applicable, else the reasons
    they fail), the count with multiplicity, the Betti number, and the
    verdict count < betti, which needs them."""

    applicable: bool
    reasons: tuple[str, ...]  # unmet preconditions, if any
    count_with_multiplicity: int
    betti: int
    passed: bool


def check_strict_inequality(g: LabeledDigraph, w: Word) -> StrictInequalityReport:
    """Count with multiplicity < Betti number on a connected graph, where
    every edge is crossed at least twice, either way, by the class paths."""
    require_connected(g, "check_strict_inequality")
    dec = decompose(g, w)
    reasons = []
    if g.num_vertices == 1 and not g.edges:
        reasons.append("graph is a single vertex")
    if any(dec.edge_multiplicity.get(i, 0) < 2 for i in range(len(g.edges))):
        reasons.append("some edge has traversal multiplicity < 2")
    count = dec.count_with_multiplicity
    b = betti(g).total
    applicable = not reasons
    return StrictInequalityReport(applicable, tuple(reasons), count, b, applicable and count < b)
