"""Finitely generated subgroups of free groups via based core graphs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .graphs import (
    BettiReport,
    LabeledDigraph,
    betti,
    canonical_form,
    circle,
    core,
    fiber_product,
    fold,
    is_connected,
    letter_steps,
    require_valid,
    walk,
    wedge_of_words,
)
from .cycles import decompose
from .words import Word, format_word, free_reduce, invert, require_simple_cyclic


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded, based, core labeled digraph in canonical form."""

    graph: LabeledDigraph

    def __post_init__(self):
        require_valid(self.graph)
        if self.graph.basepoint is None:
            raise ValueError("subgroup graph needs a basepoint")


def stallings_graph(gens: list[Word], alphabet: int) -> SubgroupGraph:
    """Fold and core the wedge of subdivided generator loops."""
    if alphabet < 1:
        raise ValueError("alphabet must be nonempty")
    reduced = []
    for w in gens:
        r = free_reduce(w)
        if r != tuple(w):
            warnings.warn(
                f"generator {format_word(tuple(w))} was not freely reduced; "
                f"using {format_word(r) or '(empty)'}",
                stacklevel=2,
            )
        if r:
            reduced.append(r)
    g = canonical_form(core(fold(wedge_of_words(reduced, alphabet))))
    return SubgroupGraph(g)


def rank(h: SubgroupGraph) -> int:
    return betti(h.graph).total


def is_trivial(h: SubgroupGraph) -> bool:
    return h.graph.num_vertices == 1 and not h.graph.edges


def contains(h: SubgroupGraph, w: Word) -> bool:
    """Membership: the freely reduced word traces closed at the basepoint."""
    base = h.graph.basepoint
    return walk(h.graph, base, free_reduce(w)) == base


def conjugate(h: SubgroupGraph, g: Word) -> SubgroupGraph:
    """The subgroup graph of g^-1 H g: a path reading g is grafted at the
    basepoint, its far end becomes the basepoint, then fold and core."""
    gr = h.graph
    edges = list(gr.edges)
    v = gr.basepoint
    for n, x in enumerate(g, start=gr.num_vertices):
        edges.append((v, n, x) if x > 0 else (n, v, -x))
        v = n
    grafted = LabeledDigraph(gr.alphabet, gr.num_vertices + len(g), tuple(edges), v)
    return SubgroupGraph(canonical_form(core(fold(grafted))))


def intersect(h1: SubgroupGraph, h2: SubgroupGraph) -> SubgroupGraph:
    """Based component of the fiber product, cored: the intersection.

    Only the based component is built, breadth-first from the basepoint
    pair, so the cost follows its size rather than |V1|*|V2|.
    """
    g1, g2 = h1.graph, h2.graph
    if g1.alphabet != g2.alphabet:
        raise ValueError("alphabet mismatch")
    sink1, n2 = g1.num_vertices, g2.num_vertices
    letters = [x for l in range(1, g1.alphabet + 1) for x in (l, -l)]
    steps = list(zip(letter_steps(g1, letters), letter_steps(g2, letters), letters))
    number = {g1.basepoint * n2 + g2.basepoint: 0}  # pair (u1, u2) is u1 * n2 + u2
    order = [(g1.basepoint, g2.basepoint)]
    edges = []
    for src, (v1, v2) in enumerate(order):  # order grows while it is read: the BFS queue
        for row1, row2, x in steps:
            u1, u2 = row1[v1], row2[v2]
            if u1 == sink1 or u2 == n2:  # n2 is g2's sink
                continue
            dst = number.setdefault(u1 * n2 + u2, len(order))
            if dst == len(order):
                order.append((u1, u2))
            if x > 0:  # each edge is added once, from its source
                edges.append((src, dst, x))
    based = LabeledDigraph(g1.alphabet, len(order), tuple(edges), 0)
    return SubgroupGraph(canonical_form(core(based)))


@dataclass(frozen=True)
class ConjugatesReport:
    word: Word
    count: int
    rank: int
    passed: bool


def count_conjugates_meeting(h: SubgroupGraph, w: Word) -> ConjugatesReport:
    """Distinct conjugates of the maximal cyclic subgroup generated by w that
    meet H nontrivially: one per cycle class; at most rank(H)."""
    require_simple_cyclic(w)
    count = decompose(h.graph, w).class_count
    r = rank(h)
    return ConjugatesReport(w, count, r, count <= r)


def reduced_rank(b: int) -> int:
    return max(b - 1, 0)


@dataclass(frozen=True)
class RedRankReport:
    fiber_betti: BettiReport  # of the fiber product
    lhs: int  # summed reduced ranks of the product components
    rhs: int  # product of the factors' reduced ranks
    passed: bool

    @property
    def per_component(self) -> tuple[tuple[frozenset[int], int], ...]:
        return tuple((comp, reduced_rank(b)) for comp, b in self.fiber_betti.per_component)


def check_shnc(g1: SubgroupGraph, g2: SubgroupGraph) -> RedRankReport:
    """Strengthened Hanna Neumann inequality on the fiber product."""
    for h in (g1, g2):
        if not is_connected(h.graph):
            raise ValueError("check_shnc: factors must be connected")
    report = betti(fiber_product(g1.graph, g2.graph))
    lhs = sum(map(reduced_rank, report.bettis))
    rhs = reduced_rank(betti(g1.graph).total) * reduced_rank(betti(g2.graph).total)
    return RedRankReport(report, lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class RestatedReport:
    word: Word
    component_bettis: tuple[int, ...]
    lhs: int
    rhs: int
    class_count: int  # from the sigma_w decomposition; must equal lhs
    passed: bool


def check_restated_inequality(cycle_w: Word, g2: LabeledDigraph) -> RestatedReport:
    """Betti-number form of the counting inequality via a fiber product with
    the circle reading w; cross-checked against the orbit-cycle count."""
    require_simple_cyclic(cycle_w)
    require_valid(g2)
    if g2.num_vertices == 0:
        raise ValueError("graph is empty")
    alphabet = max(g2.alphabet, max(abs(x) for x in cycle_w))
    g1 = circle(cycle_w, alphabet)
    if g2.alphabet != alphabet:
        g2 = LabeledDigraph(alphabet, g2.num_vertices, g2.edges, g2.basepoint)
    bettis = betti(fiber_product(g1, g2)).bettis
    lhs = sum(bettis)
    rhs = betti(g1).total * betti(g2).total
    k = decompose(g2, cycle_w).class_count
    return RestatedReport(cycle_w, bettis, lhs, rhs, k, lhs <= rhs and lhs == k)


@dataclass(frozen=True)
class ConjugateIntersectionReport:
    applicable: bool
    reasons: tuple[str, ...]
    intersection_trivial: bool
    passed: bool


def check_conjugate_intersection(
    h: SubgroupGraph, cosets: list[Word]
) -> ConjugateIntersectionReport:
    """More distinct cosets than rank forces the conjugate intersection of an
    isolated subgroup to be trivial.

    Isolation is certified only for free factors generated by basis letters
    (graph = rose on a letter subset); anything else is rejected.
    """
    g = h.graph
    if g.num_vertices != 1:  # deterministic, so a rose on distinct letters
        raise ValueError(
            "isolation not certified: subgroup is not a free factor generated "
            "by basis letters"
        )
    for i in range(len(cosets)):
        for j in range(i + 1, len(cosets)):
            if contains(h, tuple(cosets[i]) + invert(tuple(cosets[j]))):
                raise ValueError(
                    f"cosets {i} and {j} coincide: "
                    f"H{format_word(free_reduce(tuple(cosets[i])))} = "
                    f"H{format_word(free_reduce(tuple(cosets[j])))}"
                )
    if len(cosets) <= rank(h):
        return ConjugateIntersectionReport(
            False, (f"need more than rank(H) = {rank(h)} cosets",), False, True
        )
    result = conjugate(h, tuple(cosets[0]))
    for g_i in cosets[1:]:
        result = intersect(result, conjugate(h, tuple(g_i)))
        if is_trivial(result):
            break
    trivial = is_trivial(result)
    return ConjugateIntersectionReport(True, (), trivial, trivial)
