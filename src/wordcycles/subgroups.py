"""Finitely generated subgroups of free groups via based core graphs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

from .graphs import (
    BettiReport,
    LabeledDigraph,
    _bfs_form,
    _built,
    _core_form,
    _fold_clashes,
    betti,
    circle,
    fiber_product,
    require_valid,
    walk,
)
from .cycles import decompose
from .words import Word, format_word, free_reduce, invert, is_reduced, require_simple_cyclic


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded, based, core labeled digraph in canonical form.  The constructor
    checks that the graph is folded and based, then keeps the canonical core
    of its based component (_core_form, whose search from the base reaches
    that component alone), so that two graphs of one subgroup are equal.
    Every builder's graph is born connected and deterministic (_bfs_form)."""

    graph: LabeledDigraph

    def __post_init__(self):
        g = self.graph
        require_valid(g)
        if g.basepoint is None:
            raise ValueError("subgroup graph needs a basepoint")
        object.__setattr__(self, "graph", _core_form(g.alphabet, g.successor,
                                                     g.num_vertices, g.basepoint))


def _read(loops: list[Word], labels: set[int]):
    """Read each freely reduced loop in at base vertex 0 on slot rows, with
    room for the new vertices and rows l and -l for each of the labels,
    which hold the loops' letters, in the key order _load_rows gives one
    edge per label, but in a table of 16 slots or more: rows[x][v] is where
    letter x leads from v, or -1, the graph's only record of its edges.
    Returns (rows, n, pending): n counts the vertices, and pending holds
    the vertex pairs that clashes force together.  Each loop is walked forwards from the base and
    backwards into it, so only the unread middle is new; the two vertices
    where the walks meet, or the far ends of the middle's first and last
    edges where both leave one vertex by the same letter, are pending.  The
    middle only creates: the forward walk stopped at an empty slot, and a
    new vertex has only its back slot filled, which the reduced loop never
    reads next.  The callers check the letters first, with
    _require_letters, which returns the labels."""
    n, size = 1, 1 + sum(map(len, loops))
    rows, pending = dict.fromkeys(range(6)), []
    for x in range(6):  # in 8 slots, hash(-1) == hash(-2) puts -2 13 probes deep
        del rows[x]
    for l in labels:
        rows[l], rows[-l] = [-1] * size, [-1] * size
    for w in loops:
        v, i, u, j = 0, 0, 0, len(w)
        while i < j and (t := rows[w[i]][v]) >= 0:  # forwards: w[:i] reads to v
            v, i = t, i + 1
        while j > i and (t := rows[-w[j - 1]][u]) >= 0:  # backwards: w[j:] from u
            u, j = t, j - 1
        if i == j:
            if v != u:  # the walks meet at two vertices
                pending.append((v, u))
            continue
        for x in w[i:j - 1]:  # create the middle's vertices
            rows[x][v], rows[-x][n] = n, v
            v, n = n, n + 1
        x = w[j - 1]
        if (t := rows[-x][u]) >= 0:  # the first new edge also leaves u reading -x
            pending.append((t, v))
        rows[x][v], rows[-x][u] = u, v
    return rows, n, pending


def _require_letters(words: list[Word], alphabet: int) -> set[int]:
    """The labels of the raw words' letters, those that free reduction would
    cancel included, once none is zero and none exceeds alphabet; one scan
    in C."""
    labels = set(map(abs, chain.from_iterable(words)))
    if 0 in labels:
        raise ValueError("letters must be nonzero")
    if labels and (top := max(labels)) > alphabet:
        raise ValueError(f"letter {top} outside alphabet 1..{alphabet}")
    return labels


def stallings_graph(gens: list[Word], alphabet: int) -> SubgroupGraph:
    """Read the generators' loops in at a base vertex on slot rows (_read),
    fold the vertex pairs its clashes force together (_fold_clashes, as fold
    does), which hands back the folded graph's rows, then number it
    breadth-first (_bfs_form), which writes the numbered graph's own rows:
    the graph is born with them, so no probe reloads them from its edges.
    No spur pass: every vertex off the base lies
    on the image of a freely reduced loop, which enters and leaves it by
    different slots, so the result is core (Stallings, Invent. Math. 1983;
    Kapovich & Myasnikov, J. Algebra 2002)."""
    if alphabet < 1:
        raise ValueError("alphabet must be nonempty")
    labels = _require_letters(gens, alphabet)
    reduced = []
    for w in map(tuple, gens):
        if not is_reduced(w):  # _require_letters has rejected zero letters
            r = free_reduce(w)
            warnings.warn(f"generator {format_word(w)} was not freely reduced; "
                          f"using {format_word(r) or '(empty)'}", stacklevel=2)
            w = r
        if w:
            reduced.append(w)
    rows, n, pending = _read(reduced, labels)
    if pending:  # the base stays 0: classes are numbered by their least vertices
        n, rows, _, _ = _fold_clashes(rows, n, pending)
    return _built(SubgroupGraph, _bfs_form(alphabet, rows, [None] * n, 0, with_rows=True))


def rank(h: SubgroupGraph) -> int:
    """|E| - |V| + 1, from the partition the connected graph is born with."""
    return betti(h.graph).total


def is_trivial(h: SubgroupGraph) -> bool:
    return h.graph.num_vertices == 1 and not h.graph.edges


def contains(h: SubgroupGraph, w: Word) -> bool:
    """Membership: the freely reduced word traces closed at the basepoint."""
    base = h.graph.basepoint
    return walk(h.graph, base, free_reduce(w)) == base


def conjugate(h: SubgroupGraph, g: Word) -> SubgroupGraph:
    """The subgroup graph of g^-1 H g: g, which may be unreduced, is read
    from the basepoint on copies of the slot rows H was born with, with room
    for the new vertices and rows for g's letters, following H's edges and
    creating the missing ones; the basepoint moves to its end, and one pass
    cores and numbers the result.  Nothing clashes, so nothing is merged."""
    labels = _require_letters([g], h.graph.alphabet)
    n, v = h.graph.num_vertices, h.graph.basepoint
    room = [-1] * len(g)  # H's rows have n + 1 slots
    rows = {x: row + room for x, row in h.graph.successor.items()}
    for l in labels.difference(rows):
        rows[l], rows[-l] = [-1] * (n + 1 + len(g)), [-1] * (n + 1 + len(g))
    for x in g:  # follow or create
        if (t := rows[x][v]) < 0:
            t, n = n, n + 1
            rows[x][v], rows[-x][t] = t, v
        v = t
    return _built(SubgroupGraph, _core_form(h.graph.alphabet, rows, n, v))


def intersect(h1: SubgroupGraph, h2: SubgroupGraph) -> SubgroupGraph:
    """Based component of the fiber product, cored: the intersection.

    Only the based component is built, breadth-first from the basepoint
    pair along the letters on edges of both graphs, so the cost follows its
    size rather than |V1|*|V2|.  The search records the component's slot
    rows as it goes, reading both factors' rows as they were born, and one
    pass cores and numbers them; the result is born with its own rows.
    """
    g1, g2 = h1.graph, h2.graph
    if g1.alphabet != g2.alphabet:
        raise ValueError("alphabet mismatch")
    n2, rows1, rows2 = g2.num_vertices, g1.successor, g2.successor
    # the product's slot rows, a vertex at a time, for the letters on both graphs
    rows = {x: [] for l in sorted(rows1) if l > 0 and l in rows2 for x in (l, -l)}
    steps = [(rows1[x], rows2[x], row) for x, row in rows.items()]
    number = {g1.basepoint * n2 + g2.basepoint: 0}  # pair (u1, u2) is u1 * n2 + u2
    order = [(g1.basepoint, g2.basepoint)]
    for v1, v2 in order:  # order grows while it is read: the BFS queue
        for row1, row2, row in steps:
            u1, u2 = row1[v1], row2[v2]
            if u1 < 0 or u2 < 0:
                row.append(-1)
                continue
            dst = number.setdefault(u1 * n2 + u2, len(order))
            if dst == len(order):
                order.append((u1, u2))
            row.append(dst)
    return _built(SubgroupGraph, _core_form(g1.alphabet, rows, len(order), 0))


@dataclass(frozen=True)
class ConjugatesReport:
    """How many conjugates of <w> meet H, rank(H), and the verdict count <= rank."""

    count: int
    rank: int
    passed: bool


def count_conjugates_meeting(h: SubgroupGraph, w: Word) -> ConjugatesReport:
    """Distinct conjugates of the maximal cyclic subgroup generated by w that
    meet H nontrivially: one per cycle class; at most rank(H)."""
    count = decompose(h.graph, w).class_count  # decompose checks w first
    r = rank(h)
    return ConjugatesReport(count, r, count <= r)


def reduced_rank(b: int) -> int:
    return max(b - 1, 0)


@dataclass(frozen=True)
class RedRankReport:
    """The SHNC sides, read off the fiber product's Betti numbers, and the
    verdict lhs <= rhs."""

    fiber_betti: BettiReport  # of the fiber product
    lhs: int  # summed reduced ranks of the product components
    rhs: int  # product of the factors' reduced ranks
    passed: bool


def check_shnc(g1: SubgroupGraph, g2: SubgroupGraph) -> RedRankReport:
    """Strengthened Hanna Neumann inequality on the fiber product."""
    report = betti(fiber_product(g1.graph, g2.graph))
    b = report.bettis
    lhs = sum(b) - len(b) + b.count(0)  # each component's reduced rank, summed
    rhs = reduced_rank(rank(g1)) * reduced_rank(rank(g2))
    return RedRankReport(report, lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class RestatedReport:
    """The Betti-number sides of the restated inequality, the orbit-cycle
    count they are checked against, and the verdict."""

    lhs: int
    rhs: int
    class_count: int  # from the sigma_w decomposition; must equal lhs
    passed: bool


def check_restated_inequality(w: Word, g: LabeledDigraph) -> RestatedReport:
    """Betti-number form of the counting inequality via a fiber product with
    the circle reading w; cross-checked against the orbit-cycle count."""
    require_simple_cyclic(w)
    if g.num_vertices == 0:
        raise ValueError("graph is empty")
    alphabet = max(g.alphabet, max(abs(x) for x in w))
    loop = circle(w, alphabet)
    if g.alphabet != alphabet:
        g = _built(LabeledDigraph, alphabet, g.num_vertices, g.edges, g.basepoint)
    lhs = sum(betti(fiber_product(loop, g)).bettis)  # fiber_product checks g
    rhs = betti(loop).total * betti(g).total
    k = decompose(g, w).class_count
    return RestatedReport(lhs, rhs, k, lhs <= rhs and lhs == k)


@dataclass(frozen=True)
class ConjugateIntersectionReport:
    """Whether the conjugates' intersection is trivial."""

    passed: bool


def check_conjugate_intersection(
    h: SubgroupGraph, cosets: list[Word]
) -> ConjugateIntersectionReport:
    """More distinct cosets than rank forces the conjugate intersection of an
    isolated subgroup to be trivial.

    Isolation is certified only for free factors generated by basis letters
    (a rose on a letter subset); other H, coincident or <= rank(H) cosets raise.
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
        raise ValueError(f"need more than rank(H) = {rank(h)} cosets")
    result = conjugate(h, tuple(cosets[0]))
    for g_i in cosets[1:]:
        result = intersect(result, conjugate(h, tuple(g_i)))
        if is_trivial(result):
            break
    return ConjugateIntersectionReport(is_trivial(result))
