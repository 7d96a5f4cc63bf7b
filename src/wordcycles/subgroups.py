"""Finitely generated subgroups of free groups via based core graphs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

from .graphs import (
    BettiReport,
    LabeledDigraph,
    _bfs_form,
    _core_form,
    _fold_clashes,
    _load_rows,
    betti,
    circle,
    fiber_product,
    is_connected,
    letter_steps,
    require_valid,
    rose,
    walk,
)
from .cycles import decompose
from .words import Word, format_word, free_reduce, invert, require_simple_cyclic

_START = rose(0)  # one vertex, the base, which every Stallings read starts from


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded, based, core labeled digraph in canonical form."""

    graph: LabeledDigraph

    def __post_init__(self):
        require_valid(self.graph)
        if self.graph.basepoint is None:
            raise ValueError("subgroup graph needs a basepoint")


def _read(g: LabeledDigraph, words: list[Word], loops: bool):
    """Read each word in at g's basepoint, following g's edges and creating
    the missing ones, on g's slot rows (_load_rows, with room for the new
    vertices): rows[x][v] is where letter x leads from v, or -1, for the
    letters in use.  Returns (rows, edges, n, base, pending), pending the
    vertex pairs that clashes force together.  With loops, each word is a
    freely reduced loop, walked backwards into the basepoint too, so only
    the unread middle is new; the two vertices where the walks meet, or the
    far ends of the middle's first and last edges where both leave one
    vertex by the same letter, are pending.  Without, the one word's end
    becomes the basepoint, and nothing clashes.  The callers check the
    letters first, with _require_letters."""
    n, base = g.num_vertices, g.basepoint
    edges = list(g.edges)
    rows, pending = _load_rows(edges, n + sum(map(len, words)))  # g clashes nowhere
    for w in words:
        v, i, u, j = base, 0, base, len(w)
        while i < j and (t := rows[w[i]][v]) >= 0:  # forwards: w[:i] reads to v
            v, i = t, i + 1
        while loops and j > i and (t := rows[-w[j - 1]][u]) >= 0:  # backwards: w[j:] from u
            u, j = t, j - 1
        if loops and i == j:
            if v != u:  # the walks meet at two vertices
                pending.append((v, u))
            continue
        for x in w[i:j - 1] if loops else w[i:]:  # follow or create
            if (t := rows[x][v]) < 0:
                t, n = n, n + 1
                rows[x][v], rows[-x][t] = t, v
                edges.append((v, t, x) if x > 0 else (t, v, -x))
            v = t
        if not loops:
            base = v
            break
        x = w[j - 1]
        if (t := rows[-x][u]) >= 0:  # the first new edge also leaves u reading -x
            pending.append((t, v))
        rows[x][v], rows[-x][u] = u, v
        edges.append((v, u, x) if x > 0 else (u, v, -x))
    return rows, edges, n, base, pending


def _require_letters(words: list[Word], alphabet: int) -> None:
    """No letter of the raw words exceeds alphabet in absolute value, letters
    that free reduction would cancel included; one scan in C.  A zero letter
    is left to the caller."""
    if (top := max(map(abs, chain.from_iterable(words)), default=0)) > alphabet:
        raise ValueError(f"letter {top} outside alphabet 1..{alphabet}")


def stallings_graph(gens: list[Word], alphabet: int) -> SubgroupGraph:
    """Read the generators' loops in at a base vertex on slot rows (_read),
    fold the vertex pairs its clashes force together on the same rows
    (_fold_clashes, as fold does), move each class root's slots to the
    class number in place, so the rows become the folded graph's, then
    number it breadth-first (_bfs_form).  No spur pass: every vertex off the
    base lies on the image of a freely reduced loop, which enters and leaves
    it by different slots, so the result is core (Stallings, Invent. Math.
    1983; Kapovich & Myasnikov, J. Algebra 2002)."""
    if alphabet < 1:
        raise ValueError("alphabet must be nonempty")
    _require_letters(gens, alphabet)
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
    rows, edges, n, base, pending = _read(_START, reduced, loops=True)
    if pending:
        roots, number, edges = _fold_clashes(rows, n, pending)
        for row in rows.values():  # class i's slots move to i from its root, which is >= i
            for i, r in enumerate(roots):
                row[i] = number[row[r]]
        n, base = len(roots), number[base]
    steps = [rows[x] for l in sorted(rows) if l > 0 for x in (l, -l)]  # 1, -1, 2, ...
    return SubgroupGraph(_bfs_form(alphabet, steps, [None] * n + [-1], edges, base, n))


def rank(h: SubgroupGraph) -> int:
    return betti(h.graph).total


def is_trivial(h: SubgroupGraph) -> bool:
    return h.graph.num_vertices == 1 and not h.graph.edges


def contains(h: SubgroupGraph, w: Word) -> bool:
    """Membership: the freely reduced word traces closed at the basepoint."""
    base = h.graph.basepoint
    return walk(h.graph, base, free_reduce(w)) == base


def conjugate(h: SubgroupGraph, g: Word) -> SubgroupGraph:
    """The subgroup graph of g^-1 H g: g is read from the basepoint on H's
    slot rows, the basepoint moves to its end, and one pass cores and
    numbers the result; nothing clashes, so nothing is merged."""
    if 0 in g:  # stallings_graph rejects zero through free_reduce
        raise ValueError("letters must be nonzero")
    _require_letters([g], h.graph.alphabet)
    rows, edges, n, base, _ = _read(h.graph, [tuple(g)], loops=False)
    return SubgroupGraph(_core_form(h.graph.alphabet, rows, n, edges, base))


def intersect(h1: SubgroupGraph, h2: SubgroupGraph) -> SubgroupGraph:
    """Based component of the fiber product, cored: the intersection.

    Only the based component is built, breadth-first from the basepoint
    pair, so the cost follows its size rather than |V1|*|V2|.  The search
    records the component's slot rows as it goes, and one pass cores and
    numbers them.
    """
    g1, g2 = h1.graph, h2.graph
    if g1.alphabet != g2.alphabet:
        raise ValueError("alphabet mismatch")
    sink1, n2 = g1.num_vertices, g2.num_vertices
    letters = [x for l in range(1, g1.alphabet + 1) for x in (l, -l)]
    rows = {x: [] for x in letters}  # the product's slot rows, a vertex at a time
    steps = list(zip(letter_steps(g1, letters), letter_steps(g2, letters), letters,
                     rows.values()))
    number = {g1.basepoint * n2 + g2.basepoint: 0}  # pair (u1, u2) is u1 * n2 + u2
    order = [(g1.basepoint, g2.basepoint)]
    edges = []
    for src, (v1, v2) in enumerate(order):  # order grows while it is read: the BFS queue
        for row1, row2, x, row in steps:
            u1, u2 = row1[v1], row2[v2]
            if u1 == sink1 or u2 == n2:  # n2 is g2's sink
                row.append(-1)
                continue
            dst = number.setdefault(u1 * n2 + u2, len(order))
            if dst == len(order):
                order.append((u1, u2))
            row.append(dst)
            if x > 0:  # each edge is added once, from its source
                edges.append((src, dst, x))
    return SubgroupGraph(_core_form(g1.alphabet, rows, len(order), edges, 0))


@dataclass(frozen=True)
class ConjugatesReport:
    word: Word
    count: int
    rank: int
    passed: bool


def count_conjugates_meeting(h: SubgroupGraph, w: Word) -> ConjugatesReport:
    """Distinct conjugates of the maximal cyclic subgroup generated by w that
    meet H nontrivially: one per cycle class; at most rank(H)."""
    count = decompose(h.graph, w).class_count  # decompose checks w first
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
    b = report.bettis
    lhs = sum(b) - len(b) + b.count(0)  # each component's reduced rank, summed
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
