"""2-complexes over an inverse automaton: discs glued along w-cycles by the
one constructor, build_gamma_w; free-face collapsing (one greedy pass, which
decides collapsibility); the equality and NPI checks; staggered presentations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import LabeledDigraph, _built, betti, require_connected, require_valid
from .cycles import Step, _trace, decompose
from .words import Word, format_word, is_cyclically_reduced

Cell = tuple[Step, ...]  # closed combinatorial boundary path


@dataclass(frozen=True)
class TwoComplex:
    """A 2-complex: the graph skeleton and its 2-cells, each glued along a
    closed path of (edge index, direction) steps in the skeleton."""

    skeleton: LabeledDigraph
    cells: tuple[Cell, ...]

    def __post_init__(self):
        edges, num_edges = self.skeleton.edges, len(self.skeleton.edges)
        for k, cell in enumerate(self.cells):
            if not cell:
                raise ValueError(f"cell {k} has an empty boundary")
            ends = []  # each step's (start, end)
            for e, d in cell:
                if not 0 <= e < num_edges:
                    raise ValueError(f"cell {k}: edge {e} outside 0..{num_edges - 1}")
                if d not in (1, -1):
                    raise ValueError(f"cell {k}: direction {d} is not +1 or -1")
                s, t, _ = edges[e]
                ends.append((s, t) if d > 0 else (t, s))
            if any(t != s for (_, t), (s, _) in zip(ends, ends[1:])):
                raise ValueError(f"cell {k} boundary is not a path")
            if ends[-1][1] != ends[0][0]:
                raise ValueError(f"cell {k} boundary is not closed")


def euler_characteristic(x: TwoComplex) -> int:
    return x.skeleton.num_vertices - len(x.skeleton.edges) + len(x.cells)


def build_gamma_w(g: LabeledDigraph, w: Word,
                  attachments: list[tuple[int, int]] | None = None) -> TwoComplex:
    """The complex over g with, for each attachment (v, n), a disc glued
    along _trace(g, v, w^n), the closed trace of w^n at v.  By default one
    disc per cycle class, at its first vertex: its class path.

    The discs form an immersion exactly when each w^n closes at v, n is
    the minimal closing exponent there, and the attachment vertices lie in
    pairwise distinct sigma_w-orbit cycles; all three are enforced.
    """
    dec = decompose(g, w)  # decompose checks g, then w
    if attachments is None:
        attachments = [(c[0], len(c)) for c in dec.cycles]
    place = {v: j for j, cycle in enumerate(dec.cycles) for v in cycle}
    cells: list[Cell] = []
    used_orbits: set[int] = set()
    for v, n in attachments:
        if v not in place:
            raise ValueError(f"attachment at vertex {v}: w^n never closes there")
        j = place[v]  # v lies on orbit cycle j
        period = len(dec.cycles[j])
        if n != period:
            raise ValueError(f"attachment at vertex {v}: exponent {n} is not the minimal "
                             f"closing exponent {period}, so this is not an immersion")
        if j in used_orbits:
            raise ValueError(f"attachment at vertex {v}: duplicates another attachment's "
                             "cycle class, so this is not an immersion")
        used_orbits.add(j)
        cells.append(_trace(g, v, w * period))
    return _built(TwoComplex, g, tuple(cells))


def _incidence(x: TwoComplex) -> tuple[list[int], list[int]]:
    """Per skeleton edge: how many times the cell boundaries cross it, and
    the XOR of the crossing cells' indices, which is the cell that owns the
    edge when the count is 1."""
    count = [0] * len(x.skeleton.edges)
    owner = [0] * len(x.skeleton.edges)
    for k, cell in enumerate(x.cells):
        for e, _ in cell:
            count[e] += 1
            owner[e] ^= k
    return count, owner


def free_faces(x: TwoComplex) -> list[tuple[int, int]]:
    """(edge index, cell index) pairs where the cell boundary traverses the
    edge exactly once and no other cell touches it, in edge order."""
    count, owner = _incidence(x)
    return [(e, owner[e]) for e, c in enumerate(count) if c == 1]


@dataclass(frozen=True)
class CollapseResult:
    """Whether free-face collapses remove every 2-cell, and the (edge, cell)
    pairs collapsed, in order."""

    collapses: bool
    sequence: tuple[tuple[int, int], ...]  # (edge, cell) pairs, in order
    exhaustive_used: bool = False  # always False: the greedy pass decides


def collapses_to_tree(x: TwoComplex) -> CollapseResult:
    """Collapse free faces, least free edge first, while any is left.  The
    greedy order is complete: a free face stays free until its own cell is
    collapsed, so if any order removes every cell, this one does.  Free
    edges come off a heap and counts are updated along each collapsed
    boundary: O(B log B) in the total boundary length B.

    An edge goes only when one cell crosses it, so each live boundary is a
    closed path over live edges that crosses its collapsed edge once.  A
    closed path crosses a bridge an even number of times, so the live
    skeleton stays connected; after k collapses it is a tree iff k is its
    Betti number.
    """
    g = x.skeleton
    require_connected(g, "collapses_to_tree", "skeleton")
    count, owner = _incidence(x)
    heap = [e for e, c in enumerate(count) if c == 1]  # sorted, hence a heap
    seq: list[tuple[int, int]] = []
    while heap:
        e = heapq.heappop(heap)
        if count[e] != 1:  # its cell went through another edge
            continue
        k = owner[e]
        seq.append((e, k))
        for f, _ in x.cells[k]:
            count[f] -= 1
            owner[f] ^= k
            if count[f] == 1:
                heapq.heappush(heap, f)
    if len(seq) == len(x.cells) == betti(g).total:
        return CollapseResult(True, tuple(seq))
    return CollapseResult(False, ())


@dataclass(frozen=True)
class EqualityCollapseReport:
    """The class count and Betti number of g and w; when they are equal
    (applicable), passed says whether the disc complex collapses to a tree."""

    applicable: bool  # class count == Betti number
    class_count: int
    betti: int
    passed: bool


def check_equality_collapse(g: LabeledDigraph, w: Word) -> EqualityCollapseReport:
    """Equality of class count and Betti number forces the disc complex to
    collapse to a tree."""
    require_connected(g, "check_equality_collapse")
    dec = decompose(g, w)
    b = betti(g).total
    if dec.class_count != b:
        return EqualityCollapseReport(False, dec.class_count, b, True)
    result = collapses_to_tree(build_gamma_w(g, w))
    return EqualityCollapseReport(True, dec.class_count, b, result.collapses)


@dataclass(frozen=True)
class NpiReport:
    """The immersed complex's Euler characteristic, the branch of the verdict
    that decided it, and the verdict."""

    euler: int
    branch: str  # "chi", "contractible" or "fail"
    passed: bool


def check_npi(
    g: LabeledDigraph, w: Word, attachments: list[tuple[int, int]]
) -> NpiReport:
    """Nonpositive-immersion check for the immersion build_gamma_w glues
    from attachments.  Verdict: Euler characteristic <= 0, or collapsible
    to a tree (hence contractible)."""
    require_connected(g, "check_npi")
    y = build_gamma_w(g, w, attachments)
    chi = euler_characteristic(y)
    if chi <= 0:
        return NpiReport(chi, "chi", True)
    if collapses_to_tree(y).collapses:
        return NpiReport(chi, "contractible", True)
    return NpiReport(chi, "fail", False)


# ---------------------------------------------------------------------------
# Staggered presentations


@dataclass(frozen=True)
class StaggeredPresentation:
    """Relators listed in their total order; ordered_letters is the ordered
    subset of generators, listed in increasing order."""

    alphabet: int
    relators: tuple[Word, ...]
    ordered_letters: tuple[int, ...]

    def __post_init__(self):
        for l in (*self.ordered_letters, *(abs(x) for r in self.relators for x in r)):
            if not (1 <= l <= self.alphabet):
                raise ValueError(f"letter {l} outside alphabet 1..{self.alphabet}")
        if len(set(self.ordered_letters)) != len(self.ordered_letters):
            raise ValueError("ordered letters must be distinct")


def is_staggered(p: StaggeredPresentation) -> tuple[bool, list[str]]:
    """Each relator cyclically reduced and using an ordered letter, with
    min/max ordered letters strictly increasing along the relator order."""
    position = {l: i for i, l in enumerate(p.ordered_letters)}
    diagnostics: list[str] = []
    extents: list[tuple[int, int]] = []
    for idx, r in enumerate(p.relators):
        if not r or not is_cyclically_reduced(r):
            diagnostics.append(
                f"relator {idx} ({format_word(r) or '(empty)'}) is not cyclically reduced")
            continue
        positions = [position[abs(x)] for x in r if abs(x) in position]
        if not positions:
            diagnostics.append(f"relator {idx} ({format_word(r)}) traverses no ordered letter")
            continue
        extents.append((min(positions), max(positions)))
    if len(extents) == len(p.relators):
        for i in range(1, len(extents)):
            for end, prev, cur in zip(("minimal", "maximal"), extents[i - 1], extents[i]):
                if cur <= prev:
                    diagnostics.append(f"relators {i - 1} and {i}: {end} ordered "
                                       "letters not strictly increasing")
    return not diagnostics, diagnostics


@dataclass(frozen=True)
class MultiwordReport:
    """Each relator's class count, their sum, the Betti number it is held
    to, and the verdict total <= betti."""

    per_relator: tuple[int, ...]
    total: int
    betti: int
    passed: bool


def check_multiword_inequality(
    g: LabeledDigraph, p: StaggeredPresentation
) -> MultiwordReport:
    """Summed class counts over the relators of a staggered presentation,
    each proved simple by decompose, stay at most the Betti number."""
    ok, diagnostics = is_staggered(p)
    if not ok:
        raise ValueError("presentation is not staggered: " + "; ".join(diagnostics))
    if g.alphabet != p.alphabet:
        raise ValueError("graph and presentation alphabets differ")
    require_valid(g)  # with no relator, decompose never checks g
    require_connected(g, "check_multiword_inequality")
    counts = tuple(decompose(g, r).class_count for r in p.relators)
    b = betti(g).total
    total = sum(counts)
    return MultiwordReport(counts, total, b, total <= b)
