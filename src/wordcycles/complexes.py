"""2-complexes over an inverse automaton: discs glued along cycle classes,
free-face collapsing (one greedy pass, which decides collapsibility),
nonpositive-immersion checks, and staggered presentations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import LabeledDigraph, betti, is_connected, require_valid
from .cycles import Step, decompose
from .words import (
    Word,
    format_word,
    is_cyclically_reduced,
    is_simple,
    require_simple_cyclic,
)

Cell = tuple[Step, ...]  # closed combinatorial boundary path


@dataclass(frozen=True)
class TwoComplex:
    skeleton: LabeledDigraph
    cells: tuple[Cell, ...]

    def __post_init__(self):
        num_edges = len(self.skeleton.edges)
        for k, cell in enumerate(self.cells):
            if not cell:
                raise ValueError(f"cell {k} has an empty boundary")
            for e, d in cell:
                if not 0 <= e < num_edges:
                    raise ValueError(f"cell {k}: edge {e} outside 0..{num_edges - 1}")
                if d not in (1, -1):
                    raise ValueError(f"cell {k}: direction {d} is not +1 or -1")
            v = self._step_start(cell[0])
            for step in cell:
                if self._step_start(step) != v:
                    raise ValueError(f"cell {k} boundary is not a path")
                v = self._step_end(step)
            if v != self._step_start(cell[0]):
                raise ValueError(f"cell {k} boundary is not closed")

    def _step_start(self, step: Step) -> int:
        s, d, _ = self.skeleton.edges[step[0]]
        return s if step[1] > 0 else d

    def _step_end(self, step: Step) -> int:
        s, d, _ = self.skeleton.edges[step[0]]
        return d if step[1] > 0 else s


def euler_characteristic(x: TwoComplex) -> int:
    return x.skeleton.num_vertices - len(x.skeleton.edges) + len(x.cells)


def build_gamma_w(g: LabeledDigraph, w: Word) -> TwoComplex:
    """One disc per cycle class, glued along the class trace path."""
    dec = decompose(g, w)
    return TwoComplex(g, tuple(c.path for c in dec.classes))


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
    if not is_connected(g):
        raise ValueError("collapses_to_tree: skeleton must be connected")
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
    word: Word
    applicable: bool  # class count == Betti number
    class_count: int
    betti: int
    collapses: bool | None
    passed: bool


def check_equality_collapse(g: LabeledDigraph, w: Word) -> EqualityCollapseReport:
    """Equality of class count and Betti number forces the disc complex to
    collapse to a tree."""
    if not is_connected(g):
        raise ValueError("check_equality_collapse: graph must be connected")
    dec = decompose(g, w)
    b = betti(g).total
    if dec.class_count != b:
        return EqualityCollapseReport(w, False, dec.class_count, b, None, True)
    result = collapses_to_tree(TwoComplex(g, tuple(c.path for c in dec.classes)))
    return EqualityCollapseReport(w, True, dec.class_count, b, result.collapses,
                                  result.collapses)


@dataclass(frozen=True)
class NpiReport:
    word: Word
    euler: int
    branch: str  # "chi", "contractible" or "fail"
    passed: bool


def check_npi(
    g: LabeledDigraph, w: Word, attachments: list[tuple[int, int]]
) -> NpiReport:
    """Nonpositive-immersion check for a complex over the one-relator target.

    Each attachment (v, n) glues a disc along the closed trace of w^n at v.
    The encoding is an immersion exactly when n is the minimal closing
    exponent at v and the attachment vertices lie in pairwise distinct
    sigma_w-orbit cycles; both are enforced.  Verdict: Euler characteristic
    <= 0, or collapsible to a tree (hence contractible).
    """
    if not is_connected(g):
        raise ValueError("check_npi: graph must be connected")
    require_simple_cyclic(w)
    dec = decompose(g, w)
    place = {v: (j, i) for j, cycle in enumerate(dec.cycles) for i, v in enumerate(cycle)}
    cells: list[Cell] = []
    used_orbits: set[int] = set()
    for v, n in attachments:
        if v not in place:
            raise ValueError(f"attachment at vertex {v}: w^n never closes there")
        j, i = place[v]  # v is vertex i of orbit cycle j
        if n != len(dec.cycles[j]):
            raise ValueError(
                f"attachment at vertex {v}: exponent {n} is not the minimal "
                f"closing exponent {len(dec.cycles[j])}, so this is not an immersion"
            )
        if j in used_orbits:
            raise ValueError(
                f"attachment at vertex {v}: duplicates another attachment's "
                "cycle class, so this is not an immersion"
            )
        used_orbits.add(j)
        # the trace of w^period based at v: the class path, rotated
        path, offset = dec.classes[j].path, i * len(w)
        cells.append(path[offset:] + path[:offset])

    y = TwoComplex(g, tuple(cells))
    chi = euler_characteristic(y)
    if chi <= 0:
        return NpiReport(w, chi, "chi", True)
    if collapses_to_tree(y).collapses:
        return NpiReport(w, chi, "contractible", True)
    return NpiReport(w, chi, "fail", False)


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
            lo_prev, hi_prev = extents[i - 1]
            lo, hi = extents[i]
            if lo <= lo_prev:
                diagnostics.append(
                    f"relators {i - 1} and {i}: minimal ordered letters not "
                    "strictly increasing"
                )
            if hi <= hi_prev:
                diagnostics.append(
                    f"relators {i - 1} and {i}: maximal ordered letters not "
                    "strictly increasing"
                )
    return not diagnostics, diagnostics


@dataclass(frozen=True)
class MultiwordReport:
    per_relator: tuple[int, ...]
    total: int
    betti: int
    passed: bool


def check_multiword_inequality(
    g: LabeledDigraph, p: StaggeredPresentation
) -> MultiwordReport:
    """Summed class counts over the relators of a staggered simple
    presentation stay at most the Betti number."""
    ok, diagnostics = is_staggered(p)
    if not ok:
        raise ValueError("presentation is not staggered: " + "; ".join(diagnostics))
    for r in p.relators:
        if not is_simple(r):
            raise ValueError(f"relator {format_word(r)} is a proper power")
    if g.alphabet != p.alphabet:
        raise ValueError("graph and presentation alphabets differ")
    require_valid(g)
    if not is_connected(g):
        raise ValueError("check_multiword_inequality: graph must be connected")
    counts = tuple(decompose(g, r).class_count for r in p.relators)
    b = betti(g).total
    total = sum(counts)
    return MultiwordReport(counts, total, b, total <= b)
