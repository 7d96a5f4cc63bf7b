"""Deterministically labeled digraphs (inverse automata).

Vertices are dense ints 0..n-1 internally; the JSON file format uses opaque
string ids.  Edges are (src, dst, label) triples with labels in 1..alphabet.
Determinism means: at most one outgoing and at most one incoming edge per
label at every vertex.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .words import Word, format_word, is_cyclically_reduced

Edge = tuple[int, int, int]  # (src, dst, label)


@dataclass(frozen=True)
class DeterminismViolation:
    vertex: int
    label: int
    direction: str  # "outgoing" or "incoming"
    edge_indices: tuple[int, ...]

    def __str__(self):
        return (
            f"vertex {self.vertex}: {len(self.edge_indices)} {self.direction} "
            f"edges with label {self.label}"
        )


@dataclass(frozen=True)
class LabeledDigraph:
    alphabet: int
    num_vertices: int
    edges: tuple[Edge, ...]
    basepoint: int | None = None

    def __post_init__(self):
        if self.alphabet < 0:
            raise ValueError("alphabet size must be >= 0")
        if self.num_vertices < 0:
            raise ValueError("vertex count must be >= 0")
        for s, d, l in self.edges:
            if not (0 <= s < self.num_vertices and 0 <= d < self.num_vertices):
                raise ValueError(f"edge ({s},{d},{l}) has endpoint outside vertex range")
            if not (1 <= l <= self.alphabet):
                raise ValueError(f"edge ({s},{d},{l}) has label outside 1..{self.alphabet}")
        if self.basepoint is not None and not (0 <= self.basepoint < self.num_vertices):
            raise ValueError("basepoint is not a vertex")

    # Maps are only meaningful on deterministic graphs: a nondeterministic
    # one has fewer keys than edges, which is how require_valid detects it.
    # fold accepts nondeterministic input and never reads them.
    @cached_property
    def out_map(self) -> dict[tuple[int, int], int]:
        """(vertex, label) -> edge index, following the edge forwards."""
        return {(s, l): i for i, (s, d, l) in enumerate(self.edges)}

    @cached_property
    def in_map(self) -> dict[tuple[int, int], int]:
        """(vertex, label) -> edge index, crossing the edge backwards."""
        return {(d, l): i for i, (s, d, l) in enumerate(self.edges)}

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """Component number of each vertex, edge direction ignored; the
        components are numbered in the order of their least vertices."""
        parent = list(range(self.num_vertices))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for s, d, _ in self.edges:
            parent[find(s)] = find(d)
        number: dict[int, int] = {}  # a class is first met at its least vertex
        return tuple(number.setdefault(find(v), len(number))
                     for v in range(self.num_vertices))


def validate(g: LabeledDigraph) -> list[DeterminismViolation]:
    """All determinism violations; empty iff g is a valid inverse automaton."""
    by_out: dict[tuple[int, int], list[int]] = {}
    by_in: dict[tuple[int, int], list[int]] = {}
    for i, (s, d, l) in enumerate(g.edges):
        by_out.setdefault((s, l), []).append(i)
        by_in.setdefault((d, l), []).append(i)
    out = [
        DeterminismViolation(v, l, "outgoing", tuple(idxs))
        for (v, l), idxs in sorted(by_out.items())
        if len(idxs) > 1
    ]
    out += [
        DeterminismViolation(v, l, "incoming", tuple(idxs))
        for (v, l), idxs in sorted(by_in.items())
        if len(idxs) > 1
    ]
    return out


def require_valid(g: LabeledDigraph) -> None:
    """Raise ValueError unless g is deterministic.  Two edges sharing a
    (vertex, label) key collapse in out_map or in_map, so this reads the
    cached maps: O(1) on a graph whose maps are already built."""
    if len(g.out_map) < len(g.edges) or len(g.in_map) < len(g.edges):
        raise ValueError(
            "graph is not deterministic: " + "; ".join(str(v) for v in validate(g))
        )


def components(g: LabeledDigraph) -> list[frozenset[int]]:
    """Connected components (edge direction ignored), sorted by min vertex."""
    comps: list[list[int]] = [[] for _ in range(max(g.component_of, default=-1) + 1)]
    for v, c in enumerate(g.component_of):
        comps[c].append(v)
    return [frozenset(c) for c in comps]


def is_connected(g: LabeledDigraph) -> bool:
    return g.num_vertices > 0 and not any(g.component_of)


def component_containing(g: LabeledDigraph, v: int) -> LabeledDigraph:
    """The component of v (renumbered densely, order preserved)."""
    if not 0 <= v < g.num_vertices:
        raise ValueError(f"vertex {v} not in graph")
    comp_of = g.component_of
    c = comp_of[v]
    order = [u for u in range(g.num_vertices) if comp_of[u] == c]
    vmap = {u: i for i, u in enumerate(order)}
    edges = tuple((vmap[s], vmap[d], l) for s, d, l in g.edges if comp_of[s] == c)
    return LabeledDigraph(g.alphabet, len(vmap), edges, vmap.get(g.basepoint))


@dataclass(frozen=True)
class BettiReport:
    per_component: tuple[tuple[frozenset[int], int], ...]
    total: int


def betti(g: LabeledDigraph) -> BettiReport:
    """First Betti numbers, per component and total (|E| - |V| + #components)."""
    if g.num_vertices == 0:
        raise ValueError("betti: empty vertex set")
    comps = components(g)
    comp_of = g.component_of
    edge_count = [0] * len(comps)
    for s, _, _ in g.edges:
        edge_count[comp_of[s]] += 1
    per = tuple((comp, e - len(comp) + 1) for comp, e in zip(comps, edge_count))
    return BettiReport(per, sum(b for _, b in per))


# ---------------------------------------------------------------------------
# Stallings folding


def fold(g: LabeledDigraph, rng: random.Random | None = None) -> LabeledDigraph:
    """Fold g until deterministic (worklist union-find, after Touikan 2006).

    Every class of identified vertices keeps a label -> neighbour map for
    its outgoing edges and one for its incoming edges.  Two same-label edges
    leaving (resp. entering) one class put their far ends on a worklist of
    pending merges; a merge moves the smaller class's map entries into the
    larger's, and each label clash there is pushed too.  A merge costs
    O(alphabet), so the fold is near-linear.  Parallel duplicates collapse.

    Output vertices are numbered by the least input vertex of their class,
    and edges are sorted.  The result is independent of the merge order up
    to canonical form; an rng pops the worklist in random order (used to
    test exactly that), otherwise it is popped last-in first-out.
    """
    n = g.num_vertices
    parent = list(range(n))
    size = [1] * n
    maps = ([{} for _ in range(n)], [{} for _ in range(n)])  # outgoing, incoming
    pending: list[tuple[int, int]] = []
    for s, d, l in g.edges:
        for nbrs, v, u in ((maps[0], s, d), (maps[1], d, s)):
            other = nbrs[v].setdefault(l, u)
            if other != u:
                pending.append((other, u))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while pending:
        if rng is not None:
            i = rng.randrange(len(pending))
            pending[i], pending[-1] = pending[-1], pending[i]
        a, b = pending.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        if size[a] > size[b]:
            a, b = b, a
        parent[a] = b
        size[b] += size[a]
        for nbrs in maps:
            into = nbrs[b]
            for l, u in nbrs[a].items():
                other = into.setdefault(l, u)
                if other != u:
                    pending.append((other, u))

    number: dict[int, int] = {}
    for v in range(n):
        number.setdefault(find(v), len(number))
    new_edges = tuple(sorted({(number[find(s)], number[find(d)], l)
                              for s, d, l in g.edges}))
    base = number[find(g.basepoint)] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, len(number), new_edges, base)


def core(g: LabeledDigraph) -> LabeledDigraph:
    """Spur removal: delete degree-1 vertices other than the basepoint."""
    if g.basepoint is None:
        raise ValueError("core: graph has no basepoint")
    require_valid(g)
    alive = set(range(g.num_vertices))
    edges = set(range(len(g.edges)))
    while True:
        degree: dict[int, int] = {v: 0 for v in alive}
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


def fiber_product(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    """Vertices are vertex pairs, edges are same-label edge pairs."""
    if g1.alphabet != g2.alphabet:
        raise ValueError(
            f"alphabet mismatch: {g1.alphabet} vs {g2.alphabet}"
        )
    require_valid(g1)
    require_valid(g2)
    n2 = g2.num_vertices
    by_label: list[list[tuple[int, int]]] = [[] for _ in range(g2.alphabet + 1)]
    for s2, d2, l2 in g2.edges:
        by_label[l2].append((s2, d2))
    edges = tuple(
        (s1 * n2 + s2, d1 * n2 + d2, l1)  # pair (v1, v2) is vertex v1 * n2 + v2
        for s1, d1, l1 in g1.edges
        for s2, d2 in by_label[l1]
    )
    base = None
    if g1.basepoint is not None and g2.basepoint is not None:
        base = g1.basepoint * n2 + g2.basepoint
    return LabeledDigraph(g1.alphabet, g1.num_vertices * n2, edges, base)


# ---------------------------------------------------------------------------
# Canonical form


def _bfs_numbering(g: LabeledDigraph, start: int) -> LabeledDigraph:
    number = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for l in range(1, g.alphabet + 1):
            for lookup in (g.out_map, g.in_map):
                i = lookup.get((v, l))
                if i is None:
                    continue
                s, d, _ = g.edges[i]
                u = d if lookup is g.out_map else s
                if u not in number:
                    number[u] = len(order)
                    order.append(u)
                    queue.append(u)
    if len(order) < g.num_vertices:  # g is deterministic, so every edge was crossed
        raise ValueError("canonical_form: graph must be connected")
    edges = tuple(sorted((number[s], number[d], l) for s, d, l in g.edges))
    base = number[g.basepoint] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, g.num_vertices, edges, base)


def canonical_form(g: LabeledDigraph) -> LabeledDigraph:
    """BFS renumbering from the basepoint (or the best start vertex).

    Two connected deterministic graphs are label-isomorphic, respecting
    basepoints, iff their canonical forms are equal.
    """
    require_valid(g)
    if g.num_vertices == 0:
        raise ValueError("canonical_form: graph must be connected")
    if g.basepoint is not None:
        return _bfs_numbering(g, g.basepoint)
    return min(
        (_bfs_numbering(g, start) for start in range(g.num_vertices)),
        key=lambda h: h.edges,
    )


def isomorphic(g1: LabeledDigraph, g2: LabeledDigraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# Constructions


def rose(alphabet: int) -> LabeledDigraph:
    """One vertex with one loop per generator; the fiber-product identity."""
    return LabeledDigraph(
        alphabet, 1, tuple((0, 0, l) for l in range(1, alphabet + 1)), 0
    )


def circle(w: Word, alphabet: int | None = None) -> LabeledDigraph:
    """The cycle of length |w| reading w once around, based at its start."""
    if not w:
        raise ValueError("circle: word must be nonempty")
    if not is_cyclically_reduced(w):
        raise ValueError("circle: word must be cyclically reduced")
    n = len(w)
    edges = []
    for i, x in enumerate(w):
        j = (i + 1) % n
        edges.append((i, j, x) if x > 0 else ((j, i, -x)))
    return LabeledDigraph(alphabet or max(abs(x) for x in w), n, tuple(edges), 0)


def wedge_of_words(words: list[Word], alphabet: int) -> LabeledDigraph:
    """Subdivided loops, one per word, wedged at a base vertex (unfolded)."""
    edges: list[Edge] = []
    n = 1
    for w in words:
        if not w:
            continue
        prev = 0
        for i, x in enumerate(w):
            nxt = 0 if i == len(w) - 1 else n
            if i != len(w) - 1:
                n += 1
            edges.append((prev, nxt, x) if x > 0 else (nxt, prev, -x))
            prev = nxt
    return LabeledDigraph(alphabet, n, tuple(edges), 0)


# ---------------------------------------------------------------------------
# Serialization

def to_json(g: LabeledDigraph) -> dict:
    obj = {
        "alphabet": g.alphabet,
        "vertices": [f"v{i}" for i in range(g.num_vertices)],
        "edges": [
            {"src": f"v{s}", "dst": f"v{d}", "label": l} for s, d, l in g.edges
        ],
    }
    if g.basepoint is not None:
        obj["basepoint"] = f"v{g.basepoint}"
    return obj


def json_int(value, field: str) -> int:
    """value if it is a JSON integer; floats, bools and strings are rejected
    rather than truncated or coerced."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def from_json(obj: dict) -> LabeledDigraph:
    names = list(obj["vertices"])
    if len(set(names)) != len(names):
        raise ValueError("duplicate vertex ids")
    vmap = {name: i for i, name in enumerate(names)}
    try:
        edges = tuple(
            (vmap[e["src"]], vmap[e["dst"]], json_int(e["label"], "label"))
            for e in obj["edges"]
        )
    except KeyError as exc:
        raise ValueError(f"unknown vertex id {exc}") from exc
    base = obj.get("basepoint")
    if base is not None:
        if base not in vmap:
            raise ValueError(f"unknown basepoint {base!r}")
        base = vmap[base]
    alphabet = json_int(obj["alphabet"], "alphabet")
    return LabeledDigraph(alphabet, len(names), edges, base)


def loads(text: str) -> LabeledDigraph:
    return from_json(json.loads(text))


def dumps(g: LabeledDigraph) -> str:
    return json.dumps(to_json(g), indent=2)


def to_dot(g: LabeledDigraph) -> str:
    """DOT export; labels rendered as letters, inverses implicit."""
    lines = ["digraph G {"]
    for v in range(g.num_vertices):
        shape = ' [shape=doublecircle]' if v == g.basepoint else ""
        lines.append(f'  v{v}{shape};')
    for s, d, l in g.edges:
        lines.append(f'  v{s} -> v{d} [label="{format_word((l,))}"];')
    lines.append("}")
    return "\n".join(lines)
