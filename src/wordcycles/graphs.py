"""Deterministically labeled digraphs (inverse automata).

Vertices are dense ints 0..n-1 internally; the JSON file format uses opaque
string ids.  Edges are (src, dst, label) triples with labels in 1..alphabet.
Determinism means: at most one outgoing and at most one incoming edge per
label at every vertex.

A graph caches its index on first read: successor rows for walks, the edge
letter_table for readers of edge paths, and one union-find partition that
gives the components and their Betti numbers.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate

from .words import Word, format_word, is_cyclically_reduced

Edge = tuple[int, int, int]  # (src, dst, label)


class cached_property:
    """functools.cached_property less the lock that Python 3.11 takes on
    each first read, which costs more than a small graph's index."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


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

    @cached_property
    def successor(self) -> list[list[int]]:
        """successor[x][v]: the vertex that signed letter x leads to from v,
        rows indexed as in letter_table.  A missing edge leads to the sink
        slot num_vertices, which leads to itself, so a walk reads u = row[u]
        with no test.  On a nondeterministic graph the last edge wins."""
        n = self.num_vertices
        rows = [[n] * (n + 1) for _ in range(2 * self.alphabet + 1)]
        for s, d, l in self.edges:
            rows[l][s] = d
            rows[-l][d] = s
        return rows

    @cached_property
    def letter_table(self) -> list[list[int | None]]:
        """letter_table[x][v]: index of the edge that signed letter x crosses
        from v, or None.  A negative x indexes from the end of the list, so
        rows 1..alphabet are the letters and the rows after them their
        inverses; row 0 (no letter) holds no edge.  On a nondeterministic
        graph the last of two edges sharing a slot holds it."""
        table = [[None] * self.num_vertices for _ in range(2 * self.alphabet + 1)]
        for i, (s, d, l) in enumerate(self.edges):
            table[l][s] = i
            table[-l][d] = i
        return table

    @cached_property
    def deterministic(self) -> bool:
        """No two edges share a slot of successor: every edge fills two."""
        n = self.num_vertices
        return sum(n + 1 - row.count(n) for row in self.successor) == 2 * len(self.edges)

    @cached_property
    def _partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(component_of, first Betti number of each component) from one
        union-find pass over the edges.  A root holds edges - vertices + 1 of
        its class: an edge inside a class adds 1, a union adds the roots'."""
        parent, cyclomatic = list(range(self.num_vertices)), [0] * self.num_vertices
        # find, inlined: walk to the root, halving the path on the way
        for s, d, _ in self.edges:
            while parent[s] != s:
                parent[s] = s = parent[parent[s]]
            while parent[d] != d:
                parent[d] = d = parent[parent[d]]
            if s == d:
                cyclomatic[d] += 1
            else:
                parent[s] = d
                cyclomatic[d] += cyclomatic[s]
        number, comp, bettis = [None] * self.num_vertices, [], []
        for v in range(self.num_vertices):
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if number[v] is None:  # root v's class is first met at its least vertex
                number[v] = len(bettis)
                bettis.append(cyclomatic[v])
            comp.append(number[v])
        return tuple(comp), tuple(bettis)

    @property
    def component_of(self) -> tuple[int, ...]:
        """Component number of each vertex, edge direction ignored; the
        components are numbered in the order of their least vertices."""
        return self._partition[0]


def validate(g: LabeledDigraph) -> list[DeterminismViolation]:
    """All determinism violations; empty iff g is a valid inverse automaton."""
    slots: dict[tuple[int, int, int], list[int]] = {}  # (direction, vertex, label)
    for i, (s, d, l) in enumerate(g.edges):
        slots.setdefault((0, s, l), []).append(i)
        slots.setdefault((1, d, l), []).append(i)
    return [DeterminismViolation(v, l, ("outgoing", "incoming")[k], tuple(idxs))
            for (k, v, l), idxs in sorted(slots.items()) if len(idxs) > 1]


def require_valid(g: LabeledDigraph) -> None:
    """Raise ValueError unless g is deterministic.  This reads the cached
    flag: O(1) on a graph whose letter table is already built."""
    if not g.deterministic:
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
    if not any(comp_of):  # g is connected: its own component, cached index and all
        return g
    c = comp_of[v]
    order = [u for u in range(g.num_vertices) if comp_of[u] == c]
    vmap = {u: i for i, u in enumerate(order)}
    edges = tuple((vmap[s], vmap[d], l) for s, d, l in g.edges if comp_of[s] == c)
    return LabeledDigraph(g.alphabet, len(vmap), edges, vmap.get(g.basepoint))


@dataclass(frozen=True)
class BettiReport:
    """First Betti numbers of a graph.  total and the per-component numbers
    (bettis, in component order) come from the graph's cached partition;
    the vertex sets paired with them (per_component) are built when first
    read.  A report built from an explicit per_component serves all three."""

    _per_component: tuple[tuple[frozenset[int], int], ...] | None
    total: int
    graph: LabeledDigraph | None = field(default=None, repr=False)

    @property
    def bettis(self) -> tuple[int, ...]:
        if self._per_component is not None:
            return tuple(b for _, b in self._per_component)
        return self.graph._partition[1]

    @cached_property
    def per_component(self) -> tuple[tuple[frozenset[int], int], ...]:
        if self._per_component is not None:
            return self._per_component
        return tuple(zip(components(self.graph), self.bettis))


def betti(g: LabeledDigraph) -> BettiReport:
    """First Betti numbers, total |E| - |V| + #components (see BettiReport)."""
    if g.num_vertices == 0:
        raise ValueError("betti: empty vertex set")
    return BettiReport(None, sum(g._partition[1]), g)


# ---------------------------------------------------------------------------
# Stallings folding


def _merge(rows: list[list[int]], n: int, pending: list[tuple[int, int]],
           getrandbits=None) -> list[int]:
    """Merge the vertex pairs on the pending worklist, and each pair a merge
    makes clash, on rows: a row per signed letter, holding at a class root
    a vertex the letter leads to from the class, or -1.  A merge copies the
    smaller class's root entries into the larger's, O(len(rows)).  Pops
    last-in first-out, or at indices drawn from getrandbits as
    rng.randrange would draw them.  Returns the union-find parents."""
    parent = list(range(n))
    size = [1] * n
    push, pop = pending.append, pending.pop
    while pending:
        if getrandbits is not None:  # i = rng.randrange(len(pending)), inlined
            k = len(pending).bit_length()
            while (i := getrandbits(k)) >= len(pending):
                pass
            pending[i], pending[-1] = pending[-1], pending[i]
        a, b = pop()
        while (up := parent[a]) != a:  # find, inlined, halving the path
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a == b:
            continue
        if size[a] > size[b]:
            a, b = b, a
        parent[a] = b
        size[b] += size[a]
        for row in rows:
            if (u := row[a]) >= 0:
                if (other := row[b]) < 0:
                    row[b] = u
                elif u != other:
                    push((other, u))
    return parent


def _load_rows(edges, size: int) -> tuple[dict, list[tuple[int, int]]]:
    """Slot rows of the graph with these edges on vertices below size, rows
    l and -l for each label in turn (rows[x][v]: where letter x leads from
    v, or -1; a letter on no edge gets its row when first read), and the
    far ends of same-letter edges at one vertex, which clash."""
    rows = defaultdict(lambda: [-1] * size)
    pairs = {}
    for l in {l for _, _, l in edges}:
        rows[l], rows[-l] = pairs[l] = ([-1] * size, [-1] * size)  # (out, in)
    pending: list[tuple[int, int]] = []
    push = pending.append
    for s, d, l in edges:
        out, into = pairs[l]
        if out[s] >= 0:  # two same-letter edges at s: their far ends fold
            push((out[s], d))
        if into[d] >= 0:
            push((into[d], s))
        out[s], into[d] = d, s
    return rows, pending


def _fold_clashes(rows: dict[int, list[int]], n: int, pending,
                  getrandbits=None) -> tuple[list[int], list[int], list[Edge]]:
    """Merge the pending vertex pairs on the slot rows of a graph on
    vertices below n (_merge, popping as it says), then number the classes
    in the order of their least vertices.  Returns (the class roots, each
    vertex's class, with number[-1] = -1 so that an empty slot maps to
    itself, the folded edges between classes): a class has one edge per
    letter, in its root's slot."""
    parent = _merge(list(rows.values()), n, pending, getrandbits)
    roots: list[int] = []
    number = [-1] * (n + 1)
    for v in range(n):
        r = v
        while (up := parent[r]) != r:  # find, inlined, halving the path
            parent[r] = r = parent[up]
        if number[r] < 0:
            number[r] = len(roots)
            roots.append(r)
        number[v] = number[r]
    return roots, number, [(number[r], number[u], x) for x, row in rows.items()
                           if x > 0 for r in roots if (u := row[r]) >= 0]


def fold(g: LabeledDigraph, rng: random.Random | None = None) -> LabeledDigraph:
    """Fold g until deterministic (worklist union-find, after Touikan 2006).

    Each label on some edge gets two slot rows over the vertices, one per
    signed letter (_load_rows): memory is O(V * labels used + E) whatever
    the alphabet.  Two same-letter edges at one vertex put their far ends
    on the worklist of _merge, whose merges cost O(labels used), so the
    fold is near-linear.  Parallel duplicates collapse.

    Output vertices are numbered by the least input vertex of their class
    (_fold_clashes), and edges are sorted.  The result is independent of
    the merge order up to canonical form; an rng pops the worklist in
    random order (used to test exactly that), each index drawn from
    rng.getrandbits as rng.randrange would draw it, otherwise it is popped
    last-in first-out.
    """
    n = g.num_vertices
    rows, pending = _load_rows(g.edges, n)
    roots, number, edges = _fold_clashes(rows, n, pending,
                                         rng.getrandbits if rng is not None else None)
    edges.sort()
    base = number[g.basepoint] if g.basepoint is not None else None
    return LabeledDigraph(g.alphabet, len(roots), tuple(edges), base)


def _strip_spurs(rows, n: int, edges, base: int) -> tuple[list[int] | None, list[Edge]]:
    """Remove the spurs, degree-1 vertices other than base, of the graph on
    vertices 0..n-1 with these edges, in rounds; the degrees left, -1 for a
    removed vertex, or None if there was no spur, and the edges kept.
    rows[i][v] is where the i-th signed letter leads from v: the sink n, or
    -1, if nowhere.  Every spur of a round loses its one live edge, and only
    the far ends of those edges can be spurs of the next round, so an
    isolated edge loses both ends at once; a vertex left at degree 0 stays."""
    degree = [0] * n + [-1]  # the sink's -1 is also degree[-1]
    for s, d, _ in edges:
        degree[s] += 1
        degree[d] += 1
    spurs = [v for v, k in enumerate(degree) if k == 1 and v != base]
    if not spurs:
        return None, edges
    while spurs:  # an edge is gone once either end is
        far_ends = []
        for v in spurs:
            degree[v] = -1
            for row in rows:
                u = row[v]
                if degree[u] >= 0:  # v's one live edge
                    degree[u] -= 1
                    far_ends.append(u)
        spurs = [u for u in set(far_ends) if degree[u] == 1 and u != base]
    return degree, [(s, d, l) for s, d, l in edges if degree[s] >= 0 and degree[d] >= 0]


def core(g: LabeledDigraph) -> LabeledDigraph:
    """Spur removal (_strip_spurs): delete degree-1 vertices other than the
    basepoint, reading each spur's edge from its successor slots.
    O(V*alphabet + E); g itself when it has no spur.
    """
    base = g.basepoint
    if base is None:
        raise ValueError("core: graph has no basepoint")
    require_valid(g)
    degree, edges = _strip_spurs(g.successor, g.num_vertices, g.edges, base)
    if degree is None:
        return g
    number = list(accumulate((k >= 0 for k in degree), initial=0))  # kept before v
    new_edges = tuple((number[s], number[d], l) for s, d, l in edges)
    return LabeledDigraph(g.alphabet, number[-1], new_edges, number[base])


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


def letter_steps(g: LabeledDigraph, letters) -> list[list[int]]:
    """The successor row of each signed letter; beyond the alphabet, row 0."""
    rows, a = g.successor, g.alphabet
    return [rows[x] if abs(x) <= a else rows[0] for x in letters]


def walk(g: LabeledDigraph, v: int, letters) -> int:
    """Where reading letters from v leads: the sink if it falls off g."""
    if 0 in (letters := tuple(letters)):  # letters may be an iterator: read it once
        raise ValueError("letters must be nonzero")
    for row in letter_steps(g, letters):
        v = row[v]
    return v


def _bfs_form(alphabet: int, steps, number: list, edges, start: int, size: int,
              basepoint: int | None = 0) -> LabeledDigraph:
    """The graph with these edges, based at start (0) or not (None), its
    size vertices numbered breadth-first from start along steps, the rows
    of the letters 1, -1, 2, -2, ...: number[v] is None for a vertex to
    number and -1 for one never to queue (the sink, a removed vertex)."""
    number[start] = 0
    order = [start]
    for v in order:  # order grows while it is read: the BFS queue
        for row in steps:
            u = row[v]
            if number[u] is None:
                number[u] = len(order)
                order.append(u)
    if len(order) < size:  # on a deterministic graph, every edge was crossed
        raise ValueError("canonical_form: graph must be connected")
    renumbered = [(number[s], number[d], l) for s, d, l in edges]
    renumbered.sort()
    return LabeledDigraph(alphabet, size, tuple(renumbered), basepoint)


def canonical_form(g: LabeledDigraph) -> LabeledDigraph:
    """BFS renumbering from the basepoint (or the best start vertex).

    Two connected deterministic graphs are label-isomorphic, respecting
    basepoints, iff their canonical forms are equal.
    """
    require_valid(g)
    n = g.num_vertices
    if n == 0:
        raise ValueError("canonical_form: graph must be connected")
    steps = letter_steps(g, [x for l in range(1, g.alphabet + 1) for x in (l, -l)])
    if g.basepoint is not None:  # the sink n is never queued
        return _bfs_form(g.alphabet, steps, [None] * n + [-1], g.edges, g.basepoint, n)
    return min((_bfs_form(g.alphabet, steps, [None] * n + [-1], g.edges, start, n, None)
                for start in range(n)), key=lambda h: h.edges)


def _core_form(alphabet: int, rows: dict[int, list[int]], n: int, edges,
               base: int) -> LabeledDigraph:
    """canonical_form(core(g)) for the connected deterministic graph g with
    these edges and base, read off its slot rows: rows[x][v] is where
    letter x leads from v, or -1, for each letter x on an edge.  g's
    vertices are 0..n-1."""
    steps = [rows[x] for l in sorted(rows) if l > 0 for x in (l, -l)]  # 1, -1, 2, ...
    number, size = [None] * n + [-1], n
    degree, edges = _strip_spurs(steps, n, edges, base)
    if degree is not None:
        number = [None if k >= 0 else -1 for k in degree]
        size = n + 1 - degree.count(-1)
    return _bfs_form(alphabet, steps, number, edges, base, size)


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
    if 0 in w:
        raise ValueError("letters must be nonzero")
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
    for w in filter(None, words):
        loop = [0, *range(n, n + len(w) - 1), 0]
        n += len(w) - 1
        edges += [(s, d, x) if x > 0 else (d, s, -x) for s, d, x in zip(loop, loop[1:], w)]
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


def json_array(value, field: str) -> list:
    """value if it is a JSON array; a string or object is not iterated."""
    if type(value) is not list:
        raise ValueError(f"{field} must be an array, got {value!r}")
    return value


def from_json(obj: dict) -> LabeledDigraph:
    names = json_array(obj["vertices"], "vertices")
    if len(set(names)) != len(names):
        raise ValueError("duplicate vertex ids")
    vmap = {name: i for i, name in enumerate(names)}
    edges = []
    for e in json_array(obj["edges"], "edges"):
        try:
            ends, label = (e["src"], e["dst"]), e["label"]
        except KeyError as exc:
            raise ValueError(f"edge is missing key {exc}") from exc
        for end in ends:
            if end not in vmap:
                raise ValueError(f"unknown vertex id {end!r}")
        edges.append((vmap[ends[0]], vmap[ends[1]], json_int(label, "label")))
    base = obj.get("basepoint")
    if base is not None:
        if base not in vmap:
            raise ValueError(f"unknown basepoint {base!r}")
        base = vmap[base]
    alphabet = json_int(obj["alphabet"], "alphabet")
    return LabeledDigraph(alphabet, len(names), tuple(edges), base)


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
