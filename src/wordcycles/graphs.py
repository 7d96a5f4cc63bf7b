"""Deterministically labeled digraphs (inverse automata).

Vertices are dense ints 0..n-1 internally; the JSON file format uses opaque
string ids.  Edges are (src, dst, label) triples with labels in 1..alphabet.
Determinism means: at most one outgoing and at most one incoming edge per
label at every vertex.

A graph's index is built once, by its builder where the construction proves
it (_built), else on first read, and no read changes it: the successor rows
(its one per-letter table) with the clash pairs their loader found, none on
a deterministic graph, the edge_index that _trace reads, and one union-find
partition that gives the components and Betti numbers.  Folds, drawn
automata and subgroup graphs are born with their rows, which their readers
need; canonical forms are not, as nothing reads theirs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .words import Word, format_word, require_cyclic

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


def _built(cls, *values, **index):
    """cls from its field values, in order, set as its __init__ sets them
    but with no __post_init__ check: only for values the library builds,
    valid by construction.  Outside data is checked where it enters.  index
    holds the entries of the graph's index that its builder proved."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    obj.__dict__.update(index)
    return obj


@dataclass(frozen=True)
class LabeledDigraph:
    """A labeled digraph on vertices 0..num_vertices-1, its (src, dst, label)
    edges labeled 1..alphabet, and an optional basepoint; the index below is
    cached on first read unless the builder handed it over."""

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
    def successor(self) -> dict[int, list[int]]:
        """successor[x][v]: where signed letter x leads from v, or -1
        (_load_rows on num_vertices + 1 slots), with rows for the labels on
        edges only and never grown: a letter with no row falls off.  Slot -1
        is never written, so the sink -1 leads to itself and a walk reads
        u = row[u] with no test.  The last of two edges sharing a slot wins.
        The loader's clash pairs are kept beside the rows (_clashes)."""
        rows, clashes = _load_rows(self.edges, self.num_vertices + 1)
        self.__dict__["_clashes"] = tuple(clashes)
        return rows

    @cached_property
    def _clashes(self) -> tuple[tuple[int, int], ...]:
        """The far ends of each two edges sharing a slot, in the order
        successor's loader found them: the pairs fold merges first, on
        copies of the rows.  A builder that hands successor hands these."""
        self.successor  # building the rows sets this attribute
        return self._clashes

    @cached_property
    def deterministic(self) -> bool:
        """No two edges share a slot: successor's loader found no clash."""
        return not self._clashes

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """edge_index[e]: e's index in edges, read by cycles._trace alone."""
        return {e: i for i, e in enumerate(self.edges)}

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


def validate(g: LabeledDigraph) -> list[str]:
    """One message per slot (outgoing slots first, then by vertex and label)
    that two or more edges share; empty iff g is a valid inverse automaton."""
    slots = Counter(slot for s, d, l in g.edges for slot in ((0, s, l), (1, d, l)))
    return [f"vertex {v}: {n} {('outgoing', 'incoming')[k]} edges with label {l}"
            for (k, v, l), n in sorted(slots.items()) if n > 1]


def require_valid(g: LabeledDigraph) -> None:
    """Raise ValueError unless g is deterministic.  This reads the cached
    flag: O(1) on a graph whose successor rows are already built."""
    if not g.deterministic:
        raise ValueError("graph is not deterministic: " + "; ".join(validate(g)))


def components(g: LabeledDigraph) -> list[frozenset[int]]:
    """Connected components (edge direction ignored), sorted by min vertex."""
    comps: list[list[int]] = [[] for _ in range(max(g.component_of, default=-1) + 1)]
    for v, c in enumerate(g.component_of):
        comps[c].append(v)
    return [frozenset(c) for c in comps]


def is_connected(g: LabeledDigraph) -> bool:
    return g.num_vertices > 0 and not any(g.component_of)


def require_connected(g: LabeledDigraph, who: str, what: str = "graph") -> None:
    """The one gate for connectivity: raise ValueError, naming the caller
    who and its graph what, unless g is connected."""
    if not is_connected(g):
        raise ValueError(f"{who}: {what} must be connected")


def component_containing(g: LabeledDigraph, v: int) -> LabeledDigraph:
    """The component of v (renumbered densely, order preserved), with its partition."""
    if not 0 <= v < g.num_vertices:
        raise ValueError(f"vertex {v} not in graph")
    comp_of = g.component_of
    if not any(comp_of):  # g is connected: its own component, cached index and all
        return g
    c = comp_of[v]
    vmap = {u: i for i, u in enumerate(u for u, k in enumerate(comp_of) if k == c)}
    edges = tuple((vmap[s], vmap[d], l) for s, d, l in g.edges if comp_of[s] == c)
    return _built(LabeledDigraph, g.alphabet, len(vmap), edges, vmap.get(g.basepoint),
                  _partition=((0,) * len(vmap), (g._partition[1][c],)))


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


def _fold_clashes(rows: dict[int, list[int]], n: int, pending,
                  getrandbits=None) -> tuple[int, dict, list[Edge], list[int]]:
    """Fold the graph on vertices below n with these slot rows (rows[x][v]:
    where signed letter x leads from v, or -1): merge the vertex pairs on
    the pending worklist, and each pair a merge makes clash, so that a class
    root's slots hold a vertex each letter leads to from the class.  A merge
    copies the smaller class's root entries into the larger's, O(len(rows)),
    and pushes the roots of two clashing entries only if they are two
    classes.  Rows and pending are merged in place: a caller that keeps
    them hands over copies.
    Pops last-in first-out, or at indices drawn from getrandbits as
    rng.randrange would draw them.  Returns the folded graph, its classes
    numbered by their least vertices and read off the roots' positive-letter
    slots: (m, the class count; rows x and -x for each x > 0 in rows, on
    m + 1 slots, the last the sink's; the edges, unsorted; number, each
    vertex's class, with number[-1] = -1)."""
    slots = list(rows.values())  # each merge walks them: a list, not a new view each time
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
        for row in slots:
            if (u := row[a]) >= 0:
                if (other := row[b]) < 0:
                    row[b] = u
                elif u != other:  # push the pair's roots if they differ
                    while (up := parent[u]) != u:
                        parent[u] = u = parent[up]
                    while (up := parent[other]) != other:
                        parent[other] = other = parent[up]
                    if u != other:
                        push((other, u))
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
    m, succ, edges = len(roots), {}, []
    for x, row in rows.items():
        if x > 0:  # x's edges off the class roots, and the rows of x and -x
            succ[x], succ[-x] = out, into = [-1] * (m + 1), [-1] * (m + 1)
            for i, r in enumerate(roots):
                if (u := row[r]) >= 0:
                    out[i] = u = number[u]
                    into[u] = i
                    edges.append((i, u, x))
    return m, succ, edges, number


def _load_rows(edges, size: int) -> tuple[dict, list[tuple[int, int]]]:
    """Slot rows of the graph with these edges on vertices below size, rows
    l and -l for each label on an edge (rows[x][v]: where letter x leads
    from v, or -1), and the far ends of same-letter edges at one vertex,
    which clash."""
    rows, pairs = {}, {}
    for l in {l for _, _, l in edges}:
        rows[l], rows[-l] = pairs[l] = ([-1] * size, [-1] * size)  # (out, in)
    pending: list[tuple[int, int]] = []
    for s, d, l in edges:
        out, into = pairs[l]
        if out[s] >= 0 or into[d] >= 0:  # one test on the common, clash-free path
            if out[s] >= 0:  # two same-letter edges at s: their far ends fold
                pending.append((out[s], d))
            if into[d] >= 0:
                pending.append((into[d], s))
        out[s], into[d] = d, s
    return rows, pending


def fold(g: LabeledDigraph, rng: random.Random | None = None) -> LabeledDigraph:
    """Fold g until deterministic (worklist union-find, after Touikan 2006).

    Each label on some edge gets two slot rows over the vertices, one per
    signed letter (g.successor): memory is O(V * labels used + E) whatever
    the alphabet.  Two same-letter edges at one vertex put their far ends
    on the worklist of _fold_clashes (g._clashes, which successor's loader
    found), whose merges cost O(labels used) and push only pairs of two
    classes, so the fold is near-linear.  Parallel duplicates collapse.
    _fold_clashes merges copies of g's rows and clash pairs, so g's index
    reads the same after any number of folds, a second fold of g loads
    nothing, and neither does a fold of a graph born with its rows.

    Output vertices are numbered by the least input vertex of their class,
    and the result is born with the rows _fold_clashes reads off the class
    roots with its edges.  Folding is confluent (Stallings 1983) and the
    numbering reads classes alone, so the result is exactly independent of
    the merge order; an rng pops the worklist in random order (used to test
    exactly that), each index drawn from rng.getrandbits as rng.randrange
    would draw it, else last-in first-out.
    """
    rows = {x: row[:] for x, row in g.successor.items()}  # folded in place: copies
    m, succ, edges, number = _fold_clashes(rows, g.num_vertices, list(g._clashes),
                                           rng.getrandbits if rng is not None else None)
    edges.sort()
    base = number[g.basepoint] if g.basepoint is not None else None
    return _built(LabeledDigraph, g.alphabet, m, tuple(edges), base,
                  successor=succ, _clashes=())


def _strip_spurs(rows, n: int, base: int) -> list[int] | None:
    """Remove the spurs, degree-1 vertices other than base, of the graph on
    vertices 0..n-1 with these slot rows, in rounds; the degrees left, -1
    for a removed vertex, or None if there was no spur.  rows[i][v] is
    where the i-th signed letter leads from v, or -1 (the sink), in at
    least n slots, so a vertex's degree is its filled slots; with no rows
    there is no edge and no spur.  Every spur of a round loses its one live
    edge, and only the far ends of those edges can be spurs of the next
    round, so an isolated edge loses both ends at once; a vertex left at
    degree 0 stays."""
    degree = [len(rows) - slots.count(-1) for slots in zip(*rows)]
    del degree[n:]  # the slots past n are empty
    degree.append(-1)  # the sink -1 reads degree[-1]
    spurs = [v for v, k in enumerate(degree) if k == 1 and v != base]
    if not spurs:
        return None
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
    return degree


def core(g: LabeledDigraph) -> LabeledDigraph:
    """Spur removal (_strip_spurs): delete degree-1 vertices other than the
    basepoint, reading each spur's edge from its successor slots.
    O(V * labels used + E); g itself when it has no spur.
    """
    base = g.basepoint
    if base is None:
        raise ValueError("core: graph has no basepoint")
    require_valid(g)
    degree = _strip_spurs(list(g.successor.values()), g.num_vertices, base)
    if degree is None:
        return g
    number = list(accumulate((k >= 0 for k in degree), initial=0))  # kept before v
    edges = tuple((number[s], number[d], l) for s, d, l in g.edges
                  if degree[s] >= 0 and degree[d] >= 0)
    return _built(LabeledDigraph, g.alphabet, number[-1], edges, number[base])


def fiber_product(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    """Vertices are vertex pairs, edges are same-label edge pairs."""
    if g1.alphabet != g2.alphabet:
        raise ValueError(
            f"alphabet mismatch: {g1.alphabet} vs {g2.alphabet}"
        )
    require_valid(g1)
    require_valid(g2)
    n2 = g2.num_vertices
    by_label: dict[int, list[tuple[int, int]]] = {}
    for s2, d2, l2 in g2.edges:
        by_label.setdefault(l2, []).append((s2, d2))
    edges = tuple(
        (s1 * n2 + s2, d1 * n2 + d2, l1)  # pair (v1, v2) is vertex v1 * n2 + v2
        for s1, d1, l1 in g1.edges
        for s2, d2 in by_label.get(l1, ())
    )
    base = None
    if g1.basepoint is not None and g2.basepoint is not None:
        base = g1.basepoint * n2 + g2.basepoint
    return _built(LabeledDigraph, g1.alphabet, g1.num_vertices * n2, edges, base)


# ---------------------------------------------------------------------------
# Canonical form


def walk(g: LabeledDigraph, v: int, letters) -> int:
    """Where reading letters from v leads: -1 if it falls off g, or from -1."""
    if not -1 <= v < g.num_vertices:  # slot rows have n + 1 entries, the last the sink's
        raise ValueError(f"walk: vertex {v} not in graph")
    if 0 in (letters := tuple(letters)):  # letters may be an iterator: read it once
        raise ValueError("letters must be nonzero")
    rows = g.successor
    try:
        for x in letters:
            v = rows[x][v]
    except KeyError:  # x is on no edge
        return -1
    return v


def _bfs_form(alphabet: int, rows: dict[int, list[int]], number: list, start: int,
              basepoint: int | None = 0, with_rows: bool = False) -> LabeledDigraph:
    """The part of the graph on these slot rows (rows[x][v]: where letter x
    leads from v, or -1) that a search from start reaches, based at start (0)
    or not (None), numbered breadth-first from start along the letters 1, -1,
    2, -2, ... that have rows, never into the sink -1: number[v] is None for a
    vertex to number and -1 for one never to queue (a removed vertex).  Each
    edge is read off its source's positive-letter slot as the source is
    numbered; an edge into a removed vertex is skipped.  On a deterministic
    graph the search reaches start's component, less the removed vertices:
    the form is born connected and, read off slot rows, deterministic.

    with_rows: once the search ends, each edge's out and in slot is written
    into rows of n + 1 slots, kept in a dict keyed by letter as _load_rows
    keeps them (O(n * letters used), whatever the letters' values), and
    the form is born with them as its successor, kept for the labels left
    on an edge: the rows _load_rows(edges, n + 1) would load, less its
    clash tests, as the form is deterministic.  Subgroup graphs take them,
    as their probes, conjugates and intersections read rows.  Canonical
    forms do not: no one reads theirs, and they run the search alone."""
    steps = [(l, rows[l], rows[-l]) for l in sorted(rows) if l > 0]
    number[start] = 0
    order = [start]
    edges = []
    for v in order:  # order grows while it is read: the BFS queue
        src = number[v]
        for l, out, back in steps:
            if (u := out[v]) >= 0:  # skip the sink: reads at -1 are slow
                if (dst := number[u]) is None:
                    number[u] = dst = len(order)
                    order.append(u)
                if dst >= 0:
                    edges.append((src, dst, l))
            if (u := back[v]) >= 0 and number[u] is None:
                number[u] = len(order)
                order.append(u)
    n, edges = len(order), tuple(sorted(edges))
    partition = ((0,) * n, (len(edges) - n + 1,))
    if not with_rows:
        return _built(LabeledDigraph, alphabet, n, edges, basepoint, _clashes=(),
                      _partition=partition)
    pairs = {l: ([-1] * (n + 1), [-1] * (n + 1)) for l, _, _ in steps}  # (out, in)
    for src, dst, l in edges:
        out, into = pairs[l]
        out[src], into[dst] = dst, src
    succ, empty = {}, [-1] * (n + 1)
    for l, (out, into) in pairs.items():
        if out != empty:  # an edge reads l; stops at its first filled slot
            succ[l], succ[-l] = out, into
    return _built(LabeledDigraph, alphabet, n, edges, basepoint, _clashes=(),
                  _partition=partition, successor=succ)


def canonical_form(g: LabeledDigraph) -> LabeledDigraph:
    """BFS renumbering from the basepoint (or the best start vertex).

    Two connected deterministic graphs are label-isomorphic, respecting
    basepoints, iff their canonical forms are equal.  Only here is a graph
    rejected as disconnected: when the search misses a vertex.
    """
    require_valid(g)
    n = g.num_vertices
    if g.basepoint is not None:
        form = _bfs_form(g.alphabet, g.successor, [None] * n, g.basepoint)
    else:
        form = min((_bfs_form(g.alphabet, g.successor, [None] * n, start, None)
                    for start in range(n)), key=lambda h: h.edges, default=None)
    if form is None or form.num_vertices < n:
        raise ValueError("canonical_form: graph must be connected")
    return form


def _core_form(alphabet: int, rows: dict[int, list[int]], n: int,
               base: int) -> LabeledDigraph:
    """canonical_form(core(component_containing(g, base))) for the
    deterministic graph g on vertices 0..n-1 with these slot rows and base:
    rows[x][v] is where letter x leads from v, or -1, for each letter x on an
    edge.  Spurs are stripped in every component; the search keeps base's.
    The form is a subgroup graph's, so it is born with its rows."""
    number = [None] * n
    degree = _strip_spurs(list(rows.values()), n, base)
    if degree is not None:
        number = [None if k >= 0 else -1 for k in degree]
    return _bfs_form(alphabet, rows, number, base, with_rows=True)


def isomorphic(g1: LabeledDigraph, g2: LabeledDigraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# Constructions


def rose(alphabet: int) -> LabeledDigraph:
    """One vertex with one loop per generator; the fiber-product identity."""
    return wedge_of_words([(l,) for l in range(1, alphabet + 1)], alphabet)


def circle(w: Word, alphabet: int | None = None) -> LabeledDigraph:
    """The cycle of length |w| reading w once around, based at its start.
    A drawn word (a words._Simple) costs require_cyclic one zero-letter scan."""
    require_cyclic(w)
    return wedge_of_words([w], max(map(abs, w)) if alphabet is None else alphabet)


def wedge_of_words(words: list[Word], alphabet: int) -> LabeledDigraph:
    """Subdivided loops, one per word, wedged at a base vertex (unfolded)."""
    edges: list[Edge] = []
    n = 1
    for w in filter(None, words):
        s, end = 0, n + len(w) - 1  # the step that would end at vertex end closes at 0
        for d, x in enumerate(w, n):
            d = 0 if d == end else d
            edges.append((s, d, x) if x > 0 else (d, s, -x))
            s = d
        n = end
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
    """The graph a JSON object holds; a malformed value raises ValueError,
    keeping the message of any KeyError or TypeError it caused."""
    try:
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
    except (KeyError, TypeError) as exc:
        raise ValueError(str(exc)) from exc
    return LabeledDigraph(alphabet, len(names), tuple(edges), base)


def loads(text: str) -> LabeledDigraph:
    try:
        return from_json(json.loads(text))
    except RecursionError as exc:  # text nested past the decoder's depth
        raise ValueError(str(exc)) from exc


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
