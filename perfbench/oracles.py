"""Reference computations written independently of wordcycles.

They read only the plain data of a graph (vertex count, edge triples,
basepoint) and share no code with the library, so a defect in a library
kernel cannot hide inside its own check.
"""

from __future__ import annotations

Word = tuple[int, ...]


def component_count(num_vertices: int, edges) -> int:
    """Connected components, edge direction ignored, by union-find."""
    parent = list(range(num_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = num_vertices
    for s, d, _ in edges:
        a, b = find(s), find(d)
        if a != b:
            parent[a] = b
            components -= 1
    return components


def betti_total(num_vertices: int, edges) -> int:
    """|E| - |V| + #components."""
    return len(edges) - num_vertices + component_count(num_vertices, edges)


def is_deterministic(edges) -> bool:
    return (len({(s, l) for s, _, l in edges}) == len(edges)
            and len({(d, l) for _, d, l in edges}) == len(edges))


def _step_maps(edges):
    out = {(s, l): d for s, d, l in edges}
    back = {(d, l): s for s, d, l in edges}
    return out, back


def _read(out, back, v: int | None, w: Word) -> int | None:
    for x in w:
        if v is None:
            return None
        v = out.get((v, x)) if x > 0 else back.get((v, -x))
    return v


def cycle_counts(num_vertices: int, edges, w: Word) -> tuple[int, int]:
    """(number of based w-cycles, number of their classes) by brute force.

    A vertex is a base vertex when some power w^n with n <= |V| reads a
    closed path there; two base vertices share a class when one reading of
    w leads from one to the other.
    """
    out, back = _step_maps(edges)
    successor = {}
    for v in range(num_vertices):
        u = _read(out, back, v, w)
        if u is not None:
            successor[v] = u
    base = []
    for v in range(num_vertices):
        u = v
        for _ in range(num_vertices):
            u = successor.get(u)
            if u is None:
                break
            if u == v:
                base.append(v)
                break
    seen: set[int] = set()
    classes = 0
    for v in base:
        if v in seen:
            continue
        classes += 1
        u = v
        while u not in seen:
            seen.add(u)
            u = successor[u]
    return len(base), classes


def is_connected(num_vertices: int, edges) -> bool:
    return num_vertices > 0 and component_count(num_vertices, edges) == 1


# ---------------------------------------------------------------------------
# Stallings graphs.  A based graph is (vertex count, edge triples, basepoint).


def fold(num_vertices: int, edges, basepoint: int):
    """Identify the ends of same-label edges at a common vertex until the
    graph is deterministic, by union-find passes over the edge list."""
    parent = list(range(num_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merged = True
    while merged:
        merged = False
        out: dict = {}
        back: dict = {}
        for s, d, l in edges:
            s, d = find(s), find(d)
            for table, key, end in ((out, (s, l), d), (back, (d, l), s)):
                other = table.setdefault(key, end)
                a, b = find(other), find(end)
                if a != b:
                    parent[a] = b
                    merged = True
    roots = {find(v) for v in range(num_vertices)}
    number = {r: i for i, r in enumerate(sorted(roots))}
    folded = {(number[find(s)], number[find(d)], l) for s, d, l in edges}
    return len(number), tuple(sorted(folded)), number[find(basepoint)]


def core(num_vertices: int, edges, basepoint: int):
    """Remove vertices of degree 1 other than the basepoint until none is left."""
    incident: list[list[int]] = [[] for _ in range(num_vertices)]
    for i, (s, d, _) in enumerate(edges):
        incident[s].append(i)
        incident[d].append(i)
    degree = [len(es) for es in incident]
    alive_edge = [True] * len(edges)
    alive = [True] * num_vertices
    todo = [v for v in range(num_vertices) if degree[v] == 1 and v != basepoint]
    while todo:
        v = todo.pop()
        if not alive[v] or degree[v] != 1:
            continue
        alive[v] = False
        i = next(i for i in incident[v] if alive_edge[i])
        alive_edge[i] = False
        s, d, _ = edges[i]
        u = d if s == v else s
        degree[v] -= 1
        degree[u] -= 1
        if degree[u] == 1 and u != basepoint:
            todo.append(u)
    number = {v: i for i, v in enumerate(v for v in range(num_vertices) if alive[v])}
    kept = tuple((number[s], number[d], l)
                 for (s, d, l), keep in zip(edges, alive_edge) if keep)
    return len(number), kept, number[basepoint]


def stallings(words):
    """Core of the folded wedge of one loop per word, based at the wedge point."""
    return core(*fold(*wedge(words), 0))


def wedge(words) -> tuple[int, tuple]:
    """(vertex count, edges) of subdivided loops reading each word at vertex 0."""
    edges = []
    n = 1
    for w in words:
        prev = 0
        for i, x in enumerate(w):
            nxt = 0 if i == len(w) - 1 else n
            n += i != len(w) - 1
            edges.append((prev, nxt, x) if x > 0 else (nxt, prev, -x))
            prev = nxt
    return n, tuple(edges)


def canonical(num_vertices: int, edges, basepoint: int):
    """A numbering-free form of a connected deterministic based graph: its
    vertex count and sorted edges after breadth-first renumbering from the
    basepoint, labels in increasing order, outgoing before incoming edges.
    Two such graphs are label-isomorphic, basepoints matched, iff their
    forms are equal.  None for a graph that is not deterministic or not
    connected."""
    if basepoint is None or not is_deterministic(edges):
        return None
    out, back = _step_maps(edges)
    labels = sorted({l for _, _, l in edges})
    number = {basepoint: 0}
    order = [basepoint]
    for v in order:
        for l in labels:
            for table in (out, back):
                u = table.get((v, l))
                if u is not None and u not in number:
                    number[u] = len(order)
                    order.append(u)
    if len(order) != num_vertices:
        return None
    return num_vertices, tuple(sorted((number[s], number[d], l) for s, d, l in edges))


def product_core(g1, g2):
    """Core of the component of the fiber product of two deterministic based
    graphs that holds the pair of basepoints: the intersection's graph."""
    (_, e1, b1), (_, e2, b2) = g1, g2
    out1, back1 = _step_maps(e1)
    out2, back2 = _step_maps(e2)
    labels = sorted({l for _, _, l in e1} & {l for _, _, l in e2})
    number = {(b1, b2): 0}
    order = [(b1, b2)]
    edges = []
    for v1, v2 in order:
        for l in labels:
            for table1, table2, forward in ((out1, out2, True), (back1, back2, False)):
                u1, u2 = table1.get((v1, l)), table2.get((v2, l))
                if u1 is None or u2 is None:
                    continue
                if (u1, u2) not in number:
                    number[u1, u2] = len(order)
                    order.append((u1, u2))
                if forward:
                    edges.append((number[v1, v2], number[u1, u2], l))
    return core(len(order), tuple(edges), 0)


def shnc_sides(g1, g2) -> tuple[int, int]:
    """(sum over the components of the whole fiber product of max(b - 1, 0),
    max(b1 - 1, 0) * max(b2 - 1, 0)), b the first Betti number."""
    (n1, e1, _), (n2, e2, _) = g1, g2
    edges = [(s1 * n2 + s2, d1 * n2 + d2, l)
             for s1, d1, l in e1 for s2, d2, m in e2 if l == m]
    n = n1 * n2
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, d, _ in edges:
        a, b = find(s), find(d)
        if a != b:
            parent[a] = b
    size: dict[int, int] = {}
    for v in range(n):
        r = find(v)
        size[r] = size.get(r, 0) + 1
    loops = dict.fromkeys(size, 0)
    for s, _, _ in edges:
        loops[find(s)] += 1
    lhs = sum(max(loops[r] - size[r], 0) for r in size)
    rhs = (max(betti_total(n1, e1) - 1, 0) * max(betti_total(n2, e2) - 1, 0))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Words


def is_cyclically_reduced(w: Word) -> bool:
    return (all(w[i] != -w[i + 1] for i in range(len(w) - 1))
            and (len(w) < 2 or w[0] != -w[-1]))


def is_primitive(w: Word) -> bool:
    """True when w is not a literal proper power v^p, p > 1."""
    n = len(w)
    return not any(n % d == 0 and w[:d] * (n // d) == w for d in range(1, n))
