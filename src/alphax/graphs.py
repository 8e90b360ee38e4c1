"""Immutable bitset-backed simple graphs and the standard constructors.

Vertices are integers 0..n-1.  Adjacency is stored as one bitmask per
vertex, which keeps edge tests O(1) and makes subset/neighborhood
arithmetic plain integer bit twiddling.  Capacity is capped at 64
vertices; everything downstream (enumeration, minor search, eigensolves)
is desk scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class CapacityError(ValueError):
    """Requested graph order exceeds the 64-vertex capacity."""


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError(f"graph order must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"graph order {n} exceeds capacity {MAX_VERTICES}")


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Undirected simple graph; immutable after construction.

    Equality and hashing are on the labeled structure (order plus
    adjacency rows), not on isomorphism classes; use canonical forms for
    the latter.
    """

    __slots__ = ("n", "rows", "_canon")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_canon", None)

    @staticmethod
    def from_rows(n: int, rows: Sequence[int]) -> "Graph":
        """Build from precomputed adjacency rows (must already be symmetric)."""
        g = Graph.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        object.__setattr__(g, "_canon", None)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through from_rows, since the default
        # slot restore would go through __setattr__
        return Graph.from_rows, (self.n, self.rows)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"

    # -- basic queries ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.rows[v]))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                yield (u, v)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    # -- pure structural operations ----------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loop not allowed")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph.from_rows(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph.from_rows(self.n, rows)

    def add_vertex(self, neighbor_mask: int = 0) -> "Graph":
        """Append vertex n adjacent to the vertices in neighbor_mask."""
        _check_order(self.n + 1)
        if neighbor_mask >> self.n:
            raise ValueError("neighbor mask references missing vertices")
        bit = 1 << self.n
        rows = [r | bit if neighbor_mask >> i & 1 else r for i, r in enumerate(self.rows)]
        rows.append(neighbor_mask)
        return Graph.from_rows(self.n + 1, rows)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled by the ascending order of `vertices`."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        for v in keep:
            for u in bits(self.rows[v]):
                if u in index:
                    rows[index[v]] |= 1 << index[u]
        return Graph.from_rows(len(keep), rows)

    def delete_vertex(self, v: int) -> "Graph":
        return self.induced(u for u in range(self.n) if u != v)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Contract edge uv (merge v into u), simplify, relabel compactly."""
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        rows = list(self.rows)
        merged = (rows[u] | rows[v]) & ~(1 << u) & ~(1 << v)
        rows[u] = merged
        for w in bits(merged):
            rows[w] = (rows[w] | (1 << u)) & ~(1 << v)
        rows[v] = 0
        return Graph.from_rows(self.n, rows).delete_vertex(v)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply vertex permutation: new vertex perm[v] is old vertex v."""
        n = self.n
        rows = [0] * n
        for v in range(n):
            for u in bits(self.rows[v]):
                rows[perm[v]] |= 1 << perm[u]
        return Graph.from_rows(n, rows)

    def complement(self) -> "Graph":
        full = self.vertex_mask()
        rows = [(full & ~r & ~(1 << v)) for v, r in enumerate(self.rows)]
        return Graph.from_rows(self.n, rows)

    def is_connected(self) -> bool:
        return len(self.component_masks()) <= 1

    def component_masks(self) -> list[int]:
        return component_masks_within(self.rows, self.vertex_mask())


def component_masks_within(rows: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the connected components of the graph induced on mask."""
    comps = []
    while mask:
        seen = frontier = mask & -mask
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= rows[v]
            frontier = grow & mask & ~seen
            seen |= frontier
        comps.append(seen)
        mask &= ~seen
    return comps


def twin_masks(rows: Sequence[int]) -> list[int]:
    """Per vertex v, the mask of its twin class: v and every u whose swap
    (u v) is an automorphism, that is rows[u] & ~(1<<v) == rows[v] & ~(1<<u).
    Twins are false (equal rows) or true (equal rows once each vertex is
    added to its own); no vertex has twins of both kinds, so the relation is
    an equivalence and the classes are found by grouping the rows."""
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] = {}
    for v, r in enumerate(rows):
        open_rows[r] = open_rows.get(r, 0) | 1 << v
        closed = r | 1 << v
        closed_rows[closed] = closed_rows.get(closed, 0) | 1 << v
    return [open_rows[r] | closed_rows[r | 1 << v] for v, r in enumerate(rows)]


# -- constructors -----------------------------------------------------


def make_empty(n: int) -> Graph:
    _check_order(n)
    return Graph.from_rows(n, (0,) * n)


def make_complete(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph.from_rows(n, [full & ~(1 << v) for v in range(n)])


def make_path(n: int) -> Graph:
    _check_order(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _check_order(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def make_complete_bipartite(m: int, n: int) -> Graph:
    _check_order(m + n)
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; g keeps its labels, h is shifted upward."""
    _check_order(g.n + h.n)
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph.from_rows(g.n + h.n, rows)


def k_copies(k: int, g: Graph) -> Graph:
    if k < 0:
        raise ValueError("copy count must be nonnegative")
    out = make_empty(0)
    for _ in range(k):
        out = disjoint_union(out, g)
    return out


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    n = g.n + h.n
    _check_order(n)
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << n) - 1) ^ g_mask
    rows = [r | h_mask for r in g.rows]
    rows += [(r << g.n) | g_mask for r in h.rows]
    return Graph.from_rows(n, rows)


def complement(g: Graph) -> Graph:
    return g.complement()


def friendship(s: int) -> Graph:
    """s triangles sharing one common vertex: the join of K_1 with s disjoint edges."""
    if s < 1:
        raise ValueError("friendship graph needs s >= 1")
    return join(make_complete(1), k_copies(s, make_complete(2)))


def quadrangle_book(t: int) -> Graph:
    """t quadrangles sharing one common vertex (3t+1 vertices, 4t edges)."""
    if t < 1:
        raise ValueError("quadrangle book needs t >= 1")
    edges = []
    for i in range(t):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(0, a), (a, b), (b, c), (c, 0)]
    return Graph(3 * t + 1, edges)


def matching_graph(m: int) -> Graph:
    """m vertices carrying floor(m/2) disjoint edges; odd m leaves vertex m-1 isolated."""
    _check_order(m)
    return Graph(m, [(2 * i, 2 * i + 1) for i in range(m // 2)])


def extremal_fs(n: int, s: int) -> Graph:
    """K_s joined with an independent set of n-s vertices."""
    if not n > s >= 1:
        raise ValueError(f"need n > s >= 1, got n={n}, s={s}")
    return join(make_complete(s), make_empty(n - s))


def extremal_qt(n: int, t: int) -> Graph:
    """K_t joined with a maximum matching on n-t vertices."""
    if not n > t >= 1:
        raise ValueError(f"need n > t >= 1, got n={n}, t={t}")
    return join(make_complete(t), matching_graph(n - t))


# -- set lemma --------------------------------------------------------


def intersection_lower_bound(sets: Sequence[Iterable[int]]) -> tuple[int, int]:
    """Size of the common intersection vs. sum|N_i| - (k-1)|union N_i|.

    Returns (lhs, rhs); lhs >= rhs always holds (inclusion-exclusion
    applied k-1 times).
    """
    if len(sets) == 0:
        raise ValueError("need at least one set")
    masks = [m if isinstance(m, int) else mask_of(m) for m in sets]
    inter = masks[0]
    union = masks[0]
    total = 0
    for m in masks:
        inter &= m
        union |= m
        total += m.bit_count()
    lhs = inter.bit_count()
    rhs = total - (len(masks) - 1) * union.bit_count()
    return lhs, rhs
