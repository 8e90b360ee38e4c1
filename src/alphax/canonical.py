"""Canonical forms for isomorphism testing on small graphs.

The canonical form of a graph is a string that is identical for two
graphs exactly when they are isomorphic.  It is computed by degree
refinement (iterated neighborhood coloring) followed by a branch-and-bound
search over color-respecting vertex orderings that maximizes the
adjacency-prefix bit sequence.  Prefixes whose remaining choices cannot
differ are collapsed, which keeps unions of edges and other symmetric
graphs from exploding the search.

Twins, two vertices whose swap is an automorphism (the leaves of a star,
the vertices of K_n), are placed in index order: a vertex extends a
prefix only once its lower-index twins are placed.  Twins form classes,
and any permutation of a class is an automorphism.  So an automorphism
maps each ordering onto an ordering with the same bit sequence in which
every class appears in index order, and the maximum is unchanged.  The optimal
orderings are the images of one under Aut(G); sorting the twin classes of
one that ends on v gives a kept ordering that ends on the highest-index
twin of v.  The twin closure of the last vertices kept is therefore the
full Aut(G)-orbit, and a star costs one prefix per position instead of
one per subset of its leaves.

The form is the graph6 of the canonically labeled graph: block p of the
bit sequence holds the adjacency of the vertex at position p to positions
0..p-1, position 0 first, which is graph6's column p.  So canonical_graph
parses the (cached) canonical form instead of searching a second time.

Positions take the refinement cells in rank order, so the last position
of an optimal ordering always holds a vertex of the top cell.  The
refinement starts from degree classes and only ever splits a class in
place, so that cell lies among the vertices of minimum degree.
Enumeration uses both facts to reject augmentation children before any
search.

Adequate for the desk-scale orders used here (n <= 12 or so); correctness
is oracle-checked against full permutation brute force in the tests.
"""

from __future__ import annotations

from .graph6 import encode_graph6, parse_graph6
from .graphs import Graph, bits, twin_masks


def refinement_ranks(g: Graph) -> list[int]:
    """Iterated degree refinement; returns an isomorphism-invariant color
    rank per vertex (rank 0 = highest degree class)."""
    neighbors = [list(bits(r)) for r in g.rows]
    keys = [-len(nbrs) for nbrs in neighbors]
    while True:
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        ranks = [order[k] for k in keys]
        if len(order) == g.n:
            return ranks
        keys = [(ranks[v], tuple(sorted([ranks[u] for u in nbrs])))
                for v, nbrs in enumerate(neighbors)]
        # a round that splits no class leaves every rank as it was
        if len(set(keys)) == len(order):
            return ranks


def canonical_data(g: Graph, ranks: list[int] | None = None) -> tuple[str, frozenset[int]]:
    """The canonical form, a graph6 string, and the orbit of the
    canonically-last vertex.

    The last-vertex orbit is exactly the set of vertices that can sit in
    the final position of an optimal ordering; it drives the accept test
    of the enumeration by canonical augmentation.  ``ranks`` are g's
    refinement_ranks, when the caller has them already.
    """
    n = g.n
    if n == 0:
        return "?", frozenset()
    if ranks is None:
        ranks = refinement_ranks(g)
    twins = twin_masks(g.rows)
    # a vertex is placed only after its lower-index twins
    before = [twins[v] & ((1 << v) - 1) for v in range(n)]
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(ranks[v], []).append(v)
    # The adjacency prefix of each vertex to the placed positions is kept
    # in an n-bit field of one integer, field v at bit v * n; placing v
    # shifts every field and adds a bit to the fields of v's neighbours.
    field = (1 << n) - 1
    shift = [v * n for v in range(n)]
    spread = [sum(1 << shift[u] for u in bits(row)) for row in g.rows]

    # Frontier keys: (used mask, fields of the unused vertices, adjacency
    # prefixes with used fields zeroed).  Prefixes sharing a key have
    # literally identical futures, so one key stands for all of them.
    frontier = {(0, (1 << n * n) - 1, 0)}
    blocks: list[int] = []
    for color in sorted(ranks):
        cell = cells[color]
        choices = [(used, live, vecs, v, vecs >> shift[v] & field)
                   for used, live, vecs in frontier for v in cell
                   if not used >> v & 1 and not before[v] & ~used]
        best = max(choice[4] for choice in choices)
        blocks.append(best)
        frontier = set()
        for used, live, vecs, v, block in choices:
            if block == best:
                rest = live & ~(field << shift[v])
                frontier.add((used | 1 << v, rest, (vecs << 1 | spread[v]) & rest))
    # the twin rule ends an ordering only on the highest-index vertex of
    # its twin class, so the last orbit is the twin closure of the ends
    last_orbit = 0
    for *_, v, block in choices:
        if block == best:
            last_orbit |= twins[v]

    acc = 0
    for pos, block in enumerate(blocks):
        acc = acc << pos | block
    return encode_graph6(n, acc), frozenset(bits(last_orbit))


def canonical_form(g: Graph) -> str:
    """The graph6 of the canonically labelled copy of g; equal strings
    iff isomorphic."""
    if g._canon is None:
        object.__setattr__(g, "_canon", canonical_data(g)[0])
    return g._canon


def canonical_graph(g: Graph) -> Graph:
    """A canonically labeled copy: identical output for isomorphic inputs,
    parsed from the canonical form, which it keeps."""
    form = canonical_form(g)
    h = parse_graph6(form)
    object.__setattr__(h, "_canon", form)
    return h


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)
