"""Canonical forms for isomorphism testing on small graphs.

The canonical form of a graph is a byte string that is identical for two
graphs exactly when they are isomorphic.  It is computed by degree
refinement (iterated neighborhood coloring) followed by a branch-and-bound
search over color-respecting vertex orderings that maximizes the
adjacency-prefix bit sequence.  Prefixes whose remaining choices cannot
differ are collapsed, which keeps highly symmetric graphs (empty, complete,
unions of edges) from exploding the search.

The bytes encode the canonically labeled graph itself: block p of the
bit sequence holds the adjacency of the vertex at position p to positions
0..p-1.  So canonical_graph decodes the (cached) canonical form instead of
searching a second time.

Because the refinement starts from degree classes and only ever splits a
class in place, the last position of an optimal ordering always holds a
vertex of minimum degree; enumeration uses this to reject augmentation
children before any search.

Adequate for the desk-scale orders used here (n <= 12 or so); correctness
is oracle-checked against full permutation brute force in the tests.
"""

from __future__ import annotations

from .graphs import Graph, bits


def _refinement_ranks(g: Graph) -> list[int]:
    """Iterated degree refinement; returns an isomorphism-invariant color
    rank per vertex (rank 0 = highest degree class)."""
    n = g.n
    keys = [(-g.degree(v),) for v in range(n)]
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    ranks = [order[k] for k in keys]
    classes = len(order)
    while True:
        keys = [
            (ranks[v], tuple(sorted(ranks[u] for u in bits(g.rows[v]))))
            for v in range(n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new_ranks = [order[k] for k in keys]
        if len(order) == classes:
            return new_ranks
        ranks, classes = new_ranks, len(order)


def canonical_data(g: Graph) -> tuple[bytes, frozenset[int]]:
    """Canonical bytes and the orbit of the canonically-last vertex.

    The last-vertex orbit is exactly the set of vertices that can sit in
    the final position of an optimal ordering; it drives the accept test
    of the enumeration by canonical augmentation.
    """
    n = g.n
    if n == 0:
        return b"\x00", frozenset()
    ranks = _refinement_ranks(g)
    color_seq = sorted(ranks)
    rows = g.rows

    # Frontier keys: (used_mask, per-vertex adjacency-prefix ints, zeroed
    # for used vertices).  Prefixes sharing a key have literally identical
    # futures, so one key stands for all of them.
    frontier: set[tuple[int, tuple[int, ...]]] = {(0, (0,) * n)}
    blocks: list[int] = []
    last_orbit: set[int] = set()
    for pos in range(n):
        color = color_seq[pos]
        best = -1
        extensions: set[tuple[int, tuple[int, ...]]] = set()
        final = pos == n - 1
        for used, vecs in frontier:
            for v in range(n):
                if ranks[v] != color or used >> v & 1:
                    continue
                block = vecs[v]
                if block < best:
                    continue
                new_used = used | 1 << v
                row_v = rows[v]
                new_vecs = tuple(
                    0 if new_used >> u & 1 else vecs[u] << 1 | (row_v >> u & 1)
                    for u in range(n)
                )
                if block > best:
                    best = block
                    extensions = set()
                    if final:
                        last_orbit = set()
                if final:
                    last_orbit.add(v)
                extensions.add((new_used, new_vecs))
        frontier = extensions
        blocks.append(best)

    acc = 1  # sentinel bit keeps leading zero blocks significant
    for pos, block in enumerate(blocks):
        if pos:
            acc = acc << pos | block
    payload = acc.to_bytes((acc.bit_length() + 7) // 8, "big")
    return bytes([n]) + payload, frozenset(last_orbit)


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant encoding; equal bytes iff isomorphic."""
    if g._canon is None:
        object.__setattr__(g, "_canon", canonical_data(g)[0])
    return g._canon


def canonical_graph(g: Graph) -> Graph:
    """A canonically labeled copy: identical output for isomorphic inputs.

    Decoded from the canonical form: block p (p bits, position 0 most
    significant) is the adjacency of vertex p to vertices 0..p-1.
    """
    form = canonical_form(g)
    n = form[0]
    acc = int.from_bytes(form[1:], "big")
    shift = n * (n - 1) // 2  # bits below the sentinel
    rows = [0] * n
    for p in range(1, n):
        shift -= p
        block = acc >> shift & ((1 << p) - 1)
        for q in range(p):
            if block >> (p - 1 - q) & 1:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    h = Graph.from_rows(n, rows)
    object.__setattr__(h, "_canon", form)
    return h


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)
