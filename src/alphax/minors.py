"""Exact graph-minor containment with certificates, an independent
closure oracle, and structural checks on minor-free graphs.

has_minor searches for a minor model directly: each H-vertex receives a
connected branch set of G, branch sets are pairwise disjoint, and every
H-edge must be realized by a G-edge between the corresponding sets.  The
search is exhaustive (correctness over speed at desk scale).  Its prunes
are sound ones: leftover-vertex counting, reachability of still-untouched
neighbor sets, and symmetry breaking.  It runs only on the parts of G
that can hold the pattern.  Each reduction is decided from the pattern
alone, by a plan built once per pattern:

- 2-core, when H has minimum degree >= 2: a leaf of G alone would give
  its H-vertex degree <= 1, and inside a larger branch set it touches no
  other set and can leave without disconnecting its own.
- blocks, when H is 2-connected: a cut vertex c of G inside branch set
  B_x would make x a cut vertex of H if whole branch sets lay on both
  sides of c, so all other sets lie on one side, and the part of B_x
  beyond c can be dropped; what remains lies in one block.
- components, when H is connected: the branch sets and the edges that
  realize H form one connected subgraph of G.
- size: a piece with fewer vertices or edges than H cannot hold it.
- anchor: when the caller knows G - v to be H-minor-free (G is a
  generated child and v its new vertex), only the pieces holding v are
  searched.
- Aut(H): only root tuples that are lex-minimal in their orbit are
  explored.  Roots are distinct, so each automorphism checked comes down
  to one pair of positions whose roots must ascend.  The automorphisms
  checked always include every twin swap (two H-vertices whose
  neighborhoods agree outside the pair), so the branch sets of twins
  are taken in ascending order of their roots.
- Aut(G): the first root ranges over one vertex per discovered orbit of
  the piece, but only when every automorphism of H fixes the first
  embedding position (the centre of F_s and Q_t, s, t >= 2).  Then a
  host automorphism moves any model's first root onto its orbit's
  representative, and a pattern automorphism, which keeps position 0,
  brings the model into the form the lex-min constraints admit.
  For vertex-transitive patterns (K_3, C_4) the pattern automorphism may
  move the first root again, and the combination is unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator

from .canonical import canonical_form
from .graphs import Graph, bits, component_masks_within, mask_of, twin_masks

DEFAULT_NODE_CAP = 100_000_000
MAX_MINOR_ORDER = 12
# hosts below this order are searched without their Aut(G) orbits: the
# search tree is too small to repay the automorphism set-up
HOST_ORBIT_ORDER = 10


class SearchLimitError(RuntimeError):
    """Minor search exceeded its node cap; deterministic and reproducible."""

    def __init__(self, cap: int):
        super().__init__(cap)  # the argument, so that pickle can rebuild it
        self.cap = cap

    def __str__(self):
        return f"minor search exceeded {self.cap} nodes"


@dataclass(frozen=True)
class MinorModel:
    """Branch sets indexed by H-vertex; a certificate of containment."""

    branch_sets: tuple[frozenset[int], ...]

    def to_json(self) -> dict[str, list[int]]:
        return {str(i): sorted(s) for i, s in enumerate(self.branch_sets)}


@dataclass(frozen=True)
class MinorVerdict:
    contains: bool
    model: MinorModel | None
    nodes_explored: int


def _embedding_order(h: Graph) -> list[int]:
    """Descending degree, ties broken by adjacency to already-ordered vertices."""
    degs = h.degrees()
    order: list[int] = []
    placed = 0
    for _ in range(h.n):
        best = None
        best_key = None
        for v in range(h.n):
            if placed >> v & 1:
                continue
            key = (degs[v], (h.rows[v] & placed).bit_count(), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return order


def _automorphisms(h: Graph) -> Iterator[list[int]]:
    """All automorphisms of h (as vertex permutations), generated lazily.

    Backtracking over degree-compatible images in embedding order.  The
    first-ordered vertex tries itself as its image last, so the first
    automorphism yielded moves it unless every automorphism fixes it.
    Any subset of Aut(h) yields sound symmetry pruning, so callers may
    stop early at the cost of speed only.
    """
    n = h.n
    degs = h.degrees()
    order = _embedding_order(h)
    image = [-1] * n

    def extend(i: int, used: int) -> Iterator[list[int]]:
        if i == n:
            yield image.copy()
            return
        v = order[i]
        targets = range(n) if i else [w for w in range(n) if w != v] + [v]
        for w in targets:
            if used >> w & 1 or degs[w] != degs[v]:
                continue
            if all((h.rows[v] >> order[j] & 1) == (h.rows[w] >> image[order[j]] & 1)
                   for j in range(i)):
                image[v] = w
                yield from extend(i + 1, used | 1 << w)
                image[v] = -1

    yield from extend(0, 0)


# -- host pieces ----------------------------------------------------------


def _two_core(rows, mask: int) -> int:
    """The vertices of mask left after repeatedly deleting those with
    fewer than two neighbors in mask."""
    while True:
        low = 0
        for v in bits(mask):
            if (rows[v] & mask).bit_count() < 2:
                low |= 1 << v
        if not low:
            return mask
        mask &= ~low


def _blocks(rows, mask: int) -> list[int]:
    """Vertex masks of the blocks with at least one edge of the graph
    induced on mask (Hopcroft-Tarjan low points)."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    blocks: list[int] = []

    def visit(v: int, parent: int) -> None:
        disc[v] = low[v] = len(disc)
        stack.append(v)
        for w in bits(rows[v] & mask):
            if w not in disc:
                visit(w, v)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:  # v separates w's subtree: pop a block
                    block = 1 << v
                    while True:
                        x = stack.pop()
                        block |= 1 << x
                        if x == w:
                            break
                    blocks.append(block)
            elif w != parent:
                low[v] = min(low[v], disc[w])

    for v in bits(mask):
        if v not in disc:
            visit(v, -1)
            stack.pop()
    return blocks


# -- pattern plan ---------------------------------------------------------


@dataclass(frozen=True)
class _PatternPlan:
    """Everything the search needs from the pattern, in embedding order."""

    order: tuple[int, ...]
    earlier: tuple[tuple[int, ...], ...]  # earlier H-neighbors of each position
    lex_pairs: tuple[tuple[tuple[int, int], ...], ...]  # (a, b): root a < root b
    min_degree_2: bool
    connected: bool
    biconnected: bool
    fixes_first: bool  # every automorphism of H fixes position 0


@lru_cache(maxsize=64)
def _pattern_plan(h: Graph) -> _PatternPlan:
    k = h.n
    order = _embedding_order(h)
    pos_of = {v: i for i, v in enumerate(order)}
    earlier = tuple(tuple(pos_of[u] for u in bits(h.rows[v]) if pos_of[u] < i)
                    for i, v in enumerate(order))

    # Aut(H) symmetry breaking: explore only assignments whose root tuple
    # is lex-minimal in its orbit.  Roots are distinct, so the tuple is
    # below its image under a position permutation tau exactly when root
    # a < root tau[a] at tau's first moved position a.  As tau fixes the
    # positions before a, tau[a] > a, and the pair is checked at position
    # tau[a], where both roots are first assigned.  The twin swaps are
    # added by hand: the automorphism listing may stop before them.
    twins = twin_masks(h.rows)
    pairs = {(a, b) for a, b in combinations(range(k), 2) if twins[order[a]] >> order[b] & 1}
    for sigma in islice(_automorphisms(h), 10_000):
        tau = [pos_of[sigma[v]] for v in order]
        a = next((j for j in range(k) if tau[j] != j), k)
        if a < k:
            pairs.add((a, tau[a]))
    lex_pairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for a, b in sorted(pairs):
        lex_pairs[b].append((a, b))

    full = h.vertex_mask()
    connected = h.is_connected()
    return _PatternPlan(
        order=tuple(order),
        earlier=earlier,
        lex_pairs=tuple(tuple(p) for p in lex_pairs),
        min_degree_2=min(h.degrees()) >= 2,
        connected=connected,
        biconnected=k >= 3 and connected and _blocks(h.rows, full) == [full],
        fixes_first=next(_automorphisms(h))[order[0]] == order[0],
    )


def _host_pieces(g: Graph, plan: _PatternPlan) -> list[int]:
    """Vertex masks of the parts of g that the search must visit."""
    mask = g.vertex_mask()
    if plan.min_degree_2:
        mask = _two_core(g.rows, mask)
    if plan.biconnected:
        return _blocks(g.rows, mask)
    if plan.connected:
        return component_masks_within(g.rows, mask)
    return [mask]


def has_minor(g: Graph, h: Graph, node_cap: int = DEFAULT_NODE_CAP,
              anchor: int | None = None) -> MinorVerdict:
    """Exact test whether h is a minor of g, with a validating certificate.

    Each piece of g that is large enough (see the module docstring) is
    searched in turn, and a model found in one is mapped back to g's
    labels.  node_cap bounds the nodes explored over all pieces, which
    nodes_explored sums.

    ``anchor=v`` searches only the pieces that hold vertex v, and none
    when v is outside the 2-core.  Precondition, which the caller must
    guarantee: g - v is h-minor-free.  A model that the reductions
    confine to a piece without v would be a model in g - v, so under
    the precondition only the pieces holding v can hold one.  Without
    it the verdict may be a false "free".
    """
    if h.n > MAX_MINOR_ORDER:
        raise ValueError(f"minor pattern order {h.n} exceeds limit {MAX_MINOR_ORDER}")
    if h.n == 0:
        return MinorVerdict(True, MinorModel(()), 0)
    h_edges = h.edge_count()
    if h.n > g.n or h_edges > g.edge_count():
        return MinorVerdict(False, None, 0)

    plan = _pattern_plan(h)
    nodes = 0
    for mask in _host_pieces(g, plan):
        if anchor is not None and not mask >> anchor & 1:
            continue
        keep = list(bits(mask))
        if len(keep) < h.n:
            continue
        if sum((g.rows[v] & mask).bit_count() for v in keep) < 2 * h_edges:
            continue
        piece = g if mask == g.vertex_mask() else g.induced(keep)
        branch, nodes = _search(piece, plan, nodes, node_cap)
        if branch is not None:
            sets = [frozenset()] * h.n
            for i, v in enumerate(plan.order):
                sets[v] = frozenset(keep[x] for x in bits(branch[i]))
            return MinorVerdict(True, MinorModel(tuple(sets)), nodes)
    return MinorVerdict(False, None, nodes)


def _search(g: Graph, plan: _PatternPlan, nodes: int,
            node_cap: int) -> tuple[list[int] | None, int]:
    """Search g for a model of the planned pattern, counting on from nodes.

    H-vertices are assigned single-vertex branch sets (roots) in embedding
    order; branch sets grow lazily, only when an H-edge between two
    assigned sets is not yet realized.  A missing edge is realized by a
    simple connector path through unused vertices, whose prefix joins one
    side and suffix the other, so total growth is bounded by the vertex
    slack |V(G)| - |V(H)|.  Returns the branch masks by position, or None,
    and the node count.
    """
    k = len(plan.order)
    earlier, lex_pairs = plan.earlier, plan.lex_pairs
    rows = g.rows
    full = g.vertex_mask()
    branch = [0] * k
    nbr = [0] * k  # neighborhood mask of each branch set
    roots = [0] * k

    # Host-side symmetry: the first root only needs one representative per
    # orbit of the group the discovered Aut(G) elements generate (sound only
    # when Aut(H) fixes it).  The orbits are the components of the graph
    # joining each v to its images; the lowest vertex stands for each.
    first_root_mask = full
    if plan.fixes_first and g.n >= HOST_ORBIT_ORDER:
        moves = [0] * g.n
        for sigma in islice(_automorphisms(g), 3000):
            for v, w in enumerate(sigma):
                moves[v] |= 1 << w
                moves[w] |= 1 << v
        first_root_mask = 0
        for orbit in component_masks_within(moves, full):
            first_root_mask |= orbit & -orbit

    def bump() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchLimitError(node_cap)

    def assign(i: int, used: int) -> bool:
        bump()
        if i == k:
            return True
        free = full & ~used
        if free.bit_count() < k - i:
            return False
        # roots must be able to reach every required earlier set within the
        # growth budget (free vertices not reserved for later roots)
        cand = free if i else free & first_root_mask
        if earlier[i]:
            budget = free.bit_count() - 1 - (k - i - 1)
            for j in earlier[i]:
                ball = nbr[j]
                for _ in range(budget):
                    grow = 0
                    for v in bits(ball & free):
                        grow |= rows[v]
                    if grow | ball == ball:
                        break
                    ball |= grow
                cand &= ball
                if not cand:
                    return False
        for r in bits(cand):
            roots[i] = r
            for a, b in lex_pairs[i]:
                if roots[b] < roots[a]:
                    break
            else:
                branch[i] = 1 << r
                nbr[i] = rows[r]
                if realize(i, 0, used | 1 << r):
                    return True
        return False

    def realize(i: int, e: int, used: int) -> bool:
        bump()
        if e == len(earlier[i]):
            return assign(i + 1, used)
        j = earlier[i][e]
        if nbr[i] & branch[j]:
            return realize(i, e + 1, used)
        budget = (full & ~used).bit_count() - (k - i - 1)
        if budget <= 0:
            return False
        return connect(i, j, e, used, [], nbr[i], budget)

    def connect(i: int, j: int, e: int, used: int, path: list[int],
                tip_reach: int, budget: int) -> bool:
        """Extend a simple path from branch i toward branch j's neighborhood;
        on arrival, split the path between the two sides at every cut."""
        bump()
        for v in bits(tip_reach & full & ~used):
            path.append(v)
            used_v = used | 1 << v
            if nbr[j] >> v & 1:
                save = (branch[i], nbr[i], branch[j], nbr[j])
                for cut in range(len(path) + 1):
                    bi, nbi, bj, nbj = save
                    for p in path[:cut]:
                        bi |= 1 << p
                        nbi |= rows[p]
                    for p in path[cut:]:
                        bj |= 1 << p
                        nbj |= rows[p]
                    branch[i], nbr[i], branch[j], nbr[j] = bi, nbi, bj, nbj
                    if realize(i, e + 1, used_v):
                        return True
                branch[i], nbr[i], branch[j], nbr[j] = save
            if budget > 1 and connect(i, j, e, used_v, path, rows[v], budget - 1):
                return True
            path.pop()
        return False

    found = assign(0, 0)
    return (branch if found else None), nodes


def validate_model(g: Graph, h: Graph, model: MinorModel) -> bool:
    """Re-check a certificate against the three minor-model invariants."""
    sets = model.branch_sets
    if len(sets) != h.n:
        return False
    masks = []
    used = 0
    for s in sets:
        if not s:
            return False
        m = mask_of(s)
        if m >> g.n or m & used:
            return False
        used |= m
        masks.append(m)
    for m in masks:  # connectivity of each branch set
        start = m & -m
        seen = start
        while True:
            grow = 0
            for v in bits(seen):
                grow |= g.rows[v]
            grow = grow & m & ~seen
            if not grow:
                break
            seen |= grow
        if seen != m:
            return False
    for a, b in h.edges():
        touch = 0
        for v in bits(masks[a]):
            touch |= g.rows[v]
        if not touch & masks[b]:
            return False
    return True


# -- independent oracle -------------------------------------------------


def subgraph_contains(g: Graph, h: Graph) -> bool:
    """Whether g has a (not necessarily induced) subgraph isomorphic to h."""
    if h.n > g.n or h.edge_count() > g.edge_count():
        return False
    if h.n == 0:
        return True
    order = _embedding_order(h)
    pos_of = {v: i for i, v in enumerate(order)}
    earlier = [[pos_of[u] for u in bits(h.rows[v]) if pos_of[u] < i]
               for i, v in enumerate(order)]
    degs_h = [h.degree(v) for v in order]
    degs_g = g.degrees()
    image = [0] * h.n
    full = g.vertex_mask()

    def place(i: int, used: int) -> bool:
        if i == h.n:
            return True
        cands = full & ~used
        for j in earlier[i]:
            cands &= g.rows[image[j]]
        for v in bits(cands):
            if degs_g[v] < degs_h[i]:
                continue
            image[i] = v
            if place(i + 1, used | 1 << v):
                return True
        return False

    return place(0, 0)


@lru_cache(maxsize=512)
def _closure_members(g: Graph) -> tuple[Graph, ...]:
    """All graphs reachable from g by single edge deletions/contractions,
    one representative per isomorphism class."""
    seen = {canonical_form(g): g}
    queue = [g]
    while queue:
        cur = queue.pop()
        for u, v in cur.edges():
            for child in (cur.without_edge(u, v), cur.contract_edge(u, v)):
                key = canonical_form(child)
                if key not in seen:
                    seen[key] = child
                    queue.append(child)
    return tuple(seen.values())


def minor_closure_oracle(g: Graph, h: Graph) -> bool:
    """Reference minor test: close g under edge deletion/contraction and
    look for h as a subgraph.  Exponential; restricted to order <= 7."""
    if g.n > 7:
        raise ValueError(f"closure oracle limited to 7 vertices, got {g.n}")
    return any(subgraph_contains(member, h) for member in _closure_members(g))


# -- structural lemma checks ----------------------------------------------


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    violations: tuple[StructureViolation, ...]


def _check_bipartite_config(g: Graph, a_set, b_set, a_size: int, b_min: int):
    a = sorted(set(a_set))
    b = sorted(set(b_set))
    a_mask = mask_of(a)
    b_mask = mask_of(b)
    if a_mask & b_mask:
        raise ValueError("A and B overlap")
    if (a_mask | b_mask) >> g.n:
        raise ValueError("A or B references missing vertices")
    if len(a) != a_size:
        raise ValueError(f"|A| must be {a_size}, got {len(a)}")
    if len(b) < b_min:
        raise ValueError(f"|B| must be at least {b_min}, got {len(b)}")
    for u in a:
        if g.rows[u] & b_mask != b_mask:
            raise ValueError(f"G[A,B] not complete bipartite: vertex {u} misses part of B")
    return a_mask, b_mask, b


def check_fs_structure(g: Graph, s: int, a_set, b_set) -> StructureReport:
    """For an F_s-minor-free graph with a complete bipartite K_{s,|B|}
    configuration (|B| >= 2s): B must be independent and every vertex
    outside A and B has at most one neighbor in B."""
    a_mask, b_mask, b = _check_bipartite_config(g, a_set, b_set, s, 2 * s)
    violations = []
    for u in b:
        inside = g.rows[u] & b_mask
        for v in bits(inside):
            if v > u:
                violations.append(StructureViolation("edge_inside_b", (u, v)))
    outside = g.vertex_mask() & ~a_mask & ~b_mask
    for v in bits(outside):
        d = (g.rows[v] & b_mask).bit_count()
        if d > 1:
            violations.append(StructureViolation("outside_degree_into_b", (v,)))
    return StructureReport(ok=not violations, violations=tuple(violations))


def check_qt_structure(g: Graph, t: int, a_set, b_set) -> StructureReport:
    """For a Q_t-minor-free graph with a complete bipartite K_{t,|B|}
    configuration (|B| >= 2t+1): G[B] has maximum degree 1 (disjoint edges
    plus isolated vertices) and every vertex outside A and B has at most
    two neighbors in B."""
    a_mask, b_mask, b = _check_bipartite_config(g, a_set, b_set, t, 2 * t + 1)
    violations = []
    for u in b:
        inside = g.rows[u] & b_mask
        if inside.bit_count() > 1:
            nbrs = tuple(bits(inside))
            violations.append(StructureViolation("path_center_inside_b", (u,) + nbrs[:2]))
    outside = g.vertex_mask() & ~a_mask & ~b_mask
    for v in bits(outside):
        d = (g.rows[v] & b_mask).bit_count()
        if d > 2:
            violations.append(StructureViolation("outside_degree_into_b", (v,)))
    return StructureReport(ok=not violations, violations=tuple(violations))
