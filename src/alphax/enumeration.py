"""Isomorph-free exhaustive generation of small graphs and extremal
search over minor-free families.

Generation extends each (n-1)-vertex representative by one new vertex per
neighborhood mask and accepts a child only when the new vertex lies in the
orbit of the canonically-last vertex, so each isomorphism class appears
through exactly one parent class.  Children of the same parent that
collide are deduplicated by canonical form, keeping the smallest mask as
the representative.  Three pretests skip a mask before the canonical
search, and none changes which children are kept:

- degree: the orbit lies among the vertices of minimum degree (see
  canonical), so a new vertex of larger degree than another is rejected
  before the child is built;
- refinement cell: the orbit lies in the top refinement cell, so a child
  whose new vertex is outside it is rejected, and the search reuses the
  ranks of the refinement;
- parent twin swap: for twins u < w of the parent, a mask holding w but
  not u is skipped.  The swap (u w) maps its child onto the child of the
  smaller mask that holds u instead, by a map fixing the new vertex, so
  both have one canonical form and one verdict, and the smallest mask of
  a class is never skipped.

Counts are pinned to the published sequences in the tests, and the
representatives of levels 1..8 to a digest.

A search reads the graphs of one order n, a generated level or a graph6
file, as a plain tuple.  They are split into parts by one rule: part i of
k keeps every k-th item from the i-th on.  For a graph6 file the items
are its graphs.  For a generated level they are the parents in the level
below, as geng's res/mod splits its output: part i of k holds the
children of parents i, i + k, i + 2k, ...  The parts partition the
graphs.  A part of a level is built from its own parents alone, so a
process that holds the level below (parent_level) can hand each part its
parents by value, and the part builds nothing below them and no child of
another part.  A generated level has order n by construction; the file
reader checks the order of every line against n, and that is the one
order check.

A family's levels are hereditary.  Minor-free classes are closed under
vertex deletion, and each child is its canonical parent plus the new
vertex n - 1 (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998), so every minor-free graph of order n is a child of a
minor-free graph of order n - 1.  Level n of a family is therefore built
from the minor-free graphs of its level n - 1 alone: each child is
searched only in the host pieces that hold its new vertex (has_minor's
``anchor``), through is_minor_free and its cache, and only the free
children are kept.  The children of parents that contain the pattern
are never built.  The levels are cached per (family, n), family None
being the level of all graphs, and the parts of a family's level are
split over its minor-free parents.  A report on a generated level counts
its graphs from the pinned A000088 table, not from the graphs built.  A
graph6 file has no parents, and each of its graphs is searched whole.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .canonical import canonical_data, canonical_graph, refinement_ranks
from .graph6 import graph6_lines, graph6_order, parse_graph6, write_graph6
from .graphs import (CapacityError, Graph, extremal_fs, extremal_qt, friendship, make_empty,
                     quadrangle_book, twin_masks)
from .minors import has_minor
from .spectral import (DEFAULT_TOL, TIE_TOL, InvariantError, SpectralResult, alpha_index,
                       screen_alpha_indices)

MAX_GENERATED_ORDER = 9
# the number of graphs on n unlabelled vertices, n = 0..MAX_GENERATED_ORDER
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)

# per (family, n), one brood per graph of the family's level n - 1, in
# order: the children kept in level n and how many children it has
_LEVELS: dict[tuple[Family | None, int], tuple[tuple[tuple[Graph, ...], int], ...]] = {}
_MINOR_FREE_CACHE: dict[tuple[str, int, tuple[int, ...]], bool] = {}


@dataclass(frozen=True)
class Family:
    """A forbidden-minor family: fs(s) forbids s intersecting triangles,
    qt(t) forbids t intersecting quadrangles."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in ("fs", "qt"):
            raise ValueError(f"family kind must be 'fs' or 'qt', got {self.kind!r}")
        if self.param < 1:
            raise ValueError(f"family parameter must be >= 1, got {self.param}")

    def __str__(self) -> str:
        return f"{self.kind}({self.param})"

    @staticmethod
    def parse(text: str) -> "Family":
        text = text.strip()
        for kind in ("fs", "qt"):
            param = text[len(kind) + 1:-1]
            if text.startswith(kind + "(") and text.endswith(")") and param.isdecimal():
                return Family(kind, int(param))
        raise ValueError(f"cannot parse family {text!r}; expected like 'fs(1)'")

    @cache  # built once per family; Family is frozen, so hashable
    def pattern(self) -> Graph:
        if self.kind == "fs":
            return friendship(self.param)
        return quadrangle_book(self.param)

    def construction(self, n: int) -> Graph:
        if self.kind == "fs":
            return extremal_fs(n, self.param)
        return extremal_qt(n, self.param)


def is_minor_free(g: Graph, family: Family, anchor: int | None = None) -> bool:
    """Family predicate with a verdict cache keyed on the labelled graph.
    ``anchor=v`` passes has_minor's precondition on to it: g - v is
    minor-free, so only the pieces of g that hold v are searched; the
    verdict, and so the cache entry, is the one an unanchored search
    gives.  The cache serves repeated verdicts on the same labelled
    graphs, such as the construction bound at each alpha; a generated
    child is searched once, when its level is built.  An isomorphic copy
    under other labels is searched again, which costs less than a
    canonical form for every host."""
    key = (str(family), g.n, g.rows)
    hit = _MINOR_FREE_CACHE.get(key)
    if hit is None:
        hit = not has_minor(g, family.pattern(), anchor=anchor).contains
        _MINOR_FREE_CACHE[key] = hit
    return hit


def _brood(parent: Graph) -> tuple[Graph, ...]:
    """The accepted children of one parent, in mask order."""
    n = parent.n + 1
    degrees = parent.degrees()
    # the new vertex, of degree k, must have minimum degree in the child:
    # no parent vertex has degree below k - 1, and those of degree k - 1
    # (the mask tight[k]) are all its neighbours
    low = min(degrees, default=0)
    tight = [sum(1 << v for v, d in enumerate(degrees) if d == k - 1) for k in range(n)]
    # (u, w) for each parent twin w and its next lower twin u
    swaps = [(1 << (lower.bit_length() - 1), 1 << w)
             for w, twins in enumerate(twin_masks(parent.rows))
             if (lower := twins & ((1 << w) - 1))]
    accepted: dict[bytes, Graph] = {}
    for mask in range(1 << (n - 1)):
        k = mask.bit_count()
        if k > low + 1 or mask & tight[k] != tight[k]:
            continue
        # the swap (u w) maps this child onto the child of a smaller mask
        if any(mask & w and not mask & u for u, w in swaps):
            continue
        child = parent.add_vertex(mask)
        # the last orbit lies in the top refinement cell
        ranks = refinement_ranks(child)
        if ranks[n - 1] != max(ranks):
            continue
        cbytes, last_orbit = canonical_data(child, ranks)
        if n - 1 in last_orbit and cbytes not in accepted:
            object.__setattr__(child, "_canon", cbytes)
            accepted[cbytes] = child
    return tuple(accepted.values())


def _kept_broods(parents: Sequence[Graph], family: Family | None
                 ) -> tuple[tuple[tuple[Graph, ...], int], ...]:
    """Per parent, its minor-free children and how many children it has.
    The parents are minor-free, so each child is searched only at its new
    vertex; family None keeps every child."""
    return tuple((children if family is None else
                  tuple(c for c in children if is_minor_free(c, family, anchor=c.n - 1)),
                  len(children))
                 for children in map(_brood, parents))


def parent_level(n: int, family: Family | None) -> tuple[Graph, ...]:
    """The parents of the family's level n: its level n - 1, built once
    and cached; level 1 has the graph on no vertices."""
    return (make_empty(0),) if n == 1 else _generate_level(n - 1, family)


def _children(broods: Sequence[tuple[tuple[Graph, ...], int]]) -> tuple[Graph, ...]:
    return tuple(chain.from_iterable(kept for kept, _ in broods))


def _generate_level(n: int, family: Family | None = None) -> tuple[Graph, ...]:
    """The family-minor-free graphs of order n, one per isomorphism class:
    the minor-free children of the family's level n - 1.  Family None
    keeps every class."""
    broods = _LEVELS.get((family, n))
    if broods is None:
        broods = _LEVELS[family, n] = _kept_broods(parent_level(n, family), family)
    return _children(broods)


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"generation needs n >= 1, got {n}")
    if n > MAX_GENERATED_ORDER:
        raise CapacityError(
            f"in-process generation is limited to n <= {MAX_GENERATED_ORDER}; "
            f"ingest a graph6 file for larger orders"
        )


def enumerate_graphs(n: int, family: Family | None = None) -> tuple[Graph, ...]:
    """One representative per isomorphism class of order n, generated by
    canonical augmentation; with ``family``, only the family-minor-free
    classes, each a child of a minor-free graph of order n - 1."""
    _check_order(n)
    return _generate_level(n, family)


def stream_from_graph6_file(path: str, n: int,
                            shard: tuple[int, int] | None = None) -> tuple[Graph, ...]:
    """The graphs of a graph6 file of order-n graphs, in file order.
    ``shard=(i, k)`` keeps every k-th graph of the file, starting at the
    i-th, as a generated part keeps the children of every k-th parent.
    A part fully parses only its own lines, so the k parts parse each
    line once; of every line it decodes the order field, so each part
    rejects a line of another order."""
    index, parts = (0, 1) if shard is None else shard
    if not (parts >= 1 and 0 <= index < parts):
        raise ValueError(f"bad shard spec {shard}")
    graphs = []
    for i, line in enumerate(graph6_lines(path)):
        order = graph6_order(line)
        if order != n:
            raise ValueError(f"graph {i + 1} of {path} has order {order}, not {n}")
        if i % parts == index:
            graphs.append(parse_graph6(line))
    return tuple(graphs)


# -- extremal search ------------------------------------------------------


@dataclass(frozen=True)
class TieEntry:
    graph6: str  # canonically labeled encoding
    rho: float
    residual: float


def _near_max(entries: Sequence[TieEntry]) -> tuple[TieEntry, ...]:
    """The entries within TIE_TOL of their maximum, sorted by graph6, one
    per graph6: of isomorphic copies, the one with the largest rho and
    then the smallest residual, whichever part holds it."""
    if not entries:
        return ()
    top = max(e.rho for e in entries)
    best = {e.graph6: e for e in sorted(entries, key=lambda e: (e.rho, -e.residual))
            if e.rho >= top - TIE_TOL}
    return tuple(sorted(best.values(), key=lambda e: e.graph6))


@dataclass(frozen=True)
class SearchPart:
    """One (n, alpha, family) search over the graphs of order n or a part
    of them, for merge_reports.  ``total_graphs`` counts the graphs the
    part read, which for a generated part are its minor-free graphs.
    ``ties`` holds the minor-free graphs within TIE_TOL of the part's own
    maximum, one per canonical graph6 and sorted by it; it is empty when
    the part holds no minor-free graph.  Every graph within TIE_TOL of the
    maximum over all parts is within it of its own part's maximum, so the
    merge loses no tie."""

    n: int
    alpha: float
    family: str
    total_graphs: int
    minor_free_count: int
    ties: tuple[TieEntry, ...]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive (n, alpha, family) extremal search; each
    graph6 in it is canonical, so equal strings mean isomorphic graphs."""

    n: int
    alpha: float
    family: str
    total_graphs: int
    minor_free_count: int
    max_rho: float
    construction_graph6: str | None  # None below order param + 1
    argmax_graph6: str
    argmax_residual: float
    ties: tuple[TieEntry, ...]
    matches_construction: bool
    unique: bool


def search_extremal(n: int, alpha: float, family: Family) -> SearchReport:
    """Filter level n to the minor-free family, maximize the alpha-index,
    and compare the argmax against the closed-form construction.  Other
    graphs, or parts of a level, are searched by search_extremal_alphas
    and merged by merge_reports."""
    (part,), _ = search_extremal_alphas(n, (alpha,), family)
    return merge_reports([part])


class SearchCounts(NamedTuple):
    """The work behind search parts, for the CLI's stderr line.
    ``searches`` counts the graphs whose minor verdict was searched: every
    graph of a file, and every child of a minor-free parent of a generated
    level.  It counts graphs, not calls, so over the parts of a search it
    sums to the same total however it is split.  ``certified`` counts
    certified alpha_index solves, which depend on the split."""

    searches: int
    certified: int


def _certified_near_top(free: Sequence[Graph], alpha: float) -> list[tuple[Graph, SpectralResult]]:
    """The certified alpha-index of each graph of free that can lie within
    TIE_TOL of their maximum, in the order of free.

    One batched screen bounds every index; the graph with the largest
    estimate is certified, and its rho is at most the maximum.  A graph
    whose index is below that rho - TIE_TOL - DEFAULT_TOL cannot reach
    the tie band, since a certified rho lies at most the bracket width
    DEFAULT_TOL above the index, and only the others are certified."""
    if not free:
        return []
    estimates, bounds = screen_alpha_indices(free, alpha)
    best = int(np.argmax(estimates))
    top = alpha_index(free[best], alpha)
    floor = top.rho - TIE_TOL - DEFAULT_TOL
    results = []
    for i in map(int, np.flatnonzero(~(bounds < floor))):  # a NaN bound keeps its graph
        r = top if i == best else alpha_index(free[i], alpha)
        if not bounds[i] >= r.lower:
            raise InvariantError(f"screen bound {float(bounds[i])!r} of {write_graph6(free[i])} "
                                 f"at alpha={alpha} is below its certified index {r.lower!r}")
        results.append((free[i], r))
    return results


def search_extremal_alphas(n: int, alphas: Sequence[float], family: Family,
                           graphs: Sequence[Graph] | None = None,
                           parents: Sequence[Graph] | None = None
                           ) -> tuple[list[SearchPart], SearchCounts]:
    """One search part per alpha over the order-n graphs: ``graphs``, the
    children of ``parents``, or the family's whole generated level n when
    both are None.

    ``parents`` are graphs of the family's level n - 1, such as part i of
    k of parent_level(n, family), parents i, i + k, ...; their minor-free
    children are built here, and no level is.  A generated part holds only
    minor-free graphs, each searched at its new vertex when it was built;
    the children of parents that contain the pattern are never built.
    Each graph of ``graphs`` is searched whole, through the verdict cache.
    Per alpha, only the minor-free graphs that can lie within TIE_TOL of
    the maximum get a certified alpha_index (see _certified_near_top), and
    only those within TIE_TOL of it a canonical graph6, whose form is
    cached on the graph."""
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"theorem searches need 0 < alpha < 1, got {alpha}")
    if graphs is not None and parents is not None:
        raise ValueError("pass graphs or the parents of a generated part, not both")
    if graphs is None:
        _check_order(n)
        if parents is None:
            _generate_level(n, family)
            broods = _LEVELS[family, n]
        elif any(p.n != n - 1 for p in parents):
            raise ValueError(f"the parents of order-{n} graphs have order {n - 1}")
        else:
            broods = _kept_broods(parents, family)
        graphs = free = _children(broods)
        searches = sum(built for _, built in broods)
    else:
        free = [g for g in graphs if is_minor_free(g, family)]
        searches = len(graphs)
    parts = []
    certified = 0
    for alpha in alphas:
        results = _certified_near_top(free, alpha)
        certified += len(results)
        top = max((r.rho for _, r in results), default=0.0)
        # the candidates share _near_max's maximum and threshold
        entries = [TieEntry(graph6=write_graph6(canonical_graph(g)), rho=r.rho,
                            residual=r.residual)
                   for g, r in results if r.rho >= top - TIE_TOL]
        parts.append(SearchPart(n=n, alpha=alpha, family=str(family), total_graphs=len(graphs),
                                minor_free_count=len(free), ties=_near_max(entries)))
    return parts, SearchCounts(searches, certified)


def merge_reports(parts: Sequence[SearchPart], source: str | None = None) -> SearchReport:
    """The report of the search parts of one (n, alpha, family), read from
    the graph6 file ``source``, or generated when it is None.

    Minor-free counts are summed over all parts, and so are the graphs
    read from a file.  A generated level builds only its minor-free
    graphs, so its graph count is A000088[n], the number of graphs of
    order n.  The argmax is the smallest canonical graph6 among the ties,
    whatever their float order, so solver rounding cannot change it, and
    it matches the construction when their canonical graph6 strings are
    equal.  If no part holds a minor-free graph, ValueError is raised.
    Parts of a generated level are taken to cover the whole level of order
    n, so the report must pass the construction's sanity bound
    (InvariantError otherwise)."""
    if not parts:
        raise ValueError("nothing to merge")
    head = parts[0]
    for p in parts[1:]:
        if (p.n, p.alpha, p.family) != (head.n, head.alpha, head.family):
            raise ValueError("cannot merge reports for different (n, alpha, family)")
    if source is None:
        _check_order(head.n)
        total = A000088[head.n]
    else:
        total = sum(p.total_graphs for p in parts)
    ties = _near_max([e for p in parts for e in p.ties])
    if not ties:
        shards = f" in {len(parts)} shards" if len(parts) > 1 else ""
        origin = "the generated level" if source is None else f"stream {source!r}"
        raise ValueError(f"{origin} of order {head.n} holds no "
                         f"{head.family}-minor-free graph ({total} graphs read{shards})")
    family = Family.parse(head.family)
    argmax = ties[0]
    try:
        construction = family.construction(head.n)
    except ValueError:  # no construction below order param + 1
        construction = None
    construction_g6 = None if construction is None else write_graph6(canonical_graph(construction))
    report = SearchReport(
        n=head.n,
        alpha=head.alpha,
        family=head.family,
        total_graphs=total,
        minor_free_count=sum(p.minor_free_count for p in parts),
        max_rho=max(e.rho for e in ties),
        construction_graph6=construction_g6,
        argmax_graph6=argmax.graph6,
        argmax_residual=argmax.residual,
        ties=ties,
        matches_construction=construction_g6 == argmax.graph6,
        unique=len(ties) == 1,
    )
    # sanity check: a whole generated level holds the construction, which,
    # when itself minor-free, can never beat the exhaustive maximum
    if source is None and construction is not None and is_minor_free(construction, family):
        construction_rho = alpha_index(construction, head.alpha).rho
        if not report.max_rho >= construction_rho - TIE_TOL:
            raise InvariantError(
                f"exhaustive maximum {report.max_rho!r} at n={head.n}, alpha={head.alpha} is "
                f"below the index {construction_rho!r} of the minor-free {family} construction")
    return report


def edge_density_profile(n: int, family: Family) -> int:
    """Empirical support for the linear edge bound: the edge count of the
    densest member of the minor-free family at order n."""
    return max(g.edge_count() for g in enumerate_graphs(n, family=family))
