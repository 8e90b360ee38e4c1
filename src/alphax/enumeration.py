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
representatives of levels 1..8, and of the family levels, to digests.

A search reads the graphs of one order n, a generated level or a graph6
file, as a plain tuple.  A caller splits them into parts by one rule,
items[i::k]: part i of k keeps every k-th item from the i-th on.  For a
graph6 file the items are its graphs.  For a generated level they are the
parents in the level below, as geng's res/mod splits its output: part i
of k holds the children of parents i, i + k, i + 2k, ...  The parts
partition the graphs.  A part of a level is built from its own parents
alone, so a process that holds the level below (parent_level) can hand
each part its parents by value, and the part builds nothing below them
and no child of another part.  A generated level has order n by
construction; the file reader reads the whole file, checks the order of
every graph against n, and that is the one order check.

A part (search_part) only builds or reads its graphs and keeps the
minor-free ones; it makes no spectral call.  merge_reports joins the
parts of one (n, family) and, per alpha, screens and certifies the tie
band once, over all of them, so the screens and the certified solves,
like the reports, do not depend on the split.

A family's levels are hereditary.  Minor-free classes are closed under
vertex deletion, and each child is its canonical parent plus the new
vertex n - 1 (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998), so every minor-free graph of order n is a child of a
minor-free graph of order n - 1.  One step, search_part, walks from a
level to the next: it builds the children of some minor-free parents,
searches each once, in the host pieces that hold its new vertex
(is_minor_free's ``anchor``), and keeps the free ones.  The children of
parents that contain the pattern are never built.  A whole level n is
that step over the whole level n - 1 (parent_level), and its SearchPart
is cached per (family, n), family None being the level of all graphs;
the parts of a family's level are the same step over shares of its
minor-free parents, and are not cached.  A report on a generated level
counts its graphs from the pinned A000088 table, not from the graphs
built.  A graph6 file has no parents, and each of its graphs is
searched whole.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .canonical import canonical_data, canonical_form, refinement_ranks
from .graph6 import iter_graph6_file, write_graph6
from .graphs import (CapacityError, Graph, extremal_fs, extremal_qt, friendship, make_empty,
                     quadrangle_book, twin_masks)
from .minors import has_minor
from .spectral import (DEFAULT_TOL, TIE_TOL, InvariantError, SpectralResult, alpha_indices,
                       screen_alpha_indices)

MAX_GENERATED_ORDER = 9
# the number of graphs on n unlabelled vertices, n = 0..MAX_GENERATED_ORDER
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)

# per (family, n): the family's whole level n, search_part's step over
# its level n - 1; family None is the level of all graphs
_LEVELS: dict[tuple[Family | None, int], SearchPart] = {}


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
    """The family predicate, and the one entry to the minor search.
    ``anchor=v`` passes has_minor's precondition on to it: g - v is
    minor-free, so only the pieces of g that hold v are searched, and the
    verdict is the one an unanchored search gives.  Nothing is cached: a
    generated child is searched once, when its level is built, and the
    construction only when merge_reports's bound would fail."""
    return not has_minor(g, family.pattern(), anchor=anchor).contains


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
    accepted: dict[str, Graph] = {}
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
        form, last_orbit = canonical_data(child, ranks)
        if n - 1 in last_orbit and form not in accepted:
            object.__setattr__(child, "_canon", form)
            accepted[form] = child
    return tuple(accepted.values())


@dataclass(frozen=True)
class SearchPart:
    """The minor-free graphs of order n, or of a part of them, for
    merge_reports; the level cache holds one per whole level, family None
    keeping every graph.  ``searched`` counts the graphs whose minor
    verdict the part searched: every graph of a file part, and every
    child built for a generated part.  ``free`` holds the minor-free
    graphs in parent or file order; nothing in a part is screened or
    certified."""

    n: int
    family: Family | None
    searched: int
    free: tuple[Graph, ...]


def search_part(n: int, family: Family | None, graphs: Sequence[Graph] | None = None,
                parents: Sequence[Graph] | None = None) -> SearchPart:
    """The minor-free graphs of order n among ``graphs``, among the
    children of ``parents``, or of the family's whole generated level n
    when both are None.

    The one step of the walk: build the children of ``parents``, graphs
    of the family's level n - 1, with _brood, search each at its new
    vertex n - 1, and keep the free ones in parent order (family None
    keeps them all); every child built counts as searched.  A floor that
    drops children by a spectral bound (ROADMAP D17) would filter them
    here, before their search.  ``parents`` may be part i of k of
    parent_level(n, family), parents i, i + k, ..., and then no level is
    built; the whole level n is the step over parent_level(n, family),
    taken once and cached per (family, n).  Each graph of ``graphs`` is
    searched whole, once.  No spectral call is made here, so the searches
    sum to the same total however the graphs are split."""
    if graphs is not None and parents is not None:
        raise ValueError("pass graphs or the parents of a generated part, not both")
    if graphs is not None:
        return SearchPart(n, family, len(graphs),
                          tuple(g for g in graphs if is_minor_free(g, family)))
    if parents is None:
        level = _LEVELS.get((family, n))
        if level is None:
            level = _LEVELS[family, n] = search_part(n, family, parents=parent_level(n, family))
        return level
    _check_order(n)
    if any(p.n != n - 1 for p in parents):
        raise ValueError(f"the parents of order-{n} graphs have order {n - 1}")
    free: list[Graph] = []
    searched = 0
    for children in map(_brood, parents):
        searched += len(children)
        free.extend(children if family is None else
                    (c for c in children if is_minor_free(c, family, anchor=n - 1)))
    return SearchPart(n, family, searched, tuple(free))


def parent_level(n: int, family: Family | None) -> tuple[Graph, ...]:
    """The parents of the family's level n: its level n - 1, built once
    and cached; level 1 has the graph on no vertices.  An order outside
    1..MAX_GENERATED_ORDER is refused before anything is built."""
    _check_order(n)
    return (make_empty(0),) if n == 1 else _generate_level(n - 1, family)


def _generate_level(n: int, family: Family | None = None) -> tuple[Graph, ...]:
    """The family-minor-free graphs of order n, one per isomorphism class:
    the graphs kept by the cached step search_part(n, family).  Family
    None keeps every class."""
    return search_part(n, family).free


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
    return _generate_level(n, family)


def stream_from_graph6_file(path: str, n: int) -> tuple[Graph, ...]:
    """The graphs of a graph6 file of order-n graphs, in file order; a
    graph of another order is a ValueError."""
    graphs = tuple(iter_graph6_file(path))
    for i, g in enumerate(graphs):
        if g.n != n:
            raise ValueError(f"graph {i + 1} of {path} has order {g.n}, not {n}")
    return graphs


# -- extremal search ------------------------------------------------------


@dataclass(frozen=True)
class TieEntry:
    graph6: str  # canonically labeled encoding
    rho: float
    residual: float


def _near_max(results: Sequence[tuple[Graph, SpectralResult]]) -> tuple[TieEntry, ...]:
    """The tie band of results, certified (graph, alpha-index) pairs: an
    entry labelled by its canonical form, the canonical graph6, for each
    graph within TIE_TOL of their maximum; no other graph gets a canonical
    form.  The entries are sorted by graph6, one per graph6: of isomorphic
    copies, such as a graph6 file may hold, the one with the largest rho
    and then the smallest residual, whatever their order."""
    top = max(r.rho for _, r in results)
    band = [TieEntry(canonical_form(g), r.rho, r.residual)
            for g, r in results if r.rho >= top - TIE_TOL]
    best = {e.graph6: e for e in sorted(band, key=lambda e: (e.rho, -e.residual))}
    return tuple(sorted(best.values(), key=lambda e: e.graph6))


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive (n, alpha, family) extremal search; each
    graph6 in it is canonical, so equal strings mean isomorphic graphs.
    ``certified`` counts the certified A_alpha solves of the tie band,
    which do not depend on how the graphs were split."""

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
    certified: int


def search_extremal(n: int, alpha: float, family: Family) -> SearchReport:
    """Filter level n to the minor-free family, maximize the alpha-index,
    and compare the argmax against the closed-form construction.  Other
    graphs, parts of a level, or several alphas are searched by
    search_part and merged by merge_reports."""
    return merge_reports([search_part(n, family)], (alpha,))[0]


def _certified_near_top(free: Sequence[Graph], alpha: float
                        ) -> list[tuple[Graph, SpectralResult]]:
    """The certified alpha-index of each graph of free, which is not
    empty, that can lie within TIE_TOL of their maximum, in the order of
    free.

    One batched screen_alpha_indices call brackets every index,
    lower_i <= rho_i <= upper_i, and one alpha_indices call certifies
    the graphs whose upper is not below the floor lower_b - TIE_TOL -
    2 DEFAULT_TOL, b having the largest lower, and b whatever its upper.
    A certified rho lies at most the bracket width DEFAULT_TOL above the
    index, so a dropped graph j would be certified below lower_b -
    TIE_TOL - DEFAULT_TOL <= rho_b - TIE_TOL, as each kept i is checked
    to have lower_i <= rho_i + DEFAULT_TOL: no dropped graph could reach
    the tie band.  Each upper_i is checked against its certified lower."""
    lower, upper = screen_alpha_indices(free, alpha)
    best = int(np.argmax(lower))
    keep = ~(upper < lower[best] - TIE_TOL - 2 * DEFAULT_TOL)  # a NaN bound keeps its graph
    keep[best] = True
    graphs = [free[i] for i in np.flatnonzero(keep)]
    results = list(zip(graphs, alpha_indices(graphs, [alpha] * len(graphs))))
    for (g, r), low, up in zip(results, lower[keep], upper[keep]):
        if not up >= r.lower:
            raise InvariantError(f"screen bound {float(up)!r} of {write_graph6(g)} "
                                 f"at alpha={alpha} is below its certified index {r.lower!r}")
        if not low <= r.rho + DEFAULT_TOL:
            raise InvariantError(f"screen lower bound {float(low)!r} of {write_graph6(g)} "
                                 f"at alpha={alpha} is above its certified index {r.rho!r}")
    return results


def merge_reports(parts: Sequence[SearchPart], alphas: Sequence[float],
                  source: str | None = None) -> list[SearchReport]:
    """The reports of the search parts of one (n, family), one per alpha
    in order, read from the graph6 file ``source``, or generated when it
    is None.

    Minor-free counts are summed over all parts, and so are the graphs
    read from a file.  A generated level builds only its minor-free
    graphs, so its graph count is A000088[n], the number of graphs of
    order n.  Per alpha, the tie band is screened and certified here, once
    over the minor-free graphs of all parts (see _certified_near_top), so
    it and its count do not depend on the split; only the graphs within
    TIE_TOL of its maximum get a canonical form, their canonical graph6,
    cached on the graph (see _near_max), and the construction gets one
    once per order.  The argmax is the smallest canonical graph6 among the
    ties, whatever their float order, so solver rounding cannot change it,
    and it matches the construction when their canonical graph6 strings
    are equal.  If no part holds a minor-free graph, ValueError is raised.
    Parts of a generated level are taken to cover the whole level of order
    n, so each report must pass the construction's sanity bound
    (InvariantError otherwise): a minor-free construction is no more than
    TIE_TOL above the maximum.  The construction is searched only when its index is
    above that, so a report that passes searches it not at all."""
    if not parts:
        raise ValueError("nothing to merge")
    n, family = parts[0].n, parts[0].family
    if any((p.n, p.family) != (n, family) for p in parts):
        raise ValueError("cannot merge parts of different (n, family)")
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"theorem searches need 0 < alpha < 1, got {alpha}")
    if source is None:
        _check_order(n)
        total = A000088[n]
    else:
        total = sum(p.searched for p in parts)
    free = [g for p in parts for g in p.free]
    if not free:
        origin = "the generated level" if source is None else f"stream {source!r}"
        raise ValueError(f"{origin} of order {n} holds no "
                         f"{family}-minor-free graph ({total} graphs read)")
    try:
        construction = family.construction(n)
    except ValueError:  # no construction below order param + 1
        construction = None
    construction_g6 = None if construction is None else canonical_form(construction)
    # a whole generated level holds the construction, which, when itself
    # minor-free, can never beat the exhaustive maximum: its index at
    # every alpha, from one call, bounds each report from below
    bounded = source is None and construction is not None
    construction_rhos = ([r.rho for r in alpha_indices([construction] * len(alphas), alphas)]
                         if bounded else [])
    reports = []
    for i, alpha in enumerate(alphas):
        results = _certified_near_top(free, alpha)
        ties = _near_max(results)
        top = max(t.rho for t in ties)
        argmax = ties[0]
        reports.append(SearchReport(
            n=n,
            alpha=alpha,
            family=str(family),
            total_graphs=total,
            minor_free_count=len(free),
            max_rho=top,
            construction_graph6=construction_g6,
            argmax_graph6=argmax.graph6,
            argmax_residual=argmax.residual,
            ties=ties,
            matches_construction=construction_g6 == argmax.graph6,
            unique=len(ties) == 1,
            certified=len(results),
        ))
        if (bounded and not top >= construction_rhos[i] - TIE_TOL
                and is_minor_free(construction, family)):
            raise InvariantError(
                f"exhaustive maximum {top!r} at n={n}, alpha={alpha} is below "
                f"the index {construction_rhos[i]!r} of the minor-free {family} construction")
    return reports
