"""Isomorph-free exhaustive generation of small graphs and extremal
search over minor-free families.

Generation extends each (n-1)-vertex representative by one new vertex per
neighborhood mask and accepts a child only when the new vertex lies in the
orbit of the canonically-last vertex, so each isomorphism class appears
through exactly one parent class.  That orbit lies among the vertices of
minimum degree (see canonical), so a child whose new vertex has a larger
degree than some other vertex is rejected before its canonical form is
computed.  Children of the same parent that collide are deduplicated by
canonical form, keeping the smallest mask as the representative.  Counts
are pinned to the published sequences in the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .canonical import canonical_data, canonical_form, canonical_graph
from .graph6 import iter_graph6_file, parse_graph6, write_graph6
from .graphs import CapacityError, Graph, extremal_fs, extremal_qt, friendship, make_empty, quadrangle_book
from .minors import DEFAULT_NODE_CAP, has_minor
from .spectral import TIE_TOL, InvariantError, alpha_index

MAX_GENERATED_ORDER = 9

_LEVELS: dict[int, tuple[Graph, ...]] = {}
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
            if text.startswith(kind + "(") and text.endswith(")"):
                return Family(kind, int(text[len(kind) + 1:-1]))
        raise ValueError(f"cannot parse family {text!r}; expected like 'fs(1)'")

    def pattern(self) -> Graph:
        if self.kind == "fs":
            return friendship(self.param)
        return quadrangle_book(self.param)

    def construction(self, n: int) -> Graph:
        if self.kind == "fs":
            return extremal_fs(n, self.param)
        return extremal_qt(n, self.param)


def is_minor_free(g: Graph, family: Family, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Family predicate with a verdict cache keyed on the labelled graph
    (shared across alpha values and repeated searches over the same
    graphs).  An isomorphic copy under other labels is searched again,
    which costs less than a canonical form for every host."""
    key = (str(family), g.n, g.rows)
    hit = _MINOR_FREE_CACHE.get(key)
    if hit is None:
        hit = not has_minor(g, family.pattern(), node_cap).contains
        _MINOR_FREE_CACHE[key] = hit
    return hit


def _generate_level(n: int) -> tuple[Graph, ...]:
    cached = _LEVELS.get(n)
    if cached is not None:
        return cached
    if n == 1:
        result = (make_empty(1),)
    else:
        out = []
        for parent in _generate_level(n - 1):
            degrees = parent.degrees()
            accepted: dict[bytes, Graph] = {}
            for mask in range(1 << (n - 1)):
                # the new vertex must have minimum degree in the child
                new_degree = mask.bit_count()
                if any(d + (mask >> v & 1) < new_degree for v, d in enumerate(degrees)):
                    continue
                child = parent.add_vertex(mask)
                cbytes, last_orbit = canonical_data(child)
                if n - 1 in last_orbit and cbytes not in accepted:
                    object.__setattr__(child, "_canon", cbytes)
                    accepted[cbytes] = child
            out.extend(accepted.values())
        result = tuple(out)
    _LEVELS[n] = result
    return result


@dataclass(frozen=True)
class GraphStream:
    """A deterministic sequence of isomorphism-class representatives."""

    order: int
    source: str
    graphs: tuple[Graph, ...]
    connected_only: bool = False
    shard: tuple[int, int] | None = None

    def __iter__(self):
        return iter(self.graphs)

    def __len__(self):
        return len(self.graphs)


def enumerate_graphs(n: int, connected_only: bool = False,
                     shard: tuple[int, int] | None = None) -> GraphStream:
    """One representative per isomorphism class of order n, generated by
    canonical augmentation.  Shards split deterministically on the
    neighborhood mask of the last added vertex."""
    if n < 1:
        raise ValueError(f"generation needs n >= 1, got {n}")
    if n > MAX_GENERATED_ORDER:
        raise CapacityError(
            f"in-process generation is limited to n <= {MAX_GENERATED_ORDER}; "
            f"ingest a graph6 file for larger orders"
        )
    graphs = _generate_level(n)
    if shard is not None:
        index, count = shard
        if not (count >= 1 and 0 <= index < count):
            raise ValueError(f"bad shard spec {shard}")
        graphs = tuple(g for g in graphs if g.rows[n - 1] % count == index)
    if connected_only:
        graphs = tuple(g for g in graphs if g.is_connected())
    return GraphStream(order=n, source="generated", graphs=graphs,
                       connected_only=connected_only, shard=shard)


def stream_from_graph6_file(path: str) -> GraphStream:
    graphs = tuple(iter_graph6_file(path))
    if not graphs:
        raise ValueError(f"no graphs in {path}")
    order = graphs[0].n
    for g in graphs:
        if g.n != order:
            raise ValueError(f"mixed orders in {path}: {order} and {g.n}")
    return GraphStream(order=order, source=path, graphs=graphs)


# -- extremal search ------------------------------------------------------


@dataclass(frozen=True)
class TieEntry:
    graph6: str  # canonically labeled encoding
    rho: float
    residual: float


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive (n, alpha, family) extremal search.

    A report for one shard of a stream may hold no minor-free graph: then
    ``minor_free_count`` is 0, ``ties`` is empty, the argmax fields are
    None, and ``matches_construction`` and ``unique`` are False."""

    n: int
    alpha: float
    family: str
    total_graphs: int
    minor_free_count: int
    max_rho: float | None
    argmax_canonical: bytes | None
    argmax_graph6: str | None
    argmax_residual: float | None
    ties: tuple[TieEntry, ...]
    matches_construction: bool
    unique: bool
    wall_time: float


def _pick_argmax(ties: list[TieEntry]) -> TieEntry:
    # the lexicographically smallest canonical encoding among the ties,
    # ignoring their float order: independent of solver rounding and of
    # stream or shard order
    return min(ties, key=lambda e: e.graph6)


def _finalize_report(n: int, alpha: float, family: Family, total: int,
                     candidates: list[TieEntry], tie_tol: float,
                     wall_time: float) -> SearchReport:
    if not candidates:
        return SearchReport(
            n=n, alpha=alpha, family=str(family), total_graphs=total,
            minor_free_count=0, max_rho=None, argmax_canonical=None,
            argmax_graph6=None, argmax_residual=None, ties=(),
            matches_construction=False, unique=False, wall_time=wall_time,
        )
    max_rho = max(e.rho for e in candidates)
    ties = sorted((e for e in candidates if e.rho >= max_rho - tie_tol),
                  key=lambda e: e.graph6)
    argmax = _pick_argmax(ties)
    try:
        construction_canon = canonical_form(family.construction(n))
    except ValueError:
        construction_canon = None
    argmax_canon = canonical_form(parse_graph6(argmax.graph6))
    return SearchReport(
        n=n,
        alpha=alpha,
        family=str(family),
        total_graphs=total,
        minor_free_count=len(candidates),
        max_rho=max_rho,
        argmax_canonical=argmax_canon,
        argmax_graph6=argmax.graph6,
        argmax_residual=argmax.residual,
        ties=tuple(ties),
        matches_construction=construction_canon == argmax_canon,
        unique=len(ties) == 1,
        wall_time=wall_time,
    )


def search_extremal(n: int, alpha: float, family: Family,
                    stream: GraphStream | None = None,
                    tie_tol: float = TIE_TOL,
                    node_cap: int = DEFAULT_NODE_CAP) -> SearchReport:
    """Filter the stream to the minor-free family, maximize the alpha-index,
    and compare the argmax against the closed-form construction.

    A sharded stream may hold no minor-free graph; its report then carries
    no argmax (see SearchReport) and is meant for merge_reports.  An
    unsharded stream with no minor-free graph raises ValueError."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"theorem searches need 0 < alpha < 1, got {alpha}")
    if stream is None:
        stream = enumerate_graphs(n)
    if stream.order != n:
        raise ValueError(f"stream order {stream.order} does not match n={n}")
    start = time.perf_counter()
    candidates: list[TieEntry] = []
    total = 0
    for g in stream:
        total += 1
        if not is_minor_free(g, family, node_cap):
            continue
        result = alpha_index(g, alpha)
        candidates.append(TieEntry(
            graph6=write_graph6(canonical_graph(g)),
            rho=result.rho,
            residual=result.residual,
        ))
    wall = time.perf_counter() - start
    if not candidates and stream.shard is None:
        raise ValueError(f"stream {stream.source!r} of order {n} holds no "
                         f"{family}-minor-free graph ({total} graphs read)")
    report = _finalize_report(n, alpha, family, total, candidates, tie_tol, wall)
    # sanity: the construction, when itself minor-free and in range, can
    # never beat the exhaustive maximum
    try:
        construction = family.construction(n)
    except ValueError:
        construction = None
    if construction is not None and stream.shard is None and stream.source == "generated" \
            and not stream.connected_only and is_minor_free(construction, family, node_cap):
        construction_rho = alpha_index(construction, alpha).rho
        if not report.max_rho >= construction_rho - tie_tol:
            raise InvariantError(
                f"exhaustive maximum {report.max_rho!r} at n={n}, alpha={alpha} is below "
                f"the index {construction_rho!r} of the minor-free {family} construction")
    return report


def merge_reports(parts: list[SearchReport], tie_tol: float = TIE_TOL,
                  source: str = "generated") -> SearchReport:
    """Associative merge of shard reports for the same (n, alpha, family).

    Graph and minor-free counts are summed over all parts.  A part with no
    minor-free graph has no ties and so takes no part in the argmax; if no
    part has one, ValueError is raised, naming the stream ``source`` the
    parts were read from."""
    if not parts:
        raise ValueError("nothing to merge")
    head = parts[0]
    for p in parts[1:]:
        if (p.n, p.alpha, p.family) != (head.n, head.alpha, head.family):
            raise ValueError("cannot merge reports for different (n, alpha, family)")
    candidates = [e for p in parts for e in p.ties]
    total = sum(p.total_graphs for p in parts)
    if not candidates:
        raise ValueError(f"stream {source!r} of order {head.n} holds no "
                         f"{head.family}-minor-free graph ({total} graphs read "
                         f"in {len(parts)} shards)")
    minor_free = sum(p.minor_free_count for p in parts)
    wall = sum(p.wall_time for p in parts)
    merged = _finalize_report(head.n, head.alpha, Family.parse(head.family),
                              total, candidates, tie_tol, wall)
    # shard tie lists only retain near-maximal entries; restore true counts
    return replace(merged, minor_free_count=minor_free)


@dataclass(frozen=True)
class DensityProfile:
    n: int
    family: str
    total_graphs: int
    minor_free_count: int
    max_edges: int
    max_edges_per_vertex: float


def edge_density_profile(n: int, family: Family,
                         stream: GraphStream | None = None,
                         node_cap: int = DEFAULT_NODE_CAP) -> DensityProfile:
    """Empirical support for the linear edge bound: the densest member of
    the minor-free family at order n."""
    if stream is None:
        stream = enumerate_graphs(n)
    best = 0
    total = 0
    free = 0
    for g in stream:
        total += 1
        if not is_minor_free(g, family, node_cap):
            continue
        free += 1
        best = max(best, g.edge_count())
    return DensityProfile(n=n, family=str(family), total_graphs=total,
                          minor_free_count=free, max_edges=best,
                          max_edges_per_vertex=best / n)
