"""The lemma suites of `verify-lemmas`, one finite check each:

- join_grid, two suites on one (s, n, alpha) grid: the index of K_s
  joined with n-s independent vertices is the largest root of its 2x2
  quotient (spectral.join_quotient_index), and it meets Nikiforov's
  basic and strong lower bounds.  Each matrix is solved once and its
  index feeds both tallies.  The grid runs in two steps: grid_indices
  solves the cells of some orders, and grid_tallies walks the merged
  cells in s, n, alpha order, so the orders can be solved in several
  processes and the first failure named is still the first in the walk.
- signless: q = 2*rho_{1/2} = 2 + lambda_max(A(L(G))) for every graph,
  as Q = D + A = R R^T and R^T R = 2I + A(L(G)) for the incidence matrix R.
- intersection: |N_1 & ... & N_k| >= sum |N_i| - (k-1)|N_1 | ... | N_k|.
- structure: the F_1- and Q_1-minor-free structure around each star
  K_{1,|B|} (minors.check_fs_structure and check_qt_structure), over
  each family's generated minor-free levels.
- corollary: at alpha = 1/2 the F_1- and Q_1-minor-free argmax is the
  construction, and unique.

The suites solve once per order: join_grid and signless each make one
batched, certified spectral.alpha_indices call per order, not one solve
per matrix.  Layer functions are called through their modules
(spectral.alpha_indices, not a name imported from spectral):
perfbench/tracer.py rebinds a traced function only in the modules it
lists, so a name bound here at import would escape it.  Tests plant
failures the same way.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import enumeration, graph6, graphs, minors, spectral
from .enumeration import Family
from .graphs import Graph

GRID_ALPHAS = tuple(k / 10.0 for k in range(1, 10))


@dataclass
class Tally:
    """Checks made, checks failed, the first failure and a summary note."""

    checks: int = 0
    violations: int = 0
    first: str | None = None
    note: str = ""

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        """Count one check; describe() names it if it is the first to fail."""
        self.checks += 1
        if not ok:
            self.violations += 1
            if self.first is None:
                self.first = describe()


def grid_indices(orders: Iterable[int]) -> dict[tuple[int, int, float], float]:
    """The solve step of join_grid: {(s, n, alpha): rho} for each order n
    of orders, s = 1..3 below n and alpha in GRID_ALPHAS.  One
    alpha_indices call solves every (s, alpha) cell of an order, so the
    orders can be split among processes and their cells merged."""
    rhos = {}
    for n in orders:
        hosts = {s: graphs.extremal_fs(n, s) for s in (1, 2, 3) if s < n}
        cells = [(s, a) for s in hosts for a in GRID_ALPHAS]
        found = spectral.alpha_indices([hosts[s] for s, _ in cells], [a for _, a in cells])
        rhos.update(((s, n, a), r.rho) for (s, a), r in zip(cells, found, strict=True))
    return rhos


def grid_tallies(grid_n: int, rhos: dict[tuple[int, int, float], float]) -> tuple[Tally, Tally]:
    """The closed-form and Nikiforov-bound tallies of the grid s = 1..3,
    n = s+1..grid_n, alpha in GRID_ALPHAS, read from rhos (grid_indices
    of the orders 2..grid_n).  The walk is in s, n, alpha order, whatever
    the order the cells were solved in, so the first failure named is the
    first in it."""
    closed, bounds = Tally(), Tally()
    worst = 0.0
    for s in (1, 2, 3):
        for n in range(s + 1, grid_n + 1):
            for a in GRID_ALPHAS:
                rho = rhos[s, n, a]
                want = spectral.join_quotient_index(n, s, a)
                diff = abs(rho - want)
                worst = max(worst, diff)
                closed.check(diff <= 1e-9,
                             lambda: f"s={s} n={n} alpha={a}: |{rho}-{want}|={diff:.2e}")
                b = spectral.nikiforov_lower_bound(n, s, a)
                fail = rho < b.basic - 1e-9 or (b.strong is not None and rho < b.strong - 1e-9)
                bounds.check(not fail, lambda: f"k={s} n={n} alpha={a}: rho={rho} "
                                               f"basic={b.basic} strong={b.strong}")
    closed.note = f"worst |diff|={worst:.2e}"
    return closed, bounds


def join_grid(grid_n: int) -> tuple[Tally, Tally]:
    """The grid's two tallies, solved and walked in one process."""
    return grid_tallies(grid_n, grid_indices(range(2, grid_n + 1)))


def _line_graph_index(g: Graph) -> float:
    """Largest adjacency eigenvalue of the line graph L(G); G needs an edge."""
    ends = [1 << u | 1 << v for u, v in g.edges()]
    a = np.zeros((len(ends), len(ends)))
    for i, e in enumerate(ends):
        for j in range(i):
            if e & ends[j]:  # the two edges share an endpoint
                a[i, j] = a[j, i] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def signless(max_n: int) -> Tally:
    """q = 2 rho_{1/2} against 2 + lambda_max(A(L(G))), one alpha_indices
    call per order."""
    tally = Tally()
    worst = 0.0
    for n in range(1, max_n + 1):
        level = list(enumeration.enumerate_graphs(n))
        found = spectral.alpha_indices(level, [0.5] * len(level))
        for g, r in zip(level, found, strict=True):
            q = 2.0 * r.rho
            want = 2.0 + _line_graph_index(g) if g.edge_count() else 0.0
            diff = abs(q - want)
            worst = max(worst, diff)
            tally.check(diff <= 2e-10, lambda: f"{graph6.write_graph6(g)}: diff={diff:.2e}")
    tally.note = f"worst |diff|={worst:.2e}"
    return tally


def intersection(trials: int, seed: int) -> Tally:
    tally = Tally()
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(1, 6)
        universe = rng.randint(1, 20)
        sets = [frozenset(v for v in range(universe) if rng.random() < rng.random())
                or frozenset({rng.randrange(universe)}) for _ in range(k)]
        lhs, rhs = graphs.intersection_lower_bound(sets)
        tally.check(lhs >= rhs, lambda: f"sets={sets}: lhs={lhs} rhs={rhs}")
    return tally


def structure(max_n: int) -> Tally:
    # B = N(v), the largest B at hub v; violations are monotone in B, so
    # this covers every complete bipartite configuration at v
    tally = Tally()
    kinds = ((Family("fs", 1), 2, minors.check_fs_structure),
             (Family("qt", 1), 3, minors.check_qt_structure))
    for fam, min_b, checker in kinds:
        for n in range(2, max_n + 1):
            for g in enumeration.enumerate_graphs(n, family=fam):
                for v in range(n):
                    if g.degree(v) < min_b:
                        continue
                    rep = checker(g, 1, [v], g.neighbors(v))
                    tally.check(rep.ok, lambda: f"{fam} {graph6.write_graph6(g)} "
                                                f"hub={v}: {rep.violations[0]}")
    return tally


def corollary(max_n: int) -> Tally:
    tally = Tally(note="signless Laplacian extremality (alpha = 1/2)")
    for fam, start in ((Family("fs", 1), 4), (Family("qt", 1), 5)):
        for n in range(start, max_n + 1):
            r = enumeration.search_extremal(n, 0.5, fam)
            tally.check(r.matches_construction and r.unique,
                        lambda: f"{fam} n={n}: argmax {r.argmax_graph6} ties={len(r.ties)}")
    return tally
