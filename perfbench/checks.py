"""Checks of alphax reports against the independent computations in
reference.py.  Each function returns the list of problems it found; an
empty list means the report passed."""

from __future__ import annotations

import re

import networkx as nx

import reference as ref


def theorem_gen_problems(r: dict, n: int, alpha: float, s: int) -> list[str]:
    """One verify-theorem report for fs(s) over all graphs of order n."""
    out = []
    if (r["n"], r["family"]) != (n, f"fs({s})") or abs(r["alpha"] - alpha) > 1e-12:
        return [f"report is for {r['family']} n={r['n']} alpha={r['alpha']}"]
    if r["total_graphs"] != ref.A000088[n]:
        out.append(f"total_graphs {r['total_graphs']} != A000088({n}) = {ref.A000088[n]}")
    ties = r["ties"]
    if not ties:
        return out + ["no ties"]
    rho = r["rho"]
    for t in ties:
        want = ref.alpha_index(*ref.decode_graph6(t["graph6"]), alpha)
        if abs(t["rho"] - want) > ref.RHO_TOL:
            out.append(f"tie {t['graph6']}: rho {t['rho']} != eigvalsh {want}")
        if not rho - ref.TIE_TOL - ref.PRINT_SLACK <= t["rho"] <= rho + ref.PRINT_SLACK:
            out.append(f"tie {t['graph6']}: rho {t['rho']} outside the tie band of {rho}")
    if r["graph6"] not in [t["graph6"] for t in ties]:
        out.append(f"argmax {r['graph6']} is not among the ties")
    argmax = ref.decode_graph6(r["graph6"])
    if abs(rho - ref.alpha_index(*argmax, alpha)) > ref.RHO_TOL:
        out.append(f"rho {rho} is not the argmax's eigvalsh")
    bound = ref.join_index(n, s, alpha)
    if rho < bound - ref.RHO_TOL:
        out.append(f"rho {rho} below the construction's index {bound}")
    iso = nx.is_isomorphic(ref.as_nx(*argmax), ref.join_graph(n, s))
    if r["matches_construction"] != iso:
        out.append(f"matches_construction={r['matches_construction']}, isomorphic={iso}")
    if r["unique"] != (len(ties) == 1):
        out.append(f"unique={r['unique']} with {len(ties)} ties")
    return out


def theorem_file_problems(r: dict, family: str, n: int, alpha: float, hosts) -> list[str]:
    """One verify-theorem report over a graph6 file of hosts (edge lists
    on n vertices), for a family with a structural oracle."""
    oracle = ref.ORACLES[family]
    if (r["n"], r["family"]) != (n, family) or abs(r["alpha"] - alpha) > 1e-12:
        return [f"report is for {r['family']} n={r['n']} alpha={r['alpha']}"]
    out = []
    if r["total_graphs"] != len(hosts):
        out.append(f"total_graphs {r['total_graphs']} != {len(hosts)} hosts")
    free = [edges for edges in hosts if oracle(n, edges)]
    if r["minor_free"] != len(free):
        out.append(f"minor_free {r['minor_free']} != oracle count {len(free)}")
    if free:
        best = max(ref.alpha_index(n, edges, alpha) for edges in free)
        if r["rho"] is None or abs(r["rho"] - best) > ref.RHO_TOL:
            out.append(f"rho {r['rho']} != largest eigvalsh {best} over oracle-free hosts")
    if r["graph6"] is None or not oracle(*ref.decode_graph6(r["graph6"])):
        out.append(f"argmax {r['graph6']} fails the {family} oracle")
    return out


def expected_lemma_checks(grid_n: int, max_n: int, trials: int) -> dict[str, int]:
    """Check count of every verify-lemmas suite, from its arguments, the
    published graph counts, and (for the structure suite, n <= 7) the
    graph atlas filtered by the structural oracles."""
    grid = 9 * sum(grid_n - s for s in (1, 2, 3))
    return {
        "closed-form-quotient": grid,
        "nikiforov-bounds": grid,
        "signless-identity": sum(ref.A000088[n] for n in range(1, max_n + 1)),
        "intersection-bound": trials,
        "minor-free-structure": structure_checks(max_n),
        "extremal-at-half": (max_n - 3) + (max_n - 4),
    }


def structure_checks(max_n: int) -> int:
    """Hub count of the minor-free-structure suite: every vertex of degree
    >= 2 (fs(1)) or >= 3 (qt(1)) in every family member of order 2..max_n."""
    if max_n > 7:
        raise ValueError("the graph atlas stops at 7 vertices")
    total = 0
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if not 2 <= n <= max_n:
            continue
        edges = list(g.edges())
        for family, min_b in (("fs(1)", 2), ("qt(1)", 3)):
            hubs = sum(1 for _, d in g.degree() if d >= min_b)
            if hubs and ref.ORACLES[family](n, edges):
                total += hubs
    return total


DENSITY = re.compile(r"^density (\S+): max edges (.*)$")


def lemma_problems(suites: list[dict], stdout: str, expected: dict[str, int],
                   max_n: int) -> dict[str, list[str]]:
    """Problems per suite name; the density lines are checked under the
    key 'density'."""
    out: dict[str, list[str]] = {}
    seen = {row["suite"]: row for row in suites}
    for name, checks in expected.items():
        row = seen.get(name)
        if row is None:
            out[name] = ["suite missing from the report"]
            continue
        problems = []
        if row["violations"] != 0:
            problems.append(f"{row['violations']} violations: {row['first_counterexample']}")
        if row["checks"] != checks:
            problems.append(f"{row['checks']} checks, expected {checks}")
        if f"{name}: pass ({checks} checks, 0 violations)" not in stdout:
            problems.append("no pass line on stdout")
        out[name] = problems
    density = {}
    for line in stdout.splitlines():
        m = DENSITY.match(line)
        if m:
            density[m.group(1)] = m.group(2)
    problems = []
    for family in ("fs(1)", "qt(1)"):
        want = ", ".join(f"n={n}:{ref.extremal_edges(family, n)}" for n in range(2, max_n + 1))
        if density.get(family) != want:
            problems.append(f"density {family}: {density.get(family)!r}, expected {want!r}")
    out["density"] = problems
    return out
