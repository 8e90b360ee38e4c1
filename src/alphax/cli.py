"""Command-line entry point: constructions, spectral reports, minor
checks, and the theorem and lemma verification pipelines; the lemma
suites are in alphax.lemmas.  verify-theorem splits each order into
--shards parts, the pool's work units: every k-th graph of a --graphs
file, or the children of every k-th graph of the level below.  The
merged reports do not depend on k.

Exit codes: 0 all requested checks passed, 1 a mathematical counterexample
or check failure was found, 2 usage or resource errors.  Reports are
byte-deterministic: fixed column order and 12-significant-digit floats;
wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import lemmas
from .enumeration import (
    MAX_GENERATED_ORDER,
    Family,
    GraphStream,
    SearchReport,
    edge_density_profile,
    enumerate_graphs,
    merge_reports,
    search_extremal_alphas,
    stream_from_graph6_file,
)
from .graph6 import Graph6ParseError, parse_graph6, write_graph6
from .graphs import (
    CapacityError,
    Graph,
    complement,
    extremal_fs,
    extremal_qt,
    friendship,
    join,
    make_complete,
    make_complete_bipartite,
    make_empty,
    make_path,
    matching_graph,
    quadrangle_book,
)
from .minors import SearchLimitError, has_minor, minor_closure_oracle
from .spectral import ConvergenceError, InvariantError, alpha_index, signless_laplacian_index

THEOREM_COLUMNS = ["graph6", "n", "alpha", "family", "rho", "residual",
                   "minor_free", "matches_construction", "unique", "ties"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _worker_count() -> int:
    env = os.environ.get("ALPHAX_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _parse_alphas(text: str) -> list[float]:
    alphas = [float(tok) for tok in text.split(",") if tok.strip()]
    if not alphas:
        raise ValueError("empty alpha list")
    return alphas


def _load_graphs(args) -> list[Graph]:
    graphs: list[Graph] = []
    for text in args.g6 or []:
        graphs.append(parse_graph6(text))
    if getattr(args, "graphs", None):
        graphs.extend(stream_from_graph6_file(args.graphs).graphs)
    if not graphs:
        raise ValueError("no input graphs; pass --g6 or --graphs")
    return graphs


def _out_stream(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


# -- construct ------------------------------------------------------------


def cmd_construct(args) -> int:
    fam = args.family
    need = lambda name, val: val if val is not None else _usage_error(f"--{name} required for {fam}")
    if fam == "complete":
        g = make_complete(need("n", args.n))
    elif fam == "empty":
        g = make_empty(need("n", args.n))
    elif fam == "path":
        g = make_path(need("n", args.n))
    elif fam == "complete-bipartite":
        g = make_complete_bipartite(need("m", args.m), need("n", args.n))
    elif fam == "friendship":
        g = friendship(need("s", args.s))
    elif fam == "quadrangle-book":
        g = quadrangle_book(need("t", args.t))
    elif fam == "matching":
        g = matching_graph(need("m", args.m))
    elif fam == "fs-extremal":
        g = extremal_fs(need("n", args.n), need("s", args.s))
    elif fam == "qt-extremal":
        g = extremal_qt(need("n", args.n), need("t", args.t))
    elif fam == "complement":
        g = complement(parse_graph6(need("g6", args.g6[0] if args.g6 else None)))
    elif fam == "join":
        if not args.g6 or len(args.g6) != 2:
            _usage_error("join needs exactly two --g6 inputs")
        g = join(parse_graph6(args.g6[0]), parse_graph6(args.g6[1]))
    else:  # pragma: no cover - argparse choices guard this
        _usage_error(f"unknown family {fam}")
    print(write_graph6(g))
    return 0


class _UsageError(Exception):
    pass


def _usage_error(message: str):
    raise _UsageError(message)


# -- alpha-index ----------------------------------------------------------


def cmd_alpha_index(args) -> int:
    graphs = _load_graphs(args)
    alphas = _parse_alphas(args.alpha)
    header = ["graph6", "n", "alpha", "rho", "residual"]
    if args.signless_laplacian:
        header.append("q")
    # every row is computed before the output is opened, so an error
    # leaves no truncated CSV behind
    rows = []
    for g in graphs:
        g6 = write_graph6(g)
        q = [_fmt(signless_laplacian_index(g, tol=args.tol))] if args.signless_laplacian else []
        for a in alphas:
            r = alpha_index(g, a, tol=args.tol)
            rows.append([g6, str(g.n), _fmt(a), _fmt(r.rho), _fmt(r.residual)] + q)
    out, close = _out_stream(args.out)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            out.close()
    return 0


# -- minor-check ----------------------------------------------------------


def _minor_pattern(args) -> tuple[str, Graph]:
    if args.minor_g6:
        return args.minor_g6, parse_graph6(args.minor_g6)
    if args.minor_family is None:
        _usage_error("pass --minor-g6 or --minor-family")
    family = _resolve_family(args.minor_family, args.s, args.t, "--minor-family")
    return str(family), family.pattern()


def cmd_minor_check(args) -> int:
    graphs = _load_graphs(args)
    label, pattern = _minor_pattern(args)
    certificates = {}
    disagreement = False
    out, close = _out_stream(args.out)
    try:
        writer = csv.writer(out, lineterminator="\n")
        header = ["graph6", "n", "minor", "contains", "nodes_explored"]
        if args.oracle:
            header.append("oracle_agrees")
        writer.writerow(header)
        for g in graphs:
            g6 = write_graph6(g)
            verdict = has_minor(g, pattern, node_cap=args.node_cap)
            row = [g6, str(g.n), label, str(verdict.contains).lower(),
                   str(verdict.nodes_explored)]
            if args.oracle:
                if g.n > 7:
                    _usage_error(f"--oracle needs n <= 7, got {g.n}")
                agrees = minor_closure_oracle(g, pattern) == verdict.contains
                row.append(str(agrees).lower())
                if not agrees:
                    disagreement = True
                    print(f"ORACLE DISAGREEMENT on {g6} vs {label}", file=sys.stderr)
            if verdict.model is not None:
                certificates[g6] = verdict.model.to_json()
            writer.writerow(row)
    finally:
        if close:
            out.close()
    if args.certificates:
        with open(args.certificates, "w") as fh:
            json.dump({"schema": 1, "minor": label, "certificates": certificates},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if disagreement else 0


# -- verify-theorem -------------------------------------------------------


def _theorem_stream(n: int, source: str | None, parts: int, index: int) -> GraphStream:
    if source is None:
        return enumerate_graphs(n, shard=(index, parts))
    stream = stream_from_graph6_file(source, shard=(index, parts))
    if stream.order != n:
        raise ValueError(f"graph file order {stream.order} does not match n={n}")
    return stream


def _theorem_unit(item) -> tuple[list[SearchReport], int]:
    """One work unit: part `index` of `parts` of the order-n stream,
    searched at every alpha.  A worker that did not inherit the levels
    below n from its parent process generates them."""
    n, index, parts, alphas, family_text, source = item
    stream = _theorem_stream(n, source, parts, index)
    return search_extremal_alphas(n, alphas, Family.parse(family_text), stream)


def _report_row(r: SearchReport) -> list[str]:
    return [
        r.argmax_graph6,
        str(r.n),
        _fmt(r.alpha),
        r.family,
        _fmt(r.max_rho),
        _fmt(r.argmax_residual),
        str(r.minor_free_count),
        str(r.matches_construction).lower(),
        str(r.unique).lower(),
        ";".join(t.graph6 for t in r.ties),
    ]


def _report_json(r: SearchReport) -> dict:
    return {
        "n": r.n,
        "alpha": float(_fmt(r.alpha)),
        "family": r.family,
        "graph6": r.argmax_graph6,
        "argmax_canonical": r.argmax_canonical.hex(),
        "rho": float(_fmt(r.max_rho)),
        "residual": float(_fmt(r.argmax_residual)),
        "total_graphs": r.total_graphs,
        "minor_free": r.minor_free_count,
        "matches_construction": r.matches_construction,
        "unique": r.unique,
        "ties": [{"graph6": t.graph6, "rho": float(_fmt(t.rho))} for t in r.ties],
    }


def _resolve_family(text: str, s: int | None, t: int | None,
                    option: str = "--family") -> Family:
    if "(" in text:
        return Family.parse(text)
    if text == "fs":
        if s is None:
            _usage_error(f"--s required with {option} fs")
        return Family("fs", s)
    if text == "qt":
        if t is None:
            _usage_error(f"--t required with {option} qt")
        return Family("qt", t)
    _usage_error(f"unknown family {text!r}")


def cmd_verify_theorem(args) -> int:
    start = time.perf_counter()
    family = _resolve_family(args.family, args.s, args.t)
    alphas = _parse_alphas(args.alpha)
    for a in alphas:
        if not 0.0 < a < 1.0:
            _usage_error(f"theorem verification needs 0 < alpha < 1, got {a}")
    if not 1 <= args.n_from <= args.n_to:
        _usage_error(f"need 1 <= --n-from <= --n-to, got {args.n_from} and {args.n_to}")
    if args.graphs is None and args.n_to > MAX_GENERATED_ORDER:
        raise CapacityError(f"generation is limited to n <= {MAX_GENERATED_ORDER}; "
                            f"pass --graphs for larger orders")
    ns = range(args.n_from, args.n_to + 1)
    workers = _worker_count()
    parts = workers if args.shards is None else args.shards
    if parts < 1:
        _usage_error(f"--shards must be >= 1, got {parts}")
    # largest order first: its units take longest
    items = [(n, index, parts, alphas, str(family), args.graphs)
             for n in reversed(ns) for index in range(parts)]

    if workers > 1 and len(items) > 1:
        if args.graphs is None and ns[-1] > 1:
            # the levels below the top one, for workers that inherit them
            enumerate_graphs(ns[-1] - 1)
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            results = list(pool.map(_theorem_unit, items))
    else:
        results = [_theorem_unit(item) for item in items]

    units = {item[:2]: unit_reports for item, (unit_reports, _) in zip(items, results)}
    searches = sum(count for _, count in results)
    reports: list[SearchReport] = [
        merge_reports([units[n, index][j] for index in range(parts)],
                      source=args.graphs or "generated")
        for n in ns for j in range(len(alphas))
    ]

    out, close = _out_stream(args.csv)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(THEOREM_COLUMNS)
        for r in reports:
            writer.writerow(_report_row(r))
    finally:
        if close:
            out.close()

    failures = []
    for r in reports:
        ok = r.matches_construction and r.unique
        if not ok and args.require_from is not None and r.n >= args.require_from:
            failures.append(r)
    if args.json:
        payload = {
            "schema": 1,
            "family": str(family),
            "reports": [_report_json(r) for r in reports],
            "counterexamples": [_report_json(r) for r in failures],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for r in failures:
        cons = family.construction(r.n)
        print(
            f"COUNTEREXAMPLE family={r.family} n={r.n} alpha={_fmt(r.alpha)}: "
            f"argmax {r.argmax_graph6} (rho={_fmt(r.max_rho)}) differs from "
            f"construction {write_graph6(cons)}",
            file=sys.stderr,
        )
    print(f"verify-theorem: {len(reports)} reports, {len(failures)} failures, "
          f"{searches} minor searches in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 1 if failures else 0


# -- verify-lemmas --------------------------------------------------------


def cmd_verify_lemmas(args) -> int:
    suites = [
        ("closed-form-quotient", lambda: lemmas.closed_form(args.grid_n)),
        ("nikiforov-bounds", lambda: lemmas.nikiforov(args.grid_n)),
        ("signless-identity", lambda: lemmas.signless(args.max_n)),
        ("intersection-bound", lambda: lemmas.intersection(args.trials, args.seed)),
        ("minor-free-structure", lambda: lemmas.structure(args.max_n)),
        ("extremal-at-half", lambda: lemmas.corollary(args.max_n)),
    ]
    total_bad = 0
    rows = []
    for name, fn in suites:
        t0 = time.perf_counter()
        tally = fn()
        dt = time.perf_counter() - t0
        total_bad += tally.violations
        status = "pass" if tally.violations == 0 else "FAIL"
        line = f"{name}: {status} ({tally.checks} checks, {tally.violations} violations)"
        if tally.note:
            line += f" [{tally.note}]"
        print(line)
        if tally.first:
            print(f"  first counterexample: {tally.first}")
        print(f"  {dt:.1f}s", file=sys.stderr)
        rows.append({"suite": name, "checks": tally.checks, "violations": tally.violations,
                     "first_counterexample": tally.first})
    for fam in (Family("fs", 1), Family("qt", 1)):
        profiles = [edge_density_profile(n, fam) for n in range(2, args.max_n + 1)]
        budget = ", ".join(f"n={p.n}:{p.max_edges}" for p in profiles)
        print(f"density {fam}: max edges {budget}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"schema": 1, "suites": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if total_bad else 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphax",
        description="Spectral extremal verification for graphs without "
                    "intersecting triangles or quadrangles as a minor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="print a constructed graph as graph6")
    p.add_argument("--family", required=True,
                   choices=["complete", "empty", "path", "complete-bipartite",
                            "friendship", "quadrangle-book", "matching",
                            "fs-extremal", "qt-extremal", "complement", "join"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--g6", action="append", help="input graph6 (complement/join)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("alpha-index", help="alpha-index report rows (CSV)")
    p.add_argument("--g6", action="append")
    p.add_argument("--graphs", help="graph6 file, one graph per line")
    p.add_argument("--alpha", default="0.5", help="comma-separated alpha list")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--signless-laplacian", action="store_true",
                   help="also emit q = 2*rho_{1/2}")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_alpha_index)

    p = sub.add_parser("minor-check", help="minor containment verdicts")
    p.add_argument("--g6", action="append")
    p.add_argument("--graphs")
    p.add_argument("--minor-family", choices=["fs", "qt"])
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--minor-g6", help="explicit minor pattern as graph6")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the closure oracle (n <= 7)")
    p.add_argument("--certificates", help="JSON output path for minor models")
    p.add_argument("--node-cap", type=int, default=100_000_000)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_minor_check)

    p = sub.add_parser("verify-theorem", help="exhaustive extremal search per (n, alpha)")
    p.add_argument("--family", required=True, help="fs / qt (with --s/--t) or fs(k) / qt(k)")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--alpha", default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--graphs", help="graph6 file stream instead of generation")
    p.add_argument("--shards", type=int,
                   help="split each order's graphs into this many parts, the pool's "
                        "work units (default: one per worker, see ALPHAX_THREADS); "
                        "the reports do not depend on it")
    p.add_argument("--require-from", type=int,
                   help="fail (exit 1) on mismatch at any n >= this value")
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--json", help="JSON report path")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("verify-lemmas", help="run the lemma/property suites")
    p.add_argument("--max-n", type=int, default=6,
                   help="enumeration ceiling for exhaustive suites")
    p.add_argument("--grid-n", type=int, default=30,
                   help="n ceiling for the closed-form/bound grids")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="JSON summary path")
    p.set_defaults(func=cmd_verify_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, Graph6ParseError, CapacityError, SearchLimitError,
            ConvergenceError, InvariantError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
