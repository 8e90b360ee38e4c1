"""Command-line entry point: constructions, spectral reports, minor
checks, and the theorem and lemma verification pipelines; the lemma
suites are in alphax.lemmas.  verify-theorem --family and minor-check
--minor-family name a forbidden family as fs(k), k triangles sharing a
vertex, or qt(k), k quadrangles sharing a vertex: --family 'fs(2)'.

verify-theorem splits the graphs of its top order --n-to into k parts,
the work units, by one rule: part i of k takes items i, i + k, i + 2k,
...  The items are the graphs of a --graphs file, which the main process
reads whole and checks first, or the parents of the top order, its
family's level below --n-to, which the main process builds once with
every level under it.  k is --shards, but never more than the items, nor
less than 1.  Each unit is a plain call of search_part on its own graphs
or parents; a generated unit builds only the minor-free children of its
parents, nothing below them.
Of w workers (ALPHAX_THREADS, by default the CPUs this process may run
on), q = min(w, k) processes run the units, one where os.fork is
missing: once every input is read, the main process, process 0, forks
processes 1 to q - 1, and process j runs units j, j + q, j + 2q, ... on
the inputs it inherited; a child pickles its results back through a
pipe.  The orders --n-from to --n-to - 1 are no units: the main process
then reads each whole from the levels it built under the top order.  A
unit only builds or reads its graphs and keeps the minor-free ones; the
main process merges the parts of each order and, per alpha, screens and
certifies its tie band once, so neither the reports nor the certified
solves on the stderr line depend on k or w.  Every graph6 in a theorem
report is a canonical form (canonical.canonical_form), so equal strings
mean isomorphic graphs.

verify-lemmas runs its suites as units under the same share rule.  The
grid's orders 2..--grid-n are its items: part i of k solves orders i,
i + k, ... (lemmas.grid_indices), k being w, but never more than the
orders, nor less than 1.  Then come one unit each for signless and
intersection, and one for structure, corollary and the density lines,
which all read the fs(1) and qt(1) levels that a process builds once.
The main process merges the grid's cells and walks them in s, n, alpha
order (lemmas.grid_tallies), then prints every suite in a fixed order,
so the output does not depend on w; each suite's time on stderr is
measured in the process that ran it, the grid's as its parts' sum plus
the walk.

Exit codes: 0 all requested checks passed, 1 a mathematical counterexample
or check failure was found, 2 usage or resource errors, among them a
worker process that died before it sent its results, and a stdout that
could not be written.  Reports are byte-deterministic: fixed column order
and 12-significant-digit floats; wall-clock timings go to stderr only.
Run as python -m alphax.cli or as alphax (cli.run), the process flushes
stdout and stderr once main() has returned and leaves through os._exit,
as its forked workers do: interpreter shutdown would free every object
one by one, and after a fork each freed page takes a copy-on-write fault.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import json
import os
import pickle
import sys
import time

from . import lemmas
from .enumeration import (
    MAX_GENERATED_ORDER,
    Family,
    SearchReport,
    enumerate_graphs,
    merge_reports,
    parent_level,
    search_part,
    stream_from_graph6_file,
)
from .graph6 import Graph6ParseError, iter_graph6_file, parse_graph6, write_graph6
from .graphs import (
    MAX_VERTICES,
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
from .minors import DEFAULT_NODE_CAP, SearchLimitError, has_minor, minor_closure_oracle
from .spectral import ConvergenceError, InvariantError, alpha_indices

THEOREM_COLUMNS = ["graph6", "n", "alpha", "family", "rho", "residual",
                   "minor_free", "matches_construction", "unique", "ties"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _worker_count() -> int:
    env = os.environ.get("ALPHAX_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise _UsageError(f"ALPHAX_THREADS must be an integer, got {env!r}") from None
        if count < 1:
            raise _UsageError(f"ALPHAX_THREADS must be >= 1, got {env!r}")
        return count
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--alpha must be a comma-separated list of numbers, "
                          f"got {text!r}") from None
    if not alphas:
        raise _UsageError(f"--alpha must list at least one number, got {text!r}")
    return alphas


def _load_graphs(args) -> list[Graph]:
    graphs: list[Graph] = []
    for text in args.g6 or []:
        graphs.append(parse_graph6(text))
    if args.graphs:
        graphs.extend(iter_graph6_file(args.graphs))
    if not graphs:
        raise ValueError("no input graphs; pass --g6 or --graphs")
    return graphs


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    """Write a CSV report to path, or to stdout when path is None or "-".
    The rows are all computed before the file is opened, so an error
    leaves no truncated CSV behind."""
    to_stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- construct ------------------------------------------------------------

# construct --family name -> (builder, the options it takes, in call order);
# complement and join read --g6 instead
CONSTRUCTIONS = {
    "complete": (make_complete, ("n",)),
    "empty": (make_empty, ("n",)),
    "path": (make_path, ("n",)),
    "complete-bipartite": (make_complete_bipartite, ("m", "n")),
    "friendship": (friendship, ("s",)),
    "quadrangle-book": (quadrangle_book, ("t",)),
    "matching": (matching_graph, ("m",)),
    "fs-extremal": (extremal_fs, ("n", "s")),
    "qt-extremal": (extremal_qt, ("n", "t")),
}


def cmd_construct(args) -> int:
    fam = args.family
    if fam == "complement":
        if not args.g6:
            raise _UsageError("--g6 required for complement")
        g = complement(parse_graph6(args.g6[0]))
    elif fam == "join":
        if not args.g6 or len(args.g6) != 2:
            raise _UsageError("join needs exactly two --g6 inputs")
        g = join(parse_graph6(args.g6[0]), parse_graph6(args.g6[1]))
    else:
        build, names = CONSTRUCTIONS[fam]
        for name in names:
            if getattr(args, name) is None:
                raise _UsageError(f"--{name} required for {fam}")
        g = build(*(getattr(args, name) for name in names))
    print(write_graph6(g))
    return 0


class _UsageError(Exception):
    pass


# -- alpha-index ----------------------------------------------------------


def cmd_alpha_index(args) -> int:
    graphs = _load_graphs(args)
    alphas = _parse_alphas(args.alpha)
    header = ["graph6", "n", "alpha", "rho", "residual"]
    if args.signless_laplacian:
        header.append("q")
    rows = []
    half = [0.5] if args.signless_laplacian else []  # for q = 2 rho_{1/2}, solved first
    for g in graphs:
        g6 = write_graph6(g)
        results = alpha_indices([g] * len(half + alphas), half + alphas, tol=args.tol)
        q = [_fmt(2.0 * r.rho) for r in results[:len(half)]]
        for a, r in zip(alphas, results[len(half):]):
            rows.append([g6, str(g.n), _fmt(a), _fmt(r.rho), _fmt(r.residual)] + q)
    _write_csv(args.out, header, rows)
    return 0


# -- minor-check ----------------------------------------------------------


def _minor_pattern(args) -> tuple[str, Graph]:
    if args.minor_g6:
        return args.minor_g6, parse_graph6(args.minor_g6)
    if args.minor_family is None:
        raise _UsageError("pass --minor-g6 or --minor-family")
    family = Family.parse(args.minor_family)
    return str(family), family.pattern()


def cmd_minor_check(args) -> int:
    if args.node_cap < 1:
        raise _UsageError(f"--node-cap must be >= 1, got {args.node_cap}")
    graphs = _load_graphs(args)
    label, pattern = _minor_pattern(args)
    header = ["graph6", "n", "minor", "contains", "nodes_explored"]
    if args.oracle:
        header.append("oracle_agrees")
        for g in graphs:
            if g.n > 7:
                raise _UsageError(f"--oracle needs n <= 7, got {g.n}")
    rows = []
    certificates = {}
    disagreement = False
    for g in graphs:
        g6 = write_graph6(g)
        verdict = has_minor(g, pattern, node_cap=args.node_cap)
        row = [g6, str(g.n), label, str(verdict.contains).lower(),
               str(verdict.nodes_explored)]
        if args.oracle:
            agrees = minor_closure_oracle(g, pattern) == verdict.contains
            row.append(str(agrees).lower())
            if not agrees:
                disagreement = True
                print(f"ORACLE DISAGREEMENT on {g6} vs {label}", file=sys.stderr)
        if verdict.model is not None:
            certificates[g6] = verdict.model.to_json()
        rows.append(row)
    _write_csv(args.out, header, rows)
    if args.certificates:
        _write_json(args.certificates, {"schema": 1, "minor": label, "certificates": certificates})
    return 1 if disagreement else 0


# -- verify-theorem -------------------------------------------------------


def _run_child(units: list, pipe: int, reads: list[int]) -> None:
    """The body of a forked worker; it never returns.  It calls the units
    in order and pickles (True, their results), or (False, the error one
    raised), into the write end pipe.  It leaves through os._exit, so no
    atexit handler runs and no stdout buffer it shares with the main
    process is flushed twice."""
    code = 1
    try:
        for fd in reads:  # the read ends this process inherited
            os.close(fd)
        try:
            payload = pickle.dumps((True, [unit() for unit in units]))
        except BaseException as exc:  # the main process raises it again
            payload = _pickled_error(exc)
        with open(pipe, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    """(False, exc) pickled, or, if exc cannot make the round trip
    through pickle, a ChildProcessError that carries its message."""
    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)
        return payload
    except Exception:  # any failure to carry exc: send its message instead
        return pickle.dumps((False, ChildProcessError(
            f"a worker process raised {type(exc).__name__}: {exc}")))


def _child_results(pid: int, status: int, data: bytes) -> list:
    """The results that the reaped child pid sent as data, or its error."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        why = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"worker process {pid} {why} before it sent its results")
    ok, value = pickle.loads(data)  # bytes that this program's own child wrote
    if not ok:
        raise value
    return value


def _run_units(units: list, workers: int) -> list:
    """The results of units, zero-argument calls, in order: the one share
    rule of verify-theorem's parts and verify-lemmas' suites.

    q = min(workers, len(units)) processes run them, one where os.fork
    is missing.  This process is process 0: it forks processes 1 to
    q - 1 before it calls any unit, and process j calls units j, j + q,
    j + 2q, ...  A child inherited its units with their inputs, so
    nothing is pickled on the way in, and sends its results back through
    a pipe; result i is the (i // q)-th of process i % q.  This process
    calls its own units, then reads each pipe to EOF and reaps each
    child.  A child that raised has its error raised here; one that died,
    or exited before it sent its results, is a ChildProcessError.  If
    this process raises, every child still running is killed and
    reaped."""
    q = min(workers, len(units)) if hasattr(os, "fork") else 1
    if q <= 1:
        return [unit() for unit in units]
    import signal  # only a pooled run pays the import
    pids: list[int] = []  # the children not yet reaped, in order
    reads: list[int] = []  # the read end of each child's pipe
    try:
        for j in range(1, q):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(units[j::q], w, reads)
            finally:
                os.close(w)
            pids.append(pid)
        shares = [[unit() for unit in units[::q]]]
        for r in reads:
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            shares.append(_child_results(pids.pop(0), status, data))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in reads:
            os.close(r)
    return [shares[i % q][i // q] for i in range(len(units))]


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
        "rho": float(_fmt(r.max_rho)),
        "residual": float(_fmt(r.argmax_residual)),
        "total_graphs": r.total_graphs,
        "minor_free": r.minor_free_count,
        "matches_construction": r.matches_construction,
        "unique": r.unique,
        "ties": [{"graph6": t.graph6, "rho": float(_fmt(t.rho))} for t in r.ties],
    }


def cmd_verify_theorem(args) -> int:
    start = time.perf_counter()
    family = Family.parse(args.family)
    alphas = _parse_alphas(args.alpha)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise _UsageError(f"theorem verification needs 0 < alpha < 1, got {a}")
    if not 1 <= args.n_from <= args.n_to:
        raise _UsageError(f"need 1 <= --n-from <= --n-to, got {args.n_from} and {args.n_to}")
    if args.graphs is not None and args.n_from != args.n_to:
        raise _UsageError(f"a --graphs file holds one order; need --n-from = --n-to, "
                          f"got {args.n_from} and {args.n_to}")
    workers = _worker_count()
    shards = workers if args.shards is None else args.shards
    if shards < 1:
        raise _UsageError(f"--shards must be >= 1, got {shards}")
    # part i of the top order's graphs or parents takes items i::parts, so
    # more parts than items would be empty; every input is read here,
    # before any worker is forked
    if args.graphs is None:
        key, items = "parents", parent_level(args.n_to, family)
    else:
        key, items = "graphs", stream_from_graph6_file(args.graphs, args.n_to)
    parts = max(1, min(shards, len(items)))
    top = _run_units([functools.partial(search_part, args.n_to, family, **{key: items[i::parts]})
                      for i in range(parts)], workers)
    # the lower orders are cache reads of the levels parent_level built
    levels = [[search_part(n, family)] for n in range(args.n_from, args.n_to)] + [top]
    reports = [r for level in levels
               for r in merge_reports(level, alphas, source=args.graphs)]
    _write_csv(args.csv, THEOREM_COLUMNS, [_report_row(r) for r in reports])

    failures = []
    for r in reports:
        ok = r.matches_construction and r.unique
        if not ok and args.require_from is not None and r.n >= args.require_from:
            failures.append(r)
    if args.json:
        _write_json(args.json, {
            "schema": 1,
            "family": str(family),
            "reports": [_report_json(r) for r in reports],
            "counterexamples": [_report_json(r) for r in failures],
        })
    for r in failures:
        print(
            f"COUNTEREXAMPLE family={r.family} n={r.n} alpha={_fmt(r.alpha)}: "
            f"argmax {r.argmax_graph6} (rho={_fmt(r.max_rho)}) differs from "
            f"construction {r.construction_graph6 or 'none at this order'}",
            file=sys.stderr,
        )
    print(f"verify-theorem: {len(reports)} reports, {len(failures)} failures, "
          f"{sum(p.searched for level in levels for p in level)} minor searches, "
          f"{sum(r.certified for r in reports)} certified solves "
          f"in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 1 if failures else 0


# -- verify-lemmas --------------------------------------------------------


def _timed(fn, *args) -> tuple:
    """(fn(*args), the seconds it took), timed in the process that ran it."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _level_unit(max_n: int) -> tuple:
    """The work that reads the fs(1) and qt(1) levels to order max_n, as
    one unit, since a process builds each level once: structure and
    corollary, each timed, and the density lines, which give the edge
    count of the densest minor-free graph of each order 2..max_n."""
    suites = _timed(lemmas.structure, max_n), _timed(lemmas.corollary, max_n)
    density = []
    if max_n >= 2:  # the profile starts at n = 2
        for fam in (Family("fs", 1), Family("qt", 1)):
            budget = ", ".join(f"n={n}:{max(g.edge_count() for g in enumerate_graphs(n, fam))}"
                               for n in range(2, max_n + 1))
            density.append(f"density {fam}: max edges {budget}")
    return (*suites, density)


def cmd_verify_lemmas(args) -> int:
    if not 1 <= args.max_n <= MAX_GENERATED_ORDER:
        raise _UsageError(f"need 1 <= --max-n <= {MAX_GENERATED_ORDER}, got {args.max_n}")
    for option, value in (("--grid-n", args.grid_n), ("--trials", args.trials)):
        if value < 0:
            raise _UsageError(f"{option} must be >= 0, got {value}")
    if args.grid_n > MAX_VERTICES:
        raise _UsageError(f"--grid-n must be <= {MAX_VERTICES}, got {args.grid_n}")
    workers = _worker_count()
    # the grid's orders split as verify-theorem's items do, part i of k
    # taking orders[i::k]; then signless, intersection and the level unit
    orders = range(2, args.grid_n + 1)
    parts = max(1, min(workers, len(orders)))
    units = [functools.partial(_timed, lemmas.grid_indices, orders[i::parts])
             for i in range(parts)]
    units += [functools.partial(_timed, lemmas.signless, args.max_n),
              functools.partial(_timed, lemmas.intersection, args.trials, args.seed),
              functools.partial(_level_unit, args.max_n)]
    *grid, signless, intersection, (structure, corollary, density) = _run_units(units, workers)
    t0 = time.perf_counter()
    rhos = {cell: rho for part, _ in grid for cell, rho in part.items()}
    join = lemmas.grid_tallies(args.grid_n, rhos)
    # the grid's time: its parts' solves and the walk
    join_s = sum(dt for _, dt in grid) + time.perf_counter() - t0
    # each entry: the suite names, their tallies and the seconds they took
    suites = [(("closed-form-quotient", "nikiforov-bounds"), join, join_s)]
    suites += [((name,), (tally,), dt) for name, (tally, dt) in (
        ("signless-identity", signless), ("intersection-bound", intersection),
        ("minor-free-structure", structure), ("extremal-at-half", corollary))]
    total_bad = 0
    rows = []
    for names, tallies, dt in suites:
        for name, tally in zip(names, tallies, strict=True):
            total_bad += tally.violations
            status = "FAIL" if tally.violations else "pass" if tally.checks else "skip"
            line = f"{name}: {status} ({tally.checks} checks, {tally.violations} violations)"
            if tally.note:
                line += f" [{tally.note}]"
            print(line)
            if tally.first:
                print(f"  first counterexample: {tally.first}")
            rows.append({"suite": name, "checks": tally.checks, "violations": tally.violations,
                         "first_counterexample": tally.first})
        print(f"  {dt:.1f}s", file=sys.stderr)
    for line in density:
        print(line)
    if args.json:
        _write_json(args.json, {"schema": 1, "suites": rows})
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
    p.add_argument("--family", required=True, choices=[*CONSTRUCTIONS, "complement", "join"])
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
    p.add_argument("--minor-family", help="forbidden family as fs(k) or qt(k)")
    p.add_argument("--minor-g6", help="explicit minor pattern as graph6")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the closure oracle (n <= 7)")
    p.add_argument("--certificates", help="JSON output path for minor models")
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_minor_check)

    p = sub.add_parser("verify-theorem", help="exhaustive extremal search per (n, alpha)")
    p.add_argument("--family", required=True, help="forbidden family as fs(k) or qt(k)")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--alpha", default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--graphs", help="graph6 file stream instead of generation")
    p.add_argument("--shards", type=int,
                   help="split the graphs of a --graphs file, or the parents of the "
                        "top generated order, into this many parts, the work units, "
                        "but never more parts than items: part i takes every k-th "
                        "item from the i-th on (default: one per worker, see "
                        "ALPHAX_THREADS); the reports do not depend on it")
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


def _exit(code: int) -> None:
    """Flush stdout and stderr and end the process with code, through
    os._exit: interpreter shutdown would free every object one by one,
    and after a fork each page it frees takes a copy-on-write fault.  A
    flush that fails, such as on a pipe closed by its reader, makes the
    code 2; its error line is printed unless main() has printed one, as
    it has whenever it returns 2, so a run prints at most one."""
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code != 2:
                code = 2
                print(f"error: {exc}", file=sys.stderr)
        sys.stderr.flush()
    except OSError:  # stderr cannot be written either
        code = 2
    os._exit(code)


def run() -> None:
    """python -m alphax.cli and the alphax command: main(), then _exit.
    gc.freeze() moves the objects of the imports to the permanent
    generation, which no collection traverses; tests call main() alone."""
    gc.freeze()
    _exit(main())


if __name__ == "__main__":
    run()
