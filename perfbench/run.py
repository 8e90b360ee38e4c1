"""Benchmark of the alphax verifier, run from the root of a source checkout.

    python3 perfbench/run.py --workload theorem-gen --seed 1 --seconds 30 --trace 0

Each round runs the workload's alphax CLI invocations one after another,
each in a fresh interpreter with PYTHONPATH=src, and checks every report
against reference.py.  Rounds repeat while another one fits in --seconds
(at least one runs).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (medians over rounds) with the
CLI's worker pool at min(2, cores).  --trace 1 runs one such round, then
pairs of single-worker rounds, one plain and one under tracer.py, while
another pair fits in --seconds, and reports the per-layer metrics as
medians over the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hosts  # noqa: E402

# Import-time samples for setup_s, taken before the first round and after
# each round, so that they spread over the run as the rounds do.
SETUP_BEFORE = 3
SETUP_PER_ROUND = 2
# A run must end within 180 s; a CLI process still running this long after
# the run started is killed, and the run fails.
RUN_LIMIT_S = 170.0


class Workload:
    """Inputs, CLI invocations and report checks of one workload.

    `invocations()` lists (tag, alphax argv) pairs; `check(tag)` returns
    (operation name, problems, expected failure) per operation of that
    invocation, reading the reports the invocation wrote."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def out(self, name: str) -> str:
        return os.path.join(self.work, name)


class TheoremGen(Workload):
    """verify-theorem for fs(2) on the generated stream, n = 4..7."""

    S = 2
    NS = range(4, 8)
    ALPHAS = (0.1, 0.5, 0.9)

    def invocations(self):
        return [("fs2", ["verify-theorem", "--family", f"fs({self.S})",
                         "--n-from", str(self.NS[0]), "--n-to", str(self.NS[-1]),
                         "--alpha", ",".join(map(str, self.ALPHAS)),
                         "--csv", self.out("fs2.csv"), "--json", self.out("fs2.json")])]

    def check(self, tag):
        reports = read_reports(self.out("fs2.json"), self.out("fs2.csv"))
        grid = [(n, a) for n in self.NS for a in self.ALPHAS]
        if len(reports) != len(grid):
            raise CheckError(f"{len(reports)} reports, expected {len(grid)}")
        return [(f"fs(2) n={n} alpha={a}", checks.theorem_gen_problems(r, n, a, self.S), False)
                for (n, a), r in zip(grid, reports)]


class TheoremFile(Workload):
    """verify-theorem --graphs --shards 2 for fs(1) and qt(1) on seeded
    sparse hosts of orders 9..12; one invocation per (family, order)."""

    FAMILIES = ("fs(1)", "qt(1)")
    NS = range(9, 13)
    HOSTS_PER_ORDER = 300
    ALPHA = 0.5
    # Reports on hosts of order >= 10 fail through the false negatives of
    # the minor search's host-side orbit reduction (ROADMAP B1).
    B1_FROM = 10

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = random.Random(seed)
        self.hosts = {}
        for n in self.NS:
            self.hosts[n] = hosts.host_set(n, self.HOSTS_PER_ORDER, rng)
            hosts.write_hosts(self.out(f"hosts-{n}.g6"), n, self.hosts[n])

    def invocations(self):
        return [(f"{fam}-{n}", ["verify-theorem", "--family", fam,
                                "--n-from", str(n), "--n-to", str(n), "--alpha", str(self.ALPHA),
                                "--graphs", self.out(f"hosts-{n}.g6"), "--shards", "2",
                                "--csv", self.out(f"{fam}-{n}.csv"),
                                "--json", self.out(f"{fam}-{n}.json")])
                for fam in self.FAMILIES for n in self.NS]

    def check(self, tag):
        fam, n = tag.rsplit("-", 1)
        n = int(n)
        reports = read_reports(self.out(f"{tag}.json"), self.out(f"{tag}.csv"))
        if len(reports) != 1:
            raise CheckError(f"{tag}: {len(reports)} reports, expected 1")
        problems = checks.theorem_file_problems(reports[0], fam, n, self.ALPHA, self.hosts[n])
        return [(f"{fam} n={n}", problems, n >= self.B1_FROM)]


class Lemmas(Workload):
    """verify-lemmas with grids to n = 40 and exhaustive suites to n = 6."""

    GRID_N = 40
    MAX_N = 6
    TRIALS = 2000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.expected = checks.expected_lemma_checks(self.GRID_N, self.MAX_N, self.TRIALS)

    def invocations(self):
        return [("lemmas", ["verify-lemmas", "--grid-n", str(self.GRID_N),
                            "--max-n", str(self.MAX_N), "--trials", str(self.TRIALS),
                            "--seed", str(self.seed), "--json", self.out("lemmas.json")])]

    def check(self, tag):
        with open(self.out("lemmas.json")) as fh:
            suites = json.load(fh)["suites"]
        with open(self.out("lemmas.out")) as fh:
            stdout = fh.read()
        found = checks.lemma_problems(suites, stdout, self.expected, self.MAX_N)
        if found.pop("density"):
            raise CheckError("density lines wrong")
        return [(name, problems, False) for name, problems in found.items()]


WORKLOADS = {"theorem-gen": TheoremGen, "theorem-file": TheoremFile, "lemmas": Lemmas}


class CheckError(Exception):
    """Output missing or malformed: the run is not correct."""


def read_reports(json_path: str, csv_path: str) -> list[dict]:
    with open(json_path) as fh:
        reports = json.load(fh)["reports"]
    with open(csv_path) as fh:
        rows = fh.read().splitlines()
    if len(rows) != len(reports) + 1:
        raise CheckError(f"{csv_path}: {len(rows) - 1} rows for {len(reports)} reports")
    return reports


def run_process(argv, env, stdout_path: str, deadline: float) -> tuple[float, float, float, int]:
    """Run argv to its end; (wall s, user+sys CPU s, peak RSS MiB, exit code).
    CPU and RSS come from wait4, so they include the process's waited-for
    children (the CLI's worker pool)."""
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def import_time(env, work: str, deadline: float) -> float:
    """Wall time of a fresh interpreter importing alphax.cli."""
    argv = [sys.executable, "-c", "import alphax.cli"]
    wall, _, _, code = run_process(argv, env, os.path.join(work, "setup.out"), deadline)
    if code != 0:
        raise CheckError("importing alphax.cli failed")
    return wall


class Round:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rss = 0.0
        self.ops = []  # (name, problems, expected failure)
        self.stats = []  # tracer output per invocation


def run_round(wl: Workload, env, deadline: float, traced: bool = False) -> Round:
    rnd = Round()
    for tag, args in wl.invocations():
        if traced:
            stats_path = wl.out(f"{tag}.trace.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), stats_path, *args]
        else:
            argv = [sys.executable, "-m", "alphax.cli", *args]
        wall, cpu, rss, code = run_process(argv, env, wl.out(f"{tag}.out"), deadline)
        if code != 0:
            with open(wl.out(f"{tag}.out.err")) as fh:
                raise CheckError(f"{tag}: exit code {code}: {fh.read()[-2000:]}")
        rnd.wall += wall
        rnd.cpu += cpu
        rnd.rss = max(rnd.rss, rss)
        rnd.ops.extend(wl.check(tag))
        if traced:
            with open(stats_path) as fh:
                rnd.stats.append(json.load(fh))
    return rnd


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def merge_spans(stats: list[dict]) -> dict[str, dict]:
    spans: dict[str, dict] = {}
    for record in stats:
        for name, sp in record["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "latencies_s": [],
                                          "counters": {}})
            acc["calls"] += sp["calls"]
            acc["self_s"] += sp["self_s"]
            acc["latencies_s"].extend(sp["latencies_s"] or [])
            for key, value in sp["counters"].items():
                if key.startswith("max_"):
                    acc["counters"][key] = max(acc["counters"].get(key, value), value)
                else:
                    acc["counters"][key] = acc["counters"].get(key, 0) + value
    return spans


def layer_metrics(traced: Round) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round."""
    sp = merge_spans(traced.stats)

    def span(name):
        return sp.get(name, {"calls": 0, "self_s": 0.0, "latencies_s": [], "counters": {}})

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}

    def timing(name, latencies=False, self_key="s"):
        s = span(name)
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.{self_key}"] = (s["self_s"], "s")
        if latencies:
            lat = s["latencies_s"] or [0.0]
            out[f"{name}.p50_us"] = (statistics.median(lat) * 1e6, "us")
            # p99 needs ten calls beyond it; below 1000 calls the maximum
            # is reported instead
            tail = quantile(lat, 0.99) if len(lat) >= 1000 else max(lat)
            out[f"{name}.p99_us"] = (tail * 1e6, "us")

    gen = span("enumeration.generate")
    graphs = gen["counters"].get("graphs", 0)
    children = gen["counters"].get("children", 0)
    out["enumeration.generate.s"] = (gen["self_s"], "s")
    out["enumeration.generate.graphs"] = (graphs, "count")
    out["enumeration.generate.children"] = (children, "count")
    out["enumeration.generate.accept_ratio"] = (ratio(graphs, children), "ratio")
    timing("canonical.canonical_data", latencies=True)
    timing("canonical.canonical_form")
    timing("minors.has_minor", latencies=True)
    minor = span("minors.has_minor")
    out["minors.has_minor.nodes"] = (minor["counters"].get("nodes", 0), "count")
    out["minors.has_minor.contains_ratio"] = (
        ratio(minor["counters"].get("contains", 0), minor["calls"]), "ratio")
    timing("enumeration.is_minor_free")
    free_calls = span("enumeration.is_minor_free")["calls"]
    out["minors.verdict_cache.hit_ratio"] = (
        1.0 - minor["calls"] / free_calls if free_calls else 0.0, "ratio")
    timing("spectral.alpha_index", latencies=True)
    out["spectral.alpha_index.max_residual"] = (
        span("spectral.alpha_index")["counters"].get("max_residual", 0.0), "norm")
    timing("spectral.power_iteration")
    out["spectral.power_iteration.iters"] = (
        span("spectral.power_iteration")["counters"].get("iters", 0), "count")
    timing("spectral.jacobi_eigh")
    out["spectral.jacobi_eigh.sweeps"] = (
        span("spectral.jacobi_eigh")["counters"].get("sweeps", 0), "count")
    timing("graph6.parse_graph6")
    timing("graph6.write_graph6")
    out["enumeration.stream_from_graph6_file.s"] = (
        span("enumeration.stream_from_graph6_file")["self_s"], "s")
    timing("enumeration.search_extremal", self_key="self_s")
    out["enumeration.merge_reports.s"] = (span("enumeration.merge_reports")["self_s"], "s")
    out["trace.layers_self_s"] = (sum(s["self_s"] for s in sp.values()), "s")
    return out


def trace_metrics(e2e: Round, pairs: list[tuple[Round, Round]]) -> dict[str, tuple[float, str]]:
    """Medians over (single-worker, traced) round pairs of the per-layer
    metrics, the tracing overhead, and the pool's CPU per wall second."""
    per_round = [layer_metrics(traced) for _, traced in pairs]
    out = {key: (statistics.median(m[key][0] for m in per_round), unit)
           for key, (_, unit) in per_round[0].items()}
    plain = statistics.median(p.wall for p, _ in pairs)
    traced = statistics.median(t.wall for _, t in pairs)
    out["cli.pool.cpu_per_wall"] = (e2e.cpu / e2e.wall, "ratio")
    out["trace.wall_s"] = (traced, "s")
    out["trace.untraced_wall_s"] = (plain, "s")
    out["trace.overhead_s"] = (traced - plain, "s")
    # interpreter start, imports, argument parsing and report writing
    out["trace.outside_layers_s"] = (plain - out["trace.layers_self_s"][0], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "alphax", "cli.py")):
        print(f"error: no alphax sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    workers = str(min(2, os.cpu_count() or 1))
    pooled = dict(env, ALPHAX_THREADS=workers)
    single = dict(env, ALPHAX_THREADS="1")
    try:
        deadline = time.perf_counter() + RUN_LIMIT_S
        wl = WORKLOADS[args.workload](args.seed, work)
        import_time(env, work, deadline)  # writes the bytecode cache
        if args.trace:
            start = time.perf_counter()
            rounds = [run_round(wl, pooled, deadline)]
            pairs = []
            while True:
                pair = (run_round(wl, single, deadline),
                        run_round(wl, single, deadline, traced=True))
                pairs.append(pair)
                rounds.extend(pair)
                elapsed = time.perf_counter() - start
                if elapsed + pair[0].wall + pair[1].wall > args.seconds:
                    break
            metrics = trace_metrics(rounds[0], pairs)
        else:
            setup = [import_time(env, work, deadline) for _ in range(SETUP_BEFORE)]
            start = time.perf_counter()
            rounds = []
            while True:
                rounds.append(run_round(wl, pooled, deadline))
                setup.extend(import_time(env, work, deadline) for _ in range(SETUP_PER_ROUND))
                elapsed = time.perf_counter() - start
                if elapsed + max(r.wall for r in rounds) > args.seconds:
                    break
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(r.wall for r in rounds), "s"),
                "cpu_s": (statistics.median(r.cpu for r in rounds), "s"),
                "peak_rss_mb": (statistics.median(r.rss for r in rounds), "MiB"),
            }
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if op[1]]
    unexpected = [op for op in failed if not op[2]]
    seen = set()
    for name, problems, expected in failed:
        if name not in seen:
            seen.add(name)
            label = "known failure (ROADMAP B1)" if expected else "FAILED"
            print(f"{label}: {name}: {'; '.join(problems[:3])}", file=sys.stderr)

    print(f"{args.workload}: {len(rounds)} rounds, {len(ops)} operations, "
          f"{len(failed)} failed ({len(unexpected)} unexpected); round wall s: "
          + " ".join(f"{r.wall:.3f}" for r in rounds))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
