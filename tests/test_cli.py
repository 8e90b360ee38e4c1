import json
import os
import pickle
import re
import subprocess
import sys

import pytest

from alphax import (
    ConvergenceError,
    Family,
    Graph,
    Graph6ParseError,
    SearchLimitError,
    are_isomorphic,
    enumerate_graphs,
    friendship,
    make_complete_bipartite,
    make_path,
    minor_closure_oracle,
    parse_graph6,
    quadrangle_book,
    validate_model,
    write_graph6,
)
from alphax import cli, enumeration, graphs, lemmas, minors, spectral
from alphax.cli import main
from alphax.minors import MinorModel, StructureReport, StructureViolation

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_examples(capsys):
    code, out = run(capsys, "construct", "--family", "fs-extremal", "--n", "6", "--s", "1")
    assert code == 0
    assert are_isomorphic(parse_graph6(out.strip()), make_complete_bipartite(1, 5))
    code, out = run(capsys, "construct", "--family", "friendship", "--s", "2")
    assert code == 0 and are_isomorphic(parse_graph6(out.strip()), friendship(2))
    code, out = run(capsys, "construct", "--family", "qt-extremal", "--n", "7", "--t", "1")
    assert code == 0 and are_isomorphic(parse_graph6(out.strip()), friendship(3))


def test_construct_join_and_complement(capsys):
    code, out = run(capsys, "construct", "--family", "join", "--g6", "A?", "--g6", "B?")
    assert code == 0
    assert are_isomorphic(parse_graph6(out.strip()), make_complete_bipartite(2, 3))
    code, out = run(capsys, "construct", "--family", "complement", "--g6", "C~")
    assert code == 0 and parse_graph6(out.strip()).edge_count() == 0


def test_construct_usage_error(capsys):
    code, _ = run(capsys, "construct", "--family", "friendship")
    assert code == 2


def _k2_join(rest: int, rest_edges: list) -> Graph:
    # K_2 on vertices 0, 1 joined to vertices 2 .. rest + 1
    return Graph(rest + 2, [(0, 1), *[(a, v) for a in (0, 1) for v in range(2, rest + 2)],
                            *rest_edges])


# construct --family name -> its options and the graph it builds, up to
# isomorphism
CONSTRUCT_CASES = {
    "complete": (["--n", "4"], Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
    "empty": (["--n", "3"], Graph(3, [])),
    "path": (["--n", "5"], Graph(5, [(3, 0), (0, 4), (4, 1), (1, 2)])),
    "complete-bipartite": (["--m", "2", "--n", "3"],
                           Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])),
    "friendship": (["--s", "2"], Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])),
    "quadrangle-book": (["--t", "2"],
                        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])),
    "matching": (["--m", "5"], Graph(5, [(0, 1), (2, 3)])),
    "fs-extremal": (["--n", "6", "--s", "2"], _k2_join(4, [])),
    "qt-extremal": (["--n", "7", "--t", "2"], _k2_join(5, [(2, 3), (4, 5)])),
}


@pytest.mark.parametrize("family", CONSTRUCT_CASES)
def test_construct_each_family(capsys, family):
    assert set(CONSTRUCT_CASES) == set(cli.CONSTRUCTIONS)
    options, expected = CONSTRUCT_CASES[family]
    code, out = run(capsys, "construct", "--family", family, *options)
    assert code == 0 and are_isomorphic(parse_graph6(out.strip()), expected)
    # without its last option
    code = main(["construct", "--family", family, *options[:-2]])
    assert code == 2
    assert capsys.readouterr().err == f"error: {options[-2]} required for {family}\n"


def test_alpha_index_rows(capsys):
    code, out = run(capsys, "alpha-index", "--g6", "C~", "--alpha", "0.5",
                    "--signless-laplacian")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,alpha,rho,residual,q"
    fields = lines[1].split(",")
    assert fields[0] == "C~" and fields[1] == "4"
    assert float(fields[3]) == 3.0 and float(fields[5]) == 6.0


def test_alpha_index_bad_graph6(capsys):
    code, _ = run(capsys, "alpha-index", "--g6", "D?\x01", "--alpha", "0.5")
    assert code == 2


def test_alpha_index_uncertifiable_tolerance_is_usage_error(capsys, tmp_path):
    code = main(["alpha-index", "--g6", "Dhc", "--tol", "1e-300"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""  # no header, no partial rows
    path = tmp_path / "rows.csv"
    code = main(["alpha-index", "--g6", "C~", "--g6", "Dhc", "--tol", "1e-300",
                 "--out", str(path)])
    assert code == 2 and not path.exists()


def test_alpha_index_signless_once_per_graph(capsys, monkeypatch):
    # q comes from the one alpha_indices call each graph makes
    calls = []
    original = cli.alpha_indices

    def counted(graphs, alphas, tol):
        calls.append(graphs[0])
        return original(graphs, alphas, tol=tol)

    monkeypatch.setattr(cli, "alpha_indices", counted)
    for signless in ([], ["--signless-laplacian"]):
        calls.clear()
        code, out = run(capsys, "alpha-index", "--g6", "Dhc", "--g6", "C~",
                        "--alpha", "0.1,0.5,0.9", *signless)
        assert code == 0 and len(calls) == 2
    q = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert q == ["4"] * 3 + ["6"] * 3


def test_signless_suite_rejects_a_wrong_index(monkeypatch):
    tally = lemmas.signless(4)
    assert (tally.checks, tally.violations, tally.first) == (18, 0, None)
    # q = 2 rho read as half the edge count
    monkeypatch.setattr(spectral, "alpha_indices", lambda level, alphas: [
        spectral.SpectralResult(rho=g.edge_count() / 4, vector=None, residual=0.0,
                                lower=0.0, upper=0.0) for g in level])
    tally = lemmas.signless(4)
    assert tally.checks == 18 and tally.violations > 0 and tally.first is not None


def test_minor_check_with_oracle_and_certificates(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out = run(capsys, "minor-check", "--g6", "D~{", "--minor-family", "fs(1)",
                    "--oracle", "--certificates", str(cert))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph6,n,minor,contains")
    assert ",true," in lines[1] and lines[1].endswith("true")
    payload = json.loads(cert.read_text())
    assert payload["schema"] == 1
    model = payload["certificates"]["D~{"]
    g = parse_graph6("D~{")
    sets = tuple(frozenset(model[str(i)]) for i in range(len(model)))
    assert validate_model(g, friendship(1), MinorModel(sets))


@pytest.mark.parametrize("argv", [
    # the second graph is too large for the oracle
    ["--g6", "C~", "--g6", "G?????", "--minor-family", "fs(1)", "--oracle"],
    # the second graph, extremal_qt(12, 3), needs more than 500 search nodes
    ["--g6", "C~", "--g6", "K~~fNB`wF?{?", "--minor-family", "qt(3)", "--node-cap", "500"],
], ids=["oracle-order", "node-cap"])
def test_minor_check_error_leaves_no_csv(capsys, tmp_path, argv):
    path = tmp_path / "r.csv"
    code = main(["minor-check", *argv, "--out", str(path)])
    assert code == 2 and capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


def test_minor_check_oracle_checks_every_order_before_any_search(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a minor search started")

    monkeypatch.setattr(cli, "has_minor", no_search)
    code = main(["minor-check", "--g6", "C~", "--g6", "G?????", "--minor-family", "fs(1)",
                 "--oracle"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: --oracle needs n <= 7, got 8\n"


@pytest.mark.parametrize("command", [["alpha-index"],
                                     ["minor-check", "--minor-family", "fs(1)"]],
                         ids=["alpha-index", "minor-check"])
def test_graphs_file_may_mix_orders(capsys, tmp_path, command):
    path = tmp_path / "mixed.g6"
    path.write_text("C~\nD~{\n")
    code, from_file = run(capsys, *command, "--graphs", str(path))
    assert code == 0
    code, from_args = run(capsys, *command, "--g6", "C~", "--g6", "D~{")
    assert code == 0 and from_file == from_args
    assert len(from_file.splitlines()) == 3
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code = main([*command, "--graphs", str(empty)])
    assert code == 2 and capsys.readouterr().err.startswith("error: ")


def test_verify_theorem_exit_codes(capsys, tmp_path):
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "4",
                 "--n-to", "5", "--alpha", "0.5", "--require-from", "4"])
    out, err = capsys.readouterr()
    assert code == 0
    # a run duration, not the time of day
    assert re.fullmatch(r"verify-theorem: 2 reports, 0 failures, \d+ minor searches, "
                        r"\d+ certified solves in \d+\.\d\ds\n", err)
    assert out.splitlines()[0] == ("graph6,n,alpha,family,rho,residual,"
                                   "minor_free,matches_construction,unique,ties")
    # every 5-vertex graph avoids the 7-vertex pattern qt(2): K_5 wins
    jpath = tmp_path / "r.json"
    code, out = run(capsys, "verify-theorem", "--family", "qt(2)",
                    "--n-from", "5", "--n-to", "5", "--alpha", "0.5",
                    "--require-from", "5", "--json", str(jpath))
    assert code == 1
    payload = json.loads(jpath.read_text())
    assert payload["schema"] == 1
    assert payload["counterexamples"][0]["n"] == 5
    assert payload["reports"][0]["matches_construction"] is False


def test_verify_theorem_counterexample_below_the_construction_order(capsys, tmp_path):
    # fs(2) has no construction at n = 2, where K_2 wins: a counterexample
    # under --require-from, not a usage error
    jpath = tmp_path / "r.json"
    code = main(["verify-theorem", "--family", "fs(2)", "--n-from", "2", "--n-to", "3",
                 "--alpha", "0.5", "--require-from", "2", "--json", str(jpath)])
    err = capsys.readouterr().err
    assert code == 1 and "error:" not in err
    lines = [line for line in err.splitlines() if line.startswith("COUNTEREXAMPLE")]
    assert lines == ["COUNTEREXAMPLE family=fs(2) n=2 alpha=0.5: argmax A_ (rho=1) "
                     "differs from construction none at this order"]
    assert [r["n"] for r in json.loads(jpath.read_text())["counterexamples"]] == [2]


def test_verify_theorem_deterministic_and_shard_stable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    argv = ["verify-theorem", "--family", "fs(1)", "--n-from", "4",
            "--n-to", "6", "--alpha", "0.3,0.7"]
    outs = []
    # with 4 parts, part 3 of n = 4 holds no forest
    for shards in ([], ["--shards", "1"], ["--shards", "3"], ["--shards", "4"]):
        code, out = run(capsys, *argv, *shards)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2] == outs[3]


THEOREM_GEN = ["verify-theorem", "--family", "fs(2)", "--n-from", "4", "--n-to", "7",
               "--alpha", "0.1,0.5,0.9"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_theorem_decides_each_minor_verdict_once(tmp_path, threads):
    # a fresh interpreter, so that the run builds every level itself;
    # levels 4..7 are built from the 4 + 11 + 28 + 83 fs(2)-free graphs of
    # orders 3..6, whose 11 + 34 + 103 + 289 children are searched; the
    # count is of the children of each reported level, so it does not
    # depend on the workers
    env = dict(os.environ, ALPHAX_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "alphax.cli", *THEOREM_GEN,
                           "--csv", str(tmp_path / "r.csv")],
                          env=env, capture_output=True, text=True, check=True)
    assert re.fullmatch(r"verify-theorem: 12 reports, 0 failures, 437 minor searches, "
                        r"\d+ certified solves in \d+\.\d\ds\n",
                        proc.stderr)


def _certified_solves(capsys, *argv) -> int:
    code = main(["verify-theorem", *argv, "--csv", os.devnull])
    err = capsys.readouterr().err
    assert code == 0
    return int(re.search(r", (\d+) certified solves in ", err).group(1))


def _level_file(tmp_path, n) -> str:
    path = tmp_path / f"level{n}.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in enumerate_graphs(n)))
    return str(path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_certified_solves_do_not_depend_on_the_split(capsys, tmp_path, monkeypatch, threads):
    # each tie band is screened and certified once, after the merge, in the
    # main process, over the graphs of every part; the counts are those of
    # one part
    monkeypatch.setenv("ALPHAX_THREADS", threads)
    screens = []
    screen = enumeration.screen_alpha_indices
    monkeypatch.setattr(enumeration, "screen_alpha_indices",
                        lambda graphs, alpha: screens.append(alpha) or screen(graphs, alpha))
    for shards in ("1", "3", "4"):
        screens.clear()
        assert _certified_solves(capsys, "--family", "fs(2)", "--n-from", "3", "--n-to", "8",
                                 "--shards", shards) == 31
        assert len(screens) == 6 * 5  # one screen per (n, alpha)
    path = _level_file(tmp_path, 6)
    for shards in ("1", "2", "3"):
        screens.clear()
        assert _certified_solves(capsys, "--family", "qt(1)", "--n-from", "6", "--n-to", "6",
                                 "--alpha", "0.1,0.5,0.9", "--graphs", path,
                                 "--shards", shards) == 3
        assert screens == [0.1, 0.5, 0.9]


def test_a_unit_makes_no_certified_solve(capsys, tmp_path, monkeypatch):
    # every certified solve and every screen of a run is the merge's:
    # units that can do neither give the same reports
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    runs = [[*THEOREM_GEN, "--shards", "2"],
            ["verify-theorem", "--family", "qt(1)", "--n-from", "6", "--n-to", "6",
             "--graphs", _level_file(tmp_path, 6), "--shards", "2"]]
    expected = [run(capsys, *argv) for argv in runs]
    search = cli.search_part

    def refuse(*args):
        raise AssertionError(f"a unit solved {args}")

    def unit(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            for module in (enumeration, spectral):  # spectral.alpha_index calls alpha_indices
                patch.setattr(module, "alpha_indices", refuse)
                patch.setattr(module, "screen_alpha_indices", refuse)
            return search(*args, **kwargs)

    monkeypatch.setattr(cli, "search_part", unit)
    assert [run(capsys, *argv) for argv in runs] == expected


def _theorem_reports(capsys, tmp_path, family, tag, *shards) -> tuple[str, str]:
    jpath = tmp_path / f"{family}-{tag}.json"
    code = main(["verify-theorem", "--family", family, "--n-from", "4", "--n-to", "7",
                 "--alpha", "0.1,0.5,0.9", "--json", str(jpath), *shards])
    assert code == 0
    return capsys.readouterr().out, jpath.read_text()


@pytest.mark.parametrize("threads", ["2", "3"])
def test_verify_theorem_pool_matches_one_worker(capsys, tmp_path, monkeypatch, threads):
    # with w workers the main process forks min(w - 1, parts - 1) children;
    # they take parts 1, 2, ... of n = 7 while it runs part 0 and n < 7
    for family in ("fs(1)", "qt(1)", "fs(2)"):
        monkeypatch.setenv("ALPHAX_THREADS", "1")
        single = _theorem_reports(capsys, tmp_path, family, "single")
        monkeypatch.setenv("ALPHAX_THREADS", threads)
        for shards in ([], ["--shards", "3"], ["--shards", "4"]):
            pooled = _theorem_reports(capsys, tmp_path, family, threads, *shards)
            assert pooled == single, (family, shards)


def test_verify_theorem_without_fork_runs_every_unit_in_one_process(capsys, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    single = _theorem_reports(capsys, tmp_path, "fs(2)", "single")
    monkeypatch.setenv("ALPHAX_THREADS", "2")
    monkeypatch.delattr(os, "fork")
    assert _theorem_reports(capsys, tmp_path, "fs(2)", "nofork", "--shards", "3") == single


def _run_script(tmp_path, body: str, timeout: float = 120) -> subprocess.CompletedProcess:
    script = tmp_path / "script.py"
    script.write_text(body)
    env = dict(os.environ, ALPHAX_THREADS="2",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_run_units_returns_large_results_in_unit_order(tmp_path):
    # each result is larger than a pipe's buffer, so a child blocks in its
    # write until the main process reads; with 3 workers and 7 units,
    # process j of 3 takes units j, j + 3, ...
    proc = _run_script(tmp_path,
        "import functools, os\n"
        "from alphax import cli\n"
        "big = 'x' * 200_000\n"
        "units = [functools.partial(lambda i: (i, os.getpid(), big), i) for i in range(7)]\n"
        "results = cli._run_units(units, 3)\n"
        "ranks = {os.getpid(): 0}\n"
        "print([item for item, _, _ in results],\n"
        "      [ranks.setdefault(pid, len(ranks)) for _, pid, _ in results],\n"
        "      all(text == big for _, _, text in results))\n", timeout=60)
    assert proc.stdout == "[0, 1, 2, 3, 4, 5, 6] [0, 1, 2, 0, 1, 2, 0] True\n"


def test_verify_theorem_exits_when_a_pool_process_dies(tmp_path):
    # the child dies in its first unit; the run must fail with exit 2, not hang
    proc = _run_script(tmp_path,
        "import os, sys\n"
        "from alphax import cli\n"
        "main_pid = os.getpid()\n"
        "search = cli.search_part\n"
        "def dying(*args, **kwargs):\n"
        "    if os.getpid() != main_pid:\n"
        "        os._exit(9)\n"
        "    return search(*args, **kwargs)\n"
        "cli.search_part = dying\n"
        "sys.exit(cli.main(['verify-theorem', '--family', 'fs(1)', '--n-from', '4',\n"
        "                   '--n-to', '7', '--alpha', '0.5', '--shards', '4']))\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert re.fullmatch(r"error: worker process \d+ exited with status 9 "
                        r"before it sent its results\n", proc.stderr)


def test_verify_theorem_leaves_no_worker_running_when_the_main_process_fails(tmp_path):
    # the child sleeps in its unit while part 0, in the main process, fails
    # its search; the run must end at once and reap the child
    proc = _run_script(tmp_path,
        "import os, sys, time\n"
        "from alphax import cli\n"
        "main_pid = os.getpid()\n"
        "def failing(*args, **kwargs):\n"
        "    if os.getpid() != main_pid:\n"
        "        time.sleep(60)\n"
        "    raise ValueError('part 0 failed')\n"
        "cli.search_part = failing\n"
        "start = time.monotonic()\n"
        "code = cli.main(['verify-theorem', '--family', 'fs(1)', '--n-from', '5',\n"
        "                 '--n-to', '5', '--alpha', '0.5', '--shards', '2'])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    left = 'a child left'\n"
        "except ChildProcessError:\n"
        "    left = 'no child left'\n"
        "print(code, left, time.monotonic() - start < 30)\n", timeout=50)
    assert proc.stdout == "2 no child left True\n"
    assert proc.stderr == "error: part 0 failed\n"


def test_a_generated_unit_builds_only_the_children_of_its_parents(capsys, monkeypatch):
    # the units the CLI makes for fs(2) at n = 7 in 2 parts hold parents
    # 0, 2, ... and 1, 3, ... of the 83 fs(2)-free graphs of order 6; even
    # in a process that holds no level, each builds the children of its own
    # parents and no level
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    search = cli.search_part
    calls = []
    monkeypatch.setattr(cli, "search_part",
                        lambda *args, **kwargs: calls.append((args, kwargs)) or
                        search(*args, **kwargs))
    assert main([*THEOREM_GEN, "--shards", "2"]) == 0
    capsys.readouterr()
    fam = Family("fs", 2)
    parents = enumeration.parent_level(7, fam)
    assert [(args[0], list(kwargs)) for args, kwargs in calls] == [
        (7, ["parents"]), (7, ["parents"]), (4, []), (5, []), (6, [])]
    expected = [search(*args, **kwargs) for args, kwargs in calls[:2]]

    def no_level(*args):
        raise AssertionError(f"level {args} built")

    built = []
    brood = enumeration._brood
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    monkeypatch.setattr(enumeration, "_generate_level", no_level)
    monkeypatch.setattr(enumeration, "_brood", lambda p: built.append(p) or brood(p))
    for index, (args, kwargs) in enumerate(calls[:2]):
        built.clear()
        assert search(*args, **kwargs) == expected[index]
        assert built == list(parents[index::2])
        assert len(built) == (42, 41)[index]


def _file_reports(capsys, tmp_path, path, family, n, alphas) -> list[tuple[str, str]]:
    outs = []
    for shards in ("1", "2", "3"):
        jpath = tmp_path / f"{family}-{shards}.json"
        code, out = run(capsys, "verify-theorem", "--family", family, "--n-from", str(n),
                        "--n-to", str(n), "--alpha", alphas, "--graphs", str(path),
                        "--shards", shards, "--json", str(jpath))
        assert code == 0
        outs.append((out, jpath.read_text()))
    return outs


def test_verify_theorem_file_reports_do_not_depend_on_shards(capsys, tmp_path, monkeypatch):
    # at 2 workers, forked children search the file graphs they inherited
    path = tmp_path / "six.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in enumerate_graphs(6)))
    copies = tmp_path / "copies.g6"
    copies.write_text("DhC\nDs_\nDiO\nDXG\nDFC\nD?{\n")
    serial = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("ALPHAX_THREADS", threads)
        for family in ("fs(1)", "qt(1)"):
            outs = _file_reports(capsys, tmp_path, path, family, 6, "0.1,0.5,0.9")
            assert outs == [serial.setdefault(family, outs[0])] * 3, (family, threads)
        # isomorphic copies are one tie: P_5 and K_{1,4} with each vertex as
        # the centre, whose solves differ in float noise with the labelling
        outs = _file_reports(capsys, tmp_path, copies, "fs(1)", 5, "0.5")
        assert outs == [serial.setdefault("copies", outs[0])] * 3, threads
    (report,) = json.loads(serial["copies"][1])["reports"]
    assert [t["graph6"] for t in report["ties"]] == ["Ds_"] and report["unique"] is True


def test_verify_theorem_no_minor_free_graph_is_usage_error(capsys, tmp_path):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")  # K_3 contains fs(1) = K_3
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "3",
                 "--n-to", "3", "--alpha", "0.5", "--graphs", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "fs(1)" in err and "triangle.g6" in err


def test_verify_theorem_sharded_file_without_minor_free_graph_names_it(capsys, tmp_path):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "3",
                 "--n-to", "3", "--alpha", "0.5", "--graphs", str(path), "--shards", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "fs(1)" in err and "triangle.g6" in err


def test_verify_theorem_file_named_generated_is_not_a_generated_level(capsys, tmp_path,
                                                                      monkeypatch):
    # P_6 alone is below the construction K_{1,5}, which only the complete
    # generated level must reach; a file claims no completeness by its name
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "generated").write_text(write_graph6(make_path(6)) + "\n")
    code, out = run(capsys, "verify-theorem", "--family", "fs(1)", "--n-from", "6",
                    "--n-to", "6", "--alpha", "0.5", "--graphs", "generated")
    assert code == 0
    assert out.splitlines()[1].split(",")[6:9] == ["1", "false", "true"]


def test_verify_theorem_sharded_file_with_a_malformed_line_is_usage_error(capsys, tmp_path,
                                                                         monkeypatch):
    # the main process reads the whole file before it forks any worker
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setenv("ALPHAX_THREADS", "2")
    monkeypatch.setattr(os, "fork", no_fork)
    path = tmp_path / "bad.g6"
    path.write_text("D?{\nD?\nDhC\n")  # part 1 of 2 would own the truncated line
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "5", "--n-to", "5",
                 "--alpha", "0.5", "--graphs", str(path), "--shards", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: need 2 edge bytes for order 5, got 1 (byte 2)\n"


def test_verify_theorem_pool_reports_a_worker_error_as_usage_error(capsys, tmp_path,
                                                                   monkeypatch):
    # with 2 workers the forked child searches part 1 of 2 of the file and
    # fails; its error comes back pickled through the pipe
    main_pid = os.getpid()
    search = cli.search_part

    def failing(*args, **kwargs):
        if os.getpid() != main_pid:
            raise SearchLimitError(500)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "search_part", failing)
    monkeypatch.setenv("ALPHAX_THREADS", "2")
    path = tmp_path / "five.g6"
    path.write_text("D?{\nDhC\nD~{\n")
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "5", "--n-to", "5",
                 "--alpha", "0.5", "--graphs", str(path), "--shards", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: minor search exceeded 500 nodes\n"


class _LocationError(Exception):
    # pickle stores only the message, so rebuilding it lacks an argument
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _local_error(message):
    class LocalError(Exception):  # local, so pickle cannot find the class by name
        pass
    return LocalError(message)


@pytest.mark.parametrize("make, message", [
    (_local_error, "LocalError: no parents"),
    (lambda m: _LocationError(m, "part 1"), "_LocationError: no parents at part 1"),
], ids=["dump", "load"])
def test_verify_theorem_pool_reports_a_worker_error_pickle_cannot_carry(capsys, monkeypatch,
                                                                        make, message):
    main_pid = os.getpid()
    search = cli.search_part

    def failing(*args, **kwargs):
        if os.getpid() != main_pid:
            raise make("no parents")
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "search_part", failing)
    monkeypatch.setenv("ALPHAX_THREADS", "2")
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "4", "--n-to", "6",
                 "--alpha", "0.5", "--shards", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: a worker process raised {message}\n"


@pytest.mark.parametrize("error", [Graph6ParseError("truncated", 4), SearchLimitError(10),
                                   ConvergenceError("no dominance", 1e-3)],
                         ids=["graph6", "search-limit", "convergence"])
def test_errors_of_a_work_unit_survive_pickle(error):
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error) and str(clone) == str(error)
    assert vars(clone) == vars(error)


@pytest.mark.parametrize("shards", ["1", "3"])
def test_verify_theorem_file_of_another_order_is_usage_error(capsys, tmp_path, monkeypatch,
                                                             shards):
    # the order-4 graph is the second of four; the whole file is checked
    # before it is split
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    path = tmp_path / "mixed.g6"
    path.write_text("D?{\nC~\nDhC\nD~{\n")
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "5", "--n-to", "5",
                 "--alpha", "0.5", "--graphs", str(path), "--shards", shards])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: graph 2 of .*mixed\.g6 has order 4, not 5\n", err)


def test_verify_theorem_empty_file_holds_no_minor_free_graph(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    path = tmp_path / "empty.g6"
    path.write_text("")
    code = main(["verify-theorem", "--family", "fs(1)", "--n-from", "5", "--n-to", "5",
                 "--alpha", "0.5", "--graphs", str(path), "--shards", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "empty.g6" in err and "fs(1)-minor-free graph (0 graphs read)" in err


def test_never_more_parts_than_items(capsys, tmp_path, monkeypatch):
    # a file of 3 graphs makes 3 units, and the 2 fs(1)-free graphs of
    # order 2, the parents of order 3, make 2, however many are asked for;
    # the units are parts of the top order alone
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    run_units = cli._run_units
    orders = []  # the order of each unit's part, per _run_units call

    def recorded(units, workers):
        parts = run_units(units, workers)
        orders.append([p.n for p in parts])
        return parts

    monkeypatch.setattr(cli, "_run_units", recorded)
    path = tmp_path / "five.g6"
    path.write_text("D?{\nDhC\nD~{\n")
    for argv, units in ((["--n-from", "5", "--n-to", "5", "--graphs", str(path)], [5] * 3),
                        (["--n-from", "2", "--n-to", "3"], [3] * 2)):
        outs = [run(capsys, "verify-theorem", "--family", "fs(1)", "--alpha", "0.5", *argv,
                        "--shards", shards) for shards in ("1", "1000")]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert orders[-2:] == [units[:1], units]
    code, _ = run(capsys, "verify-theorem", "--family", "fs(1)", "--alpha", "0.5",
                  "--n-from", "4", "--n-to", "7", "--shards", "3")
    assert code == 0 and orders[-1] == [7] * 3


@pytest.mark.parametrize("argv, env, message", [
    (["verify-theorem", "--family", "fs(x)", "--n-from", "4", "--n-to", "4"], None,
     "cannot parse family 'fs(x)'"),
    (["minor-check", "--g6", "C~", "--minor-family", "qt(2.0)"], None,
     "cannot parse family 'qt(2.0)'"),
    (["verify-theorem", "--family", "fs(1)", "--n-from", "4", "--n-to", "4"], "abc",
     "ALPHAX_THREADS must be an integer, got 'abc'"),
    (["verify-theorem", "--family", "fs(1)", "--n-from", "4", "--n-to", "4"], "0",
     "ALPHAX_THREADS must be >= 1, got '0'"),
    (["verify-theorem", "--family", "fs(1)", "--n-from", "4", "--n-to", "4",
      "--alpha", "0.5,abc"], None, "--alpha must be a comma-separated list of numbers"),
    (["alpha-index", "--g6", "C~", "--alpha", "0.5,abc"], None,
     "--alpha must be a comma-separated list of numbers"),
    (["verify-theorem", "--family", "fs(1)", "--n-from", "4", "--n-to", "4",
      "--alpha", ","], None, "--alpha must list at least one number, got ','"),
    (["minor-check", "--g6", "C~", "--minor-family", "fs(1)", "--node-cap", "-1"], None,
     "--node-cap must be >= 1, got -1"),
], ids=["family", "minor-family", "threads", "threads-zero", "alpha", "alpha-index",
        "alpha-empty", "node-cap"])
def test_malformed_input_names_its_option(capsys, monkeypatch, argv, env, message):
    def no_work(*args):
        raise AssertionError(f"work {args} started")

    monkeypatch.setattr(cli, "search_part", no_work)
    monkeypatch.setattr(cli, "has_minor", no_work)
    monkeypatch.setattr(enumeration, "_generate_level", no_work)
    if env is None:
        monkeypatch.delenv("ALPHAX_THREADS", raising=False)
    else:
        monkeypatch.setenv("ALPHAX_THREADS", env)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("bad", [["--n-from", "5", "--n-to", "4"],
                                 ["--n-from", "0", "--n-to", "4"],
                                 ["--n-from", "4", "--n-to", "4", "--shards", "0"],
                                 ["--n-from", "9", "--n-to", "10"],
                                 # a graph6 file holds one order
                                 ["--n-from", "5", "--n-to", "6", "--graphs", "hosts.g6"]])
def test_verify_theorem_rejects_bad_ranges_before_any_work(capsys, monkeypatch, bad):
    def no_work(*args):
        raise AssertionError(f"work {args} started")

    monkeypatch.setenv("ALPHAX_THREADS", "1")
    monkeypatch.setattr(cli, "search_part", no_work)
    monkeypatch.setattr(cli, "stream_from_graph6_file", no_work)
    monkeypatch.setattr(enumeration, "_generate_level", no_work)
    code = main(["verify-theorem", "--family", "fs(1)", "--alpha", "0.5", *bad])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_theorem_rejects_bad_alpha(capsys):
    code, _ = run(capsys, "verify-theorem", "--family", "fs(1)",
                  "--n-from", "4", "--n-to", "4", "--alpha", "1.0")
    assert code == 2


@pytest.fixture
def no_lemma_suite(monkeypatch):
    # every lemma function verify-lemmas calls fails the test if called
    def no_suite(*args):
        raise AssertionError("a suite started")

    for name in ("grid_indices", "grid_tallies", "signless", "intersection", "structure",
                 "corollary"):
        monkeypatch.setattr(lemmas, name, no_suite)


@pytest.mark.parametrize("max_n", ["0", "10"])
def test_verify_lemmas_rejects_max_n_outside_generation_before_any_suite(capsys, no_lemma_suite,
                                                                         max_n):
    code = main(["verify-lemmas", "--max-n", max_n])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("option, value", [("--grid-n", "-3"), ("--trials", "-5")])
def test_verify_lemmas_rejects_a_negative_count_before_any_suite(capsys, no_lemma_suite,
                                                                 option, value):
    code = main(["verify-lemmas", option, value])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {option} must be >= 0, got {value}\n"


def test_verify_lemmas_rejects_a_grid_past_the_vertex_capacity_before_any_suite(
        capsys, monkeypatch, no_lemma_suite):
    code = main(["verify-lemmas", "--grid-n", "70"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: --grid-n must be <= {graphs.MAX_VERTICES}, got 70\n"
    monkeypatch.setenv("ALPHAX_THREADS", "1")  # the suites run in this process
    with pytest.raises(AssertionError, match="a suite started"):
        main(["verify-lemmas", "--grid-n", str(graphs.MAX_VERTICES)])


def test_verify_lemmas_rejects_zero_workers_before_any_suite(capsys, monkeypatch,
                                                              no_lemma_suite):
    monkeypatch.setenv("ALPHAX_THREADS", "0")
    code = main(["verify-lemmas", "--grid-n", "6", "--max-n", "3", "--trials", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: ALPHAX_THREADS must be >= 1, got '0'\n"


def _lemma_outputs(capsys, tmp_path, monkeypatch) -> list[tuple[int, str, str]]:
    """(exit code, stdout, JSON) of one verify-lemmas run at 1, 2 and 3 workers."""
    outputs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("ALPHAX_THREADS", threads)
        path = tmp_path / f"lemmas-{threads}.json"
        code, out = run(capsys, "verify-lemmas", "--grid-n", "12", "--max-n", "5",
                        "--trials", "200", "--json", str(path))
        outputs.append((code, out, path.read_text()))
    return outputs


def test_verify_lemmas_pool_matches_one_worker(capsys, tmp_path, monkeypatch):
    # with 2 workers the child runs grid part 1 and intersection, with 3
    # the children run grid parts 1 and 2, the level unit and signless
    outputs = _lemma_outputs(capsys, tmp_path, monkeypatch)
    assert outputs[0][0] == 0 and outputs[1:] == outputs[:1] * 2


def test_verify_lemmas_pool_names_the_same_first_failure(capsys, tmp_path, monkeypatch):
    # failures planted in the grid walk at s = 2, in intersection (a child
    # at 2 workers) and in the qt(1) structure (a child at 3 workers)
    exact = spectral.join_quotient_index
    monkeypatch.setattr(spectral, "join_quotient_index",
                        lambda n, s, a: exact(n, s, a) + (1e-6 if s == 2 else 0.0))
    bound = graphs.intersection_lower_bound
    monkeypatch.setattr(graphs, "intersection_lower_bound",
                        lambda sets: (0, 1) if len(sets) == 3 else bound(sets))
    check = minors.check_qt_structure
    monkeypatch.setattr(minors, "check_qt_structure", lambda g, t, a_set, b_set: StructureReport(
        ok=False, violations=(StructureViolation("planted", (0,)),))
        if g.n == 5 else check(g, t, a_set, b_set))
    outputs = _lemma_outputs(capsys, tmp_path, monkeypatch)
    assert outputs[0][0] == 1 and outputs[1:] == outputs[:1] * 2
    firsts = re.findall(r"^  first counterexample: (.*)$", outputs[0][1], re.M)
    assert len(firsts) == 3
    assert firsts[0].startswith("s=2 n=3 alpha=0.1: ")
    assert firsts[1].startswith("sets=[") and firsts[2].startswith("qt(1) ")


def _lemmas_script(prelude: str) -> str:
    # verify-lemmas at 2 workers in a fresh interpreter: process 0 runs
    # grid part 0, signless and the level unit, process 1 grid part 1 and
    # intersection; afterwards it prints the exit code and whether a child
    # is left
    return ("import os, sys, time\n"
            "from alphax import cli, lemmas, spectral\n"
            "main_pid = os.getpid()\n"
            + prelude +
            "start = time.monotonic()\n"
            "code = cli.main(['verify-lemmas', '--grid-n', '12', '--max-n', '5',\n"
            "                 '--trials', '200'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    left = 'a child left'\n"
            "except ChildProcessError:\n"
            "    left = 'no child left'\n"
            "print(code, left, time.monotonic() - start < 30)\n")


def test_verify_lemmas_exits_when_a_pool_process_dies(tmp_path):
    proc = _run_script(tmp_path, _lemmas_script(
        "def dying(*args):\n"
        "    os._exit(9)\n"
        "lemmas.intersection = dying\n"), timeout=60)
    assert proc.stdout == "2 no child left True\n"
    assert re.fullmatch(r"error: worker process \d+ exited with status 9 "
                        r"before it sent its results\n", proc.stderr)


def test_verify_lemmas_reports_a_child_convergence_error(tmp_path):
    # grid part 1 fails its solves in the child; the error comes back
    # pickled, and no suite line is printed
    proc = _run_script(tmp_path, _lemmas_script(
        "solve = spectral.alpha_indices\n"
        "def failing(graphs, alphas):\n"
        "    if os.getpid() != main_pid:\n"
        "        raise spectral.ConvergenceError('planted', 0.5)\n"
        "    return solve(graphs, alphas)\n"
        "spectral.alpha_indices = failing\n"), timeout=60)
    assert proc.stdout == "2 no child left True\n"
    assert proc.stderr == "error: planted (best residual 5.000e-01)\n"


def test_verify_lemmas_leaves_no_worker_running_when_the_main_process_fails(tmp_path):
    # the child sleeps in intersection while signless, in the main
    # process, fails; the run must end at once and reap the child
    proc = _run_script(tmp_path, _lemmas_script(
        "def sleeping(*args):\n"
        "    time.sleep(60)\n"
        "lemmas.intersection = sleeping\n"
        "def failing(*args):\n"
        "    raise spectral.ConvergenceError('signless failed', 1.0)\n"
        "lemmas.signless = failing\n"), timeout=50)
    assert proc.stdout == "2 no child left True\n"
    assert proc.stderr == "error: signless failed (best residual 1.000e+00)\n"


def test_verify_lemmas_quick(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    path = tmp_path / "lemmas.json"
    code, out = run(capsys, "verify-lemmas", "--max-n", "5", "--grid-n", "12",
                    "--trials", "500", "--json", str(path))
    assert code == 0
    suites = {row["suite"]: row for row in json.loads(path.read_text())["suites"]}
    assert list(suites) == ["closed-form-quotient", "nikiforov-bounds", "signless-identity",
                            "intersection-bound", "minor-free-structure", "extremal-at-half"]
    assert suites["closed-form-quotient"]["checks"] == suites["nikiforov-bounds"]["checks"] == 270
    assert "closed-form-quotient: pass" in out
    assert "nikiforov-bounds: pass" in out
    assert "signless-identity: pass" in out
    assert "intersection-bound: pass" in out
    assert "minor-free-structure: pass" in out
    assert "extremal-at-half: pass" in out
    assert "density fs(1)" in out


def test_verify_lemmas_density_lines(capsys, monkeypatch):
    # each density line gives the edge count of the densest minor-free
    # graph of each order n = 2..--max-n
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    code, out = run(capsys, "verify-lemmas", "--max-n", "6", "--grid-n", "1", "--trials", "0")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("density ")]
    # the fs(1)-free graphs are the forests
    forests = ", ".join(f"n={n}:{n - 1}" for n in range(2, 7))
    assert lines[0] == f"density fs(1): max edges {forests}"
    # independent oracle: densest 5-vertex graph with no 4-cycle minor
    best = max(g.edge_count() for g in enumerate_graphs(5)
               if not minor_closure_oracle(g, quadrangle_book(1)))
    assert lines[1].startswith("density qt(1): max edges ")
    assert f"n=5:{best}," in lines[1] and best == 6


def test_verify_lemmas_prints_no_density_line_for_an_empty_range(capsys, monkeypatch):
    # the density profile starts at n = 2, so --max-n 1 has none to print
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    code, out = run(capsys, "verify-lemmas", "--max-n", "1", "--grid-n", "6", "--trials", "10")
    assert code == 0
    assert "density" not in out


def test_verify_lemmas_reports_a_suite_without_checks_as_skipped(capsys, monkeypatch, tmp_path):
    # --grid-n 1 leaves the grid empty, --trials 0 draws no sets, and
    # --max-n 2 is below every structure and extremal check
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    path = tmp_path / "lemmas.json"
    code, out = run(capsys, "verify-lemmas", "--grid-n", "1", "--max-n", "2", "--trials", "0",
                    "--json", str(path))
    assert code == 0
    status = dict(re.findall(r"^([a-z-]+): (\w+) \(", out, re.M))
    assert status == {"closed-form-quotient": "skip", "nikiforov-bounds": "skip",
                      "signless-identity": "pass", "intersection-bound": "skip",
                      "minor-free-structure": "skip", "extremal-at-half": "skip"}
    rows = json.loads(path.read_text())["suites"]
    assert [(r["suite"], r["checks"], r["violations"], r["first_counterexample"]) for r in rows
            if status[r["suite"]] == "skip"] == [
        (name, 0, 0, None) for name in ("closed-form-quotient", "nikiforov-bounds",
                                        "intersection-bound", "minor-free-structure",
                                        "extremal-at-half")]


# the process entries: python -m alphax.cli, and the body of the alphax
# console script, which pyproject.toml points at cli.run
ENTRIES = (["-m", "alphax.cli"], ["-c", "from alphax.cli import run; run()"])


def _cli_process(argv, stdout=subprocess.PIPE, entry=ENTRIES[0]
                 ) -> subprocess.CompletedProcess:
    """python -m alphax.cli argv, or another entry, run to its end, with
    stdout block-buffered as on any pipe (PYTHONUNBUFFERED unset)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *entry, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.parametrize("argv, code, out, err", [
    (["construct", "--family", "complete", "--n", "4"], 0, "C~\n", ""),
    (["verify-theorem", "--family", "qt(2)", "--n-from", "5", "--n-to", "5", "--alpha", "0.5",
      "--require-from", "5", "--csv", os.devnull], 1, "", "COUNTEREXAMPLE family=qt(2) n=5 "),
    (["alpha-index", "--g6", "D?\x01"], 2, "", "error: "),
], ids=["pass", "counterexample", "usage"])
def test_cli_process_passes_its_exit_code_through(argv, code, out, err):
    for entry in ENTRIES:
        proc = _cli_process(argv, entry=entry)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr.startswith(err) and "Traceback" not in proc.stderr


def test_cli_process_writes_a_large_csv_to_its_pipe_complete(tmp_path):
    argv = ["alpha-index", "--graphs", _level_file(tmp_path, 7), "--alpha", "0.1,0.5,0.9"]
    proc = _cli_process(argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert main([*argv, "--out", str(tmp_path / "rows.csv")]) == 0
    assert proc.stdout == (tmp_path / "rows.csv").read_text()
    assert len(proc.stdout.splitlines()) == 1 + 3 * 1044


@pytest.mark.parametrize("large", [False, True], ids=["at-the-final-flush", "while-writing"])
def test_cli_process_on_a_closed_pipe_exits_2_with_one_error_line(tmp_path, large):
    # a one-row CSV stays in stdout's buffer until the final flush; the
    # rows of the 1044 graphs of order 7 overflow it while main() writes
    source = ["--graphs", _level_file(tmp_path, 7)] if large else ["--g6", "C~"]
    for entry in ENTRIES:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _cli_process(["alpha-index", *source], stdout=write, entry=entry)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_sets_single_threaded_blas_unless_preset(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c",
                          "import os, alphax; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                         env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == (preset or "1")


def test_import_leaves_the_pool_machinery_out(tmp_path):
    # a pooled run loads no multiprocessing either (for the import alone,
    # see test_source.py)
    env = dict(os.environ, ALPHAX_THREADS="2",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    machinery = "sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules))"
    run = ("cli.main(['verify-theorem', '--family', 'fs(1)', '--n-from', '4', '--n-to', '6', "
           f"'--alpha', '0.5', '--shards', '2', '--csv', {str(tmp_path / 'r.csv')!r}])")
    out = subprocess.run([sys.executable, "-c",
                          f"import sys; from alphax import cli; print({run}, {machinery})"],
                         env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "0 []"


def test_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("ALPHAX_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert cli._worker_count() == 3
    monkeypatch.setenv("ALPHAX_THREADS", "2")
    assert cli._worker_count() == 2
    monkeypatch.delenv("ALPHAX_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count() == 1
