import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from alphax import (
    are_isomorphic,
    enumerate_graphs,
    friendship,
    make_complete_bipartite,
    parse_graph6,
    validate_model,
    write_graph6,
)
from alphax import cli, lemmas, spectral
from alphax.cli import main
from alphax.minors import MinorModel

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
    calls = []
    original = cli.signless_laplacian_index

    def counted(g, tol):
        calls.append(g)
        return original(g, tol=tol)

    monkeypatch.setattr(cli, "signless_laplacian_index", counted)
    code, out = run(capsys, "alpha-index", "--g6", "Dhc", "--g6", "C~",
                    "--alpha", "0.1,0.5,0.9", "--signless-laplacian")
    assert code == 0 and len(calls) == 2
    q = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert q == ["4"] * 3 + ["6"] * 3


def test_signless_suite_rejects_a_wrong_index(monkeypatch):
    tally = lemmas.signless(4)
    assert (tally.checks, tally.violations, tally.first) == (18, 0, None)
    monkeypatch.setattr(spectral, "signless_laplacian_index", lambda g: g.edge_count() / 2)
    tally = lemmas.signless(4)
    assert tally.checks == 18 and tally.violations > 0 and tally.first is not None


def test_minor_check_with_oracle_and_certificates(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out = run(capsys, "minor-check", "--g6", "D~{", "--minor-family", "fs",
                    "--s", "1", "--oracle", "--certificates", str(cert))
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


def test_verify_theorem_exit_codes(capsys, tmp_path):
    code = main(["verify-theorem", "--family", "fs", "--s", "1", "--n-from", "4",
                 "--n-to", "5", "--alpha", "0.5", "--require-from", "4"])
    out, err = capsys.readouterr()
    assert code == 0
    # a run duration, not the time of day
    assert re.fullmatch(r"verify-theorem: 2 reports, 0 failures, \d+ minor searches "
                        r"in \d+\.\d\ds\n", err)
    assert out.splitlines()[0] == ("graph6,n,alpha,family,rho,residual,"
                                   "minor_free,matches_construction,unique,ties")
    # every 5-vertex graph avoids the 7-vertex pattern qt(2): K_5 wins
    jpath = tmp_path / "r.json"
    code, out = run(capsys, "verify-theorem", "--family", "qt", "--t", "2",
                    "--n-from", "5", "--n-to", "5", "--alpha", "0.5",
                    "--require-from", "5", "--json", str(jpath))
    assert code == 1
    payload = json.loads(jpath.read_text())
    assert payload["schema"] == 1
    assert payload["counterexamples"][0]["n"] == 5
    assert payload["reports"][0]["matches_construction"] is False


def test_verify_theorem_deterministic_and_shard_stable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    argv = ["verify-theorem", "--family", "fs", "--s", "1", "--n-from", "4",
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
    # a fresh interpreter, so that no verdict is cached before the run;
    # levels 4..7 hold 11 + 34 + 156 + 1044 graphs
    env = dict(os.environ, ALPHAX_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "alphax.cli", *THEOREM_GEN,
                           "--csv", str(tmp_path / "r.csv")],
                          env=env, capture_output=True, text=True, check=True)
    assert re.fullmatch(r"verify-theorem: 12 reports, 0 failures, 1245 minor searches "
                        r"in \d+\.\d\ds\n", proc.stderr)


def _theorem_reports(capsys, tmp_path, family, tag) -> tuple[str, str]:
    jpath = tmp_path / f"{family}-{tag}.json"
    code = main(["verify-theorem", "--family", family, "--n-from", "4", "--n-to", "7",
                 "--alpha", "0.1,0.5,0.9", "--json", str(jpath)])
    assert code == 0
    return capsys.readouterr().out, jpath.read_text()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_verify_theorem_pool_matches_one_worker(capsys, tmp_path, monkeypatch, method):
    previous = multiprocessing.get_start_method(allow_none=True)
    for family in ("fs(1)", "qt(1)"):
        monkeypatch.setenv("ALPHAX_THREADS", "1")
        single = _theorem_reports(capsys, tmp_path, family, "single")
        monkeypatch.setenv("ALPHAX_THREADS", "2")
        multiprocessing.set_start_method(method, force=True)
        try:
            pooled = _theorem_reports(capsys, tmp_path, family, method)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert pooled == single


def test_verify_theorem_file_reports_do_not_depend_on_shards(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    path = tmp_path / "six.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in enumerate_graphs(6)))
    for family in ("fs(1)", "qt(1)"):
        outs = []
        for shards in ("1", "2", "3"):
            jpath = tmp_path / f"{family}-{shards}.json"
            code, out = run(capsys, "verify-theorem", "--family", family, "--n-from", "6",
                            "--n-to", "6", "--alpha", "0.1,0.5,0.9", "--graphs", str(path),
                            "--shards", shards, "--json", str(jpath))
            assert code == 0
            outs.append((out, jpath.read_text()))
        assert outs[0] == outs[1] == outs[2], family


def test_verify_theorem_no_minor_free_graph_is_usage_error(capsys, tmp_path):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")  # K_3 contains fs(1) = K_3
    code = main(["verify-theorem", "--family", "fs", "--s", "1", "--n-from", "3",
                 "--n-to", "3", "--alpha", "0.5", "--graphs", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "fs(1)" in err and "triangle.g6" in err


def test_verify_theorem_sharded_file_without_minor_free_graph_names_it(capsys, tmp_path):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")
    code = main(["verify-theorem", "--family", "fs", "--s", "1", "--n-from", "3",
                 "--n-to", "3", "--alpha", "0.5", "--graphs", str(path), "--shards", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "fs(1)" in err and "triangle.g6" in err


@pytest.mark.parametrize("bad", [["--n-from", "5", "--n-to", "4"],
                                 ["--n-from", "0", "--n-to", "4"],
                                 ["--n-from", "4", "--n-to", "4", "--shards", "0"],
                                 ["--n-from", "9", "--n-to", "10"]])
def test_verify_theorem_rejects_bad_ranges_before_any_work(capsys, bad):
    code = main(["verify-theorem", "--family", "fs(1)", "--alpha", "0.5", *bad])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_theorem_rejects_bad_alpha(capsys):
    code, _ = run(capsys, "verify-theorem", "--family", "fs", "--s", "1",
                  "--n-from", "4", "--n-to", "4", "--alpha", "1.0")
    assert code == 2


def test_verify_lemmas_quick(capsys, monkeypatch):
    monkeypatch.setenv("ALPHAX_THREADS", "1")
    code, out = run(capsys, "verify-lemmas", "--max-n", "5", "--grid-n", "12",
                    "--trials", "500")
    assert code == 0
    assert "closed-form-quotient: pass" in out
    assert "nikiforov-bounds: pass" in out
    assert "signless-identity: pass" in out
    assert "intersection-bound: pass" in out
    assert "minor-free-structure: pass" in out
    assert "extremal-at-half: pass" in out
    assert "density fs(1)" in out
