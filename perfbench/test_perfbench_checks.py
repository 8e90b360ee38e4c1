"""Positive controls for the benchmark's checks: each check passes a
correct report and rejects one with a single fault planted in it.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import random
import sys

import networkx as nx
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import hosts  # noqa: E402
import reference as ref  # noqa: E402


def g6(graph: nx.Graph) -> str:
    return ref.encode_graph6(graph.number_of_nodes(), graph.edges())


# -- reference computations ------------------------------------------------


def test_graph6_codec_agrees_with_networkx():
    rng = random.Random(5)
    for n in range(1, 14):
        g = nx.gnp_random_graph(n, 0.4, seed=rng.randrange(1 << 30))
        text = g6(g)
        assert text == nx.to_graph6_bytes(g, header=False).decode().strip()
        order, edges = ref.decode_graph6(text)
        assert order == n and set(edges) == {tuple(sorted(e)) for e in g.edges()}
    with pytest.raises(ValueError):
        ref.decode_graph6("C~~")  # trailing byte


def test_atlas_and_oracles_match_published_counts():
    by_order = [0] * 8
    forests = [0] * 8
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        by_order[n] += 1
        forests[n] += ref.is_forest(n, list(g.edges()))
    assert by_order == list(ref.A000088[:8])
    assert forests == list(ref.A005195[:8])


def test_oracles_reject_the_patterns_and_accept_their_extremal_graphs():
    assert not ref.is_forest(3, [(0, 1), (1, 2), (0, 2)])
    assert not ref.is_triangle_cactus(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not ref.is_triangle_cactus(4, list(nx.complete_graph(4).edges()))
    bowtie = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    assert ref.is_triangle_cactus(5, bowtie) and not ref.is_forest(5, bowtie)
    for n in range(2, 10):
        fan = [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1, 2)]
        assert ref.is_triangle_cactus(n, fan)
        assert len(fan) == ref.extremal_edges("qt(1)", n)


def test_join_index_matches_eigvalsh():
    for n, s, alpha in ((5, 2, 0.1), (8, 2, 0.5), (9, 3, 0.9), (12, 1, 0.3)):
        g = ref.join_graph(n, s)
        assert abs(ref.join_index(n, s, alpha) - ref.alpha_index(n, g.edges(), alpha)) < 1e-10


def test_hosts_are_seeded_distinct_and_include_the_cycle():
    a = hosts.host_set(10, 40, random.Random(3))
    assert a == hosts.host_set(10, 40, random.Random(3))
    assert a != hosts.host_set(10, 40, random.Random(4))
    assert len(set(a)) == 42
    assert tuple((v, v + 1) for v in range(9)) + ((0, 9),) in a
    assert all(nx.is_connected(ref.as_nx(10, h)) for h in a)
    assert {len(h) for h in a} == {9, 10, 11, 12}


# -- theorem-gen report checks -----------------------------------------------


def gen_report(n=6, s=2, alpha=0.5):
    cons = g6(ref.join_graph(n, s))
    rho = round(ref.join_index(n, s, alpha), 11)
    return {"n": n, "alpha": alpha, "family": f"fs({s})", "graph6": cons, "rho": rho,
            "total_graphs": ref.A000088[n], "minor_free": 20, "matches_construction": True,
            "unique": True, "ties": [{"graph6": cons, "rho": rho}]}


def test_theorem_gen_accepts_a_correct_report():
    assert checks.theorem_gen_problems(gen_report(), 6, 0.5, 2) == []


@pytest.mark.parametrize("fault", [
    lambda r: r.update(rho=r["rho"] + 1e-6, ties=[dict(r["ties"][0], rho=r["rho"] + 1e-6)]),
    lambda r: r.update(total_graphs=r["total_graphs"] - 1),
    lambda r: r.update(matches_construction=False),
    lambda r: r.update(unique=False),
    lambda r: r.update(ties=[{"graph6": "E???", "rho": 0.0}]),
    lambda r: r.update(n=7),
])
def test_theorem_gen_rejects_a_planted_fault(fault):
    r = gen_report()
    fault(r)
    assert checks.theorem_gen_problems(r, 6, 0.5, 2)


def test_theorem_gen_rejects_a_false_match():
    # the path P_6 as argmax, wrongly claimed to be the construction
    path = nx.path_graph(6)
    rho = round(ref.alpha_index(6, path.edges(), 0.5), 11)
    r = dict(gen_report(), graph6=g6(path), rho=rho, ties=[{"graph6": g6(path), "rho": rho}])
    problems = checks.theorem_gen_problems(r, 6, 0.5, 2)
    assert any("matches_construction" in p for p in problems)
    assert any("construction's index" in p for p in problems)


# -- theorem-file report checks ----------------------------------------------


def file_hosts(n=7):
    return [tuple(nx.star_graph(n - 1).edges()), tuple(nx.path_graph(n).edges()),
            tuple(nx.cycle_graph(n).edges())]


def file_report(family="fs(1)", n=7, alpha=0.5):
    star = nx.star_graph(n - 1)
    return {"n": n, "alpha": alpha, "family": family, "graph6": g6(star),
            "rho": round(ref.alpha_index(n, star.edges(), alpha), 11),
            "total_graphs": 3, "minor_free": 2}


def test_theorem_file_accepts_a_correct_report():
    assert checks.theorem_file_problems(file_report(), "fs(1)", 7, 0.5, file_hosts()) == []
    assert checks.theorem_file_problems(file_report("qt(1)"), "qt(1)", 7, 0.5, file_hosts()) == []


@pytest.mark.parametrize("fault", [
    lambda r: r.update(minor_free=3),
    lambda r: r.update(total_graphs=2),
    lambda r: r.update(rho=r["rho"] + 1e-6),
    # the cycle is no forest: a false negative of the minor search makes it the argmax
    lambda r: r.update(graph6=g6(nx.cycle_graph(7)),
                       rho=round(ref.alpha_index(7, nx.cycle_graph(7).edges(), 0.5), 11)),
])
def test_theorem_file_rejects_a_planted_fault(fault):
    r = file_report()
    fault(r)
    assert checks.theorem_file_problems(r, "fs(1)", 7, 0.5, file_hosts())


# -- verify-lemmas checks ------------------------------------------------------


def lemma_output(expected, max_n):
    suites = [{"suite": name, "checks": c, "violations": 0, "first_counterexample": None}
              for name, c in expected.items()]
    lines = [f"{name}: pass ({c} checks, 0 violations)" for name, c in expected.items()]
    for family in ("fs(1)", "qt(1)"):
        budget = ", ".join(f"n={n}:{ref.extremal_edges(family, n)}" for n in range(2, max_n + 1))
        lines.append(f"density {family}: max edges {budget}")
    return suites, "\n".join(lines) + "\n"


def test_lemma_counts_from_arguments():
    expected = checks.expected_lemma_checks(30, 6, 100)
    # the suite counts printed by the program at its defaults (n <= 6)
    assert expected["closed-form-quotient"] == 9 * (29 + 28 + 27)
    assert expected["signless-identity"] == 1 + 2 + 4 + 11 + 34 + 156
    assert expected["extremal-at-half"] == 3 + 2
    # by hand: P_3 (one fs hub); P_3+K_1, P_4 and K_{1,3} (four fs hubs);
    # K_{1,3} and the paw (one qt hub each)
    assert checks.structure_checks(3) == 1
    assert checks.structure_checks(4) == 1 + 4 + 2


def test_lemmas_accept_correct_output():
    expected = checks.expected_lemma_checks(12, 5, 50)
    suites, stdout = lemma_output(expected, 5)
    found = checks.lemma_problems(suites, stdout, expected, 5)
    assert all(not p for p in found.values())


@pytest.mark.parametrize("fault", ["count", "violation", "density"])
def test_lemmas_reject_a_planted_fault(fault):
    expected = checks.expected_lemma_checks(12, 5, 50)
    suites, stdout = lemma_output(expected, 5)
    if fault == "count":
        suites[2]["checks"] -= 1
    elif fault == "violation":
        suites[0]["violations"] = 1
    else:
        stdout = stdout.replace("n=5:6", "n=5:7")
    found = checks.lemma_problems(suites, stdout, expected, 5)
    assert any(found.values())
