import itertools

import pytest

from alphax import (
    Graph,
    enumerate_graphs,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    extremal_fs,
    extremal_qt,
    join,
    k_copies,
    make_complete,
    make_complete_bipartite,
    make_empty,
    make_path,
    parse_graph6,
    write_graph6,
)
from alphax.canonical import canonical_data, refinement_ranks
from conftest import random_graph

PUBLISHED_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bitsel in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bitsel >> i & 1])


def brute_force_key(g: Graph) -> tuple:
    best = None
    for perm in itertools.permutations(range(g.n)):
        h = g.relabel(list(perm))
        key = h.rows
        if best is None or key < best:
            best = key
    return best


def _uncached(g: Graph) -> Graph:
    # a copy without the canonical form cached on it, so the next
    # canonical_form call runs the search again
    return Graph.from_rows(g.n, g.rows)


def _random_graphs(rng, count, max_n):
    for _ in range(count):
        yield random_graph(rng.randint(0, max_n), rng.random(), rng)


def test_p4_labelings_single_form():
    forms = {
        canonical_form(make_path(4).relabel(list(p)))
        for p in itertools.permutations(range(4))
    }
    assert len(forms) == 1


def test_distinct_for_nonisomorphic():
    assert canonical_form(make_path(4)) != canonical_form(make_complete_bipartite(1, 3))
    assert canonical_form(make_complete(3)) != canonical_form(make_path(3))


def test_exact_classification_up_to_5_against_brute_force():
    # group all labeled graphs by the permutation-brute-force key: the
    # canonical form must be constant within each class and distinct across
    for n in range(1, 6):
        by_bf = {}
        for g in all_labeled_graphs(n):
            by_bf.setdefault(brute_force_key(g), set()).add(canonical_form(g))
        assert len(by_bf) == PUBLISHED_GRAPH_COUNTS[n]
        forms_per_class = [forms for forms in by_bf.values()]
        assert all(len(forms) == 1 for forms in forms_per_class)
        distinct = set().union(*forms_per_class)
        assert len(distinct) == len(by_bf)


def test_exact_class_count_n6():
    forms = {canonical_form(g) for g in all_labeled_graphs(6)}
    assert len(forms) == PUBLISHED_GRAPH_COUNTS[6]


def test_invariance_random_n7(rng):
    for _ in range(60):
        g = random_graph(7, rng.random(), rng)
        base = canonical_form(g)
        for _ in range(8):
            perm = list(range(7))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == base


def test_canonical_graph_is_stable_relabeling(rng):
    for _ in range(40):
        g = random_graph(6, 0.5, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert are_isomorphic(g, h)
        assert canonical_graph(g) == canonical_graph(h)
        assert are_isomorphic(canonical_graph(g), g)
    for g in _random_graphs(rng, 80, 12):
        base = canonical_graph(g)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_graph(g.relabel(perm)) == base


def test_empty_and_tiny():
    assert canonical_form(Graph(0)) == canonical_form(Graph(0))
    assert canonical_form(Graph(1)) != canonical_form(Graph(0))
    assert canonical_form(Graph(2)) != canonical_form(make_complete(2))


def test_canonical_graph_is_a_fixed_point(rng):
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    for g in graphs + list(_random_graphs(rng, 200, 12)):
        h = canonical_graph(_uncached(g))
        assert canonical_graph(_uncached(h)) == h


def test_canonical_graph_decodes_to_the_same_form(rng):
    for g in _random_graphs(rng, 300, 12):
        h = canonical_graph(g)
        assert canonical_form(_uncached(h)) == canonical_form(_uncached(g))
        assert h.edge_count() == g.edge_count()
        assert sorted(h.degrees()) == sorted(g.degrees())


def _relabelled(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_canonical_form_is_the_canonical_graph6(rng):
    # the form is the graph6 of the canonically labelled copy: it reads
    # back to that copy and is one string per isomorphism class; orders
    # 63 and 64 take graph6's four-byte order field
    graphs = [Graph(0)] + [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [random_graph(n, rng.random(), rng) for n in (62, 63, 64) for _ in range(3)]
    for g in graphs:
        form = canonical_form(_uncached(g))
        assert write_graph6(parse_graph6(form)) == form
        assert canonical_graph(_uncached(g)) == parse_graph6(form)
        for _ in range(3):
            assert canonical_form(_relabelled(g, rng)) == form


def _twin_rich_graphs():
    # every one has a twin class of three or more vertices
    yield make_complete_bipartite(1, 7)
    yield make_complete_bipartite(2, 6)
    yield make_complete_bipartite(3, 5)
    yield k_copies(2, make_complete_bipartite(1, 3))
    yield join(make_empty(3), k_copies(2, make_complete(2)))
    for s in (2, 3):
        yield extremal_fs(8, s)
    for t in (1, 2, 3):
        yield extremal_qt(8, t)


def test_last_orbit_is_the_automorphism_orbit(rng):
    # the search places each twin class in index order and closes the
    # last orbit under twins; the result must still be a full Aut(G)-orbit
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [_relabelled(g, rng) for g in _twin_rich_graphs()]
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        orbits = {v: {v} for v in range(g.n)}
        for sigma in GraphMatcher(G, G).isomorphisms_iter():
            for v, u in sigma.items():
                orbits[v].add(u)
        last_orbit = canonical_data(_uncached(g))[1]
        assert last_orbit == orbits[min(last_orbit)]
        ranks = refinement_ranks(g)
        assert {ranks[v] for v in last_orbit} == {max(ranks)}


@pytest.mark.parametrize("host, leaves", [(make_complete_bipartite(1, 29), range(1, 30)),
                                          (make_complete_bipartite(2, 20), range(2, 22))],
                         ids=["K_1,29", "K_2,20"])
def test_many_twins_give_one_form_with_the_leaves_last(rng, host, leaves):
    base = canonical_form(host)
    for _ in range(20):
        perm = list(range(host.n))
        rng.shuffle(perm)
        form, last_orbit = canonical_data(host.relabel(perm))
        assert form == base
        assert last_orbit == {perm[v] for v in leaves}
