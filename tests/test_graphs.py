import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphax import (
    CapacityError,
    Graph,
    are_isomorphic,
    complement,
    disjoint_union,
    extremal_fs,
    extremal_qt,
    friendship,
    intersection_lower_bound,
    join,
    k_copies,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    matching_graph,
    quadrangle_book,
)
from alphax.graphs import twin_masks
from conftest import random_graph


def assert_simple(g: Graph):
    for v in range(g.n):
        assert not g.has_edge(v, v)
        for u in g.neighbors(v):
            assert g.has_edge(u, v)
    assert g.edge_count() * 2 == sum(g.degrees())


def test_complete():
    assert make_complete(1).n == 1 and make_complete(1).edge_count() == 0
    g = make_complete(4)
    assert g.edge_count() == 6 and g.degrees() == [3, 3, 3, 3]
    assert make_complete(0).n == 0
    with pytest.raises(CapacityError):
        make_complete(65)


def test_standard_constructors():
    assert make_path(3).edge_count() == 2
    assert sorted(make_path(3).degrees()) == [1, 1, 2]
    assert make_complete_bipartite(1, 3).edge_count() == 3
    assert make_empty(5).edge_count() == 0
    assert make_path(1).edge_count() == 0
    assert make_cycle(4).degrees() == [2, 2, 2, 2]


def test_join_examples():
    star = join(make_complete(1), make_empty(3))
    assert are_isomorphic(star, make_complete_bipartite(1, 3))
    f1 = join(make_complete(1), k_copies(1, make_complete(2)))
    assert are_isomorphic(f1, make_complete(3))
    c4 = join(make_empty(2), make_empty(2))
    assert are_isomorphic(c4, make_cycle(4))
    with pytest.raises(CapacityError):
        join(make_empty(40), make_empty(40))


def test_join_labeling_and_edge_count():
    g, h = make_path(3), make_complete(2)
    j = join(g, h)
    # left side keeps labels, right side shifts upward
    assert j.has_edge(0, 1) and j.has_edge(3, 4)
    assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


def test_union_and_copies():
    assert k_copies(3, make_complete(2)).n == 6
    assert k_copies(3, make_complete(2)).edge_count() == 3
    assert k_copies(0, make_complete(2)).n == 0
    u = disjoint_union(make_complete(3), make_empty(1))
    assert u.n == 4 and u.edge_count() == 3


def test_complement():
    assert complement(make_complete(4)).edge_count() == 0
    assert are_isomorphic(complement(make_cycle(4)), k_copies(2, make_complete(2)))
    assert complement(make_empty(6)) == make_complete(6)


def test_friendship():
    with pytest.raises(ValueError):
        friendship(0)
    assert are_isomorphic(friendship(1), make_complete(3))
    f2 = friendship(2)
    assert f2.n == 5 and f2.edge_count() == 6
    assert sorted(f2.degrees(), reverse=True) == [4, 2, 2, 2, 2]
    assert friendship(3).n == 7 and friendship(3).edge_count() == 9


def count_triangles_at(g: Graph, hub: int) -> int:
    nbrs = g.neighbors(hub)
    return sum(1 for u, v in itertools.combinations(nbrs, 2) if g.has_edge(u, v))


def count_quadrangles_at(g: Graph, hub: int) -> int:
    total = 0
    nbrs = g.neighbors(hub)
    for u, v in itertools.combinations(nbrs, 2):
        for w in range(g.n):
            if w != hub and g.has_edge(u, w) and g.has_edge(v, w):
                total += 1
    return total


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_friendship_hub_counts(s):
    g = friendship(s)
    hub = max(range(g.n), key=g.degree)
    assert g.degree(hub) == 2 * s
    assert g.edge_count() == 3 * s
    assert count_triangles_at(g, hub) == s


def test_quadrangle_book_domain():
    with pytest.raises(ValueError):
        quadrangle_book(0)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_quadrangle_book_hub_counts(t):
    g = quadrangle_book(t)
    hub = max(range(g.n), key=g.degree)
    assert g.n == 3 * t + 1 and g.edge_count() == 4 * t
    assert g.degree(hub) == 2 * t
    assert count_quadrangles_at(g, hub) == t
    # removing the hub leaves t disjoint paths on 3 vertices
    rest = g.delete_vertex(hub)
    assert are_isomorphic(rest, k_copies(t, make_path(3)))


def test_matching_graph():
    assert matching_graph(4).edge_count() == 2
    m5 = matching_graph(5)
    assert m5.edge_count() == 2 and m5.degree(4) == 0  # isolated gets largest label
    assert matching_graph(1).n == 1 and matching_graph(1).edge_count() == 0
    assert matching_graph(0).n == 0


def test_extremal_constructions():
    assert are_isomorphic(extremal_fs(4, 1), make_complete_bipartite(1, 3))
    assert are_isomorphic(extremal_qt(7, 1), friendship(3))
    assert extremal_qt(6, 2).edge_count() == 11
    for s in (1, 2, 3):
        for n in range(s + 1, 14):
            assert extremal_fs(n, s).edge_count() == s * (s - 1) // 2 + s * (n - s)
            assert extremal_qt(n, s).edge_count() == (
                s * (s - 1) // 2 + s * (n - s) + (n - s) // 2)
    with pytest.raises(ValueError):
        extremal_fs(3, 3)
    with pytest.raises(ValueError):
        extremal_qt(2, 2)


def test_constructor_outputs_are_simple_graphs():
    graphs = [
        make_complete(6), make_empty(4), make_path(5), make_cycle(5),
        make_complete_bipartite(2, 3), friendship(3), quadrangle_book(2),
        matching_graph(7), extremal_fs(9, 2), extremal_qt(9, 2),
        join(make_path(3), make_cycle(3)), complement(make_path(4)),
    ]
    for g in graphs:
        assert_simple(g)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_join_degree_law(nl, nr, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    g = random_graph(nl, 0.5, rng)
    h = random_graph(nr, 0.5, rng)
    j = join(g, h)
    for v in range(g.n):
        assert j.degree(v) == g.degree(v) + h.n
    for v in range(h.n):
        assert j.degree(g.n + v) == h.degree(v) + g.n
    assert_simple(j)


def test_contract_and_delete():
    c4 = make_cycle(4)
    assert are_isomorphic(c4.contract_edge(0, 1), make_complete(3))
    assert are_isomorphic(make_complete(4).contract_edge(0, 1), make_complete(3))
    assert are_isomorphic(make_path(4).delete_vertex(0), make_path(3))
    with pytest.raises(ValueError):
        make_empty(3).contract_edge(0, 1)


def test_intersection_lower_bound_examples():
    assert intersection_lower_bound([{1, 2}, {2, 3}]) == (1, 1)
    assert intersection_lower_bound([{0, 1}, {2, 3}]) == (0, 0)
    assert intersection_lower_bound([{1, 2, 9}]) == (3, 3)
    with pytest.raises(ValueError):
        intersection_lower_bound([])


def test_intersection_lower_bound_randomized():
    rng = random.Random(7)
    for _ in range(10_000):
        k = rng.randint(1, 6)
        universe = rng.randint(1, 20)
        density = rng.random()
        sets = [
            {v for v in range(universe) if rng.random() < density}
            for _ in range(k)
        ]
        lhs, rhs = intersection_lower_bound(sets)
        assert lhs >= rhs


def _swap(g: Graph, u: int, v: int) -> Graph:
    perm = list(range(g.n))
    perm[u], perm[v] = v, u
    return g.relabel(perm)


def test_twin_masks_match_the_swap_definition(rng):
    # u and v are twins when the swap (u v) is an automorphism
    graphs = [random_graph(rng.randint(0, 9), rng.random(), rng) for _ in range(300)]
    graphs += [extremal_fs(9, 2), extremal_qt(9, 2), make_complete(5), make_empty(5)]
    for g in graphs:
        expected = [sum(1 << u for u in range(g.n) if _swap(g, u, v) == g) for v in range(g.n)]
        assert twin_masks(g.rows) == expected
