import random

import pytest

from alphax import (
    Family,
    Graph,
    MinorModel,
    SearchLimitError,
    check_fs_structure,
    check_qt_structure,
    enumerate_graphs,
    extremal_fs,
    extremal_qt,
    friendship,
    has_minor,
    is_minor_free,
    join,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    minor_closure_oracle,
    quadrangle_book,
    subgraph_contains,
    validate_model,
    write_graph6,
)
from alphax import minors
from alphax.graphs import MAX_VERTICES, disjoint_union
from conftest import random_graph

PATTERNS = [
    make_complete(3),
    make_complete(4),
    make_cycle(4),
    friendship(1),
    friendship(2),
    quadrangle_book(1),
]


def test_basic_verdicts():
    assert has_minor(make_path(2), make_complete(1)).contains
    assert not has_minor(make_path(4), make_complete(3)).contains
    v = has_minor(make_cycle(4), make_complete(3))
    assert v.contains
    assert validate_model(make_cycle(4), make_complete(3), v.model)
    assert has_minor(make_empty(3), make_empty(0)).contains
    assert has_minor(make_empty(3), make_empty(0)).model == MinorModel(())
    with pytest.raises(ValueError):
        has_minor(make_complete(20), make_empty(13))


def test_model_validation_rejects_bad_certificates():
    g, h = make_complete(4), make_complete(3)
    overlapping = MinorModel((frozenset({0, 1}), frozenset({1, 2}), frozenset({3})))
    assert not validate_model(g, h, overlapping)
    disconnected = MinorModel((frozenset({0, 2}), frozenset({1}), frozenset({3})))
    assert not validate_model(make_path(4), h, disconnected)
    empty_set = MinorModel((frozenset(), frozenset({1}), frozenset({2})))
    assert not validate_model(g, h, empty_set)
    missing_edge = MinorModel((frozenset({0}), frozenset({1}), frozenset({3})))
    assert not validate_model(make_path(4), h, missing_edge)
    good = MinorModel((frozenset({0}), frozenset({1}), frozenset({2, 3})))
    assert validate_model(make_cycle(4), h, good)


def test_closure_oracle_examples():
    assert minor_closure_oracle(make_complete(4), make_complete(3))
    assert not minor_closure_oracle(make_complete_bipartite(1, 4), make_cycle(4))
    assert minor_closure_oracle(friendship(2), friendship(2))
    with pytest.raises(ValueError):
        minor_closure_oracle(make_complete(8), make_complete(3))


def test_oracle_equivalence_small():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for h in PATTERNS:
                assert has_minor(g, h).contains == minor_closure_oracle(g, h), (
                    write_graph6(g), write_graph6(h))


def test_found_models_always_validate():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for h in PATTERNS:
                v = has_minor(g, h)
                if v.contains:
                    assert validate_model(g, h, v.model)


def test_subgraph_implies_minor():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for h in PATTERNS:
                if subgraph_contains(g, h):
                    assert has_minor(g, h).contains


def test_self_containment_connected():
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            assert has_minor(g, g).contains


def test_minor_monotone_under_edge_addition(rng):
    hits = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.random(), rng)
        h = PATTERNS[rng.randrange(len(PATTERNS))]
        if not has_minor(g, h).contains:
            continue
        hits += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            assert has_minor(g.with_edge(u, v), h).contains
    assert hits > 100


def test_family_predicates():
    assert is_minor_free(extremal_fs(10, 2), Family("fs", 2))
    assert is_minor_free(extremal_qt(9, 1), Family("qt", 1))
    assert not is_minor_free(make_complete(5), Family("fs", 1))
    assert not is_minor_free(make_complete(5), Family("qt", 1))


def test_extremal_constructions_minor_free_small():
    for p in (1, 2, 3):
        for n in range(p + 1, 10):
            assert is_minor_free(extremal_fs(n, p), Family("fs", p))
            assert is_minor_free(extremal_qt(n, p), Family("qt", p))


@pytest.mark.parametrize("s", [1, 2])
def test_saturation_inside_independent_part(s):
    # every missing edge inside the independent part creates the forbidden minor
    for n in range(s + 3, 10):
        g = extremal_fs(n, s)
        assert is_minor_free(g, Family("fs", s))
        for u in range(s, n):
            for v in range(u + 1, n):
                assert has_minor(g.with_edge(u, v), friendship(s)).contains, (n, s, u, v)


def test_node_cap_raises():
    # a minor-free instance must exhaust the space, tripping a small cap
    with pytest.raises(SearchLimitError):
        has_minor(extremal_qt(12, 3), quadrangle_book(3), node_cap=500)


def test_node_cap_bounds_the_total_over_all_pieces():
    # each copy is searched as its own component, under the cap alone and
    # over it together
    h = friendship(2)
    one = extremal_fs(9, 2)
    nodes = has_minor(one, h).nodes_explored
    assert nodes > 0
    cap = nodes + nodes // 2
    assert not has_minor(one, h, node_cap=cap).contains
    with pytest.raises(SearchLimitError) as err:
        has_minor(disjoint_union(one, one), h, node_cap=cap)
    assert err.value.cap == cap


def test_no_piece_large_enough_explores_nothing():
    # a tree's 2-core is empty; a triangle cactus has no block beyond K_3
    v = has_minor(make_path(12), make_complete(3))
    assert not v.contains and v.nodes_explored == 0
    v = has_minor(extremal_qt(11, 1), make_cycle(4))
    assert not v.contains and v.nodes_explored == 0


def test_search_counters_reported():
    v = has_minor(make_complete(6), make_complete(3))
    assert v.nodes_explored > 0


def test_structure_check_fs():
    g = extremal_fs(10, 2)
    rep = check_fs_structure(g, 2, [0, 1], list(range(2, 10)))
    assert rep.ok and rep.violations == ()
    # synthetic violation: edge inside B
    bad = g.with_edge(4, 5)
    rep = check_fs_structure(bad, 2, [0, 1], list(range(2, 10)))
    assert not rep.ok
    assert rep.violations[0].kind == "edge_inside_b"
    assert rep.violations[0].vertices == (4, 5)


def test_structure_check_fs_outside_vertex():
    # hub 0 with B = {1,2,3}; vertex 4 outside sees two B-vertices
    g = make_complete_bipartite(1, 3).add_vertex(0b0110)
    rep = check_fs_structure(g, 1, [0], [1, 2, 3])
    assert not rep.ok
    assert rep.violations[0].kind == "outside_degree_into_b"
    assert rep.violations[0].vertices == (4,)


def test_structure_check_qt():
    g = extremal_qt(11, 2)
    rep = check_qt_structure(g, 2, [0, 1], list(range(2, 11)))
    assert rep.ok
    # synthetic path on three B vertices: 2-3 exists (matching), add 3-4
    bad = g.with_edge(3, 4)
    rep = check_qt_structure(bad, 2, [0, 1], list(range(2, 11)))
    assert not rep.ok
    assert rep.violations[0].kind == "path_center_inside_b"


def test_structure_check_preconditions():
    g = extremal_fs(10, 2)
    with pytest.raises(ValueError):
        check_fs_structure(g, 2, [0], list(range(2, 10)))  # |A| != s
    with pytest.raises(ValueError):
        check_fs_structure(g, 2, [0, 1], [2, 3])  # |B| < 2s
    with pytest.raises(ValueError):
        check_fs_structure(g, 2, [0, 1], [1, 2, 3, 4])  # overlap
    h = g.without_edge(0, 5)
    with pytest.raises(ValueError):
        check_fs_structure(h, 2, [0, 1], list(range(2, 10)))  # not complete bipartite
    with pytest.raises(ValueError):
        check_qt_structure(extremal_qt(9, 1), 1, [0], [1, 2])  # |B| < 2t+1


def test_clique_completion_preserves_minor_freeness(rng):
    # randomized check of the clique-completion closure on hosts with a
    # complete bipartite core, at the smallest sizes where the size
    # condition 2|B| - n >= 2s+1 (resp. 3|B| - 2n >= 3t+1) is satisfiable
    trials = 0
    while trials < 30:
        s = rng.choice([1, 2])
        n = rng.randint(4 * s + 1, 11)
        b_size = n - s - rng.randint(0, 1)
        if 2 * b_size - n < 2 * s + 1:
            continue
        a = list(range(s))
        b = list(range(s, s + b_size))
        outside = list(range(s + b_size, n))
        edges = [(u, v) for u in a for v in b]
        for u in outside:
            if rng.random() < 0.7:
                edges.append((u, rng.choice(b)))
            if rng.random() < 0.5 and len(outside) > 1:
                w = rng.choice(outside)
                if w != u:
                    edges.append((min(u, w), max(u, w)))
        g = Graph(n, edges)
        if not is_minor_free(g, Family("fs", s)):
            continue
        trials += 1
        completed = g
        for i in a:
            for j in a:
                if i < j and not completed.has_edge(i, j):
                    completed = completed.with_edge(i, j)
        assert is_minor_free(completed, Family("fs", s)), (n, s, sorted(g.edges()))
    assert trials == 30


# -- host reductions --------------------------------------------------------


def test_pattern_plan_flags():
    for h in (make_complete(3), make_cycle(4)):
        plan = minors._pattern_plan(h)
        assert plan.min_degree_2 and plan.connected and plan.biconnected
        assert not plan.fixes_first
    for p in (2, 3):
        for h in (friendship(p), quadrangle_book(p)):
            plan = minors._pattern_plan(h)
            assert plan.min_degree_2 and plan.connected
            assert not plan.biconnected
            assert plan.fixes_first
            # no twin or lex-min constraint involves the first root
            assert all(0 not in twins for twins in plan.twin_earlier)
            assert all(tau[0] == 0 for taus in plan.stabilizers for tau in taus)
    assert not minors._pattern_plan(make_path(3)).min_degree_2
    assert not minors._pattern_plan(make_empty(2)).connected


def test_pattern_plan_built_once():
    minors._pattern_plan.cache_clear()
    for n in (6, 7, 8):
        has_minor(make_cycle(n), friendship(2))  # equal patterns, new objects
    info = minors._pattern_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("n", range(10, 21))
def test_cycles_contain_triangle_and_quadrangle(n):
    # relabelled copies too: which vertex represents an orbit depends on
    # the labels, and an unsound orbit reduction fails on most of them
    rng = random.Random(n)
    hosts = [make_cycle(n)]
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        hosts.append(make_cycle(n).relabel(perm))
    for g in hosts:
        for h in (make_complete(3), make_cycle(4)):
            v = has_minor(g, h)
            assert v.contains, (write_graph6(g), h)
            assert validate_model(g, h, v.model)


def _is_forest(g: Graph) -> bool:
    """K_3-minor-free exactly when acyclic."""
    return g.edge_count() == g.n - len(g.component_masks())


def _is_triangle_cactus(g: Graph) -> bool:
    """C_4-minor-free exactly when every block is K_2 or K_3, that is, when
    the triangles are pairwise edge-disjoint and as many as the cycle rank
    (then they form a basis of the cycle space, so every cycle is one)."""
    seen = set()
    for u, v in g.edges():
        for w in range(v + 1, g.n):
            if g.has_edge(u, w) and g.has_edge(v, w):
                for e in ((u, v), (u, w), (v, w)):
                    if e in seen:
                        return False
                    seen.add(e)
    rank = g.edge_count() - g.n + len(g.component_masks())
    return len(seen) == 3 * rank


def _sparse_host(n: int, extra: int, rng: random.Random) -> Graph:
    """A random forest on n vertices plus up to `extra` random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9}
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def test_linear_time_oracles_on_known_graphs():
    assert _is_forest(make_path(5)) and not _is_forest(make_cycle(5))
    assert _is_triangle_cactus(extremal_qt(9, 1))
    assert _is_triangle_cactus(make_path(4))
    assert not _is_triangle_cactus(make_cycle(4))
    assert not _is_triangle_cactus(make_complete(4))
    assert not _is_triangle_cactus(friendship(1).with_edge(0, 1).add_vertex(0b110))


def test_sparse_hosts_agree_with_linear_time_oracles():
    rng = random.Random(5)
    checked = {True: 0, False: 0}
    for n in range(3, 31):
        for _ in range(12):
            g = _sparse_host(n, rng.randrange(5), rng)
            for h, oracle in ((make_complete(3), _is_forest),
                              (make_cycle(4), _is_triangle_cactus)):
                v = has_minor(g, h)
                assert v.contains == (not oracle(g)), (write_graph6(g), write_graph6(h))
                if v.contains:
                    assert validate_model(g, h, v.model)
                checked[v.contains] += 1
    assert min(checked.values()) > 150


def _circulant(n: int, steps) -> Graph:
    return Graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def _prism(half: int) -> Graph:
    """Two cycles of length half joined by a perfect matching."""
    cycle = [(i, (i + 1) % half) for i in range(half)]
    return Graph(2 * half, cycle + [(half + u, half + v) for u, v in cycle]
                 + [(i, half + i) for i in range(half)])


def test_host_orbit_reduction_agrees_with_plain_search(monkeypatch):
    rng = random.Random(11)
    hosts = [make_complete_bipartite(2, 8)]
    for n in range(10, 14):
        hosts += [make_cycle(n), _circulant(n, (1, 2)), _circulant(n, (1, 3)),
                  join(make_complete(1), make_cycle(n - 1)), extremal_qt(n, 1)]
        if n % 2 == 0:
            hosts.append(_prism(n // 2))
        hosts += [random_graph(n, rng.uniform(0.2, 0.4), rng) for _ in range(12)]
    patterns = (friendship(2), quadrangle_book(2), friendship(3))
    verdicts = []
    for g in hosts:
        for h in patterns:
            v = has_minor(g, h)
            if v.contains:
                assert validate_model(g, h, v.model)
            verdicts.append(v.contains)
    monkeypatch.setattr(minors, "HOST_ORBIT_ORDER", MAX_VERTICES + 1)  # never
    plain = [has_minor(g, h).contains for g in hosts for h in patterns]
    assert verdicts == plain
    assert len(verdicts) >= 200
    assert 0 < sum(verdicts) < len(verdicts)
