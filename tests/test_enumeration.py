import random

import pytest

from alphax import (
    CapacityError,
    Family,
    GraphStream,
    InvariantError,
    canonical_form,
    edge_density_profile,
    enumerate_graphs,
    f_inequality,
    is_minor_free,
    join_quotient_index,
    make_complete_bipartite,
    make_path,
    merge_reports,
    minor_closure_oracle,
    parse_graph6,
    quadrangle_book,
    search_extremal,
    stream_from_graph6_file,
    write_graph6,
)
from alphax import enumeration
from alphax.canonical import are_isomorphic, canonical_data
from alphax.enumeration import TieEntry, _finalize_report, search_extremal_alphas
from alphax.graphs import friendship

ALL_GRAPHS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]       # per order 0..8
CONNECTED_GRAPHS = [1, 1, 1, 2, 6, 21, 112, 853, 11117]


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_published(n):
    assert len(enumerate_graphs(n)) == ALL_GRAPHS[n]
    assert len(enumerate_graphs(n, connected_only=True)) == CONNECTED_GRAPHS[n]


def test_degree_pretest_is_sound():
    # generation skips a child whose new vertex has a larger degree than
    # some other vertex; the canonical search must never put such a
    # vertex in the last orbit, or the skip would lose classes
    children = rejected = 0
    for n in range(2, 8):
        for parent in enumerate_graphs(n - 1):
            for mask in range(1 << (n - 1)):
                child = parent.add_vertex(mask)
                children += 1
                if child.degree(n - 1) > min(child.degrees()):
                    rejected += 1
                    assert n - 1 not in canonical_data(child)[1]
    assert (children, rejected) == (11290, 8159)


def test_no_duplicate_classes():
    for n in range(1, 8):
        forms = [canonical_form(g) for g in enumerate_graphs(n)]
        assert len(forms) == len(set(forms))


def test_generation_deterministic():
    a = list(enumerate_graphs(6))
    b = list(enumerate_graphs(6))
    assert a == b


def test_generation_domain_errors():
    with pytest.raises(ValueError):
        enumerate_graphs(0)
    with pytest.raises(CapacityError) as exc:
        enumerate_graphs(10)
    assert "graph6" in str(exc.value)


def test_shards_partition_the_stream(monkeypatch):
    full = enumerate_graphs(6).graphs
    parts = [enumerate_graphs(6, shard=(i, 3)).graphs for i in range(3)]
    assert sorted(full, key=canonical_form) == sorted(sum(parts, ()), key=canonical_form)
    # part i holds the children of parents i, i + 3, ...: the same graphs,
    # in the same order, when the level is not cached and only that part
    # is generated
    monkeypatch.setattr(enumeration, "_LEVELS", {n: enumeration._LEVELS[n] for n in range(1, 6)})
    monkeypatch.setattr(enumeration, "_BROODS", {n: enumeration._BROODS[n] for n in range(1, 6)})
    assert [enumerate_graphs(6, shard=(i, 3)).graphs for i in range(3)] == parts
    assert 6 not in enumeration._LEVELS
    assert enumerate_graphs(1, shard=(1, 2)).graphs == ()
    with pytest.raises(ValueError):
        enumerate_graphs(5, shard=(3, 3))


def test_stream_from_file(tmp_path):
    graphs = enumerate_graphs(5).graphs[:10]
    path = tmp_path / "five.g6"
    path.write_text("\n".join(write_graph6(g) for g in graphs) + "\n")
    stream = stream_from_graph6_file(str(path))
    assert stream.order == 5 and stream.graphs == graphs
    # part i of k keeps every k-th graph from the i-th on, the rule of
    # generated levels; the parts partition the file and differ in size
    # by at most one
    for k in (1, 2, 3, 4, 11):
        parts = [stream_from_graph6_file(str(path), shard=(i, k)) for i in range(k)]
        assert [p.graphs for p in parts] == [graphs[i::k] for i in range(k)]
        assert [p.shard for p in parts] == [(i, k) for i in range(k)]
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        stream_from_graph6_file(str(path), shard=(2, 2))
    mixed = tmp_path / "mixed.g6"
    mixed.write_text("D?{\nC~\n")
    with pytest.raises(ValueError):
        stream_from_graph6_file(str(mixed))


def test_family_parsing():
    assert str(Family.parse("fs(2)")) == "fs(2)"
    assert Family.parse("qt(1)").pattern() == quadrangle_book(1)
    with pytest.raises(ValueError):
        Family.parse("xy(1)")
    with pytest.raises(ValueError):
        Family("fs", 0)


def test_search_small_star():
    r = search_extremal(4, 0.5, Family("fs", 1))
    assert r.total_graphs == 11
    assert r.minor_free_count == 6  # forests on four vertices
    assert abs(r.max_rho - 2.0) < 1e-10
    assert r.matches_construction and r.unique
    assert are_isomorphic(make_complete_bipartite(1, 3), parse_graph6(r.argmax_graph6))


def test_search_small_quadrangle():
    r = search_extremal(5, 0.5, Family("qt", 1))
    assert r.matches_construction and r.unique
    assert are_isomorphic(friendship(2), parse_graph6(r.argmax_graph6))


def test_search_excludes_pattern_itself():
    r = search_extremal(3, 0.5, Family("fs", 1))
    assert r.minor_free_count == 3  # all four 3-vertex graphs except K_3
    assert r.matches_construction  # the 2-star is the construction and argmax


def test_search_rejects_closed_alpha():
    with pytest.raises(ValueError):
        search_extremal(4, 0.0, Family("fs", 1))
    with pytest.raises(ValueError):
        search_extremal(4, 1.0, Family("fs", 1))


def test_search_stable_under_stream_permutation():
    fam = Family("fs", 1)
    base = enumerate_graphs(6)
    ref = search_extremal(6, 0.3, fam, base)
    rng = random.Random(5)
    graphs = list(base.graphs)
    for _ in range(3):
        rng.shuffle(graphs)
        stream = GraphStream(order=6, source="generated", graphs=tuple(graphs))
        got = search_extremal(6, 0.3, fam, stream)
        assert got == ref


def test_search_matches_closed_form_when_construction_wins():
    for n in range(4, 7):
        r = search_extremal(n, 0.5, Family("fs", 1))
        if r.matches_construction:
            assert abs(r.max_rho - join_quotient_index(n, 1, 0.5)) <= 1e-9
            assert f_inequality(r.max_rho, n, 1, 0.5)


def test_argmax_among_ties_ignores_float_order():
    # D~_ is the float maximum, D}o (the construction) the smaller graph6
    ties = [TieEntry("D~_", 3.1861406616346, 0.0), TieEntry("D}o", 3.1861406616345, 0.0)]
    for candidates in (ties, ties[::-1]):
        r = _finalize_report(5, 0.5, Family("fs", 2), 34, candidates, 1e-9)
        assert r.argmax_graph6 == "D}o" and r.matches_construction and not r.unique
        assert r.max_rho == 3.1861406616346


def test_search_fs2_n5_half_picks_construction_among_ties():
    r = search_extremal(5, 0.5, Family("fs", 2))
    assert [t.graph6 for t in r.ties] == ["D}o", "D~_"]
    assert r.argmax_graph6 == "D}o"
    assert r.matches_construction and not r.unique
    assert abs(r.max_rho - 3.18614066163) < 1e-9


def test_search_below_construction_raises():
    # a stream that claims to be generated but misses the construction
    stream = GraphStream(order=4, source="generated", graphs=(make_path(4),))
    with pytest.raises(InvariantError):
        search_extremal(4, 0.5, Family("fs", 1), stream)


def test_merge_matches_unsharded():
    fam = Family("qt", 1)
    direct = search_extremal(6, 0.5, fam)
    parts = [search_extremal(6, 0.5, fam, enumerate_graphs(6, shard=(i, 3)))
             for i in range(3)]
    merged = merge_reports(parts)
    assert merged == direct
    with pytest.raises(ValueError):
        merge_reports([])
    with pytest.raises(ValueError):
        merge_reports([direct, search_extremal(5, 0.5, fam)])


def test_merge_skips_shard_without_minor_free_graph():
    # part 3 of 4 at n = 4 holds the 4 children of K_3, none of them a forest
    fam = Family("fs", 1)
    assert len(enumerate_graphs(4, shard=(3, 4))) == 4
    assert not any(is_minor_free(g, fam) for g in enumerate_graphs(4, shard=(3, 4)))
    direct = search_extremal(4, 0.5, fam)
    parts = [search_extremal(4, 0.5, fam, enumerate_graphs(4, shard=(i, 4)))
             for i in range(4)]
    empty = parts[3]
    assert empty.total_graphs == 4
    assert empty.minor_free_count == 0 and empty.ties == ()
    assert empty.argmax_graph6 is None and empty.max_rho is None
    assert not empty.matches_construction and not empty.unique
    merged = merge_reports(parts)
    assert merged == direct
    with pytest.raises(ValueError, match=r"fs\(1\)"):
        merge_reports([empty, empty])
    with pytest.raises(ValueError, match=r"'hosts\.g6' of order 4 .*\(8 graphs read in 2 shards"):
        merge_reports([empty, empty], source="hosts.g6")


def test_merge_of_generated_parts_checks_the_construction_bound():
    # the star K_1 ∨ 5K_1 is the fs(1) construction at n = 6; merging every
    # part but the one that holds it loses the maximum
    fam = Family("fs", 1)
    star = canonical_form(fam.construction(6))
    parts = [search_extremal(6, 0.5, fam, enumerate_graphs(6, shard=(i, 3)))
             for i in range(3)]
    holders = [i for i in range(3)
               if any(canonical_form(g) == star for g in enumerate_graphs(6, shard=(i, 3)))]
    assert holders == [0]
    rest = parts[1:]
    assert all(p.minor_free_count for p in rest)
    with pytest.raises(InvariantError, match="construction"):
        merge_reports(rest)
    # a file stream makes no claim to be complete
    assert merge_reports(rest, source="hosts.g6").max_rho < merge_reports(parts).max_rho


def test_search_extremal_alphas_matches_one_alpha_at_a_time():
    fam = Family("qt", 1)
    alphas = (0.1, 0.5, 0.9)
    reports, searches = search_extremal_alphas(6, alphas, fam)
    assert 0 <= searches <= len(enumerate_graphs(6))
    for alpha, report in zip(alphas, reports):
        assert report == search_extremal(6, alpha, fam)
    with pytest.raises(ValueError):
        search_extremal_alphas(6, (0.5, 1.0), fam)


def test_minor_free_cache_consistency():
    fam = Family("fs", 1)
    for g in enumerate_graphs(5):
        expected = not minor_closure_oracle(g, friendship(1))
        assert is_minor_free(g, fam) == expected
        assert is_minor_free(g, fam) == expected  # second call hits the cache


def test_edge_density_profiles():
    for n in range(2, 7):
        p = edge_density_profile(n, Family("fs", 1))
        assert p.max_edges == n - 1  # forests
        assert p.max_edges_per_vertex == (n - 1) / n
    p = edge_density_profile(5, Family("qt", 1))
    # independent oracle: densest 5-vertex graph with no 4-cycle minor
    best = max(
        (g.edge_count() for g in enumerate_graphs(5)
         if not minor_closure_oracle(g, quadrangle_book(1))),
    )
    assert p.max_edges == best == 6
