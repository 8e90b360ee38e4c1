import hashlib
import random

import pytest

from alphax import (
    CapacityError,
    Family,
    Graph,
    Graph6ParseError,
    InvariantError,
    SearchPart,
    alpha_index,
    canonical_form,
    canonical_graph,
    disjoint_union,
    enumerate_graphs,
    f_inequality,
    has_minor,
    is_minor_free,
    join,
    join_quotient_index,
    make_complete,
    make_complete_bipartite,
    make_path,
    matching_graph,
    merge_reports,
    minor_closure_oracle,
    parse_graph6,
    quadrangle_book,
    search_extremal,
    search_part,
    stream_from_graph6_file,
    validate_model,
    write_graph6,
)
from alphax import canonical, enumeration
from alphax.canonical import are_isomorphic, canonical_data, refinement_ranks
from alphax.graphs import bits, friendship, twin_masks
from test_minors import _is_forest, _is_triangle_cactus

ALL_GRAPHS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]       # per order 0..8
CONNECTED_GRAPHS = [1, 1, 1, 2, 6, 21, 112, 853, 11117]


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_published(n):
    # merge_reports counts a generated level from the A000088 table
    assert len(enumerate_graphs(n)) == ALL_GRAPHS[n] == enumeration.A000088[n]
    assert sum(g.is_connected() for g in enumerate_graphs(n)) == CONNECTED_GRAPHS[n]


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


def test_rank_pretest_is_sound():
    # generation skips a child whose new vertex lies outside the top
    # refinement cell; the canonical search must never put such a vertex
    # in the last orbit, or the skip would lose classes
    children = rejected = 0
    for n in range(2, 8):
        for parent in enumerate_graphs(n - 1):
            for mask in range(1 << (n - 1)):
                child = parent.add_vertex(mask)
                children += 1
                ranks = refinement_ranks(child)
                if ranks[n - 1] != max(ranks):
                    rejected += 1
                    assert n - 1 not in canonical_data(child)[1]
    assert (children, rejected) == (11290, 8998)


def _form_and_acceptance(child: Graph) -> tuple[bytes, bool]:
    form, last_orbit = canonical_data(child)
    return form, child.n - 1 in last_orbit


def test_parent_twin_swap_pretest_is_sound():
    # generation skips a mask holding a parent twin w but not a lower twin
    # u; the swapped mask must give the same canonical form and the same
    # acceptance, so the smaller mask keeps the class
    checked = 0
    for n in range(2, 8):
        for parent in enumerate_graphs(n - 1):
            twins = twin_masks(parent.rows)
            for w in range(n - 1):
                for u in bits(twins[w] & ((1 << w) - 1)):
                    for mask in range(1 << (n - 1)):
                        if mask >> w & 1 and not mask >> u & 1:
                            checked += 1
                            swapped = mask ^ (1 << w | 1 << u)
                            assert (_form_and_acceptance(parent.add_vertex(mask))
                                    == _form_and_acceptance(parent.add_vertex(swapped)))
    assert checked == 6402


LEVEL_DIGESTS = {
    None: "13d36078a1ca2c68691573e2888e726954faabc8d26fea569ccf00d653abccb6",
    "fs(1)": "69fb08ef50a454c9f403ef18e249b81fefeca3834adfe258b877fa55c6ef6c6a",
    "qt(1)": "1ff491c296706d69ddec4ab0cb680830083390f2d1142235a0c2a40d6b2d2324",
    "fs(2)": "ec83bceec505902ad73cfc637e5b20edab0b18b2dac0bfdf891d34580d2d56e0",
    "qt(2)": "b077130bc3cadf4afc57dec7feeebbdd2d1e6ab7e7da69d831b54091125f6fbd",
}


@pytest.mark.parametrize("family", LEVEL_DIGESTS, ids=str)
def test_generated_levels_are_pinned(family):
    # the labelled representatives of levels 1..8 of all graphs, and of a
    # family's levels whose counts MINOR_FREE pins, in level order, so
    # neither a prune nor a change to the walk can change which graph
    # stands for a class, or the parent order that items[i::k] splits
    fam = None if family is None else Family.parse(family)
    top = 8 if family is None else len(MINOR_FREE[family])
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        for g in enumerate_graphs(n, fam):
            digest.update(f"{g.n}:{g.rows}\n".encode())
    assert digest.hexdigest() == LEVEL_DIGESTS[family]


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


def _level_part(n, index, count, family=None):
    """Part index of count of the family's level n: the kept children of
    parents index, index + count, ... of level n - 1, built from them alone."""
    parents = enumeration.parent_level(n, family)[index::count]
    return search_part(n, family, parents=parents).free


def test_shards_partition_the_stream(monkeypatch):
    full = enumerate_graphs(6)
    parts = [_level_part(6, i, 3) for i in range(3)]
    assert sorted(full, key=canonical_form) == sorted(sum(parts, ()), key=canonical_form)
    # the level is the broods of its parents in parent order, and part i
    # holds the broods of parents i, i + 3, ..., in the same order
    broods = [enumeration._brood(p) for p in enumeration.parent_level(6, None)]
    assert (enumeration._LEVELS[None, 6] == SearchPart(6, None, len(full), full)
            == SearchPart(6, None, len(full), sum(broods, ())))
    assert parts == [sum(broods[i::3], ()) for i in range(3)]
    # and a part is built without level 6
    monkeypatch.setattr(enumeration, "_LEVELS",
                        {key: v for key, v in enumeration._LEVELS.items() if key != (None, 6)})
    assert [_level_part(6, i, 3) for i in range(3)] == parts
    assert (None, 6) not in enumeration._LEVELS
    assert _level_part(1, 1, 2) == ()


def test_stream_from_file(tmp_path):
    graphs = enumerate_graphs(5)[:10]
    path = tmp_path / "five.g6"
    path.write_text("\n".join(write_graph6(g) for g in graphs) + "\n")
    assert stream_from_graph6_file(str(path), 5) == graphs
    # a malformed line fails the read
    bad = tmp_path / "bad.g6"
    bad.write_text("D?{\nD?\nDhC\n")
    with pytest.raises(Graph6ParseError):
        stream_from_graph6_file(str(bad), 5)
    # the order of every graph is checked against n
    mixed = tmp_path / "mixed.g6"
    mixed.write_text("D?{\nC~\nDhC\n")
    with pytest.raises(ValueError, match=r"graph 2 of .*mixed\.g6 has order 4, not 5"):
        stream_from_graph6_file(str(mixed), 5)
    with pytest.raises(ValueError, match=r"graph 1 of .*mixed\.g6 has order 5, not 4"):
        stream_from_graph6_file(str(mixed), 4)
    # an empty file holds no graph of any order
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert stream_from_graph6_file(str(empty), 5) == ()


def test_family_parsing():
    assert str(Family.parse("fs(2)")) == "fs(2)"
    assert Family.parse(" qt(1) ").pattern() == quadrangle_book(1)
    for text in ("xy(1)", "fs(x)", "qt(2.0)", "fs(-1)", "fs()", "fs(1"):
        with pytest.raises(ValueError, match="cannot parse family"):
            Family.parse(text)
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
    ref = search_extremal(6, 0.3, fam)
    rng = random.Random(5)
    graphs = list(enumerate_graphs(6))
    for _ in range(3):
        rng.shuffle(graphs)
        assert merge_reports([search_part(6, fam, graphs)], (0.3,)) == [ref]


def test_search_matches_closed_form_when_construction_wins():
    for n in range(4, 7):
        r = search_extremal(n, 0.5, Family("fs", 1))
        if r.matches_construction:
            assert abs(r.max_rho - join_quotient_index(n, 1, 0.5)) <= 1e-9
            assert f_inequality(r.max_rho, n, 1, 0.5)


def test_argmax_among_ties_ignores_float_order(monkeypatch):
    # D~_ is the float maximum, D}o (the construction) the smaller graph6
    planted = {"D~_": 3.1861406616346, "D}o": 3.1861406616345}
    original = enumeration.alpha_indices
    monkeypatch.setattr(enumeration, "alpha_indices", lambda gs, alphas: [
        r._replace(rho=planted[write_graph6(canonical_graph(g))])
        for g, r in zip(gs, original(gs, alphas))])
    parts = [search_part(5, Family("fs", 2), (parse_graph6(g6),)) for g6 in planted]
    for ordered in (parts, parts[::-1]):
        (r,) = merge_reports(ordered, (0.5,))
        assert r.argmax_graph6 == "D}o" and r.matches_construction and not r.unique
        assert r.max_rho == 3.1861406616346
        assert [(t.graph6, t.rho) for t in r.ties] == sorted(planted.items())
        assert (r.total_graphs, r.minor_free_count) == (34, 2)


def test_search_fs2_n5_half_picks_construction_among_ties():
    r = search_extremal(5, 0.5, Family("fs", 2))
    assert [t.graph6 for t in r.ties] == ["D}o", "D~_"]
    assert r.argmax_graph6 == "D}o"
    assert r.matches_construction and not r.unique
    assert abs(r.max_rho - 3.18614066163) < 1e-9


@pytest.mark.parametrize("family", [Family("fs", 1), Family("fs", 2),
                                    Family("qt", 1), Family("qt", 2)], ids=str)
def test_canonical_graph6_is_the_class_key(family):
    # matches_construction compares canonical graph6 strings; check it
    # against an isomorphism test on every generated level up to n = 7
    outcomes = {}
    for n in range(family.param + 1, 8):
        r = search_extremal(n, 0.5, family)
        construction = family.construction(n)
        assert are_isomorphic(parse_graph6(r.construction_graph6), construction)
        assert r.matches_construction == are_isomorphic(parse_graph6(r.argmax_graph6),
                                                        construction)
        outcomes[n] = r.matches_construction
    assert search_extremal(family.param, 0.5, family).construction_graph6 is None
    mismatches = {"fs(2)": [4], "qt(2)": [5, 6, 7]}.get(str(family), [])
    assert [n for n, match in outcomes.items() if not match] == mismatches


def test_only_tie_candidates_are_labelled_canonically(tmp_path, monkeypatch):
    # graphs read from a file carry no canonical form; of the minor-free
    # ones, only those within TIE_TOL of the maximum at some alpha need one
    rng = random.Random(9)
    trees = [Graph(9, [(v, rng.randrange(v)) for v in range(1, 9)]) for _ in range(60)]
    path = tmp_path / "trees.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in trees))
    calls = []
    original = canonical.canonical_data

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(canonical, "canonical_data", counted)
    part = search_part(9, Family("fs", 1), stream_from_graph6_file(str(path), 9))
    assert len(part.free) == 60
    assert calls == []  # a part labels nothing
    reports = merge_reports([part], (0.1, 0.5, 0.9), source=str(path))
    # the merge labels the construction once for all three reports, and of
    # the file's graphs only the ties
    read = {id(g) for g in part.free}
    labelled = [g for g in calls if id(g) in read]
    assert 0 < len(labelled) <= len({t.graph6 for r in reports for t in r.ties})
    assert len(calls) - len(labelled) == 1


def test_search_below_construction_raises():
    # graphs that claim to be the generated level but miss the construction
    parts = [search_part(4, Family("fs", 1), (make_path(4),))]
    with pytest.raises(InvariantError):
        merge_reports(parts, (0.5,))
    # a file claims no completeness, whatever its name
    assert not merge_reports(parts, (0.5,), source="generated")[0].matches_construction


def test_a_broken_bound_on_the_best_estimate_is_caught(monkeypatch):
    # every bound below its certified index: the best-estimate graph falls
    # below the floor, yet its bound is checked, not dropped unchecked
    screen = enumeration.screen_alpha_indices

    def lowered(graphs, alpha):
        estimates, bounds = screen(graphs, alpha)
        return estimates, bounds - 1

    monkeypatch.setattr(enumeration, "screen_alpha_indices", lowered)
    with pytest.raises(InvariantError, match=r"screen bound .* of E\}r\? "):
        search_extremal(6, 0.5, Family("fs", 2))


def test_a_broken_lower_bound_on_the_screen_is_caught(monkeypatch):
    # every lower bound above its index raises the floor past the band;
    # the lower bound of the best graph is checked, so no smaller band
    # comes back
    screen = enumeration.screen_alpha_indices

    def raised(graphs, alpha):
        lower, upper = screen(graphs, alpha)
        return lower + 1, upper

    monkeypatch.setattr(enumeration, "screen_alpha_indices", raised)
    with pytest.raises(InvariantError, match=r"screen lower bound .* at alpha=0.5 is above"):
        search_extremal(6, 0.5, Family("fs", 2))


def test_each_tie_band_is_screened_and_certified_in_one_call(monkeypatch):
    # one screen and one alpha_indices call per (n, alpha), and one more
    # call per order for the construction's bound
    calls = {"screen": 0, "certify": 0}
    screen, certify = enumeration.screen_alpha_indices, enumeration.alpha_indices

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(enumeration, "screen_alpha_indices", counted("screen", screen))
    monkeypatch.setattr(enumeration, "alpha_indices", counted("certify", certify))
    fam = Family("fs", 2)
    for n in range(3, 9):
        merge_reports([search_part(n, fam)], (0.1, 0.3, 0.5, 0.7, 0.9))
    assert calls == {"screen": 30, "certify": 36}


def _parts(n, fam, count):
    return [search_part(n, fam, _level_part(n, i, count)) for i in range(count)]


def test_merge_matches_unsharded():
    fam = Family("qt", 1)
    direct = [search_extremal(6, 0.5, fam)]
    parts = _parts(6, fam, 3)
    assert merge_reports(parts, (0.5,)) == direct
    # the report does not depend on the order of the parts
    assert merge_reports(parts[::-1], (0.5,)) == direct
    assert merge_reports([parts[1], parts[2], parts[0]], (0.5,)) == direct
    with pytest.raises(ValueError):
        merge_reports([], (0.5,))
    with pytest.raises(ValueError):
        merge_reports([parts[0], _parts(5, fam, 1)[0]], (0.5,))
    with pytest.raises(ValueError):
        merge_reports([parts[0], _parts(6, Family("fs", 1), 1)[0]], (0.5,))


def test_merge_skips_shard_without_minor_free_graph():
    # part 3 of 4 at n = 4 holds the 4 children of K_3, none of them a forest
    fam = Family("fs", 1)
    assert len(_level_part(4, 3, 4)) == 4
    assert not any(is_minor_free(g, fam) for g in _level_part(4, 3, 4))
    direct = search_extremal(4, 0.5, fam)
    parts = _parts(4, fam, 4)
    empty = parts[3]
    assert empty.searched == 4
    assert empty.free == ()
    assert merge_reports(parts, (0.5,)) == [direct]
    with pytest.raises(ValueError, match=r"fs\(1\)"):
        merge_reports([empty, empty], (0.5,))
    with pytest.raises(ValueError, match=r"'hosts\.g6' of order 4 .*\(8 graphs read\)$"):
        merge_reports([empty, empty], (0.5,), source="hosts.g6")


def test_merge_of_generated_parts_checks_the_construction_bound():
    # the star K_1 ∨ 5K_1 is the fs(1) construction at n = 6; merging every
    # part but the one that holds it loses the maximum
    fam = Family("fs", 1)
    star = canonical_form(fam.construction(6))
    parts = _parts(6, fam, 3)
    holders = [i for i in range(3)
               if any(canonical_form(g) == star for g in _level_part(6, i, 3))]
    assert holders == [0]
    rest = parts[1:]
    assert all(p.free for p in rest)
    with pytest.raises(InvariantError, match="construction"):
        merge_reports(rest, (0.5,))
    # a file stream makes no claim to be complete
    (partial,) = merge_reports(rest, (0.5,), source="hosts.g6")
    assert partial.max_rho < merge_reports(parts, (0.5,))[0].max_rho


def test_merge_searches_the_construction_only_when_its_bound_fails(monkeypatch):
    # a complete level holds the construction, whose index is at most its
    # maximum, so a passing merge never searches the construction
    fam = Family("fs", 1)
    parts = _parts(6, fam, 3)
    calls = []
    free = enumeration.is_minor_free
    monkeypatch.setattr(enumeration, "is_minor_free",
                        lambda g, family, anchor=None: calls.append(g) or free(g, family, anchor))
    (report,) = merge_reports(parts, (0.5,))
    assert calls == []
    # a construction whose index is above the maximum is searched, and
    # one that contains the pattern bounds nothing; the level's own copy
    # of it keeps its index
    planted = alpha_index(fam.construction(6), 0.5)._replace(rho=report.max_rho + 1.0)
    level = {id(g) for p in parts for g in p.free}
    monkeypatch.setattr(enumeration, "alpha_indices", lambda gs, alphas: [
        alpha_index(g, alpha) if id(g) in level else planted for g, alpha in zip(gs, alphas)])
    monkeypatch.setattr(enumeration, "is_minor_free",
                        lambda g, family, anchor=None: calls.append(g) or False)
    assert merge_reports(parts, (0.5,)) == [report]
    assert calls == [fam.construction(6)]


def test_search_extremal_alphas_matches_one_alpha_at_a_time():
    fam = Family("qt", 1)
    alphas = (0.1, 0.5, 0.9)
    part = search_part(6, fam)
    # the 45 children of the 17 qt(1)-free graphs of order 5, of 156 graphs
    assert part.searched == 45
    assert merge_reports([part], alphas) == [search_extremal(6, alpha, fam) for alpha in alphas]
    with pytest.raises(ValueError):
        merge_reports([part], (0.5, 1.0))


def test_is_minor_free_matches_the_closure_oracle():
    for fam, pattern in (Family("fs", 1), friendship(1)), (Family("qt", 1), quadrangle_book(1)):
        for g in enumerate_graphs(5):
            assert is_minor_free(g, fam) == (not minor_closure_oracle(g, pattern)), (fam, g)


# minor-free counts of generated levels 1..8 (fs(1): forests, A005195),
# and to n = 9, the first level above the full levels the tests build,
# for the three families whose level 9 is cheap
MINOR_FREE = {
    "fs(1)": [1, 2, 3, 6, 10, 20, 37, 76, 153],
    "qt(1)": [1, 2, 4, 8, 17, 40, 96, 245, 662],
    "fs(2)": [1, 2, 4, 11, 28, 83, 243, 748, 2290],
    "qt(2)": [1, 2, 4, 11, 34, 156, 678, 3210],
}
# the children built, and so searched, for each of those levels: the
# children of the minor-free graphs one order below
BUILT = {
    "fs(1)": [1, 2, 4, 7, 11, 21, 38, 77, 154],
    "qt(1)": [1, 2, 4, 11, 19, 45, 105, 263, 700],
    "fs(2)": [1, 2, 4, 11, 34, 103, 289, 860, 2501],
    "qt(2)": [1, 2, 4, 11, 34, 156, 1044, 4313],
}


@pytest.mark.parametrize("family", MINOR_FREE)
def test_minor_free_level_counts_are_pinned(family):
    fam = Family.parse(family)
    orders = range(1, len(MINOR_FREE[family]) + 1)
    counts = [len(enumerate_graphs(n, family=fam)) for n in orders]
    assert counts == MINOR_FREE[family]
    # each level is the walk's step over the level below
    parts = [search_part(n, fam) for n in orders]
    assert [len(p.free) for p in parts] == MINOR_FREE[family]
    assert [p.searched for p in parts] == BUILT[family]


@pytest.mark.parametrize("family", ["fs(1)", "fs(2)", "fs(3)", "qt(1)", "qt(2)", "qt(3)"])
def test_inherited_verdicts_match_an_unanchored_search(family):
    # a child of a parent that contains the pattern inherits "contains" by
    # never being built; the hereditary level is then the minor-free
    # subsequence of the full level, the same labelled graphs in the same
    # order
    fam = Family.parse(family)
    for n in range(1, 8):
        assert enumerate_graphs(n, family=fam) == tuple(
            g for g in enumerate_graphs(n) if not has_minor(g, fam.pattern()).contains)


def test_free_levels_match_linear_time_oracles():
    # neither oracle searches for a minor: F_1 = K_3, so the fs(1)-free
    # graphs are the forests, and Q_1 = C_4, so the qt(1)-free graphs are
    # the triangle cacti
    for n in range(1, 9):
        level = enumerate_graphs(n)
        assert enumerate_graphs(n, family=Family("fs", 1)) == tuple(filter(_is_forest, level))
        assert enumerate_graphs(n, family=Family("qt", 1)) == tuple(
            filter(_is_triangle_cactus, level))


def test_qt2_competitor_beats_the_construction_below_high_alpha():
    # positive control for matches_construction at orders the suite
    # builds: for qt(2) at n = 7 and 8, K_1 ∨ (K_5 ∪ M_{n-6}) beats the
    # construction K_2 ∨ M_{n-2} until alpha reaches 0.9 and 0.7
    fam = Family("qt", 2)
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    for n, g6, wins_from in ((7, "F~~{?", 0.9), (8, "G~~{CC", 0.7)):
        k5_and_matching = disjoint_union(make_complete(5), matching_graph(n - 6))
        assert canonical_form(join(make_complete(1), k5_and_matching)) == g6
        for r in merge_reports([search_part(n, fam)], alphas):
            wins = r.alpha >= wins_from
            assert r.argmax_graph6 == (r.construction_graph6 if wins else g6)
            assert r.matches_construction == wins and r.unique


def test_free_levels_build_only_the_children_of_free_parents(monkeypatch):
    fam = Family("fs", 2)
    level = enumerate_graphs(7, family=fam)
    parents = []
    brood = enumeration._brood
    monkeypatch.setattr(enumeration, "_brood", lambda p: parents.append(p) or brood(p))
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    assert enumerate_graphs(7, family=fam) == level
    # the fs(2)-free graphs of orders 0..6, against the 1 + 208 of all orders
    assert len(parents) == 1 + sum(MINOR_FREE["fs(2)"][:6]) == 130


def test_anchored_search_needs_the_parent_verdict():
    # positive control: a child of an fs(2)-containing parent may hold
    # every model away from its new vertex, so the anchored search alone
    # would call it free; building only the children of free parents is
    # what keeps it out of the level
    fam = Family("fs", 2)
    h = fam.pattern()
    free = set(enumerate_graphs(6, family=fam))
    children = [c for p in enumerate_graphs(6) if p not in free for c in enumeration._brood(p)]
    misses = [c for c in children if not has_minor(c, h, anchor=6).contains]
    assert (len(children), len(misses)) == (755, 303)
    for c in misses:
        verdict = has_minor(c, h)
        assert verdict.contains and validate_model(c, h, verdict.model)


def _unscreened_ties(alpha, fam, graphs):
    # the search without hereditary levels or screen: every verdict searched
    # whole, every minor-free graph certified
    free = [g for g in graphs if not has_minor(g, fam.pattern()).contains]
    results = [alpha_index(g, alpha) for g in free]
    return len(free), enumeration._near_max(list(zip(free, results)))


@pytest.mark.parametrize("family", ["fs(1)", "qt(1)", "fs(2)", "qt(2)"])
def test_screened_search_matches_certifying_every_graph(family):
    fam = Family.parse(family)
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    certified = 0
    for n in range(1, 8):
        graphs = enumerate_graphs(n)
        part = search_part(n, fam)
        # a file stream of the same graphs gets the screen, and each of its
        # graphs is searched
        stream_part = search_part(n, fam, list(graphs))
        assert stream_part.searched == len(graphs) >= part.searched
        reports = merge_reports([part], alphas)
        stream_reports = merge_reports([stream_part], alphas, source="level.g6")
        for alpha, report, stream_report in zip(alphas, reports, stream_reports, strict=True):
            free, ties = _unscreened_ties(alpha, fam, graphs)
            # a generated part builds only the minor-free graphs
            assert len(part.free) == len(stream_part.free) == free
            for r in (report, stream_report):
                assert r.total_graphs == len(graphs)
                assert r.ties == ties and r.minor_free_count == free
                assert r.max_rho == max(t.rho for t in ties)
                assert r.certified >= len(ties)
            assert stream_report.certified == report.certified
            certified += report.certified
    # the screen certifies a few graphs per alpha, not every minor-free one
    assert certified < sum(MINOR_FREE[family][:7]) * len(alphas) / 5


def test_generated_shards_inherit_the_level_verdicts(monkeypatch):
    # part i of k holds the minor-free children of the minor-free parents
    # i, i + k, ... of the level below, and is built from them alone
    fam = Family("fs", 2)
    alphas = (0.3, 0.7)
    whole = search_part(7, fam)
    # the children of the 83 fs(2)-free graphs of level 6 are searched
    assert whole.searched == 289
    parents = enumeration.parent_level(7, fam)
    assert parents == enumerate_graphs(6, family=fam) and len(parents) == 83
    # each graph of the level is its parent plus the last vertex
    position = {p: k for k, p in enumerate(parents)}
    owners = [position[g.delete_vertex(6)] for g in enumerate_graphs(7, family=fam)]
    monkeypatch.setattr(enumeration, "_LEVELS", {
        key: v for key, v in enumeration._LEVELS.items() if key != (fam, 7)})
    for count in (2, 3, 4):
        results = [search_part(7, fam, parents=parents[i::count]) for i in range(count)]
        assert merge_reports(results, alphas) == merge_reports([whole], alphas)
        assert sum(p.searched for p in results) == whole.searched
        assert [len(p.free) for p in results] == [
            sum(k % count == i for k in owners) for i in range(count)]
    assert (fam, 7) not in enumeration._LEVELS
    with pytest.raises(ValueError):
        search_part(7, fam, enumerate_graphs(7), parents=parents)
    with pytest.raises(ValueError, match="order 6"):
        search_part(7, fam, parents=enumerate_graphs(5, family=fam))
    # parents past the generation cap are refused before any child is built
    monkeypatch.setattr(enumeration, "_brood", lambda parent: pytest.fail("child built"))
    with pytest.raises(CapacityError):
        search_part(10, fam, parents=[Graph.from_rows(9, [0] * 9)])
