import pytest

from alphax import (
    CapacityError,
    Graph,
    Graph6ParseError,
    enumerate_graphs,
    iter_graph6_file,
    make_empty,
    parse_graph6,
    write_graph6,
)
from conftest import random_graph


def test_hand_decoded_star():
    # 'D' = order 5; '?'=000000, '{'=111100 cover the ten upper-triangle
    # bits in column order, leaving exactly the four edges at vertex 4
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert write_graph6(g) == "D?{"


def test_trivial_orders():
    assert write_graph6(make_empty(1)) == "@"
    assert parse_graph6("@").n == 1
    assert write_graph6(make_empty(0)) == "?"
    assert parse_graph6("?").n == 0


def test_header_accepted():
    assert parse_graph6(">>graph6<<D?{").n == 5


def test_roundtrip_enumerated():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_large_orders(rng):
    # long form order field kicks in at n = 63
    for n in (63, 64):
        g = random_graph(n, 0.3, rng)
        line = write_graph6(g)
        assert line[0] == "~"
        assert parse_graph6(line) == g


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("D?\x05")
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("D?")  # truncated edge bytes
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("D?{?")  # trailing byte
    assert exc.value.offset == 3


def test_corrupted_padding_rejected():
    # order 3 uses 3 edge bits + 3 padding bits; "B_" encodes bits 100000,
    # so "B`" (bits 100001) carries the same edges with corrupt padding
    assert write_graph6(Graph(3, [(0, 1)])) == "B_"
    with pytest.raises(Graph6ParseError):
        parse_graph6("B`")


def test_capacity_rejected():
    with pytest.raises(CapacityError):
        parse_graph6("~?@@")  # long-form order field encoding 65


def test_file_io(tmp_path):
    graphs = list(enumerate_graphs(4))
    path = tmp_path / "four.g6"
    path.write_text(">>graph6<<\n" + "\n".join(write_graph6(g) for g in graphs) + "\n")
    back = list(iter_graph6_file(str(path)))
    assert back == graphs
