"""graph6 codec: hand-checked strings, networkx parity, round trips."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distspec.enumeration import connected_graphs
from distspec.graph6 import decode_graph6, encode_graph6, encode_rows
from distspec.graphs import GraphError, build_graph, is_connected


def nx_graph6(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def random_graph(rng, n, p=0.4):
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def scan_graph6(g):
    """The pair-by-pair has_edge scan that encode_graph6 replaced."""
    n = g.n
    if n <= 62:
        prefix = [n + 63]
    else:
        prefix = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = 0
    nbits = n * (n - 1) // 2
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if g.has_edge(i, j):
                bits |= 1 << (nbits - 1 - pos)
            pos += 1
    padded = (nbits + 5) // 6 * 6
    bits <<= padded - nbits
    chunks = [((bits >> (padded - 6 * (k + 1))) & 63) + 63 for k in range(padded // 6)]
    return bytes(prefix + chunks).decode("ascii")


@st.composite
def graphs(draw):
    n = draw(st.one_of(st.integers(1, 12), st.integers(63, 70)))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if not pairs:
        return build_graph(n, [])
    picks = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3 * n, unique=True))
    return build_graph(n, [pairs[p] for p in picks])


def test_encode_matches_scan_on_catalog():
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert encode_graph6(g) == scan_graph6(g)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_encode_matches_scan(g):
    assert encode_graph6(g) == scan_graph6(g)


def test_one_array_call_over_mixed_orders():
    # one call over orders 1, 2, 7, 62, 63 (the four-byte header) and 70,
    # each order twice and interleaved, equals the per-graph results and
    # the scan oracle
    rng = random.Random(11)
    gs = [random_graph(rng, n, p=0.3) for _ in range(2) for n in (1, 2, 7, 62, 63, 70)]
    rows = [g.masks for g in gs]
    assert encode_rows(rows) == [encode_graph6(g) for g in gs] == [scan_graph6(g) for g in gs]
    assert encode_rows([]) == []


def test_hand_checked_strings():
    # [DERIVED] column-major upper-triangle bits packed into 6-bit chunks
    assert encode_graph6(build_graph(1, [])) == "@"
    assert encode_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert encode_graph6(build_graph(3, [(0, 1), (1, 2)])) == "Bg"
    assert encode_graph6(build_graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert encode_graph6(c5) == "Dhc"


def test_matches_networkx_small():
    rng = random.Random(42)
    for n in range(1, 9):
        for _ in range(25):
            g = random_graph(rng, n)
            assert encode_graph6(g) == nx_graph6(g)


def test_matches_networkx_medium():
    rng = random.Random(1)
    for n in (20, 40, 62, 63, 80):
        g = random_graph(rng, n, p=0.15)
        assert encode_graph6(g) == nx_graph6(g)


def test_round_trip():
    rng = random.Random(3)
    for n in (1, 2, 5, 10, 30, 63, 70):
        g = random_graph(rng, n, p=0.2)
        h = decode_graph6(encode_graph6(g))
        assert h.n == g.n and h.edges == g.edges


def test_decode_networkx_output():
    rng = random.Random(9)
    for n in range(2, 12):
        g = random_graph(rng, n)
        h = decode_graph6(nx_graph6(g))
        assert h.edges == g.edges


def test_header_accepted():
    g = decode_graph6(">>graph6<<A_")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_decode_rejects_malformed():
    with pytest.raises(GraphError):
        decode_graph6("")
    with pytest.raises(GraphError):
        decode_graph6("B")  # body too short for n=3
    with pytest.raises(GraphError):
        decode_graph6("A_extra")
    with pytest.raises(GraphError):
        decode_graph6("A\x19")  # byte below the graph6 range
    with pytest.raises(GraphError):
        decode_graph6("A~")  # nonzero padding bits


def test_connected_flag_preserved():
    g = build_graph(4, [(0, 1), (2, 3)])
    h = decode_graph6(encode_graph6(g))
    assert not is_connected(h)
