"""Isomorph-free enumeration: counts, filters, determinism, the cap."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from distspec.enumeration import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    EnumFilter,
    connected_graphs,
    count_connected,
    filtered_graphs,
    max_order,
)
from distspec.graph6 import encode_graph6
from distspec.graphs import (
    MAX_CANONICAL_N,
    GraphError,
    build_graph,
    canonical_key,
    is_connected,
)


def brute_force_count(n):
    """Count connected isomorphism classes from raw edge subsets.

    Deduplication goes through networkx isomorphism checks, fully
    independent of the canonical key used by the enumerator.
    """
    pool = list(itertools.combinations(range(n), 2))
    reps = []
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if (bits >> i) & 1]
        g = build_graph(n, edges)
        if not is_connected(g):
            continue
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        if not any(nx.is_isomorphic(h, r) for r in reps if r.size() == len(edges)):
            reps.append(h)
    return len(reps)


def test_counts_match_brute_force():
    for n in range(1, 6):
        assert count_connected(n) == brute_force_count(n)


def test_frozen_counts():
    # [DERIVED] brute force to n = 5 above; published sequence beyond
    assert [count_connected(n) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_enumerated_graphs_are_valid_and_sorted():
    for n in range(1, 7):
        graphs = list(connected_graphs(n))
        keys = [canonical_key(g) for g in graphs]
        assert all(g.n == n for g in graphs)
        assert all(is_connected(g) for g in graphs)
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_pairwise_nonisomorphic_n5():
    graphs = list(connected_graphs(5))
    nxg = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(5))
        h.add_edges_from(g.edges)
        nxg.append(h)
    for i in range(len(nxg)):
        for j in range(i + 1, len(nxg)):
            assert not nx.is_isomorphic(nxg[i], nxg[j])


def test_deterministic_repeat():
    first = [encode_graph6(g) for g in connected_graphs(6)]
    second = [encode_graph6(g) for g in connected_graphs(6)]
    assert first == second


def test_filtered_examples():
    assert [encode_graph6(g) for g in filtered_graphs(5, EnumFilter(cut_vertex_count=3))] == ["DqG"]
    two_conn = list(filtered_graphs(4, EnumFilter(cut_edge_count=0)))
    assert [encode_graph6(g) for g in two_conn] == ["Cr", "Cv", "C~"]
    assert list(filtered_graphs(4, EnumFilter(cut_edge_count=2))) == []


def test_filters_partition_the_level():
    for n in (5, 6):
        total = count_connected(n)
        by_cv = sum(
            len(list(filtered_graphs(n, EnumFilter(cut_vertex_count=k))))
            for k in range(0, n)
        )
        by_ce = sum(
            len(list(filtered_graphs(n, EnumFilter(cut_edge_count=k))))
            for k in range(0, n)
        )
        assert by_cv == total
        assert by_ce == total


def test_order_cap():
    assert max_order() == DEFAULT_MAX_N
    with pytest.raises(GraphError, match=ENV_MAX_N):
        list(connected_graphs(DEFAULT_MAX_N + 1))
    with pytest.raises(GraphError):
        list(connected_graphs(0))


def test_cap_override(monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "4")
    assert max_order() == 4
    with pytest.raises(GraphError):
        list(connected_graphs(5))
    monkeypatch.setenv(ENV_MAX_N, "10")
    assert max_order() == 10


def test_cap_override_limited_by_canonical_keys(monkeypatch):
    # levels above MAX_CANONICAL_N could not be keyed, so the cap refuses them
    monkeypatch.setenv(ENV_MAX_N, str(MAX_CANONICAL_N + 1))
    with pytest.raises(GraphError, match=ENV_MAX_N):
        max_order()
