"""Graph construction, cut structure, pendant paths, and canonical keys."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from distspec.graphs import (
    GraphError,
    bfs_distances,
    blocks,
    build_graph,
    canonical_key,
    cut_edges,
    cut_vertices,
    is_connected,
    key_from_masks,
    pendant_paths,
    relabel,
)


def labeled_connected_graphs(n):
    """Every connected graph on vertices 0..n-1, by edge subsets."""
    pool = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if (bits >> i) & 1]
        g = build_graph(n, edges)
        if is_connected(g):
            yield g


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.adjacency[1] == (0, 2)
    assert g.degrees == (1, 2, 2, 1)
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="outside"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_relabel_permutes_structure():
    g = build_graph(3, [(0, 1), (1, 2)])
    h = relabel(g, (2, 0, 1))
    assert h.edges == frozenset({(0, 2), (0, 1)})
    assert sorted(h.degrees) == sorted(g.degrees)


def test_bfs_distances_path_and_disconnected():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_distances(g, 0) == [0, 1, 2, 3]
    g2 = build_graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(g2, 0) == [0, 1, -1, -1]
    assert not is_connected(g2)


def test_cut_structure_against_brute_force():
    """Articulation vertices and bridges agree with removal-based checks."""
    for n in range(2, 6):
        for g in labeled_connected_graphs(n):
            cv = cut_vertices(g)
            brute_cv = set()
            for v in range(n):
                keep = [x for x in range(n) if x != v]
                sub = build_graph(
                    n - 1,
                    [
                        (keep.index(a), keep.index(b))
                        for a, b in g.edges
                        if a != v and b != v
                    ],
                )
                if n > 2 and not is_connected(sub):
                    brute_cv.add(v)
            assert cv == frozenset(brute_cv)

            ce = cut_edges(g)
            brute_ce = set()
            for e in g.edges:
                sub = build_graph(n, [f for f in g.edges if f != e])
                if not is_connected(sub):
                    brute_ce.add(e)
            assert ce == frozenset(brute_ce)


def test_blocks_tree_and_bull():
    tree = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    dec = blocks(tree)
    assert sorted(sorted(b) for b in dec.blocks) == [[0, 1], [1, 2], [1, 3], [3, 4]]
    assert dec.cut_vertices == frozenset({1, 3})
    assert dec.cut_edges == tree.edges

    bull = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    dec = blocks(bull)
    assert sorted(sorted(b) for b in dec.blocks) == [[0, 1, 2], [1, 3], [2, 4]]
    assert dec.cut_vertices == frozenset({1, 2})
    assert dec.cut_edges == frozenset({(1, 3), (2, 4)})


def test_blocks_partition_edges():
    for n in range(2, 6):
        for g in labeled_connected_graphs(n):
            dec = blocks(g)
            covered = []
            for b in dec.blocks:
                covered.extend(
                    e for e in g.edges if e[0] in b and e[1] in b
                )
            assert sorted(covered) == sorted(g.edges)


def test_single_vertex_block():
    g = build_graph(1, [])
    dec = blocks(g)
    assert tuple(dec.blocks) == (frozenset({0}),)
    assert dec.cut_vertices == frozenset()


def test_pendant_paths_spider():
    # center 0 with legs of lengths 1, 2, 3
    g = build_graph(
        7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]
    )
    paths = pendant_paths(g)
    assert [(p.root, p.length) for p in paths] == [(0, 1), (0, 2), (0, 3)]
    assert paths[2].vertices == (4, 5, 6)
    seen = set()
    for p in paths:
        assert seen.isdisjoint(p.vertices)
        seen.update(p.vertices)


def test_pendant_paths_need_branch_root():
    # a bare path has no vertex of degree > 2, hence no pendant path
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert pendant_paths(g) == []


def test_canonical_key_relabel_invariant():
    rng = random.Random(42)
    for n in range(1, 8):
        for _ in range(20):
            edges = set()
            order = list(range(n))
            rng.shuffle(order)
            for i in range(1, n):
                edges.add(tuple(sorted((order[i], rng.choice(order[:i])))))
            extra = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if (a, b) not in edges and rng.random() < 0.3
            ]
            g = build_graph(n, sorted(edges) + extra)
            key = canonical_key(g)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key


def test_canonical_key_separates_nonisomorphic():
    """Equal keys exactly when networkx finds an isomorphism (n = 4, 5)."""
    for n in (4, 5):
        graphs = list(labeled_connected_graphs(n))
        keys = [canonical_key(g) for g in graphs]
        nxg = [to_nx(g) for g in graphs]
        rng = random.Random(7)
        idx = list(range(len(graphs)))
        pairs = {(a, b) for a in idx for b in idx if a < b and keys[a] == keys[b]}
        pairs |= {
            tuple(sorted(rng.sample(idx, 2))) for _ in range(300)
        }
        for a, b in sorted(pairs):
            assert (keys[a] == keys[b]) == nx.is_isomorphic(nxg[a], nxg[b])


def test_canonical_key_order_cap():
    g = build_graph(11, [(i, i + 1) for i in range(10)])
    with pytest.raises(GraphError, match="supports n"):
        canonical_key(g)


def test_key_from_masks_order_limit():
    # vertex ids are packed into 4 bits, so a 17th vertex would alias vertex 0
    def path(n):
        return [(1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0) for v in range(n)]

    assert key_from_masks(16, path(16))
    with pytest.raises(GraphError, match="16"):
        key_from_masks(17, path(17))
