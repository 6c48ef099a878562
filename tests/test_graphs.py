"""Graph construction, cut structure, pendant paths, and canonical keys."""

from __future__ import annotations

import dataclasses
import itertools
import random
from math import factorial, prod

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distspec import graphs
from distspec.graphs import (
    KEY_TABLE_BUDGET,
    GraphError,
    _refine_many,
    _refinement_classes,
    block_masks,
    build_graph,
    cut_counts,
    is_connected,
    key_from_masks,
    keys_from_masks,
)
from distspec.spectral import distance_matrix


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


def relabelled(g, perm):
    """g with vertex i renamed perm[i]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.neighbors(1) == (0, 2)
    assert g.degrees == (1, 2, 2, 1)
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)


def test_has_edge_outside_the_vertex_range():
    # a mask index of -1 would wrap to the last vertex and report 0 ~ -1
    g = build_graph(2, [(0, 1)])
    assert not g.has_edge(-1, 0)
    assert not g.has_edge(0, -1)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(2, 0)


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="outside"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(0, [])


def block_sets(g):
    """The blocks of g as vertex sets, in block_masks' completion order."""
    return tuple(frozenset(v for v in range(g.n) if b >> v & 1) for b in block_masks(g.masks))


def cut_sets(g):
    """(cut vertices, cut edges) read off the blocks: a vertex in two of them, a 2-vertex one."""
    found = block_sets(g)
    cut_vs = {v for v in range(g.n) if sum(v in b for b in found) > 1}
    return frozenset(cut_vs), frozenset((min(b), max(b)) for b in found if len(b) == 2)


def test_distance_rows_path_and_disconnected():
    # hop distances are the rows of the distance matrix; a disconnected
    # graph has none, where a BFS would mark the unreached vertices
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert distance_matrix(g)[0].tolist() == [0, 1, 2, 3]
    g2 = build_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g2)
    with pytest.raises(GraphError, match="not connected"):
        distance_matrix(g2)


def test_cut_structure_against_brute_force():
    """Articulation vertices and bridges agree with removal-based checks."""
    for n in range(2, 6):
        for g in labeled_connected_graphs(n):
            cv, ce = cut_sets(g)
            assert cut_counts(g.masks) == (len(cv), len(ce))
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

            brute_ce = set()
            for e in g.edges:
                sub = build_graph(n, [f for f in g.edges if f != e])
                if not is_connected(sub):
                    brute_ce.add(e)
            assert ce == frozenset(brute_ce)


def test_blocks_tree_and_bull():
    tree = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert sorted(sorted(b) for b in block_sets(tree)) == [[0, 1], [1, 2], [1, 3], [3, 4]]
    assert cut_sets(tree) == (frozenset({1, 3}), tree.edges)

    bull = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    assert sorted(sorted(b) for b in block_sets(bull)) == [[0, 1, 2], [1, 3], [2, 4]]
    assert cut_sets(bull) == (frozenset({1, 2}), frozenset({(1, 3), (2, 4)}))
    assert cut_counts(bull.masks) == (2, 2)


def test_blocks_partition_edges():
    for n in range(2, 6):
        for g in labeled_connected_graphs(n):
            covered = []
            for b in block_sets(g):
                covered.extend(
                    e for e in g.edges if e[0] in b and e[1] in b
                )
            assert sorted(covered) == sorted(g.edges)


def test_single_vertex_block():
    g = build_graph(1, [])
    assert block_sets(g) == (frozenset({0}),)
    assert cut_sets(g) == (frozenset(), frozenset())
    assert cut_counts(g.masks) == (0, 0)


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
            key = key_from_masks(n, g.masks)
            perm = list(range(n))
            rng.shuffle(perm)
            assert key_from_masks(n, relabelled(g, perm).masks) == key


def test_canonical_key_separates_nonisomorphic():
    """Equal keys exactly when networkx finds an isomorphism (n = 4, 5)."""
    for n in (4, 5):
        graphs = list(labeled_connected_graphs(n))
        keys = [key_from_masks(n, g.masks) for g in graphs]
        nxg = [to_nx(g) for g in graphs]
        rng = random.Random(7)
        idx = list(range(len(graphs)))
        pairs = {(a, b) for a in idx for b in idx if a < b and keys[a] == keys[b]}
        pairs |= {
            tuple(sorted(rng.sample(idx, 2))) for _ in range(300)
        }
        for a, b in sorted(pairs):
            assert (keys[a] == keys[b]) == nx.is_isomorphic(nxg[a], nxg[b])


def path_masks(n):
    return [(1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0) for v in range(n)]


def masks_of(g):
    return list(g.masks)


def test_key_from_masks_order_limit():
    # vertex ids are packed into 4 bits, so a 17th vertex would alias vertex 0
    assert key_from_masks(16, path_masks(16))
    with pytest.raises(GraphError, match="16"):
        key_from_masks(17, path_masks(17))


@st.composite
def relabelled_batches(draw):
    """(n, masks): graphs of one order n <= 10, each followed by a random relabelling."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = build_graph(n, picks)
        batch += [masks_of(g), masks_of(relabelled(g, draw(st.permutations(range(n)))))]
    return n, batch


@settings(max_examples=80, deadline=None)
@given(relabelled_batches())
def test_keys_from_masks_matches_scalar_under_relabelling(case):
    n, batch = case
    keys = keys_from_masks(n, batch)
    assert keys == [key_from_masks(n, m) for m in batch]
    assert keys[0::2] == keys[1::2]
    adjacency = (np.array(batch)[:, :, None] >> np.arange(n)) & 1
    assert _refine_many(adjacency).tolist() == [_refinement_classes(n, m) for m in batch]


def test_keys_from_masks_regular_graphs_fall_back(monkeypatch):
    # one refinement class of n vertices has n! orderings: past n = 6 their
    # table exceeds the budget and the row goes to key_from_masks
    def cycle(n):
        return [(i, (i + 1) % n) for i in range(n)]

    cases = [(n, list(itertools.combinations(range(n), 2))) for n in range(2, 11)]
    cases += [(n, cycle(n)) for n in range(3, 11)]
    cases += [
        (6, [(a, b) for a in range(3) for b in range(3, 6)]),
        (8, [(a, b) for a in range(4) for b in range(4, 8)]),
        (8, [(a, a | 1 << i) for a in range(8) for i in range(3) if not a >> i & 1]),
        (10, cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]),
    ]
    batches = {}
    for n, edges in cases:
        batches.setdefault(n, []).append(masks_of(build_graph(n, edges)))
    fallbacks = {}
    real = graphs.key_from_masks

    def counted(n, masks):
        fallbacks[n] = fallbacks.get(n, 0) + 1
        return real(n, masks)

    monkeypatch.setattr(graphs, "key_from_masks", counted)
    for n, batch in batches.items():
        # a path rides along in the same batch on an ordering table
        batch.append(path_masks(n))
        assert keys_from_masks(n, batch) == [key_from_masks(n, m) for m in batch]
    # K_n and C_n from 7 on, then K_{4,4}, the cube and the Petersen graph
    assert fallbacks == {7: 2, 8: 4, 9: 2, 10: 3}


def list_built_ordering_table(n, shape):
    """Reference oracle: _ordering_table from the orderings listed one by one.

    itertools.product over each class's permutations, one ordering a
    column, filled pair by pair in Python.
    """
    nbits = n * (n - 1) // 2
    if prod(map(factorial, shape)) * nbits > KEY_TABLE_BUDGET:
        return None
    starts = list(itertools.accumulate((0,) + shape[:-1]))
    orderings = [
        [q for part in parts for q in part]
        for parts in itertools.product(
            *(itertools.permutations(range(s, s + size)) for s, size in zip(starts, shape))
        )
    ]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    table = np.zeros((nbits, len(orderings)))
    for m, ordering in enumerate(orderings):
        for t, (i, j) in enumerate(pairs):
            lo, hi = sorted((ordering[i], ordering[j]))
            table[hi * (hi - 1) // 2 + lo, m] = 2.0 ** (nbits - 1 - t)
    return table


def compositions(n):
    """Every tuple of positive sizes summing to n."""
    yield (n,)
    for first in range(1, n):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_ordering_table_equals_the_list_built_table():
    # every class-size composition within the budget, n <= 8
    within = 0
    for n in range(2, 9):
        for shape in compositions(n):
            want = list_built_ordering_table(n, shape)
            got = graphs._ordering_table(n, shape)
            if want is None:
                assert got is None
            else:
                within += 1
                assert got is not None and np.array_equal(got, want), (n, shape)
    graphs._ordering_table.cache_clear()
    assert within == 250


def test_keys_from_masks_edge_cases():
    assert keys_from_masks(1, [[0], [0]]) == [0, 0]
    assert keys_from_masks(5, []) == []
    # above MAX_CANONICAL_N every row takes the scalar path
    assert keys_from_masks(12, [path_masks(12)]) == [key_from_masks(12, path_masks(12))]
    with pytest.raises(GraphError, match="16"):
        keys_from_masks(17, [path_masks(17)])
    with pytest.raises(GraphError, match="16"):
        keys_from_masks(17, [])


def edge_stack_blocks(g):
    """Reference oracle: the biconnected decomposition by an edge-stack DFS.

    From vertex 0, neighbours in ascending order; a block's vertices are
    those of the edges popped when (p, u) closes it.  Returns the block
    vertex sets in completion order.
    """
    assert is_connected(g)
    if g.n == 1:
        return (frozenset({0}),)
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    counter = 0
    estack = []
    found = []
    stack = [(0, 0)]
    while stack:
        u, i = stack[-1]
        if i == 0:
            disc[u] = low[u] = counter
            counter += 1
        if i < len(g.neighbors(u)):
            stack[-1] = (u, i + 1)
            w = g.neighbors(u)[i]
            if disc[w] < 0:
                parent[w] = u
                estack.append((u, w))
                stack.append((w, 0))
            elif w != parent[u] and disc[w] < disc[u]:
                estack.append((u, w))
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            p = parent[u]
            if p >= 0:
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    members = set()
                    while True:
                        a, b = estack.pop()
                        members |= {a, b}
                        if (a, b) == (p, u):
                            break
                    found.append(frozenset(members))
    return tuple(found)


def test_mask_blocks_equal_the_edge_stack_dfs():
    # block for block and in completion order, on every connected graph
    # with n <= 7 and on its block-clique closure
    from distspec.enumeration import connected_graphs
    from distspec.transforms import block_clique_closure

    for n in range(1, 8):
        for g in connected_graphs(n):
            for h in (g, block_clique_closure(g)):
                assert block_sets(h) == edge_stack_blocks(h)
                cv, ce = cut_sets(h)
                assert cut_counts(masks_of(h)) == (len(cv), len(ce))


@st.composite
def connected_graphs_up_to_16(draw):
    """A random spanning tree on a shuffled vertex order plus random extra edges."""
    n = draw(st.integers(1, 16))
    order = draw(st.permutations(range(n)))
    edges = {tuple(sorted((order[i], order[draw(st.integers(0, i - 1))]))) for i in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return build_graph(n, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(connected_graphs_up_to_16())
def test_mask_blocks_equal_the_edge_stack_dfs_random(g):
    assert block_sets(g) == edge_stack_blocks(g)
    cv, ce = cut_sets(g)
    assert cut_counts(g.masks) == (len(cv), len(ce))


def test_block_masks_guard_connectivity():
    # a disconnected input raises instead of returning the blocks of one component
    for masks in ([0, 0], [0b010, 0b001, 0], [0b0010, 0b0001, 0b1000, 0b0100]):
        with pytest.raises(GraphError, match="not connected"):
            block_masks(masks)
        with pytest.raises(GraphError, match="not connected"):
            cut_counts(masks)
    assert block_masks([0]) == [1]
    assert cut_counts([0]) == (0, 0)
    assert cut_counts([0b10, 0b01]) == (0, 1)


def test_graph_from_masks_equals_build_graph():
    # Graph(masks) is the unchecked constructor; on the same edges it gives
    # exactly what build_graph validates and builds
    assert [f.name for f in dataclasses.fields(graphs.Graph)] == ["masks"]
    for g in labeled_connected_graphs(4):
        edges = sorted(g.edges)
        masks = [0] * g.n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        assert graphs.Graph(tuple(masks)) == build_graph(g.n, edges)
    # numpy endpoints still give Python int masks, which do not wrap at 64 bits
    big = build_graph(70, [(np.int64(0), np.int64(69))])
    assert big.masks[0] == 1 << 69 and all(type(m) is int for m in big.masks)
