"""Isomorph-free enumeration: counts, filters, determinism, the cap."""

from __future__ import annotations

import hashlib
import itertools
import random

import networkx as nx
import numpy as np
import pytest

from distspec import cli, enumeration
from distspec.enumeration import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    KEY_CHUNK,
    EnumFilter,
    Level,
    _level,
    catalog,
    connected_graphs,
    count_connected,
    filtered_graphs,
    max_order,
    twin_classes,
)
from distspec import graph6
from distspec.graph6 import encode_graph6
from distspec.graphs import (
    MAX_CANONICAL_N,
    Graph,
    GraphError,
    _ordering_table,
    _refine_many,
    _refinement_classes,
    build_graph,
    cut_counts,
    edges_of,
    is_connected,
    key_from_masks,
    keys_from_masks,
)
from distspec.spectral import brackets, distance_matrix, perron
from distspec.transforms import g_nk
from distspec.verify import sweep_graft, sweep_min_cut_edges, sweep_min_cut_vertices


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
        keys = [key_from_masks(n, g.masks) for g in graphs]
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
    # a cap below 1 is refused up front, not by every enumeration later
    for raw in ("0", "-3"):
        monkeypatch.setenv(ENV_MAX_N, raw)
        with pytest.raises(GraphError, match=rf"{ENV_MAX_N} must be in 1\.\.{MAX_CANONICAL_N}"):
            max_order()


def test_cap_override_limited_by_canonical_keys(monkeypatch):
    # levels above MAX_CANONICAL_N could not be keyed, so the cap refuses them
    monkeypatch.setenv(ENV_MAX_N, str(MAX_CANONICAL_N + 1))
    with pytest.raises(GraphError, match=ENV_MAX_N):
        max_order()


def brute_force_cut_counts(g):
    """Cut vertices and bridges counted by deleting each and testing connectivity."""
    cv = 0
    if g.n > 2:
        for v in range(g.n):
            keep = [x for x in range(g.n) if x != v]
            rest = [(keep.index(a), keep.index(b)) for a, b in g.edges if v not in (a, b)]
            cv += not is_connected(build_graph(g.n - 1, rest))
    ce = sum(not is_connected(build_graph(g.n, g.edges - {e})) for e in g.edges)
    return cv, ce


def test_catalog_keys_and_cut_counts():
    for n in range(1, 8):
        level = catalog(n)
        assert len(_level(n)) == count_connected(n) == len(level.masks)
        graphs = list(connected_graphs(n))
        keys = [key_from_masks(n, g.masks) for g in graphs]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        cuts, radii = level.cuts, level.radii
        assert len(cuts) == len(radii) == len(graphs)
        assert level.masks.dtype == np.uint16 and level.masks.shape == (len(graphs), n)
        rows = level.masks.tolist()
        for g, row, counts, ends in zip(graphs, rows, map(tuple, cuts.tolist()), radii.tolist()):
            assert row == masks_of(g)
            assert counts == cut_counts(row)
            if n <= 6:
                assert counts == brute_force_cut_counts(g)
            res = perron(distance_matrix(g))
            assert ends == [res.value, res.lower, res.upper]


def test_claim_table_is_one_read_only_float_array_per_order():
    # the claim table keeps each class's three bracket ends, the bits the
    # catalog's own stack gives, and no PerronResult
    for n in range(1, 9):
        level = catalog(n)
        radii = level.radii
        assert radii.dtype == np.float64 and radii.shape == (len(level), 3)
        assert not radii.flags.writeable
        want = [[r.value, r.lower, r.upper] for r in brackets(level.masks)]
        assert radii.tolist() == want
        assert level.radii is radii


def test_cut_table_is_one_read_only_array_per_order(monkeypatch):
    # the cut filters and the claim table read one (classes, 2) uint8 array,
    # built once per order and without a bracket
    def unbracketed(*args):
        raise AssertionError("the cut table bracketed a graph")

    for n in range(1, 9):
        level = Level(catalog(n).masks, catalog(n).keys)
        with monkeypatch.context() as m:
            m.setattr(enumeration, "brackets", unbracketed)
            cuts = level.cuts
        assert cuts.dtype == np.uint8 and cuts.shape == (len(level), 2)
        assert not cuts.flags.writeable
        assert cuts.tolist() == [list(cut_counts(row)) for row in level.masks.tolist()]
        assert level.cuts is cuts
    assert len(level.radii) == len(level)
    assert level.cuts is cuts


def test_filtered_graphs_match_a_per_row_filter(monkeypatch):
    def unbracketed(*args):
        raise AssertionError("the cut filters bracketed a graph")

    monkeypatch.setattr(enumeration, "brackets", unbracketed)
    for n in range(1, 8):
        rows = catalog(n).masks.tolist()
        for k in range(-1, n + 1):
            for filt in (
                EnumFilter(cut_vertex_count=k),
                EnumFilter(cut_edge_count=k),
                EnumFilter(cut_vertex_count=k, cut_edge_count=k),
                EnumFilter(cut_vertex_count=k, cut_edge_count=n - 1 - k),
            ):
                want = [
                    Graph(tuple(row))
                    for row in rows
                    if filt.cut_vertex_count in (None, cut_counts(row)[0])
                    and filt.cut_edge_count in (None, cut_counts(row)[1])
                ]
                assert list(filtered_graphs(n, filt)) == want, (n, filt)
        assert list(filtered_graphs(n, EnumFilter())) == list(connected_graphs(n))


def test_cache_clear_drops_the_catalog():
    filt = EnumFilter(cut_vertex_count=1, cut_edge_count=1)
    before = [encode_graph6(g) for g in filtered_graphs(6, filt)]
    assert before
    _level.cache_clear()
    assert _level.cache_info().currsize == 0
    assert [encode_graph6(g) for g in filtered_graphs(6, filt)] == before
    assert _level.cache_info().currsize == 6


def test_unfiltered_streams_build_no_cut_table(monkeypatch, capsys):
    # connected_graphs and the CLI's enumerate without cut flags share the
    # filtered stream, which reads the cut table only for a set count
    def uncounted(*args):
        raise AssertionError("an unfiltered stream built the cut table")

    _level.cache_clear()
    monkeypatch.setattr(enumeration, "cut_counts", uncounted)
    graphs = list(connected_graphs(7))
    assert len(graphs) == 853
    assert cli.main(["enumerate", "--n", "7"]) == 0
    assert capsys.readouterr().out.split() == [encode_graph6(g) for g in graphs]


def packed(n, key):
    """A key as the bytes the catalog digests were recorded over: n, then the key big-endian."""
    return bytes([n]) + key.to_bytes((n * (n - 1) // 2 + 7) // 8 or 1, "big")


def test_catalog_golden_bytes():
    # sha256 of every level's keys and graph6, from its graphs, for
    # n = 1..7, recorded before twin pruning: pruning may skip subsets but
    # never move a byte
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in connected_graphs(n):
            key = packed(n, key_from_masks(n, g.masks))
            h.update(key + b"\0" + encode_graph6(g).encode() + b"\n")
        h.update(b"--\n")
    assert h.hexdigest() == "e6046a39ae7c3a353fe99b891a9c27e5fefdd44f7060b4be530e572457915828"


def test_catalog_golden_bytes_n8():
    # the same digest for n = 8 alone, from the mask rows
    rows = catalog(8).masks.tolist()
    h = hashlib.sha256()
    for key, row in zip(keys_from_masks(8, rows), rows):
        h.update(packed(8, key) + b"\0" + encode_graph6(Graph(tuple(row))).encode() + b"\n")
    h.update(b"--\n")
    assert h.hexdigest() == "4cb837a25d57285e9c5371da38466b2f69a93842f70933925e87ee6f74678dfd"


def test_level_build_encodes_no_graph6(monkeypatch):
    import distspec

    calls = []

    def counted(real):
        def encode(*args):
            calls.append(args)
            return real(*args)

        return encode

    modules = [distspec] + [
        m for m in vars(distspec).values() if getattr(m, "__name__", "").startswith("distspec.")
    ]
    for name in ("encode_graph6", "encode_rows"):
        real = getattr(graph6, name)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted(real))
    _level.cache_clear()
    try:
        assert len(_level(7)) == 853
    finally:
        _level.cache_clear()
    assert calls == []


def test_level_build_drops_its_key_tables():
    # the key tables are per order, so none outlives the level build, and
    # the claim and graft sweeps after it key single graphs, without tables
    _level.cache_clear()
    _level(7)
    assert _ordering_table.cache_info().currsize == 0
    sweep_min_cut_vertices(7)
    sweep_min_cut_edges(7)
    sweep_graft(4, 4)
    assert _ordering_table.cache_info().currsize == 0
    test_catalog_golden_bytes()


def test_catalog_keeps_its_sorted_keys():
    # each catalog keeps the integer keys its build computed, one per row and
    # ascending, so any graph of the order finds its row by binary search
    for n in range(1, 9):
        level = catalog(n)
        keys = level.keys
        assert keys.dtype == np.int64 and keys.shape == (len(level),)
        assert not keys.flags.writeable
        assert np.all(keys[1:] > keys[:-1])
        assert keys.tolist() == keys_from_masks(n, level.masks)
    level, rng = catalog(8), random.Random(8)
    reports = sweep_min_cut_vertices(8)
    assert [r.instance["k"] for r in reports] == list(range(7))
    for r in reports:
        perm = list(range(8))
        rng.shuffle(perm)
        key = key_from_masks(8, relabelled(g_nk(8, r.instance["k"]), perm).masks)
        row = np.searchsorted(level.keys, key)
        assert level.keys[row] == key
        assert encode_graph6(Graph(tuple(level.masks[row].tolist()))) == r.witness["minimizer"]


def masks_of(g):
    return list(g.masks)


def relabelled(g, perm):
    """g with vertex i renamed perm[i]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def unpruned_level(parents, n):
    """The level build without twin pruning: every nonempty subset of every parent."""
    reps = {}
    new = n - 1
    for row in parents.masks.tolist():
        pmasks = row + [0]
        for sub in range(1, 1 << new):
            masks = pmasks.copy()
            masks[new] = sub
            for i in range(new):
                if sub >> i & 1:
                    masks[i] |= 1 << new
            reps.setdefault(key_from_masks(n, masks), masks)
    keys = sorted(reps)
    masks = np.array([reps[key] for key in keys], dtype=np.uint16)
    return Level(masks=masks, keys=np.array(keys, dtype=np.int64))


def test_twin_pruning_matches_unpruned_build():
    reference = _level(1)
    for n in range(2, 8):
        reference = unpruned_level(reference, n)
        level = _level(n)
        assert np.array_equal(level.masks, reference.masks)


def test_twin_pruning_key_calls(monkeypatch):
    # every keyed child passes through keys_from_masks, whichever evaluator
    # (batched table or scalar fallback) computes its key
    rows = {}
    batch_sizes = []
    real = enumeration.keys_from_masks

    def counted(n, batch):
        batch = list(batch)
        rows[n] = rows.get(n, 0) + len(batch)
        batch_sizes.append(len(batch))
        return real(n, batch)

    _level.cache_clear()
    monkeypatch.setattr(enumeration, "keys_from_masks", counted)
    try:
        _level(7)
    finally:
        _level.cache_clear()
    # the unpruned loop keys 1, 3, 14, 90, 651 and 7,056 children (7,815 in all)
    assert rows == {2: 1, 3: 2, 4: 8, 5: 53, 6: 417, 7: 4818}
    assert sum(rows.values()) == 5299
    assert max(batch_sizes) <= KEY_CHUNK


def test_keys_from_masks_on_every_level_child():
    # every child of the unpruned loop, each order in one batch, against the
    # scalar key and, for its colours, against the scalar refinement
    for n in range(2, 8):
        children = []
        for row in _level(n - 1).masks.tolist():
            pmasks = row + [0]
            for sub in range(1, 1 << n - 1):
                masks = pmasks.copy()
                masks[n - 1] = sub
                for i in range(n - 1):
                    if sub >> i & 1:
                        masks[i] |= 1 << n - 1
                children.append(masks)
        assert keys_from_masks(n, children) == [key_from_masks(n, m) for m in children]
        adjacency = (np.array(children)[:, :, None] >> np.arange(n)) & 1
        colours = _refine_many(adjacency).tolist()
        assert colours == [_refinement_classes(n, m) for m in children]


def test_twin_classes_examples():
    k4 = build_graph(4, itertools.combinations(range(4), 2))
    assert twin_classes(masks_of(k4)) == [[0, 1, 2, 3]]
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert twin_classes(masks_of(star)) == [[0], [1, 2, 3, 4]]
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert twin_classes(masks_of(p4)) == [[0], [1], [2], [3]]
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert twin_classes(masks_of(c4)) == [[0, 2], [1, 3]]


def test_twin_swaps_are_automorphisms():
    # the pruning rests on this: every pair inside a class swaps to the same graph
    for n in range(1, 7):
        for g in connected_graphs(n):
            classes = twin_classes(masks_of(g))
            assert sorted(v for cls in classes for v in cls) == list(range(n))
            for cls in classes:
                for u, w in itertools.combinations(cls, 2):
                    perm = list(range(n))
                    perm[u], perm[w] = w, u
                    assert relabelled(g, perm).edges == g.edges


def test_mask_cut_counts_match_networkx():
    # every class with n <= 8, from its catalog row alone
    for n in range(1, 9):
        for row in catalog(n).masks.tolist():
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges_of(row))
            expected = (len(list(nx.articulation_points(h))), len(list(nx.bridges(h))))
            assert cut_counts(row) == expected


def test_claim_table_reads_the_mask_array(monkeypatch):
    # the catalog stores its graphs as one uint16 mask array, and the claim
    # 3/4 sweeps decode no graph6 on the way to their reports and count
    # each class's cuts once, for both claims and every k
    import distspec
    from distspec import graph6, graphs, verify

    level = catalog(7)
    assert isinstance(level.masks, np.ndarray)
    assert level.masks.dtype == np.uint16 and level.masks.shape == (853, 7)
    calls = {"decode_graph6": 0, "cut_counts": 0}
    modules = [distspec] + [
        m for m in vars(distspec).values() if getattr(m, "__name__", "").startswith("distspec.")
    ]
    for name, real in (("decode_graph6", graph6.decode_graph6), ("cut_counts", graphs.cut_counts)):

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    _level.cache_clear()
    try:
        assert len(verify.sweep_min_cut_vertices(7)) == 6
        assert len(verify.sweep_min_cut_edges(7)) == 6
    finally:
        _level.cache_clear()
    assert calls == {"decode_graph6": 0, "cut_counts": 853}


def dense_rank(values):
    """Rank of each entry among the distinct values of its row, from 0."""
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    step = np.zeros_like(ordered)
    step[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(ordered)
    np.put_along_axis(ranks, order, np.cumsum(step, axis=1), axis=1)
    return ranks


def one_hot_refine_many(adj):
    """Reference oracle: _refine_many by a one-hot count product each round.

    Each round counts every vertex's neighbours of each colour as
    adj @ onehot(colours), a (rows, n, n) by (rows, n, n) product, and
    dense-ranks the rows by (colour, n-1-counts packed 4 bits a field).
    """
    n = adj.shape[1]
    colours = dense_rank(adj.sum(axis=2))
    weights = 16 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    while True:
        counts = adj @ (colours[:, :, None] == np.arange(n))
        new = dense_rank((colours << (4 * n)) + (n - 1 - counts) @ weights)
        if np.array_equal(new, colours):
            return colours
        colours = new


def test_refine_many_equals_the_one_hot_refinement():
    # every twin-pruned child the level build keys, each order in one batch
    total = 0
    for n in range(2, 8):
        children = []
        for parent in _level(n - 1).masks.tolist():
            for sub in enumeration._twin_pruned_subsets(twin_classes(parent)):
                joined = [m | (sub >> i & 1) << n - 1 for i, m in enumerate(parent)]
                children.append(joined + [sub])
        adjacency = (np.array(children)[:, :, None] >> np.arange(n)) & 1
        assert np.array_equal(_refine_many(adjacency), one_hot_refine_many(adjacency))
        total += len(children)
    assert total == 5299
