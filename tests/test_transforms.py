"""Family constructions, graft shifts, edge relocation, block closure."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import networkx as nx
import pytest

from distspec import verify
from distspec.enumeration import connected_graphs
from distspec.graph6 import decode_graph6
from distspec.graphs import (
    GraphError,
    build_graph,
    cut_counts,
    is_connected,
    key_from_masks,
)
from distspec.spectral import distance_matrices, distance_matrix
from distspec.transforms import (
    GraftSite,
    HypothesisError,
    RelocationSpec,
    block_clique_closure,
    component_without,
    distance_dominates,
    _witnesses,
    g_nk,
    graft,
    k_nk,
    make_base,
    relocate_edges,
    validate_relocation,
)
from distspec.verify import relocation_specs


def relocation_spec(g, u, v, targets):
    """A RelocationSpec checked by validate_relocation."""
    spec = RelocationSpec(g=g, u=u, v=v, targets=tuple(sorted(set(targets))))
    validate_relocation(spec)
    return spec


def witness(spec, relocated=None):
    """The relocation witness of one spec, as a batch of one."""
    moved = relocate_edges(spec) if relocated is None else relocated
    return _witnesses([spec], distance_matrices([spec.g, moved]))[0]


def test_make_base():
    assert make_base("complete", 4).m == 6
    assert make_base("path", 4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert make_base("cycle", 3).edges == frozenset({(0, 1), (1, 2), (0, 2)})
    with pytest.raises(GraphError):
        make_base("cycle", 2)
    with pytest.raises(GraphError):
        make_base("torus", 3)


def test_graft_and_family_shapes():
    base = make_base("complete", 3)
    member = graft(GraftSite(base=base, u=0, v=1, k=2, l=1))
    assert member.n == 6
    assert member.edges - base.edges == frozenset({(0, 3), (3, 4), (1, 5)})
    assert member.degrees[5] == 1

    # one path only: new labels in walk order from the root
    flat = graft(GraftSite(base=base, u=1, v=0, k=2, l=0))
    assert flat.edges - base.edges == frozenset({(1, 3), (3, 4)})
    assert graft(GraftSite(base=base, u=1, v=0, k=0, l=0)) == base


def test_grafted_graphs_equal_build_graph():
    # graft extends the base's adjacency in place of build_graph; the result
    # must be the same Graph value, neighbour tuples sorted
    for n in range(2, 5):
        for base in connected_graphs(n):
            for u, v in sorted(base.edges):
                for a, b in ((u, v), (v, u)):
                    for k in range(4):
                        for l in range(4):
                            g = graft(GraftSite(base=base, u=a, v=b, k=k, l=l))
                            edges = list(base.edges)
                            edges += [(a, n)] if k else []
                            edges += [(n + i, n + i + 1) for i in range(k - 1)]
                            edges += [(b, n + k)] if l else []
                            edges += [(n + k + i, n + k + i + 1) for i in range(l - 1)]
                            ref = build_graph(n + k + l, edges)
                            assert g == ref
                            assert [(g.neighbors(w), g.degrees[w]) for w in range(g.n)] == [
                                (ref.neighbors(w), ref.degrees[w]) for w in range(ref.n)
                            ]


def test_graft_site_validation():
    base = make_base("path", 3)
    with pytest.raises(GraphError):
        graft(GraftSite(base=base, u=0, v=2, k=1, l=1))  # not adjacent
    with pytest.raises(GraphError):
        graft(GraftSite(base=base, u=0, v=1, k=-1, l=0))


def chain_positions(site, g):
    """Tip-to-tip ordering of the two attached paths through u and v."""
    nb = site.base.n
    u_path = list(range(nb, nb + site.k))
    v_path = list(range(nb + site.k, nb + site.k + site.l))
    return u_path[::-1] + [site.u, site.v] + v_path


def test_shift_distance_template():
    """The one-step shift changes distances in the documented block pattern.

    Pairing chain positions of the member with chain positions of the
    shifted graph and fixing the remaining base vertices: chain-to-chain
    distances are unchanged, the longer side gains 1 against the base
    remainder, the shorter side loses 1, and the junction vertex moves by
    the sign of each base vertex's side classification.
    """
    rng = random.Random(42)
    sites = [
        GraftSite(base=make_base("complete", 3), u=0, v=1, k=1, l=1),
        GraftSite(base=make_base("complete", 3), u=2, v=0, k=2, l=1),
        GraftSite(base=make_base("cycle", 5), u=1, v=2, k=2, l=2),
    ]
    pool = [g for n in (4, 5, 6) for g in connected_graphs(n)]
    while len(sites) < 40:
        base = rng.choice(pool)
        u, v = rng.choice(sorted(base.edges))
        if rng.random() < 0.5:
            u, v = v, u
        sites.append(
            GraftSite(base=base, u=u, v=v, k=rng.randint(1, 3), l=rng.randint(1, 2))
        )
    for site in sites:
        member = graft(site)
        shifted_site = GraftSite(
            base=site.base, u=site.u, v=site.v, k=site.k + 1, l=site.l - 1
        )
        shifted = graft(shifted_site)
        chain_m = chain_positions(site, member)
        chain_s = chain_positions(shifted_site, shifted)
        assert len(chain_m) == len(chain_s)
        sigma = dict(zip(chain_m, chain_s))
        rest = [w for w in range(site.base.n) if w not in (site.u, site.v)]
        for w in rest:
            sigma[w] = w

        dm = distance_matrix(member)
        dsh = distance_matrix(shifted)
        du = dm[site.u]
        dv = dm[site.v]
        long_side = set(chain_m[: site.k + 1])
        junction = chain_m[site.k + 1]
        short_side = set(chain_m[site.k + 2 :])
        chain_set = set(chain_m)
        for x in range(member.n):
            for y in range(x + 1, member.n):
                delta = int(dsh[sigma[x], sigma[y]]) - int(dm[x, y])
                if x in chain_set and y in chain_set:
                    assert delta == 0
                elif x in chain_set or y in chain_set:
                    c, w = (x, y) if x in chain_set else (y, x)
                    if c in long_side:
                        assert delta == 1
                    elif c in short_side:
                        assert delta == -1
                    else:
                        assert c == junction
                        assert delta == int(du[w]) - int(dv[w])
                else:
                    assert delta == 0


def test_g_nk_invariants():
    for n in range(4, 9):
        for k in range(0, n - 1):
            g = g_nk(n, k)
            assert g.n == n
            assert cut_counts(g.masks)[0] == k
    assert g_nk(5, 0).edges == make_base("complete", 5).edges
    assert key_from_masks(6, g_nk(6, 4).masks) == key_from_masks(6, make_base("path", 6).masks)
    with pytest.raises(GraphError):
        g_nk(5, 4)
    with pytest.raises(GraphError):
        g_nk(5, -1)


def test_g_nk_balanced_paths():
    # 5 = 3 paths over a K_3: lengths 2, 2, 1, each walked from its tip to
    # the first vertex of degree > 2
    g = g_nk(8, 5)
    lengths = []
    for tip in (v for v in range(g.n) if g.degrees[v] == 1):
        prev, cur, length = None, tip, 0
        while g.degrees[cur] <= 2:
            prev, cur = cur, next(w for w in g.neighbors(cur) if w != prev)
            length += 1
        lengths.append(length)
    assert sorted(lengths) == [1, 2, 2]


def test_k_nk_invariants():
    for n in range(4, 9):
        for k in list(range(0, n - 2)) + [n - 1]:
            g = k_nk(n, k)
            assert g.n == n
            assert cut_counts(g.masks)[1] == k
    star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert key_from_masks(5, k_nk(5, 4).masks) == key_from_masks(5, star.masks)
    with pytest.raises(GraphError, match="n-2"):
        k_nk(5, 3)
    with pytest.raises(GraphError):
        k_nk(5, 5)


def test_relocation_star_to_path():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    spec = relocation_spec(star, 0, 1, (2,))
    assert spec.c1 == frozenset({1})
    moved = relocate_edges(spec)
    assert moved.edges == frozenset({(0, 1), (1, 2), (0, 3)})
    assert witness(spec, moved) == 3

    both = relocation_spec(star, 0, 1, (2, 3))
    rehung = relocate_edges(both)
    assert rehung.edges == frozenset({(0, 1), (1, 2), (1, 3)})
    assert witness(both, rehung) is None


def test_relocation_hypothesis_errors():
    p4 = make_base("path", 4)
    with pytest.raises(HypothesisError) as err:
        relocation_spec(p4, 0, 2, (1,))
    assert err.value.clause == "adjacency"

    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(HypothesisError) as err:
        relocation_spec(star, 0, 1, ())
    assert err.value.clause == "targets"
    with pytest.raises(HypothesisError) as err:
        relocation_spec(p4, 1, 2, (3,))  # target inside c1
    assert err.value.clause == "targets"

    # u outside the graph fails the adjacency clause, as v outside it does
    c4 = decode_graph6("Cr")
    for u, v in ((9, 0), (-1, 0), (0, 9)):
        with pytest.raises(HypothesisError) as err:
            relocation_spec(c4, u, v, [1])
        assert err.value.clause == "adjacency"

    # v keeps a c1 neighbor that u lacks: mirror condition broken
    g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    with pytest.raises(HypothesisError) as err:
        relocation_spec(g, 0, 1, (3,))
    assert err.value.clause == "neighborhood"


def test_relocation_no_witness_on_path():
    p3 = make_base("path", 3)
    spec = relocation_spec(p3, 1, 0, (2,))
    assert witness(spec) is None


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def articulation_points(g):
    return set(nx.articulation_points(to_nx(g)))


def test_find_witness_matches_networkx_distances():
    # every spec the relocation sweep makes up to n = 6, against the
    # smallest qualifying vertex by networkx shortest-path lengths
    seen = {True: 0, False: 0}
    for spec in relocation_specs(6):
        assert spec.c1 == component_without(spec.g, spec.u, spec.v)
        old = dict(nx.all_pairs_shortest_path_length(to_nx(spec.g)))
        new = dict(nx.all_pairs_shortest_path_length(to_nx(relocate_edges(spec))))
        brute = next(
            (
                w
                for w in range(spec.g.n)
                if w != spec.u
                and w not in spec.c1
                and all(old[t][w] < new[t][w] for t in spec.targets)
            ),
            None,
        )
        assert witness(spec) == brute, spec
        seen[brute is None] += 1
    assert sum(seen.values()) == 643 and min(seen.values()) > 0, seen


def test_witness_override_passes_the_search_rule():
    # every vertex as the override of every spec the relocation sweep makes
    # up to n = 6: a report names the override exactly when it lies outside
    # c1 and u and networkx distances to every target grow there; otherwise
    # the claim does not apply (INCONCLUSIVE, failed clause "witness")
    overridden, qualifies = [], []
    for spec in relocation_specs(6):
        old = dict(nx.all_pairs_shortest_path_length(to_nx(spec.g)))
        new = dict(nx.all_pairs_shortest_path_length(to_nx(relocate_edges(spec))))
        for w in range(spec.g.n):
            overridden.append(dataclasses.replace(spec, witness=w))
            qualifies.append(
                w != spec.u
                and w not in spec.c1
                and all(old[t][w] < new[t][w] for t in spec.targets)
            )
    batches = verify._batches(overridden, verify._relocation_reports)
    reports = [r for batch in batches for r in batch]
    verdicts = Counter()
    for spec, ok, rep in zip(overridden, qualifies, reports):
        if ok:
            assert rep.witness["witness_vertex"] == spec.witness, spec
            verdicts[rep.outcome] += 1
        else:
            assert rep.outcome == "INCONCLUSIVE", spec
            assert rep.witness["failed_clause"] == "witness", spec
    assert len(reports) == len(overridden) and verdicts["PASS"] and verdicts["FAIL"], verdicts


def test_relocation_preserves_connectivity():
    count = 0
    for n in range(3, 6):
        for g in connected_graphs(n):
            for v in range(g.n):
                if g.degrees[v] != 1:
                    continue
                u = g.neighbors(v)[0]
                rest = [t for t in g.neighbors(u) if t != v]
                if not rest:
                    continue
                spec = relocation_spec(g, u, v, (rest[0],))
                assert is_connected(relocate_edges(spec))
                count += 1
    assert count > 20


def test_component_without():
    p4 = make_base("path", 4)
    assert component_without(p4, 1, 0) == frozenset({0})
    assert component_without(p4, 1, 2) == frozenset({2, 3})
    with pytest.raises(GraphError):
        component_without(p4, 1, 1)


def test_block_clique_closure():
    c5 = make_base("cycle", 5)
    assert block_clique_closure(c5).edges == make_base("complete", 5).edges

    bull = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    assert block_clique_closure(bull).edges == bull.edges

    tadpole = graft(GraftSite(base=make_base("cycle", 4), u=0, v=1, k=1, l=0))
    closed = block_clique_closure(tadpole)
    assert closed.edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)}
    )


def test_closure_idempotent_and_cut_preserving():
    for n in range(2, 7):
        for g in connected_graphs(n):
            closed = block_clique_closure(g)
            assert block_clique_closure(closed).edges == closed.edges
            assert articulation_points(closed) == articulation_points(g)
            assert distance_dominates(
                distance_matrix(closed), distance_matrix(g)
            )


def test_distance_dominates():
    p4 = distance_matrix(make_base("path", 4))
    c4 = distance_matrix(make_base("cycle", 4))
    assert distance_dominates(c4, p4)
    assert not distance_dominates(p4, c4)
    assert distance_dominates(p4, p4)
