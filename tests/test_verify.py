"""Verifier outcomes: certificates, honest failures, and report shape."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from distspec import enumeration, spectral, verify
from distspec.enumeration import catalog, connected_graphs
from distspec.graph6 import decode_graph6
from distspec.graphs import Graph, GraphError, PendantPath, build_graph
from distspec.transforms import (
    GraftSite,
    RelocationSpec,
    block_clique_closure,
    graft,
    make_base,
)
from distspec.verify import (
    pendant_report_for_site,
    report_json,
    sweep_graft,
    sweep_min_cut_edges,
    sweep_min_cut_vertices,
    sweep_monotonicity,
    sweep_pendant,
    sweep_perturbation,
    sweep_relocation,
    verify_distance_monotonicity,
    verify_graft_monotonicity,
    verify_min_cut_edges,
    verify_min_cut_vertices,
    verify_pendant_sum,
    verify_perturbation_bound,
    verify_relocation,
)


def test_graft_strict_shift_passes():
    site = GraftSite(base=make_base("complete", 3), u=0, v=1, k=2, l=1)
    rep = verify_graft_monotonicity(site)
    assert rep.outcome == "PASS"
    assert rep.certified_gap > 0.6
    assert rep.witness["shift_to_u_member_bracket"]["lambda"] < rep.witness["shift_to_u_shift_bracket"]["lambda"]


def test_graft_disjunction_names_winner():
    site = GraftSite(base=make_base("complete", 3), u=0, v=1, k=1, l=1)
    rep = verify_graft_monotonicity(site)
    assert rep.outcome == "PASS"
    assert rep.witness["certified_disjunct"] in ("shift_to_u", "shift_to_v")


def test_graft_two_vertex_base_fails_by_isomorphism():
    """Both attach points on a single edge give one path graph per total
    length, so every shift is isomorphic to the member and the strict
    inequality is exactly refuted.  At k = l = 5 the path has 12 vertices,
    past the catalog's order cap, which the isomorphism test must reach."""
    for k in (1, 5):
        site = GraftSite(base=make_base("complete", 2), u=0, v=1, k=k, l=k)
        rep = verify_graft_monotonicity(site)
        assert rep.outcome == "FAIL"
        assert rep.certified_gap == 0.0
        assert rep.witness["shift_to_u_isomorphic_to_member"] is True
        assert rep.witness["shift_to_v_isomorphic_to_member"] is True

    strict = verify_graft_monotonicity(
        GraftSite(base=make_base("complete", 2), u=0, v=1, k=2, l=1)
    )
    assert strict.outcome == "FAIL"


def test_graft_holds_on_every_base_of_three_or_more_vertices():
    # the amended statement at small scale: every FAIL of the grid is on the
    # one-edge base A_, where each shift is the member's path again
    reports = sweep_graft(5, 8)
    wide = [r for r in reports if decode_graph6(r.instance["base"]).n >= 3]
    assert len(wide) == 5120
    assert all(r.outcome == "PASS" for r in wide)
    assert min(r.certified_gap for r in wide) > 0.1
    fails = [r for r in reports if r.outcome == "FAIL"]
    assert len(fails) == 32
    assert {r.instance["base"] for r in fails} == {"A_"}


def test_graft_requires_positive_budgets():
    with pytest.raises(GraphError):
        verify_graft_monotonicity(
            GraftSite(base=make_base("complete", 3), u=0, v=1, k=1, l=2)
        )
    with pytest.raises(GraphError):
        verify_graft_monotonicity(
            GraftSite(base=make_base("complete", 3), u=0, v=1, k=1, l=0)
        )


@pytest.mark.parametrize(
    "site, message",
    [
        (GraftSite(base=make_base("path", 3), u=1, v=1, k=2, l=1), "roots must be distinct"),
        (GraftSite(base=make_base("path", 3), u=0, v=2, k=2, l=1), "must be adjacent"),
        (GraftSite(base=build_graph(4, [(0, 1), (2, 3)]), u=0, v=1, k=2, l=1), "connected"),
    ],
)
def test_graft_site_checks_match_the_builders(site, message):
    # the batch functions check their sites themselves, each base's
    # connectivity once; a malformed site raises as graft would, also
    # behind a valid one in the same batch
    for check in (graft, verify_graft_monotonicity, pendant_report_for_site):
        with pytest.raises(GraphError, match=message):
            check(site)
    valid = GraftSite(base=make_base("path", 3), u=0, v=1, k=2, l=1)
    with pytest.raises(GraphError, match=message):
        verify._graft_reports([valid, site])
    with pytest.raises(GraphError, match=message):
        verify._pendant_reports([valid, site])


def test_pendant_sum_pass_and_validation():
    site = GraftSite(base=make_base("complete", 3), u=0, v=1, k=2, l=1)
    rep = pendant_report_for_site(site)
    assert rep.outcome == "PASS"
    assert rep.witness["long_sum_with_root"] > rep.witness["short_sum_with_root"]

    member = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])
    with pytest.raises(GraphError, match="adjacent"):
        verify_pendant_sum(
            member,
            PendantPath(root=2, vertices=(3, 4)),
            PendantPath(root=0, vertices=(5,)),
        )
    with pytest.raises(GraphError, match="k > l"):
        pendant_report_for_site(
            GraftSite(base=make_base("complete", 3), u=0, v=1, k=1, l=1)
        )


def test_pendant_sum_checks_its_paths():
    # F{CI?: a triangle 0-1-2, the pendant path 3-4-5 at 0 and 6 at 1
    g = decode_graph6("F{CI?")
    short = PendantPath(root=1, vertices=(6,))
    assert verify_pendant_sum(g, PendantPath(root=0, vertices=(3, 4, 5)), short).outcome == "PASS"
    for cut in ((2, 1), (3, 4)):  # the tip 1 has degree 3, the tip 4 degree 2
        with pytest.raises(GraphError, match="no pendant path"):
            verify_pendant_sum(g, PendantPath(root=0, vertices=cut), short)
    # on the path 0-1-2-3-4 each hangs off its root, but they overlap
    with pytest.raises(GraphError, match="share"):
        verify_pendant_sum(
            make_base("path", 5),
            PendantPath(root=1, vertices=(2, 3, 4)),
            PendantPath(root=2, vertices=(1, 0)),
        )
    # roots of degree 2 qualify: the cor1 site on A_ reports the same either way
    site = GraftSite(base=decode_graph6("A_"), u=0, v=1, k=2, l=1)
    paths = PendantPath(root=0, vertices=(2, 3)), PendantPath(root=1, vertices=(4,))
    assert report_json(verify_pendant_sum(graft(site), *paths)) == report_json(
        pendant_report_for_site(site)
    )


def test_pendant_sum_tie_needs_exact_followup():
    # masses that tie are within any tolerance: INCONCLUSIVE, and it says why
    g = decode_graph6("F{CI?")
    vector = np.array([0.25, 0.5, 0.1, 0.25, 0.25, 0.25, 0.5])
    res = spectral.PerronResult(3.0, 3.0, 3.0, 0.0, 1, vector)
    paths = PendantPath(root=0, vertices=(3, 4, 5)), PendantPath(root=1, vertices=(6,))
    rep = verify._pendant_sum(g, *paths, res, "F{CI?")
    assert rep.witness["long_sum_with_root"] == rep.witness["short_sum_with_root"] == 1.0
    assert rep.outcome == "INCONCLUSIVE"
    assert rep.witness["needs_exact_followup"] is True


def test_relocation_star_instance():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    rep = verify_relocation(RelocationSpec(g=star, u=0, v=1, targets=(2,)))
    assert rep.outcome == "PASS"
    assert abs(rep.certified_gap - (math.sqrt(10) - math.sqrt(7))) < 1e-6


def test_relocation_inconclusive_without_witness():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    rep = verify_relocation(RelocationSpec(g=star, u=0, v=1, targets=(2, 3)))
    assert rep.outcome == "INCONCLUSIVE"
    assert rep.witness["failed_clause"] == "witness"


def test_relocation_inconclusive_on_bad_hypothesis():
    g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    spec = RelocationSpec(g=g, u=0, v=1, targets=(3,), witness=None)
    rep = verify_relocation(spec)
    assert rep.outcome == "INCONCLUSIVE"
    assert rep.witness["failed_clause"] == "neighborhood"


def test_relocation_counterexample_fails_honestly():
    """A valid witnessed move whose radius strictly drops.

    Moving edge 0-1 onto the pendant 3 opens a shortcut from vertex 5 to
    vertex 3 (3 hops down to 2), which the move's distance accounting does
    not cover; the radius falls from about 8.8990 to 8.8219, certified by
    disjoint brackets, so the verifier must report FAIL, not PASS.
    """
    g = decode_graph6("Es`_")
    assert g.edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5)}
    )
    spec = RelocationSpec(g=g, u=0, v=3, targets=(1,))
    rep = verify_relocation(spec)
    assert rep.outcome == "FAIL"
    assert (
        rep.witness["original_bracket"]["lower"]
        > rep.witness["relocated_bracket"]["upper"]
    )


def test_perturbation_bound_both_directions():
    p4 = make_base("path", 4)
    c4 = make_base("cycle", 4)
    rep = verify_perturbation_bound(p4, c4)
    assert rep.outcome == "PASS"
    assert set(rep.witness["directions"]) == {"forward", "reverse"}
    assert rep.witness["worst_margin"] > -1e-8

    same = verify_perturbation_bound(p4, p4)
    assert same.outcome == "PASS"

    with pytest.raises(GraphError):
        verify_perturbation_bound(p4, make_base("path", 5))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_perturbation_bound_rejects_unchecked_tolerance(tol, monkeypatch):
    # a non-finite or negative tolerance is refused before any radius is computed
    def untouched(*args):
        raise AssertionError("computed before the tolerance was checked")

    for name in ("perron_many", "distance_matrices"):
        monkeypatch.setattr(verify, name, untouched)
    with pytest.raises(ValueError, match="tol"):
        verify_perturbation_bound(make_base("path", 4), make_base("cycle", 4), tol=tol)


def test_bound_and_monotonicity_build_each_distance_matrix_once(monkeypatch):
    # one build per graph, shared by the radius bracket and by the
    # quadratic form or dominance test (4 per call when each was rebuilt)
    built = []
    real = spectral._adjacency

    def counting(masks):
        built.extend(masks.tolist())
        return real(masks)

    monkeypatch.setattr(spectral, "_adjacency", counting)
    assert verify_perturbation_bound(make_base("path", 4), make_base("cycle", 4)).outcome == "PASS"
    assert len(built) == 2
    built.clear()
    rep = verify_distance_monotonicity(make_base("cycle", 5))
    assert rep.witness["relation_original_vs_closure"] == "GREATER"
    assert len(built) == 2


def test_monotonicity_reports():
    rep = verify_distance_monotonicity(make_base("cycle", 5))
    assert rep.outcome == "PASS"
    assert rep.witness["relation_original_vs_closure"] == "GREATER"
    assert rep.certified_gap > 1.9  # 6 vs 4

    tree = verify_distance_monotonicity(make_base("path", 4))
    assert tree.outcome == "PASS"
    assert tree.witness["relation_original_vs_closure"] == "EQUAL"


def test_min_cut_vertices_small():
    rep = verify_min_cut_vertices(5, 2)
    assert rep.outcome == "PASS"
    assert rep.instance["class_size"] == 3
    assert rep.certified_gap > 0
    assert rep.witness["minimizer_isomorphic_to_target"] is True

    single = verify_min_cut_vertices(5, 3)
    assert single.outcome == "PASS"
    assert single.instance["class_size"] == 1
    assert single.certified_gap is None


def test_min_cut_edges_small_and_empty():
    rep = verify_min_cut_edges(5, 4)
    assert rep.outcome == "PASS"
    assert rep.witness["runner_up_bracket"]["lower"] > rep.witness["minimizer_bracket"]["upper"]
    with pytest.raises(GraphError, match="cut edges"):
        verify_min_cut_edges(5, 3)


def test_min_sweeps_cover_expected_grid():
    cv = sweep_min_cut_vertices(5)
    assert [r.instance["k"] for r in cv] == [0, 1, 2, 3]
    ce = sweep_min_cut_edges(5)
    assert [r.instance["k"] for r in ce] == [0, 1, 2, 4]
    assert all(r.outcome == "PASS" for r in cv + ce)


def test_min_sweep_keys_only_its_targets(monkeypatch):
    # each minimizer's key is read from the catalog, so only the targets are keyed
    calls = []
    real = verify.key_from_masks

    def one(n, masks):
        calls.append(n)
        return real(n, masks)

    monkeypatch.setattr(verify, "key_from_masks", one)
    for sweep in (sweep_min_cut_vertices, sweep_min_cut_edges):
        calls.clear()
        assert len(sweep(7)) == 6
        assert calls == [7] * 6
    calls.clear()
    assert verify_min_cut_vertices(7, 2).outcome == "PASS"
    assert calls == [7]


def test_min_cut_vertex_sweep_covers_k1():
    # the catalog of order 1 holds K1, the one class with no cut vertex
    assert [report_json(r) for r in sweep_min_cut_vertices(1)] == [
        report_json(verify_min_cut_vertices(1, 0))
    ]


_SWEEP_BATCHES = (
    "_graft_reports",
    "_pendant_reports",
    "_relocation_reports",
    "_bound_reports",
    "_monotonicity_reports",
)


@pytest.mark.parametrize(
    "sweep", [sweep_graft, sweep_pendant, sweep_relocation, sweep_perturbation, sweep_monotonicity]
)
def test_sweeps_above_the_cap_fail_before_any_report(sweep, monkeypatch):
    def untouched(*args):
        raise AssertionError("a batch ran before the cap was checked")

    for name in _SWEEP_BATCHES:
        monkeypatch.setattr(verify, name, untouched)
    monkeypatch.setenv(enumeration.ENV_MAX_N, "4")
    with pytest.raises(GraphError, match=enumeration.ENV_MAX_N):
        sweep(5)
    assert sweep(0) == []


def test_report_json_shape():
    rep = verify_min_cut_vertices(4, 1)
    text = report_json(rep)
    loaded = json.loads(text)
    assert list(loaded) == ["theorem", "instance", "outcome", "certified_gap", "witness"]
    assert "wall_time" not in text
    assert report_json(verify_min_cut_vertices(4, 1)) == text


def test_jobs_do_not_change_reports():
    seq = sweep_graft(max_base_n=3, max_total=4)
    par = sweep_graft(max_base_n=3, max_total=4, jobs=4)
    assert [report_json(r) for r in seq] == [report_json(r) for r in par]
    seq_min = verify_min_cut_vertices(6, 2, jobs=1)
    par_min = verify_min_cut_vertices(6, 2, jobs=4)
    assert report_json(seq_min) == report_json(par_min)


def test_min_sweep_reports_golden_bytes():
    # sha256 of the claim 3/4 sweep reports for n = 4..7, one per line: pins
    # their bytes, which no refactor of the sweeps may change
    lines = []
    for n in range(4, 8):
        lines += [report_json(r) for r in sweep_min_cut_vertices(n)]
        lines += [report_json(r) for r in sweep_min_cut_edges(n)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "db39163ce5ca68489f589deb0de89d0364656ed1d2f61c3a383d506c7c8ba783"


def test_min_sweep_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # the levels and their claim tables rebuilt 7 classes at a time give the
    # same report bytes
    monkeypatch.setattr(enumeration, "KEY_CHUNK", 7)
    monkeypatch.setattr(enumeration, "TABLE_CHUNK", 7)
    enumeration._level.cache_clear()
    try:
        test_min_sweep_reports_golden_bytes()
    finally:
        enumeration._level.cache_clear()


def holds_graph(value):
    if isinstance(value, Graph):
        return True
    return isinstance(value, (tuple, list)) and any(map(holds_graph, value))


def test_min_sweeps_read_the_catalog_table_not_the_memo(monkeypatch):
    # claims 3 and 4 read every radius from the catalog's brackets, none
    # through perron_of
    def untouched(*args):
        raise AssertionError("a radius was read through perron_of")

    monkeypatch.setattr(spectral, "perron_of", untouched)
    assert sweep_min_cut_vertices(6) and sweep_min_cut_edges(6)
    level = catalog(6)
    assert len(level.radii) == len(level) == 112
    assert not any(map(holds_graph, vars(level).values()))


def test_graft_sweep_reports_golden_bytes(monkeypatch):
    # sha256 of the graft-shift and pendant-mass reports over bases n <= 5,
    # one per line: the bracket-first isomorphism test must not move a
    # byte, nor must batches that span bases or split one
    for batch in (verify.SWEEP_BATCH, 7, 1):
        monkeypatch.setattr(verify, "SWEEP_BATCH", batch)
        lines = [report_json(r) for r in sweep_graft(5, 4)]
        lines += [report_json(r) for r in sweep_pendant(5, 4)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "1b3d58e4e4ca8c95ca92721e06e794a87af29e4dac8c89b5ab5384ed08c219e1", batch


def test_graft_sweep_equal_only_splits_the_full_sweep():
    # k = l and k > l are the full sweep's reports of each kind, in its order
    full = sweep_graft(4, 4)
    equal = [report_json(r) for r in full if r.instance["k"] == r.instance["l"]]
    unequal = [report_json(r) for r in full if r.instance["k"] > r.instance["l"]]
    assert len(equal) == len(unequal) == 124
    assert [report_json(r) for r in sweep_graft(4, 4, equal_only=True)] == equal
    assert [report_json(r) for r in sweep_graft(4, 4, equal_only=False)] == unequal


def test_graft_sweep_builds_names_and_brackets_each_graph_once(monkeypatch):
    # one sweep_graft(5, 4): every distinct graph of a batch is encoded once,
    # in one array call per batch; each batch brackets an order in at most two
    # stacks (members with shifts to u, then the shifts to v the reports
    # need), never one shift at a time; and no radius is read through
    # perron_of
    encoded, encode_calls, stacks, batches = [], [], Counter(), []
    real_encode, real_stack, real_batch = (
        verify.encode_rows,
        spectral._bracket_stack,
        verify._graft_reports,
    )

    def encode(rows):
        encoded.append(rows)
        encode_calls.append(len(batches))
        return real_encode(rows)

    def stack(d, *args):
        stacks[len(batches), d.shape[-1]] += 1
        return real_stack(d, *args)

    def batch(sites, *args):
        batches.append(len(sites))
        return real_batch(sites, *args)

    def untouched(*args):
        raise AssertionError("a radius was read through perron_of")

    monkeypatch.setattr(verify, "encode_rows", encode)
    monkeypatch.setattr(spectral, "_bracket_stack", stack)
    monkeypatch.setattr(verify, "_graft_reports", batch)
    monkeypatch.setattr(spectral, "perron_of", untouched)
    assert len(sweep_graft(5, 4)) == sum(batches) == 1288
    assert all(len(rows) == len(set(rows)) for rows in encoded)
    assert sum(map(len, encoded)) == 1790
    assert sorted(encode_calls) == list(range(1, len(batches) + 1))
    assert stacks and max(stacks.values()) <= 2


def test_each_graft_batch_names_exactly_its_own_graphs(monkeypatch):
    # no name outlives its batch: with 7 sites to a batch, each batch encodes
    # the distinct masks of the graphs its reports name (the base, the member
    # and every shift), and nothing else
    encoded, named = [], []
    real_encode, real_batch = verify.encode_rows, verify._graft_reports

    def encode(rows):
        encoded.append(rows)
        return real_encode(rows)

    def batch(sites, *args):
        reports = real_batch(sites, *args)
        labels = ("member", "shift_to_u", "shift_to_v")
        g6s = [r.instance["base"] for r in reports]
        g6s += [r.witness[x] for r in reports for x in labels if x in r.witness]
        named.append({decode_graph6(g6).masks for g6 in g6s})
        return reports

    monkeypatch.setattr(verify, "encode_rows", encode)
    monkeypatch.setattr(verify, "_graft_reports", batch)
    monkeypatch.setattr(verify, "SWEEP_BATCH", 7)
    assert len(sweep_graft(4, 4)) == 248
    assert len(encoded) == len(named) == 36
    for rows, masks in zip(encoded, named):
        assert len(rows) == len(set(rows)) and set(rows) == masks


def test_every_batch_names_its_graphs_in_one_encoder_call(monkeypatch):
    # names travel like radii: each batch of every claim encodes its graphs
    # in one encode_rows call, never per report
    calls = []
    real = verify.encode_rows

    def encode(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(verify, "encode_rows", encode)
    monkeypatch.setattr(verify, "SWEEP_BATCH", 40)
    assert not hasattr(verify, "encode_graph6")
    seen = []
    for batches in (
        verify._graft_batches(4, 4),
        verify._pendant_batches(4, 4),
        verify._relocation_batches(5),
        verify._bound_batches(5),
        verify._monotonicity_batches(6),
        verify._min_batches("min-cut-vertices", 6),
        verify._min_batches("min-cut-edges", 6),
    ):
        seen.append(0)
        for reports in batches:
            assert len(calls) == 1 and reports, calls
            calls.clear()
            seen[-1] += 1
    assert min(seen) >= 1 and max(seen) > 1, seen


def test_relocation_bound_and_mono_sweep_reports_golden_bytes(monkeypatch):
    # sha256 of the relocation (n <= 6), perturbation-bound (n <= 6) and
    # closure-monotonicity (n <= 7) reports, one per line; the bytes must
    # not depend on how _batches splits the instances into batches
    def lines():
        out = [report_json(r) for r in sweep_relocation(6)]
        out += [report_json(r) for r in sweep_perturbation(6)]
        out += [report_json(r) for r in sweep_monotonicity(7)]
        return out

    full = lines()
    assert len(full) == 2460
    digest = hashlib.sha256("\n".join(full).encode()).hexdigest()
    assert digest == "efc82c407a73ea2dab39d2b7fa289740de42e4565fa4bc1ae9f966c33366e868"
    for batch in (7, 1):
        monkeypatch.setattr(verify, "SWEEP_BATCH", batch)
        assert lines() == full, batch


def test_closure_idempotence_counts_block_edges():
    # the report counts the closure's block edges instead of closing it
    # again; the double closure is the oracle, on every graph with n <= 7
    # and on its closure
    seen = set()
    for n in range(1, 8):
        for g in connected_graphs(n):
            for h in (g, block_clique_closure(g)):
                dm = spectral.distance_matrix(h)
                rep = verify._monotonicity_report(h, h, dm, dm, {}, verify._names([h.masks]))
                idempotent = rep.witness["idempotent"]
                assert idempotent == (block_clique_closure(h).edges == h.edges), h.edges
                seen.add(idempotent)
    assert seen == {True, False}


@pytest.fixture
def overlapping_brackets(monkeypatch):
    """Widen every bracket the verifier sees so that no two are disjoint."""
    real = verify.perron_many

    def wide(graphs, *args):
        return [
            dataclasses.replace(res, lower=res.lower - 1.0, upper=res.upper + 1.0)
            for res in real(graphs, *args)
        ]

    monkeypatch.setattr(verify, "perron_many", wide)


def test_graft_overlap_isomorphic_shift_fails(overlapping_brackets):
    site = GraftSite(base=make_base("complete", 2), u=0, v=1, k=1, l=1)
    rep = verify_graft_monotonicity(site)
    assert rep.outcome == "FAIL"
    assert list(rep.witness) == [
        "member",
        "shift_to_u",
        "shift_to_u_isomorphic_to_member",
        "shift_to_v",
        "shift_to_v_isomorphic_to_member",
    ]


def test_graft_overlap_distinct_shift_inconclusive(overlapping_brackets):
    site = GraftSite(base=make_base("complete", 3), u=0, v=1, k=2, l=1)
    rep = verify_graft_monotonicity(site)
    assert rep.outcome == "INCONCLUSIVE"
    assert rep.certified_gap is None
    assert rep.witness["shift_to_u_needs_exact_followup"] is True
    assert "shift_to_u_isomorphic_to_member" not in rep.witness
    assert rep.witness["shift_to_u_member_bracket"]["upper"] > rep.witness["shift_to_u_shift_bracket"]["lower"]


def test_relocation_overlap_inconclusive(overlapping_brackets):
    # the report reads the brackets the batch computed, not perron_of's
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    rep = verify_relocation(RelocationSpec(g=star, u=0, v=1, targets=(2,)))
    assert rep.outcome == "INCONCLUSIVE"
    assert rep.certified_gap is None
    assert rep.witness["needs_exact_followup"] is True


def test_sweeps_take_their_radii_as_values(monkeypatch):
    def sweeps():
        reports = sweep_relocation(5) + sweep_perturbation(5) + sweep_monotonicity(6)
        return [report_json(r) for r in reports]

    def untouched(*args):
        raise AssertionError("a radius was read through perron_of")

    expected = sweeps()
    monkeypatch.setattr(spectral, "perron_of", untouched)
    assert sweeps() == expected


def test_graft_sweep_keys_only_overlapping_brackets(monkeypatch):
    calls = []
    real = verify.key_from_masks

    def one(n, masks):
        calls.append(masks)
        return real(n, masks)

    monkeypatch.setattr(verify, "key_from_masks", one)
    reports = sweep_graft(5, 4)
    flags = sum(
        key.endswith("_isomorphic_to_member") for r in reports for key in r.witness
    )
    assert flags > 0
    assert len(calls) <= 2 * flags


def test_every_inconclusive_report_names_its_reason():
    # an untested instance says why: a hypothesis clause that failed, or a
    # tie of brackets that needs an exact follow-up
    reports = (
        sweep_graft(2, 18)
        + sweep_relocation(6)
        + sweep_pendant(4, 4)
        + sweep_perturbation(5)
        + sweep_monotonicity(6)
        + sweep_min_cut_vertices(7)
        + sweep_min_cut_edges(7)
    )
    inconclusive = [r for r in reports if r.outcome == "INCONCLUSIVE"]
    assert Counter(r.theorem for r in inconclusive) == {"graft-shift": 64, "edge-relocation": 387}
    for r in inconclusive:
        followups = [key for key in r.witness if key.endswith("needs_exact_followup")]
        assert "failed_clause" in r.witness or followups, report_json(r)
        assert all(r.witness[key] is True for key in followups)
