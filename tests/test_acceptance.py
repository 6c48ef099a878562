"""Acceptance gate: ten criteria, one test per criterion.

Each test prints one CRITERION line with timing detail and asserts the
stated tolerances and runtime budgets.  Criteria 5 and 6 are expected
to fail on documented instance families (see README): shift pairs that
are isomorphic on a two-vertex base, and edge relocations that open a
shortcut for a bystander vertex.  Those failures are certified by
disjoint brackets, not numerical noise.
"""

from __future__ import annotations

import itertools
import math
import time

import networkx as nx

from distspec.enumeration import connected_graphs
from distspec.graphs import build_graph
from distspec.spectral import perron_of
from distspec.transforms import RelocationSpec, make_base
from distspec.verify import (
    report_json,
    sweep_graft,
    sweep_min_cut_edges,
    sweep_min_cut_vertices,
    sweep_monotonicity,
    sweep_pendant,
    sweep_perturbation,
    sweep_relocation,
    verify_min_cut_vertices,
    verify_relocation,
)

COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]


def _line(num: int, ok: bool, elapsed: float, detail: str) -> str:
    text = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}"
    print(text)
    return text


def _brute_force_count(n: int) -> int:
    """Count connected graphs up to isomorphism by filtering every edge
    subset, independent of the incremental generator and of the
    canonical key.  Hash buckets only prune candidate pairs; equality
    is always settled by an explicit isomorphism check."""
    if n == 1:
        return 1
    pairs = list(itertools.combinations(range(n), 2))
    buckets: dict[str, list[nx.Graph]] = {}
    count = 0
    for mask in range(1 << len(pairs)):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if not nx.is_connected(g):
            continue
        reps = buckets.setdefault(
            nx.weisfeiler_lehman_graph_hash(g, iterations=3), []
        )
        if not any(nx.is_isomorphic(g, r) for r in reps):
            reps.append(g)
            count += 1
    return count


def test_criterion_01_closed_form_radii():
    t0 = time.monotonic()
    worst_complete = max(
        abs(perron_of(make_base("complete", n)).value - (n - 1))
        for n in range(2, 13)
    )
    closed = [
        (make_base("path", 3), 1 + math.sqrt(3)),
        (make_base("path", 4), 2 + math.sqrt(10)),
        (build_graph(4, [(0, 1), (0, 2), (0, 3)]), 2 + math.sqrt(7)),
    ]
    worst_closed = max(abs(perron_of(g).value - lam) for g, lam in closed)
    elapsed = time.monotonic() - t0
    ok = worst_complete < 1e-10 and worst_closed < 1e-9 and elapsed < 1.0
    msg = _line(
        1, ok, elapsed,
        f"complete-graph err {worst_complete:.2e}, path/star err {worst_closed:.2e}",
    )
    assert ok, msg


def test_criterion_02_enumeration_counts():
    t0 = time.monotonic()
    counts = [sum(1 for _ in connected_graphs(n)) for n in range(1, 9)]
    brute = [_brute_force_count(n) for n in range(1, 7)]
    elapsed = time.monotonic() - t0
    ok = counts == COUNTS and brute == COUNTS[:6] and elapsed < 30.0
    msg = _line(2, ok, elapsed, f"counts {counts}, brute force {brute}")
    assert ok, msg


def test_criterion_03_minimum_over_cut_vertex_classes():
    t0 = time.monotonic()
    reports = [r for n in range(4, 9) for r in sweep_min_cut_vertices(n)]
    bad = [
        r for r in reports
        if r.outcome != "PASS"
        or (r.instance["class_size"] > 1 and not (r.certified_gap or 0) > 0)
    ]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    msg = _line(
        3, ok, elapsed,
        f"{len(reports)} (n,k) classes, largest n=8; singleton classes "
        "pass without a gap (no competitor exists); "
        f"bad={[(r.instance, r.outcome) for r in bad]}",
    )
    assert ok, msg


def test_criterion_04_minimum_over_cut_edge_classes():
    t0 = time.monotonic()
    reports = [r for n in range(4, 9) for r in sweep_min_cut_edges(n)]
    covered = {(r.instance["n"], r.instance["k"]) for r in reports}
    expected = {
        (n, k) for n in range(4, 9) for k in range(n) if k != n - 2
    }
    bad = [r for r in reports if r.outcome != "PASS"]
    elapsed = time.monotonic() - t0
    ok = covered == expected and not bad and elapsed < 120.0
    msg = _line(
        4, ok, elapsed,
        f"{len(reports)} nonempty (n,k) classes (k = n-2 is empty), "
        f"bad={[(r.instance, r.outcome) for r in bad]}",
    )
    assert ok, msg


def test_criterion_05_graft_shift_sweep():
    t0 = time.monotonic()
    reports = sweep_graft(max_base_n=6, max_total=4)
    bad = [
        r for r in reports
        if r.outcome != "PASS"
        or (r.instance["k"] > r.instance["l"] and not (r.certified_gap or 0) > 0)
    ]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    sample = [
        (r.instance["base"], r.instance["k"], r.instance["l"], r.outcome)
        for r in bad[:10]
    ]
    msg = _line(
        5, ok, elapsed,
        f"{len(reports)} sites, {len(bad)} refuted; on the one-edge base "
        "every shift is isomorphic to the member, so the strict "
        f"inequality is certifiably false there; sample={sample}",
    )
    assert ok, msg


def test_criterion_06_relocation_sweep():
    t0 = time.monotonic()
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    gap_report = verify_relocation(RelocationSpec(star, 0, 1, (2,)))
    expected_gap = math.sqrt(10) - math.sqrt(7)
    gap_ok = (
        gap_report.outcome == "PASS"
        and abs(gap_report.certified_gap - expected_gap) < 1e-6
    )
    reports = sweep_relocation(6)
    witnessed = [r for r in reports if r.outcome != "INCONCLUSIVE"]
    bad = [r for r in witnessed if r.outcome != "PASS"]
    elapsed = time.monotonic() - t0
    ok = gap_ok and not bad and elapsed < 300.0
    sample = [
        (r.instance["graph"], r.instance["u"], r.instance["v"],
         r.instance["targets"])
        for r in bad[:10]
    ]
    msg = _line(
        6, ok, elapsed,
        f"star gap ok={gap_ok}, {len(witnessed)} witnessed specs, "
        f"{len(bad)} with a certified strict decrease (a vertex beside "
        f"the moved edges gains a shorter route); sample={sample}",
    )
    assert ok, msg


def test_criterion_07_perturbation_lower_bound():
    t0 = time.monotonic()
    reports = sweep_perturbation(6)
    bad = [r for r in reports if r.outcome != "PASS"]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    msg = _line(
        7, ok, elapsed,
        f"{len(reports)} edge-addition pairs, both directions, slack 1e-8, "
        f"bad={len(bad)}",
    )
    assert ok, msg


def test_criterion_08_closure_monotonicity():
    t0 = time.monotonic()
    reports = sweep_monotonicity(7)
    bad = [r for r in reports if r.outcome != "PASS"]
    greater = [
        r for r in reports
        if r.witness["relation_original_vs_closure"] == "LESS"
    ]
    elapsed = time.monotonic() - t0
    ok = not bad and not greater and elapsed < 60.0
    msg = _line(
        8, ok, elapsed,
        f"{len(reports)} graphs: dominance, idempotence, closure radius "
        f"never above the original; bad={len(bad)}",
    )
    assert ok, msg


def test_criterion_09_pendant_mass():
    t0 = time.monotonic()
    reports = sweep_pendant(max_base_n=6, max_total=4)
    bad = [
        r for r in reports
        if r.outcome != "PASS"
        or not r.witness["long_sum_with_root"] > r.witness["short_sum_with_root"]
    ]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    msg = _line(
        9, ok, elapsed,
        f"{len(reports)} strict sites, longer-path mass above shorter "
        f"with margin beyond bracket error; bad={len(bad)}",
    )
    assert ok, msg


def test_criterion_10_parallel_determinism():
    t0 = time.monotonic()
    def snapshot(jobs: int) -> list[str]:
        out = []
        for n in range(4, 9):
            out += [report_json(r) for r in sweep_min_cut_vertices(n, jobs=jobs)]
            out += [report_json(r) for r in sweep_min_cut_edges(n, jobs=jobs)]
        out += [report_json(r) for r in sweep_graft(6, 4, jobs=jobs)]
        return out

    serial = snapshot(1)
    parallel = snapshot(8)
    elapsed = time.monotonic() - t0
    ok = serial == parallel
    first_diff = next(
        (i for i, (a, b) in enumerate(zip(serial, parallel)) if a != b), None
    )
    msg = _line(
        10, ok, elapsed,
        f"{len(serial)} reports byte-identical across --jobs 1/8; "
        f"first difference at index {first_diff}",
    )
    assert ok, msg
