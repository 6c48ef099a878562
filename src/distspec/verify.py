"""Certified verification of the extremal claims.

Every verifier returns a VerificationReport with outcome PASS, FAIL, or
INCONCLUSIVE.  PASS and FAIL are only issued on certificates: disjoint
Collatz-Wielandt brackets, an isomorphism between compared graphs, or an
exact entrywise matrix comparison.  A hypothesis that does not hold, or
brackets that overlap, yield INCONCLUSIVE; that marks the claim as untested
here, never as falsified.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .enumeration import EnumFilter, connected_graphs, filtered_graphs
from .graph6 import encode_graph6
from .graphs import Graph, GraphError, PendantPath, build_graph, canonical_key
from .jsonio import dumps
from .spectral import (
    DEFAULT_COMPARE_WIDTH,
    PerronResult,
    Relation,
    certified_compare,
    distance_matrix,
    perron_of,
    quadratic_form_delta,
)
from .transforms import (
    GraftSite,
    HypothesisError,
    RelocationSpec,
    block_clique_closure,
    distance_dominates,
    find_witness,
    g_nk,
    graft,
    graft_family,
    k_nk,
    relocate_edges,
)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class VerificationReport:
    """One verified claim instance.

    certified_gap is a lower bound on the strict margin when one was
    certified (None when not applicable); witness carries the reproducing
    data: graph6 strings, brackets, and whichever vertices or clauses the
    outcome hinges on.  wall_time is measurement-only and deliberately left
    out of the serialized report so identical runs emit identical bytes.
    """

    theorem: str
    instance: dict
    outcome: str
    certified_gap: float | None
    witness: dict | None
    wall_time: float


def report_json(rep: VerificationReport) -> str:
    return dumps(
        {
            "theorem": rep.theorem,
            "instance": rep.instance,
            "outcome": rep.outcome,
            "certified_gap": rep.certified_gap,
            "witness": rep.witness,
        }
    )


def _bracket(res: PerronResult) -> dict:
    return {"lambda": res.value, "lower": res.lower, "upper": res.upper}


def _compare(a: Graph, b: Graph, width: float):
    """Certified order of the two radii, with both brackets."""
    ra = perron_of(a, width)
    rb = perron_of(b, width)
    return certified_compare(ra, rb), ra, rb


def _map(fn, calls: list[tuple], jobs: int) -> list:
    """[fn(*args) for args in calls] in input order; jobs > 1 fans out over processes."""
    if jobs <= 1 or len(calls) < 2:
        return [fn(*args) for args in calls]
    chunk = max(1, len(calls) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, *zip(*calls), chunksize=chunk))


# ---------------------------------------------------------------------------
# Graft shift: moving one unit of pendant path from the shorter side to the
# longer side strictly increases the radius (longer side u, k >= l >= 1).


def verify_graft_monotonicity(
    site: GraftSite, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> VerificationReport:
    """Check the strict shift inequality at one graft site.

    For k > l the shifted graph G_{k+1,l-1} must have a strictly larger
    radius than G_{k,l}; for k = l one of the two opposite shifts must.
    When the compared graphs are isomorphic the strict claim is refuted
    exactly, without numerics.
    """
    if not site.k >= site.l >= 1:
        raise GraphError(f"graft verification needs k >= l >= 1, got k={site.k}, l={site.l}")
    t0 = time.perf_counter()
    instance = {
        "base": encode_graph6(site.base),
        "u": site.u,
        "v": site.v,
        "k": site.k,
        "l": site.l,
    }
    fam = graft_family(site)
    shifts = [("shift_to_u", fam.shift_to_u)]
    if site.k == site.l:
        shifts.append(("shift_to_v", fam.shift_to_v))
    member_key = canonical_key(fam.member)

    outcome = None
    gap = None
    witness: dict = {"member": encode_graph6(fam.member)}
    indistinguishable = False
    for name, shifted in shifts:
        witness[name] = encode_graph6(shifted)
        if canonical_key(shifted) == member_key:
            witness[f"{name}_isomorphic_to_member"] = True
            continue
        order, rm, rs = _compare(fam.member, shifted, width)
        witness[f"{name}_member_bracket"] = _bracket(rm)
        witness[f"{name}_shift_bracket"] = _bracket(rs)
        if order.relation is Relation.LESS:
            outcome = PASS
            gap = order.gap_lower_bound
            witness["certified_disjunct"] = name
            break
        if order.relation is Relation.INDISTINGUISHABLE:
            indistinguishable = True
            witness[f"{name}_needs_exact_followup"] = True

    if outcome is None:
        if indistinguishable:
            outcome = INCONCLUSIVE
        else:
            # Every disjunct is refuted, by isomorphism or a certified
            # reversed inequality.
            outcome = FAIL
            gap = 0.0
    return VerificationReport(
        theorem="graft-shift",
        instance=instance,
        outcome=outcome,
        certified_gap=gap,
        witness=witness,
        wall_time=time.perf_counter() - t0,
    )


def verify_pendant_sum(
    g: Graph,
    p_long: PendantPath,
    p_short: PendantPath,
    width: float = DEFAULT_COMPARE_WIDTH,
) -> VerificationReport:
    """Perron mass on the longer of two root-adjacent pendant paths wins.

    Sums the Perron vector over each path including its root and requires
    the longer path's sum to exceed the shorter's by more than a first-order
    allowance for bracket width and residual.  Root-excluded sums are
    reported alongside for reference.
    """
    if not g.has_edge(p_long.root, p_short.root):
        raise GraphError(f"roots {p_long.root} and {p_short.root} must be adjacent")
    if not p_long.length > p_short.length:
        raise GraphError(
            f"need a strictly longer first path, got lengths "
            f"{p_long.length} and {p_short.length}"
        )
    t0 = time.perf_counter()
    res = perron_of(g, width)
    tol = g.n * (res.width + res.residual)
    diff = _mass(res, p_long) - _mass(res, p_short)
    if diff > tol:
        outcome = PASS
    elif diff < -tol:
        outcome = FAIL
    else:
        outcome = INCONCLUSIVE
    witness = {
        "graph": encode_graph6(g),
        "long_root": p_long.root,
        "short_root": p_short.root,
        "long_sum_with_root": _mass(res, p_long),
        "short_sum_with_root": _mass(res, p_short),
        "long_sum_without_root": _mass(res, p_long) - float(res.vector[p_long.root]),
        "short_sum_without_root": _mass(res, p_short) - float(res.vector[p_short.root]),
        "tolerance": tol,
    }
    return VerificationReport(
        theorem="pendant-mass",
        instance={
            "graph": encode_graph6(g),
            "long_length": p_long.length,
            "short_length": p_short.length,
        },
        outcome=outcome,
        certified_gap=diff - tol if outcome == PASS else None,
        witness=witness,
        wall_time=time.perf_counter() - t0,
    )


def _mass(res: PerronResult, path: PendantPath) -> float:
    return float(res.vector[path.root] + sum(res.vector[v] for v in path.vertices))


# ---------------------------------------------------------------------------
# Edge relocation: moving fan edges from u over to its mirror v strictly
# increases the radius once some outside vertex moves farther from every
# relocated target.


def verify_relocation(
    spec: RelocationSpec, width: float = DEFAULT_COMPARE_WIDTH
) -> VerificationReport:
    """Check the strict relocation inequality for one spec.

    A failed hypothesis or a missing witness vertex makes the claim
    inapplicable (INCONCLUSIVE), not false.
    """
    t0 = time.perf_counter()
    instance = {
        "graph": encode_graph6(spec.g),
        "u": spec.u,
        "v": spec.v,
        "targets": list(spec.targets),
    }
    try:
        relocated = relocate_edges(spec)
    except HypothesisError as exc:
        return VerificationReport(
            theorem="edge-relocation",
            instance=instance,
            outcome=INCONCLUSIVE,
            certified_gap=None,
            witness={"failed_clause": exc.clause, "detail": str(exc)},
            wall_time=time.perf_counter() - t0,
        )
    w = spec.witness if spec.witness is not None else find_witness(spec, relocated)
    if w is None:
        return VerificationReport(
            theorem="edge-relocation",
            instance=instance,
            outcome=INCONCLUSIVE,
            certified_gap=None,
            witness={"failed_clause": "witness", "detail": "no qualifying witness vertex"},
            wall_time=time.perf_counter() - t0,
        )
    order, ro, rn = _compare(spec.g, relocated, width)
    witness = {
        "relocated": encode_graph6(relocated),
        "witness_vertex": w,
        "original_bracket": _bracket(ro),
        "relocated_bracket": _bracket(rn),
    }
    if order.relation is Relation.LESS:
        outcome, gap = PASS, order.gap_lower_bound
    elif order.relation is Relation.GREATER:
        outcome, gap = FAIL, None
    else:
        outcome, gap = INCONCLUSIVE, None
        witness["needs_exact_followup"] = True
    return VerificationReport(
        theorem="edge-relocation",
        instance=instance,
        outcome=outcome,
        certified_gap=gap,
        witness=witness,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# First-order perturbation bound and entrywise monotonicity.


def verify_perturbation_bound(
    g_old: Graph,
    g_new: Graph,
    width: float = DEFAULT_COMPARE_WIDTH,
    tol: float = 1e-8,
) -> VerificationReport:
    """Radius change dominates the Perron quadratic form of the change.

    Checks value(new) - value(old) >= x.(D_new - D_old).x - tol with x the
    unit Perron vector of the old graph, in both directions.
    """
    if g_old.n != g_new.n:
        raise GraphError(f"orders differ: {g_old.n} vs {g_new.n}")
    t0 = time.perf_counter()
    margins = {}
    ok = True
    for name, a, b in (("forward", g_old, g_new), ("reverse", g_new, g_old)):
        ra = perron_of(a, width)
        rb = perron_of(b, width)
        bound = quadratic_form_delta(distance_matrix(a), distance_matrix(b), ra.vector)
        actual = rb.value - ra.value
        margins[name] = {"bound": bound, "actual": actual, "margin": actual - bound}
        if actual < bound - tol:
            ok = False
    worst = min(m["margin"] for m in margins.values())
    return VerificationReport(
        theorem="perturbation-bound",
        instance={
            "old": encode_graph6(g_old),
            "new": encode_graph6(g_new),
            "tolerance": tol,
        },
        outcome=PASS if ok else FAIL,
        certified_gap=None,
        witness={"directions": margins, "worst_margin": worst},
        wall_time=time.perf_counter() - t0,
    )


def verify_distance_monotonicity(
    g: Graph, width: float = DEFAULT_COMPARE_WIDTH
) -> VerificationReport:
    """Completing every block never increases distances nor the radius.

    The entrywise matrix comparison is exact and proves the radius cannot
    grow; the certified comparison corroborates it and must not certify the
    closure as strictly larger.  Idempotence of the closure is checked as
    part of the same claim.
    """
    t0 = time.perf_counter()
    closure = block_clique_closure(g)
    dominated = distance_dominates(distance_matrix(closure), distance_matrix(g))
    idempotent = block_clique_closure(closure).edges == closure.edges
    rg = rc = None
    if closure.edges == g.edges:
        relation = "EQUAL"
        gap = 0.0
    else:
        order, rg, rc = _compare(g, closure, width)
        relation = order.relation.value
        gap = order.gap_lower_bound if order.relation is Relation.GREATER else 0.0
    ok = dominated and idempotent and relation != "LESS"
    witness = {
        "closure": encode_graph6(closure),
        "distances_dominated": dominated,
        "idempotent": idempotent,
        "relation_original_vs_closure": relation,
    }
    if rg is not None:
        witness["original_bracket"] = _bracket(rg)
        witness["closure_bracket"] = _bracket(rc)
    return VerificationReport(
        theorem="closure-monotonicity",
        instance={"graph": encode_graph6(g)},
        outcome=PASS if ok else FAIL,
        certified_gap=gap if ok else None,
        witness=witness,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Exhaustive minimality: the clique-with-paths family among graphs with k
# cut vertices, and the clique-with-pendants family among graphs with k cut
# edges, are the unique radius minimizers at desk scale.


def _verify_min(
    theorem: str,
    n: int,
    k: int,
    members: list[Graph],
    target: Graph,
    width: float,
    jobs: int,
) -> VerificationReport:
    t0 = time.perf_counter()
    if not members:
        raise GraphError(f"no connected graphs on {n} vertices match k={k}")
    results = _map(perron_of, [(g, width) for g in members], jobs)
    keys = [canonical_key(g) for g in members]
    target_key = canonical_key(target)
    cand = min(range(len(members)), key=lambda i: (results[i].value, keys[i]))
    instance = {"n": n, "k": k, "class_size": len(members)}
    witness = {
        "target": encode_graph6(target),
        "minimizer": encode_graph6(members[cand]),
        "minimizer_isomorphic_to_target": keys[cand] == target_key,
        "minimizer_bracket": _bracket(results[cand]),
    }
    runner = None
    if len(members) > 1:
        runner = min(
            (i for i in range(len(members)) if i != cand),
            key=lambda i: (results[i].value, keys[i]),
        )
        witness["runner_up"] = encode_graph6(members[runner])
        witness["runner_up_bracket"] = _bracket(results[runner])

    if keys[cand] != target_key:
        outcome, gap = FAIL, None
    elif len(members) == 1:
        outcome, gap = PASS, None
    else:
        sep = min(results[i].lower for i in range(len(members)) if i != cand)
        gap = sep - results[cand].upper
        if gap > 0:
            outcome = PASS
        else:
            outcome, gap = INCONCLUSIVE, None
            witness["needs_exact_followup"] = True
    return VerificationReport(
        theorem=theorem,
        instance=instance,
        outcome=outcome,
        certified_gap=gap,
        witness=witness,
        wall_time=time.perf_counter() - t0,
    )


def verify_min_cut_vertices(
    n: int, k: int, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> VerificationReport:
    """Unique radius minimizer among n-vertex graphs with k cut vertices."""
    members = list(filtered_graphs(n, EnumFilter(cut_vertex_count=k)))
    return _verify_min("min-cut-vertices", n, k, members, g_nk(n, k), width, jobs)


def verify_min_cut_edges(
    n: int, k: int, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> VerificationReport:
    """Unique radius minimizer among n-vertex graphs with k cut edges."""
    members = list(filtered_graphs(n, EnumFilter(cut_edge_count=k)))
    if not members:
        raise GraphError(f"no connected graphs on {n} vertices have exactly {k} cut edges")
    return _verify_min("min-cut-edges", n, k, members, k_nk(n, k), width, jobs)


# ---------------------------------------------------------------------------
# Sweeps: finite exhaustive grids of the verifiers above, deterministic
# order, optionally fanned out over processes.


def graft_sites(max_base_n: int, max_total: int, equal_only: bool | None = None):
    """All graft sites over connected bases, both edge orientations.

    equal_only=None yields every k >= l >= 1 with k+l <= max_total;
    True restricts to k = l, False to k > l.
    """
    for nb in range(2, max_base_n + 1):
        for base in connected_graphs(nb):
            for u, v in sorted(base.edges):
                for a, b in ((u, v), (v, u)):
                    for k in range(1, max_total):
                        for l in range(1, min(k, max_total - k) + 1):
                            if equal_only is True and k != l:
                                continue
                            if equal_only is False and k == l:
                                continue
                            yield GraftSite(base=base, u=a, v=b, k=k, l=l)


def sweep_graft(
    max_base_n: int = 6,
    max_total: int = 4,
    width: float = DEFAULT_COMPARE_WIDTH,
    jobs: int = 1,
    equal_only: bool | None = None,
) -> list[VerificationReport]:
    sites = graft_sites(max_base_n, max_total, equal_only)
    return _map(verify_graft_monotonicity, [(s, width) for s in sites], jobs)


def pendant_report_for_site(site: GraftSite, width: float = DEFAULT_COMPARE_WIDTH):
    """Mass comparison on the grafted member's two attached paths (k > l)."""
    if not site.k > site.l >= 1:
        raise GraphError(f"pendant mass needs k > l >= 1, got k={site.k}, l={site.l}")
    member = graft(site)
    nb = site.base.n
    long_path = PendantPath(
        root=site.u, vertices=tuple(range(nb, nb + site.k)), length=site.k
    )
    short_path = PendantPath(
        root=site.v, vertices=tuple(range(nb + site.k, nb + site.k + site.l)), length=site.l
    )
    return verify_pendant_sum(member, long_path, short_path, width)


def sweep_pendant(
    max_base_n: int = 6,
    max_total: int = 4,
    width: float = DEFAULT_COMPARE_WIDTH,
    jobs: int = 1,
) -> list[VerificationReport]:
    sites = graft_sites(max_base_n, max_total, equal_only=False)
    return _map(pendant_report_for_site, [(s, width) for s in sites], jobs)


def relocation_specs(max_n: int):
    """All single-vertex-component relocation specs on small graphs.

    The moved-to vertex v is a pendant neighbor of u, which makes every
    neighborhood hypothesis hold automatically; targets range over all
    nonempty subsets of u's other neighbors.
    """
    for n in range(2, max_n + 1):
        for g in connected_graphs(n):
            for v in range(g.n):
                if g.degrees[v] != 1:
                    continue
                u = g.adjacency[v][0]
                rest = [t for t in g.adjacency[u] if t != v]
                for sub in range(1, 1 << len(rest)):
                    targets = tuple(rest[i] for i in range(len(rest)) if (sub >> i) & 1)
                    yield RelocationSpec(
                        g=g, u=u, v=v, c1=frozenset({v}), targets=targets
                    )


def sweep_relocation(
    max_n: int = 6, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> list[VerificationReport]:
    return _map(verify_relocation, [(s, width) for s in relocation_specs(max_n)], jobs)


def edge_addition_pairs(max_n: int):
    """Every (connected graph, graph plus one absent edge) pair, n <= max_n."""
    for n in range(2, max_n + 1):
        for g in connected_graphs(n):
            for a in range(n):
                for b in range(a + 1, n):
                    if not g.has_edge(a, b):
                        yield g, build_graph(g.n, list(g.edges) + [(a, b)])


def sweep_perturbation(
    max_n: int = 6, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> list[VerificationReport]:
    pairs = edge_addition_pairs(max_n)
    return _map(verify_perturbation_bound, [(a, b, width) for a, b in pairs], jobs)


def sweep_monotonicity(
    max_n: int = 7, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> list[VerificationReport]:
    graphs = [g for n in range(1, max_n + 1) for g in connected_graphs(n)]
    return _map(verify_distance_monotonicity, [(g, width) for g in graphs], jobs)


def sweep_min_cut_vertices(
    n: int, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> list[VerificationReport]:
    return [verify_min_cut_vertices(n, k, width, jobs) for k in range(0, n - 1)]


def sweep_min_cut_edges(
    n: int, width: float = DEFAULT_COMPARE_WIDTH, jobs: int = 1
) -> list[VerificationReport]:
    out = []
    for k in range(0, n):
        members = list(filtered_graphs(n, EnumFilter(cut_edge_count=k)))
        if not members:
            continue
        out.append(_verify_min("min-cut-edges", n, k, members, k_nk(n, k), width, jobs))
    return out
