"""Certified verification of the extremal claims.

Every verifier returns a VerificationReport with outcome PASS, FAIL, or
INCONCLUSIVE.  PASS and FAIL are only issued on certificates: disjoint
Collatz-Wielandt brackets, an isomorphism between compared graphs, or an
exact entrywise matrix comparison.  A hypothesis that does not hold, or
brackets that overlap, yield INCONCLUSIVE; that marks the claim as untested
here, never as falsified.

Every radius is a certified bracket, a few ulps of it wide.  Claims 3 and 4
read theirs, the cut counts that pick each class and the minimizers' keys
from the order's catalog (enumeration.Level.cuts, .radii and .keys), all in
_min_reports, and key only their targets.  The other sweeps take their
graphs from one stream, _graphs, the catalog graphs of a range of orders.
Every other claim has one internal function that reports on a batch of
instances: it builds their graphs once and has their radii bracketed
together by spectral.perron_many (from the hop matrices when the claim
needs them anyway), and its reports take those radii as values, which no
call keeps; names travel the same way, from one encode_rows call per
batch.  Graft reports also key each distinct graph of a batch's
overlapping pairs once.  A single verifier call is a batch of one; sweeps
run serially, in runs of at most SWEEP_BATCH consecutive instances that
may span bases and orders.  One driver, _batches, yields each run's
reports as they are made: the public sweep_* return them as one list, the
CLI writes each run and drops it.  The width and jobs parameters are
deprecated and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np

from .enumeration import catalog, connected_graphs
from .graph6 import encode_rows
from .graphs import MAX_KEY_N, Graph, GraphError, PendantPath, block_masks, key_from_masks
from .jsonio import dumps
from .spectral import (
    PerronResult,
    Relation,
    certified_compare,
    distance_matrices,
    perron_many,
    quadratic_form_delta,
)
from .transforms import (
    GraftSite,
    HypothesisError,
    RelocationSpec,
    _check_sites,
    _grafted,
    _witnesses,
    block_clique_closure,
    distance_dominates,
    g_nk,
    k_nk,
    relocate_edges,
)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# Default allowance of the perturbation-bound check.
BOUND_TOL = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    """One verified claim instance.

    certified_gap is a lower bound on the strict margin when one was
    certified (None when not applicable); witness carries the reproducing
    data: graph6 strings, brackets, and whichever vertices or clauses the
    outcome hinges on.
    """

    theorem: str
    instance: dict
    outcome: str
    certified_gap: float | None
    witness: dict | None


def report_json(rep: VerificationReport) -> str:
    """The report as one JSON object, its fields written in declaration order."""
    return dumps(vars(rep))


def _bracket(res: PerronResult) -> dict:
    return {"lambda": res.value, "lower": res.lower, "upper": res.upper}


# ---------------------------------------------------------------------------
# Graft shift: moving one unit of pendant path from the shorter side to the
# longer side strictly increases the radius (longer side u, k >= l >= 1).


def verify_graft_monotonicity(site: GraftSite, width=None, jobs=1) -> VerificationReport:
    """Check the strict shift inequality at one graft site.

    For k > l the shifted graph G_{k+1,l-1} must have a strictly larger
    radius than G_{k,l}; for k = l one of the two opposite shifts must.
    Isomorphic graphs have equal radii, so disjoint certified brackets
    already prove a shift non-isomorphic to the member.  Only when the
    brackets overlap are canonical keys computed: equal keys refute the
    strict claim exactly, unequal ones leave the disjunct unresolved, and
    so does a pair past MAX_KEY_N vertices, which gets no key.
    width and jobs are deprecated and ignored.
    """
    if not site.k >= site.l >= 1:
        raise GraphError(f"graft verification needs k >= l >= 1, got k={site.k}, l={site.l}")
    return _graft_reports([site])[0]


def _graft_reports(sites: list[GraftSite]) -> list[VerificationReport]:
    """Graft-shift reports for sites with k >= l >= 1, each distinct graph handled once.

    Members and shifts to u are bracketed as one batch, the shifts to v the
    reports need as a second; each distinct graph of an overlapping pair is
    keyed once, up to MAX_KEY_N vertices, and a larger pair gets no key.
    """
    _check_sites(sites)
    fams = [(s, _at(s, s.k, s.l), [("shift_to_u", _at(s, s.k + 1, s.l - 1))]) for s in sites]
    radius = _radii([g for _, m, sh in fams for g in (m, sh[0][1])])

    def relation(a: Graph, b: Graph) -> Relation:
        return certified_compare(radius[a.masks], radius[b.masks]).relation

    for s, m, sh in fams:
        if s.k == s.l and relation(m, sh[0][1]) is not Relation.LESS:
            sh.append(("shift_to_v", _at(s, s.k - 1, s.l + 1)))
    radius.update(_radii([sh[1][1] for _, _, sh in fams if len(sh) > 1]))
    pairs = [(m, x) for _, m, sh in fams for _, x in sh]
    tied = [p for p in pairs if relation(*p) is Relation.INDISTINGUISHABLE]
    keyed = {g.masks for p in tied for g in p if g.n <= MAX_KEY_N}
    key = {masks: key_from_masks(len(masks), masks) for masks in keyed}
    names = _names([s.base.masks for s in sites] + [g.masks for p in pairs for g in p])
    return [_graft_report(s, m, sh, radius, names, key) for s, m, sh in fams]


def _at(site: GraftSite, a: int, b: int) -> Graph:
    """G_{a,b} at the site's roots, unchecked."""
    return _grafted(site.base, (site.u, a), (site.v, b))


def _radii(graphs: list[Graph], dms=None) -> dict[tuple[int, ...], PerronResult]:
    """Masks -> bracket of each graph, from one perron_many call (on dms, if given)."""
    return dict(zip([g.masks for g in graphs], perron_many(graphs, dms)))


def _names(rows) -> dict[tuple[int, ...], str]:
    """Masks -> graph6 of each distinct bitmask row, from one encode_rows call."""
    rows = list(dict.fromkeys(rows))
    return dict(zip(rows, encode_rows(rows)))


def _graft_report(
    site: GraftSite, member: Graph, shifts: list, radius: dict, name: dict, key: dict
) -> VerificationReport:
    instance = {"base": name[site.base.masks], "u": site.u, "v": site.v, "k": site.k, "l": site.l}
    rm = radius[member.masks]
    # FAIL unless some disjunct certifies or stays open: isomorphic or reversed refutes one
    outcome, gap = FAIL, 0.0
    witness: dict = {"member": name[member.masks]}
    for label, shifted in shifts:
        witness[label] = name[shifted.masks]
        rs = radius[shifted.masks]
        order = certified_compare(rm, rs)
        overlap = order.relation is Relation.INDISTINGUISHABLE
        # a pair past MAX_KEY_N vertices has no key, and so stays open
        if overlap and shifted.masks in key and key[shifted.masks] == key[member.masks]:
            witness[f"{label}_isomorphic_to_member"] = True
            continue
        witness[f"{label}_member_bracket"] = _bracket(rm)
        witness[f"{label}_shift_bracket"] = _bracket(rs)
        if order.relation is Relation.LESS:
            outcome, gap = PASS, order.gap_lower_bound
            witness["certified_disjunct"] = label
            break
        if overlap:
            outcome, gap = INCONCLUSIVE, None
            witness[f"{label}_needs_exact_followup"] = True
    return VerificationReport(
        theorem="graft-shift",
        instance=instance,
        outcome=outcome,
        certified_gap=gap,
        witness=witness,
    )


def verify_pendant_sum(
    g: Graph, p_long: PendantPath, p_short: PendantPath, width=None
) -> VerificationReport:
    """Perron mass on the longer of two root-adjacent pendant paths wins.

    Sums the Perron vector over each path including its root and requires
    the longer path's sum to exceed the shorter's by more than a first-order
    allowance for bracket width and residual; root-excluded sums are also
    reported.  GraphError unless both paths hang off g at their roots (each
    vertex adjacent to the one before, interior degree 2, tip degree 1) and
    share no vertex.  width is deprecated and ignored.
    """
    if not g.has_edge(p_long.root, p_short.root):
        raise GraphError(f"roots {p_long.root} and {p_short.root} must be adjacent")
    if not p_long.length > p_short.length:
        raise GraphError(
            f"need a strictly longer first path, got lengths "
            f"{p_long.length} and {p_short.length}"
        )
    deg = g.degrees
    walks = [(p.root, *p.vertices) for p in (p_long, p_short)]
    for w in walks:
        want = [2] * (len(w) - 2) + [1]  # the degrees of the interior, then of the tip
        if not all(map(g.has_edge, w, w[1:])) or [deg[x] for x in w[1:]] != want:
            raise GraphError(f"{list(w[1:])} is no pendant path of g at root {w[0]}")
    if len({*walks[0], *walks[1]}) < len(walks[0]) + len(walks[1]):
        raise GraphError("the paths must not share or repeat a vertex")
    return _pendant_sum(g, p_long, p_short, perron_many([g])[0], encode_rows([g.masks])[0])


def _pendant_sum(
    g: Graph, p_long: PendantPath, p_short: PendantPath, res: PerronResult, g6: str
) -> VerificationReport:
    """verify_pendant_sum's report from g's bracket and graph6, its paths already checked."""
    tol = g.n * (res.width + res.residual)
    long_mass, short_mass = _mass(res, p_long), _mass(res, p_short)
    diff = long_mass - short_mass
    if diff > tol:
        outcome = PASS
    elif diff < -tol:
        outcome = FAIL
    else:
        outcome = INCONCLUSIVE
    witness = {
        "graph": g6,
        "long_root": p_long.root,
        "short_root": p_short.root,
        "long_sum_with_root": long_mass,
        "short_sum_with_root": short_mass,
        "long_sum_without_root": long_mass - float(res.vector[p_long.root]),
        "short_sum_without_root": short_mass - float(res.vector[p_short.root]),
        "tolerance": tol,
    }
    if outcome == INCONCLUSIVE:
        witness["needs_exact_followup"] = True
    return VerificationReport(
        theorem="pendant-mass",
        instance={
            "graph": g6,
            "long_length": p_long.length,
            "short_length": p_short.length,
        },
        outcome=outcome,
        certified_gap=diff - tol if outcome == PASS else None,
        witness=witness,
    )


def _mass(res: PerronResult, path: PendantPath) -> float:
    return float(res.vector[path.root] + sum(res.vector[v] for v in path.vertices))


# ---------------------------------------------------------------------------
# Edge relocation: moving fan edges from u over to its mirror v strictly
# increases the radius once some outside vertex moves farther from every
# relocated target.


def verify_relocation(spec: RelocationSpec, width=None) -> VerificationReport:
    """Check the strict relocation inequality for one spec.

    A failed hypothesis or a missing witness vertex makes the claim
    inapplicable (INCONCLUSIVE), not false.  width is deprecated and ignored.
    """
    return _relocation_reports([spec])[0]


def _relocation_reports(specs: list[RelocationSpec]) -> list[VerificationReport]:
    """Relocation reports; each distance matrix built, each reported graph named, once per batch.

    The matrices give every witness (_witnesses) and the compared pairs' brackets.
    """
    moved: list = []  # the relocated graph, or why the claim does not apply
    for s in specs:
        try:
            moved.append(relocate_edges(s))
        except HypothesisError as exc:
            moved.append({"failed_clause": exc.clause, "detail": str(exc)})
    live = [i for i, r in enumerate(moved) if isinstance(r, Graph)]
    graphs = [specs[i].g for i in live] + [moved[i] for i in live]
    dms = distance_matrices(graphs)
    vertex = dict(zip(live, _witnesses([specs[i] for i in live], dms)))
    paired = [j for j, i in enumerate(live) if vertex[i] is not None]
    paired += [len(live) + j for j in paired]
    radius = _radii([graphs[j] for j in paired], [dms[j] for j in paired])
    names = _names([s.g.masks for s in specs] + [graphs[j].masks for j in paired])
    cases = enumerate(zip(specs, moved))
    return [_relocation_report(s, r, vertex.get(i), radius, names) for i, (s, r) in cases]


def _relocation_report(spec: RelocationSpec, relocated, w, radius, name) -> VerificationReport:
    instance = {
        "graph": name[spec.g.masks],
        "u": spec.u,
        "v": spec.v,
        "targets": list(spec.targets),
    }
    if not isinstance(relocated, Graph):
        outcome, gap, witness = INCONCLUSIVE, None, relocated
    elif w is None:
        outcome, gap = INCONCLUSIVE, None
        witness = {"failed_clause": "witness", "detail": "no qualifying witness vertex"}
    else:
        ro, rn = radius[spec.g.masks], radius[relocated.masks]
        order = certified_compare(ro, rn)
        witness = {
            "relocated": name[relocated.masks],
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
    )


# ---------------------------------------------------------------------------
# First-order perturbation bound and entrywise monotonicity.


def verify_perturbation_bound(
    g_old: Graph, g_new: Graph, width=None, tol: float = BOUND_TOL
) -> VerificationReport:
    """Radius change dominates the Perron quadratic form of the change.

    Checks value(new) - value(old) >= x.(D_new - D_old).x - tol with x the
    unit Perron vector of the old graph, in both directions.  tol must be
    finite and >= 0, or ValueError is raised before anything is computed.
    width is deprecated and ignored.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if g_old.n != g_new.n:
        raise GraphError(f"orders differ: {g_old.n} vs {g_new.n}")
    return _bound_reports([(g_old, g_new)], tol)[0]


def _bound_reports(pairs: list[tuple[Graph, Graph]], tol: float) -> list[VerificationReport]:
    """Perturbation-bound reports; each distance matrix is built once.

    The matrices come as one stack per order and serve both the radius
    brackets and the quadratic forms; the graphs are named in one batch.
    """
    graphs = [g for pair in pairs for g in pair]
    dms = distance_matrices(graphs)
    radius = _radii(graphs, dms)
    names = _names(g.masks for g in graphs)
    return [
        _bound_report(a, b, dms[2 * i], dms[2 * i + 1], radius, names, tol)
        for i, (a, b) in enumerate(pairs)
    ]


def _bound_report(
    g_old: Graph,
    g_new: Graph,
    d_old: np.ndarray,
    d_new: np.ndarray,
    radius: dict,
    name: dict,
    tol: float,
) -> VerificationReport:
    margins = {}
    ok = True
    for direction, a, b, da, db in (
        ("forward", g_old, g_new, d_old, d_new),
        ("reverse", g_new, g_old, d_new, d_old),
    ):
        ra, rb = radius[a.masks], radius[b.masks]
        bound = quadratic_form_delta(da, db, ra.vector)
        actual = rb.value - ra.value
        margins[direction] = {"bound": bound, "actual": actual, "margin": actual - bound}
        if actual < bound - tol:
            ok = False
    worst = min(m["margin"] for m in margins.values())
    return VerificationReport(
        theorem="perturbation-bound",
        instance={
            "old": name[g_old.masks],
            "new": name[g_new.masks],
            "tolerance": tol,
        },
        outcome=PASS if ok else FAIL,
        certified_gap=None,
        witness={"directions": margins, "worst_margin": worst},
    )


def verify_distance_monotonicity(g: Graph, width=None) -> VerificationReport:
    """Completing every block never increases distances nor the radius.

    The entrywise matrix comparison is exact and proves the radius cannot
    grow; the certified comparison corroborates it and must not certify the
    closure as strictly larger.  Idempotence of the closure is checked as
    part of the same claim.  width is deprecated and ignored.
    """
    return _monotonicity_reports([g])[0]


def _monotonicity_reports(graphs: list[Graph]) -> list[VerificationReport]:
    """Closure-monotonicity reports; each distance matrix is built once.

    The graphs' and closures' matrices come as one stack per order and
    serve the dominance test; the radii of the graphs that the closure
    changes are bracketed from the same matrices.
    """
    n = len(graphs)
    both = graphs + [block_clique_closure(g) for g in graphs]
    dms = distance_matrices(both)
    changed = [i for i in range(n) if both[n + i] != both[i]]
    compared = changed + [n + i for i in changed]
    radius = _radii([both[i] for i in compared], [dms[i] for i in compared])
    names = _names(g.masks for g in both)
    return [
        _monotonicity_report(both[i], both[n + i], dms[i], dms[n + i], radius, names)
        for i in range(n)
    ]


def _monotonicity_report(
    g: Graph, closure: Graph, d_g: np.ndarray, d_closure: np.ndarray, radius, name
) -> VerificationReport:
    dominated = distance_dominates(d_closure, d_g)
    # blocks partition the edges, so this holds iff every block is complete
    idempotent = closure.m == sum(math.comb(b.bit_count(), 2) for b in block_masks(closure.masks))
    rg = rc = None
    if closure == g:
        relation = "EQUAL"
        gap = 0.0
    else:
        rg, rc = radius[g.masks], radius[closure.masks]
        order = certified_compare(rg, rc)
        relation = order.relation.value
        gap = order.gap_lower_bound if order.relation is Relation.GREATER else 0.0
    ok = dominated and idempotent and relation != "LESS"
    witness = {
        "closure": name[closure.masks],
        "distances_dominated": dominated,
        "idempotent": idempotent,
        "relation_original_vs_closure": relation,
    }
    if rg is not None:
        witness["original_bracket"] = _bracket(rg)
        witness["closure_bracket"] = _bracket(rc)
    return VerificationReport(
        theorem="closure-monotonicity",
        instance={"graph": name[g.masks]},
        outcome=PASS if ok else FAIL,
        certified_gap=gap if ok else None,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Exhaustive minimality: the clique-with-paths family among graphs with k
# cut vertices, and the clique-with-pendants family among graphs with k cut
# edges, are the unique radius minimizers at desk scale.


# theorem -> (column of its count in a Level's cut table, target family, noun)
_MIN_CLAIMS = {
    "min-cut-vertices": (0, g_nk, "vertices"),
    "min-cut-edges": (1, k_nk, "edges"),
}


def _min_reports(theorem: str, n: int, ks=None) -> Iterator[VerificationReport]:
    """Certify the claim's target as the unique minimizer of its class, for each k.

    ks defaults to every count that the order's cut table holds, ascending.
    Members' cut counts, brackets and keys are read from the catalog by
    index; only the targets are keyed, and the graphs the reports name are
    encoded from their rows in one batch.
    """
    which, target_of, noun = _MIN_CLAIMS[theorem]
    if ks is None:  # np.unique would import numpy.ma (0.8 MB)
        ks = np.flatnonzero(np.bincount(catalog(n).cuts[:, which])).tolist()
    targets = [target_of(n, k) for k in ks]
    level = catalog(n)
    cuts, radii = level.cuts, level.radii
    ranked = []
    for k in ks:
        picked = np.flatnonzero(cuts[:, which] == k).tolist()
        if not picked:
            raise GraphError(f"no connected graphs on {n} vertices have exactly {k} cut {noun}")
        ranked.append(sorted(picked, key=lambda i: radii[i].value))  # stable: ties keep key order
    row = {i: tuple(level.masks[i].tolist()) for r in ranked for i in r[:2]}
    name = _names([t.masks for t in targets] + list(row.values()))
    for k, target, (cand, *others) in zip(ks, targets, ranked):
        isomorphic = key_from_masks(n, target.masks) == int(level.keys[cand])
        witness = {
            "target": name[target.masks],
            "minimizer": name[row[cand]],
            "minimizer_isomorphic_to_target": isomorphic,
            "minimizer_bracket": _bracket(radii[cand]),
        }
        if others:
            witness["runner_up"] = name[row[others[0]]]
            witness["runner_up_bracket"] = _bracket(radii[others[0]])
        if not isomorphic:
            outcome, gap = FAIL, None
        elif not others:
            outcome, gap = PASS, None
        else:
            gap = min(radii[i].lower for i in others) - radii[cand].upper
            if gap > 0:
                outcome = PASS
            else:
                outcome, gap = INCONCLUSIVE, None
                witness["needs_exact_followup"] = True
        yield VerificationReport(
            theorem=theorem,
            instance={"n": n, "k": k, "class_size": 1 + len(others)},
            outcome=outcome,
            certified_gap=gap,
            witness=witness,
        )


def verify_min_cut_vertices(n: int, k: int, width=None, jobs=1) -> VerificationReport:
    """Unique radius minimizer among n-vertex graphs with k cut vertices.

    width and jobs are deprecated and ignored.
    """
    return next(_min_reports("min-cut-vertices", n, [k]))


def verify_min_cut_edges(n: int, k: int, width=None, jobs=1) -> VerificationReport:
    """Unique radius minimizer among n-vertex graphs with k cut edges.

    width and jobs are deprecated and ignored.
    """
    return next(_min_reports("min-cut-edges", n, [k]))


# ---------------------------------------------------------------------------
# Sweeps: finite exhaustive grids of the verifiers above, run serially in
# deterministic order.  Each sweep but claims 3 and 4 hands its claim's
# batch function consecutive runs of instances, across bases and orders.


# Most instances a sweep hands its batch function at once: bounds the graphs
# and distance matrices held together, and the reports the CLI holds.
SWEEP_BATCH = 256


def _batches(items, reports) -> Iterator[list[VerificationReport]]:
    """The one sweep driver: yields reports() of consecutive runs of at most SWEEP_BATCH items.

    Each batch is built only when the previous one has been taken, so a
    consumer that drops a written batch holds one at a time.  A batch may
    span graft bases and orders; the reports do not depend on the split,
    since a matrix gets the same bracket bits in any stack.
    """
    items = iter(items)
    while batch := list(islice(items, SWEEP_BATCH)):
        yield reports(batch)


def _graphs(lo: int, hi: int) -> Iterator[Graph]:
    """The graphs of orders lo..hi, hi's catalog built first: above the cap, no report is made."""
    if hi >= lo:
        catalog(hi)
    for n in range(lo, hi + 1):
        yield from connected_graphs(n)


def graft_sites(max_base_n: int, max_total: int, equal_only: bool | None = None):
    """All graft sites over connected bases, both edge orientations.

    equal_only=None yields every k >= l >= 1 with k+l <= max_total;
    True restricts to k = l, False to k > l.
    """
    for base in _graphs(2, max_base_n):
        for u, v in sorted(base.edges):
            for a, b in ((u, v), (v, u)):
                for k in range(1, max_total):
                    for l in range(1, min(k, max_total - k) + 1):
                        if equal_only in (None, k == l):
                            yield GraftSite(base=base, u=a, v=b, k=k, l=l)


def sweep_graft(
    max_base_n: int = 6, max_total: int = 4, width=None, jobs=1, equal_only: bool | None = None
) -> list[VerificationReport]:
    return list(chain.from_iterable(_graft_batches(max_base_n, max_total, equal_only)))


def _graft_batches(max_base_n: int, max_total: int, equal_only: bool | None = None):
    return _batches(graft_sites(max_base_n, max_total, equal_only), _graft_reports)


def pendant_report_for_site(site: GraftSite, width=None):
    """Mass comparison on the grafted member's two attached paths (k > l).

    width is deprecated and ignored.
    """
    if not site.k > site.l >= 1:
        raise GraphError(f"pendant mass needs k > l >= 1, got k={site.k}, l={site.l}")
    return _pendant_reports([site])[0]


def _pendant_reports(sites: list[GraftSite]) -> list[VerificationReport]:
    """Pendant-mass reports for sites with k > l >= 1; the members, all distinct, as one batch."""
    _check_sites(sites)
    members = [_at(s, s.k, s.l) for s in sites]
    names = encode_rows([g.masks for g in members])
    return [
        _pendant_sum(g, _path(s.u, s.base.n, s.k), _path(s.v, s.base.n + s.k, s.l), res, g6)
        for s, g, res, g6 in zip(sites, members, perron_many(members), names)
    ]


def _path(root: int, first: int, length: int) -> PendantPath:
    return PendantPath(root=root, vertices=tuple(range(first, first + length)))


def sweep_pendant(
    max_base_n: int = 6, max_total: int = 4, width=None, jobs=1
) -> list[VerificationReport]:
    return list(chain.from_iterable(_pendant_batches(max_base_n, max_total)))


def _pendant_batches(max_base_n: int, max_total: int):
    return _batches(graft_sites(max_base_n, max_total, equal_only=False), _pendant_reports)


def relocation_specs(max_n: int):
    """All single-vertex-component relocation specs on small graphs.

    The moved-to vertex v is a pendant neighbor of u, which makes every
    neighborhood hypothesis hold automatically; targets range over all
    nonempty subsets of u's other neighbors.
    """
    for g in _graphs(2, max_n):
        for v, mv in enumerate(g.masks):
            if mv.bit_count() != 1:
                continue
            u = mv.bit_length() - 1
            rest = [t for t in g.neighbors(u) if t != v]
            for sub in range(1, 1 << len(rest)):
                targets = tuple(rest[i] for i in range(len(rest)) if (sub >> i) & 1)
                yield RelocationSpec(g=g, u=u, v=v, targets=targets)


def sweep_relocation(max_n: int = 6, width=None, jobs=1) -> list[VerificationReport]:
    return list(chain.from_iterable(_relocation_batches(max_n)))


def _relocation_batches(max_n: int):
    return _batches(relocation_specs(max_n), _relocation_reports)


def edge_addition_pairs(max_n: int):
    """Every (connected graph, graph plus one absent edge) pair, n <= max_n."""
    for g in _graphs(2, max_n):
        for a, b in combinations(range(g.n), 2):
            if not g.has_edge(a, b):
                masks = list(g.masks)
                masks[a], masks[b] = masks[a] | 1 << b, masks[b] | 1 << a
                yield g, Graph(tuple(masks))


def sweep_perturbation(max_n: int = 6, width=None, jobs=1) -> list[VerificationReport]:
    return list(chain.from_iterable(_bound_batches(max_n)))


def _bound_batches(max_n: int):
    return _batches(edge_addition_pairs(max_n), lambda batch: _bound_reports(batch, BOUND_TOL))


def sweep_monotonicity(max_n: int = 7, width=None, jobs=1) -> list[VerificationReport]:
    return list(chain.from_iterable(_monotonicity_batches(max_n)))


def _monotonicity_batches(max_n: int):
    return _batches(_graphs(1, max_n), _monotonicity_reports)


def _min_batches(theorem: str, n: int):
    """One batch: a report per k, ascending, that some class of the order's catalog has."""
    yield list(_min_reports(theorem, n))


def sweep_min_cut_vertices(n: int, width=None, jobs=1) -> list[VerificationReport]:
    return list(chain.from_iterable(_min_batches("min-cut-vertices", n)))


def sweep_min_cut_edges(n: int, width=None, jobs=1) -> list[VerificationReport]:
    return list(chain.from_iterable(_min_batches("min-cut-edges", n)))
