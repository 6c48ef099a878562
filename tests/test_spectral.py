"""Certified radius: closed forms, bracket invariants, dense-solver parity,
50-digit enclosure and power-iteration refinement."""

from __future__ import annotations

import math

import mpmath
import networkx as nx
import numpy as np
import pytest

from distspec.enumeration import connected_graphs
from distspec.graphs import GraphError, build_graph
from distspec.spectral import (
    MIN_BRACKET_WIDTH,
    BracketError,
    Relation,
    certified_compare,
    distance_matrix,
    perron,
    perron_of,
    quadratic_form_delta,
    rayleigh_quotient,
)
from distspec.transforms import make_base


def eig_radius(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    d = np.array(nx.floyd_warshall_numpy(h), dtype=float)
    return float(np.linalg.eigvalsh(d)[-1])


def mp_radius(dm):
    """Largest eigenvalue of the distance matrix to 50 digits."""
    with mpmath.workdps(50):
        return max(mpmath.eigsy(mpmath.matrix(dm.d.tolist()), eigvals_only=True))


def encloses(res, lam):
    """lam in [lower, upper], up to the 1e-40 error of the 50-digit eigensolver
    (a bracket can be exact, e.g. [6, 6] for the 5-cycle)."""
    with mpmath.workdps(50):
        slack = mpmath.mpf("1e-40") * max(1, lam)
        return mpmath.mpf(res.lower) - slack <= lam <= mpmath.mpf(res.upper) + slack


def test_distance_matrix_values():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    dm = distance_matrix(p4)
    expected = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    assert dm.d.tolist() == expected


def test_distance_matrix_requires_connected():
    with pytest.raises(GraphError, match="connected"):
        distance_matrix(build_graph(4, [(0, 1), (2, 3)]))


def test_closed_forms():
    # [DERIVED] roots of the distance characteristic polynomials
    cases = [
        (make_base("complete", 5), 4.0),
        (make_base("path", 3), 1 + math.sqrt(3)),
        (make_base("path", 4), 2 + math.sqrt(10)),
        (build_graph(4, [(0, 1), (0, 2), (0, 3)]), 2 + math.sqrt(7)),
        (make_base("cycle", 5), 6.0),
    ]
    for g, lam in cases:
        res = perron_of(g, 1e-10)
        assert res.lower - 1e-12 <= lam <= res.upper + 1e-12
        assert abs(res.value - lam) <= 1e-9


def test_bracket_and_residual_invariants():
    for n in range(2, 7):
        for g in connected_graphs(n):
            res = perron_of(g, 1e-10)
            dm = distance_matrix(g)
            assert res.lower <= res.value <= res.upper
            assert res.upper - res.lower <= 1e-10
            # recomputing the quotient outside perron reorders the float
            # ops, so allow a few ulp around the certified bracket
            slack = 8 * np.spacing(max(res.value, 1.0))
            rq = rayleigh_quotient(dm, res.vector)
            assert res.lower - slack <= rq <= res.upper + slack
            assert res.residual <= 1e-9 * max(res.value, 1.0)
            assert res.vector.min() > 0
            assert abs(float(np.linalg.norm(res.vector)) - 1.0) < 1e-12


def test_matches_dense_solver():
    for n in range(2, 7):
        for g in connected_graphs(n):
            lam = eig_radius(g)
            res = perron_of(g, 1e-10)
            assert res.lower - 1e-8 <= lam <= res.upper + 1e-8


def test_single_vertex():
    res = perron_of(build_graph(1, []))
    assert res.value == 0.0
    assert res.vector.tolist() == [1.0]


def test_perron_of_caches():
    g = make_base("cycle", 6)
    assert perron_of(g, 1e-10) is perron_of(g, 1e-10)


def test_bracket_width_request():
    g = make_base("path", 7)
    wide = perron(distance_matrix(g), bracket_width=1e-4)
    tight = perron(distance_matrix(g), bracket_width=1e-12)
    assert wide.width <= 1e-4
    assert tight.width <= 1e-12
    assert wide.lower <= tight.value <= wide.upper


def test_certified_compare():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    p4 = make_base("path", 4)
    a = perron_of(star, 1e-10)
    b = perron_of(p4, 1e-10)
    lt = certified_compare(a, b)
    assert lt.relation is Relation.LESS
    assert lt.gap_lower_bound > 0.51
    gt = certified_compare(b, a)
    assert gt.relation is Relation.GREATER
    tie = certified_compare(a, perron_of(star, 1e-10))
    assert tie.relation is Relation.INDISTINGUISHABLE

    k4 = perron_of(make_base("complete", 4), 1e-10)
    k5 = perron_of(make_base("complete", 5), 1e-10)
    assert certified_compare(k4, k5).relation is Relation.LESS


def test_quadratic_form_delta():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    # the star with edge 0-2 moved to 1-2: a path in star labels
    p4 = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    ds, dp = distance_matrix(star), distance_matrix(p4)
    x = perron_of(star, 1e-10).vector
    assert quadratic_form_delta(ds, ds, x) == 0.0
    bound = quadratic_form_delta(ds, dp, x)
    true_gap = eig_radius(p4) - eig_radius(star)
    assert 0 < bound <= true_gap + 1e-9

    # removing an edge lengthens distances entrywise, form is nonnegative
    c4 = make_base("cycle", 4)
    sub = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    xc = perron_of(c4, 1e-10).vector
    assert quadratic_form_delta(distance_matrix(c4), distance_matrix(sub), xc) >= 0


def test_quadratic_form_validation():
    ds = distance_matrix(make_base("path", 3))
    dp = distance_matrix(make_base("path", 4))
    x3 = perron_of(make_base("path", 3)).vector
    with pytest.raises(ValueError, match="order"):
        quadratic_form_delta(ds, dp, x3)
    with pytest.raises(ValueError, match="unit"):
        quadratic_form_delta(ds, ds, x3 * 2.0)
    with pytest.raises(ValueError, match="length"):
        rayleigh_quotient(dp, x3)


def test_edge_addition_never_raises_radius():
    for n in range(2, 6):
        for g in connected_graphs(n):
            for a in range(n):
                for b in range(a + 1, n):
                    if g.has_edge(a, b):
                        continue
                    bigger = build_graph(n, list(g.edges) + [(a, b)])
                    rel = certified_compare(
                        perron_of(bigger, 1e-10), perron_of(g, 1e-10)
                    )
                    assert rel.relation is not Relation.GREATER


def test_bracket_encloses_high_precision_radius():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    assert len(graphs) == 143
    for g in graphs:
        dm = distance_matrix(g)
        assert encloses(perron(dm), mp_radius(dm)), g.edges


def test_one_certification_step_to_ulp_width():
    for n in range(2, 8):
        for g in connected_graphs(n):
            res = perron(distance_matrix(g), bracket_width=MIN_BRACKET_WIDTH)
            assert res.iterations == 1
            assert res.width <= 1e-12


def alternating_eigh(real_eigh):
    """eigh whose top eigenvector is replaced by +1, -1, +1, ...; |v| is then
    the all-ones vector, a Perron vector only when every row of D has the
    same sum."""

    def eigh(a):
        w, v = real_eigh(a)
        v[:, -1] = [(-1) ** i for i in range(len(w))]
        return w, v

    return eigh


def test_refinement_on_sign_mixed_eigenvector(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", alternating_eigh(np.linalg.eigh))
    refined = 0
    for g in connected_graphs(5):
        dm = distance_matrix(g)
        res = perron(dm)
        if len(set(dm.d.sum(axis=1).tolist())) > 1:
            assert res.iterations > 1
            refined += 1
        assert res.width <= 1e-10
        assert encloses(res, mp_radius(dm)), g.edges
    assert refined == 19


def test_exact_step_beyond_int64_order(monkeypatch):
    dm = distance_matrix(make_base("path", 65))
    lam = mp_radius(dm)
    res = perron(dm)
    assert res.iterations == 1
    assert res.width <= 1e-10
    assert encloses(res, lam)
    monkeypatch.setattr(np.linalg, "eigh", alternating_eigh(np.linalg.eigh))
    res = perron(dm)
    assert res.iterations > 1
    assert res.width <= 1e-10
    assert encloses(res, lam)


def test_unreachable_width_raises_certified_bracket():
    dm = distance_matrix(make_base("path", 7))
    with pytest.raises(BracketError) as err:
        perron(dm, bracket_width=1e-300, max_iter=3)
    assert err.value.iterations == 3
    assert 0 < err.value.upper - err.value.lower < 1e-12
    assert encloses(err.value, mp_radius(dm))
