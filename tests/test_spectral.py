"""Certified radius: closed forms, bracket invariants, dense-solver parity,
50-digit enclosure, power-iteration refinement, the batched path against a
one-matrix Python-int reference, and Floyd-Warshall hop counts against
networkx's breadth-first search."""

from __future__ import annotations

import math
import operator

import mpmath
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distspec import spectral
from distspec.enumeration import catalog, connected_graphs
from distspec.graph6 import decode_graph6
from distspec.graphs import GraphError, build_graph
from distspec.spectral import (
    BracketError,
    Relation,
    brackets,
    certified_compare,
    distance_matrices,
    distance_matrix,
    perron,
    perron_many,
    perron_of,
    quadratic_form_delta,
)
from distspec.transforms import GraftSite, graft, make_base
from distspec.verify import graft_sites


def eig_radius(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    d = np.array(nx.floyd_warshall_numpy(h), dtype=float)
    return float(np.linalg.eigvalsh(d)[-1])


def mp_radius(dm):
    """Largest eigenvalue of the distance matrix to 50 digits."""
    with mpmath.workdps(50):
        return max(mpmath.eigsy(mpmath.matrix(dm.tolist()), eigvals_only=True))


def encloses(res, lam):
    """lam in [lower, upper], up to the 1e-40 error of the 50-digit eigensolver
    (a bracket can be exact, e.g. [6, 6] for the 5-cycle)."""
    with mpmath.workdps(50):
        slack = mpmath.mpf("1e-40") * max(1, lam)
        return mpmath.mpf(res.lower) - slack <= lam <= mpmath.mpf(res.upper) + slack


def bfs_rows(g):
    """Hop counts by networkx's breadth-first search, row s from vertex s."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    rows = dict(nx.all_pairs_shortest_path_length(h))
    return [[rows[s][w] for w in range(g.n)] for s in range(g.n)]


def test_distance_matrix_values():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    dm = distance_matrix(p4)
    expected = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    assert dm.tolist() == expected


@pytest.mark.parametrize("n", [62, 63, 64, 65])
def test_distance_matrix_across_the_mask_dtype_boundary(n):
    # masks are read as int64 below 63 vertices and as Python ints from 63 up
    path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    star = build_graph(n, [(0, i) for i in range(1, n)])
    for g in (path, star):
        d = distance_matrix(g)
        assert d.tolist() == bfs_rows(g)


def test_distance_matrices_of_a_mixed_order_batch():
    graphs = [
        build_graph(n, edges)
        for n in (1, 5, 62, 63, 64, 65)
        for edges in ([(i, i + 1) for i in range(n - 1)], [(0, i) for i in range(1, n)])
    ]
    batch = distance_matrices(graphs[::-1] + graphs)
    for g, dm in zip(graphs[::-1] + graphs, batch):
        assert dm.shape == (g.n, g.n)
        assert np.array_equal(dm, distance_matrix(g))


def test_floyd_warshall_matches_bfs_on_every_small_graph():
    for n in range(1, 8):
        graphs = list(connected_graphs(n))
        for g, dm in zip(graphs, distance_matrices(graphs)):
            assert dm.dtype == np.int64 and not dm.flags.writeable
            assert dm.tolist() == bfs_rows(g), g.edges


@st.composite
def same_order_connected_graphs(draw):
    """One to three connected graphs of one order up to 70: a random tree plus
    random chords, relabelled by a random permutation."""
    n = draw(st.integers(1, 70))
    graphs = []
    for _ in range(draw(st.integers(1, 3))):
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        if n > 1:
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            edges |= {(a, b) for a, b in draw(st.lists(pair, max_size=2 * n)) if a < b}
        perm = draw(st.permutations(range(n)))
        graphs.append(build_graph(n, {tuple(sorted((perm[a], perm[b]))) for a, b in edges}))
    return graphs


@settings(max_examples=60, deadline=None)
@given(same_order_connected_graphs())
def test_floyd_warshall_matches_bfs_up_to_order_70(graphs):
    for g, dm in zip(graphs, distance_matrices(graphs)):
        assert dm.tolist() == bfs_rows(g)


def test_distance_matrices_are_read_only_rows_of_the_hop_stack():
    graphs = list(connected_graphs(6))
    stack = spectral._hop_counts(catalog(6).masks.astype(np.int64))
    dms = distance_matrices(graphs)
    for d, ref in zip(dms, stack):
        assert type(d) is np.ndarray and d.dtype == np.int64 and d.shape == (6, 6)
        assert np.array_equal(d, ref)
    with pytest.raises(ValueError, match="read-only"):
        dms[0][0, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        distance_matrix(graphs[0])[0, 1] = 5


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
            x = res.vector
            rq = float(x @ (dm @ x)) / float(x @ x)
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


def test_perron_of_other_width_is_computed_not_cached():
    g = make_base("path", 7)
    res = perron_of(g, 1e-4)
    assert fields(res) == fields(perron(distance_matrix(g), bracket_width=1e-4))
    assert perron_of(g, 1e-4) is not res


def test_bracket_width_request():
    g = make_base("path", 7)
    wide = perron(distance_matrix(g), bracket_width=1e-4)
    tight = perron(distance_matrix(g), bracket_width=1e-12)
    assert wide.width <= 1e-4
    assert tight.width <= 1e-12
    assert wide.lower <= tight.value <= wide.upper


def test_nan_width_rejected():
    # as is a step count below 1, before any step is taken
    dm = distance_matrix(make_base("path", 4))
    for width, max_iter in ((float("nan"), 3), (1e-10, 0)):
        with pytest.raises(ValueError, match="positive"):
            perron(dm, bracket_width=width, max_iter=max_iter)


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
            res = perron(distance_matrix(g), bracket_width=1e-12)
            assert res.iterations == 1
            assert res.width <= 1e-12


def alternating(n):
    """+1, -1, +1, ...: |v| is the all-ones vector, a Perron vector only when
    every row of D has the same sum."""
    return [(-1) ** i for i in range(n)]


def first_unit(n):
    """e_0: its first step raises every other entry of X to 1."""
    return np.eye(n)[0]


def eigh_with_top(real_eigh, top):
    """eigh whose top eigenvector, of each matrix of a stack, is top(n)."""

    def eigh(a):
        w, v = real_eigh(a)
        v[..., -1] = top(a.shape[-1])
        return w, v

    return eigh


def test_refinement_on_sign_mixed_eigenvector(monkeypatch):
    # from |v| = ones, and from |e_0|, every step narrows the bracket until it
    # is the default width: perron() raises on a refinement that stops early
    real_eigh = np.linalg.eigh
    for top, want in ((alternating, 19), (first_unit, 21)):
        monkeypatch.setattr(np.linalg, "eigh", eigh_with_top(real_eigh, top))
        refined = 0
        for g in connected_graphs(5):
            dm = distance_matrix(g)
            res = perron(dm)
            if len(set(dm.sum(axis=1).tolist())) > 1 or top is first_unit:
                assert res.iterations > 1
                refined += 1
            assert res.width <= 1e-10
            assert encloses(res, mp_radius(dm)), g.edges
        assert refined == want


def test_exact_step_beyond_int64_order(monkeypatch):
    dm = distance_matrix(make_base("path", 65))
    lam = mp_radius(dm)
    res = perron(dm)
    assert res.iterations == 1
    assert res.width <= 1e-10
    assert encloses(res, lam)
    monkeypatch.setattr(np.linalg, "eigh", eigh_with_top(np.linalg.eigh, alternating))
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
    # the message and the bounds carry Python floats, never numpy scalars
    assert type(err.value.lower) is float and type(err.value.upper) is float
    assert "np.float64" not in str(err.value)


def test_cycling_vector_raises_within_a_few_steps():
    # step 3 does not narrow this graph's bracket, the float limit: the loop
    # stops there instead of running MAX_ITER steps, with the bracket those
    # would have ended on
    dm = distance_matrix(decode_graph6("G{CI?C"))
    with pytest.raises(BracketError) as err:
        perron(dm, bracket_width=2e-14)
    assert err.value.iterations <= 20
    assert (err.value.lower, err.value.upper) == (18.80340747096862, 18.803407470968654)
    assert encloses(err.value, mp_radius(dm))


def test_long_path_settles_where_perron_raises():
    # P_400's radius is 55,585: no step brings its bracket down to the
    # absolute default width, so a stack settles a few ulps of the radius
    # wide at the first step that does not narrow, and perron() raises there
    p400 = make_base("path", 400)
    res = perron_many([p400])[0]
    assert res.iterations > 1
    assert res.width <= 1e-14 * res.upper
    assert res.lower <= res.value <= res.upper
    with pytest.raises(BracketError) as err:
        perron(distance_matrix(p400))
    assert (err.value.lower, err.value.upper, err.value.iterations) == (
        res.lower,
        res.upper,
        res.iterations,
    )


def fields(res):
    return (res.value, res.lower, res.upper, res.residual, res.iterations, res.vector.tolist())


def two_ulps(x, toward):
    return math.nextafter(math.nextafter(x, toward), toward)


def reference_fields(d):
    """Default-width bracket fields of each matrix of a same-order int64 stack d,
    one matrix at a time in Python ints: the stacked eigh, then per matrix
    Y = DX, every ratio Y_i/X_i divided exactly, x.x and x.y summed exactly,
    and power iteration on the matrices still too wide."""
    n = d.shape[-1]
    if n == 1:
        return [(0.0, 0.0, 0.0, 0.0, 0, [1.0])] * len(d)
    x = np.abs(np.linalg.eigh(d)[1][..., -1])
    out = [None] * len(d)
    bounds = [(-math.inf, math.inf)] * len(d)
    todo = list(range(len(d)))
    for it in range(1, spectral.MAX_ITER + 1):
        big = (x[todo] / x[todo].max(axis=1, keepdims=True) * 2.0**50).astype(np.int64)
        for i, row in zip(todo, big.tolist()):
            xs = [max(v, 1) for v in row]
            ys = [sum(map(operator.mul, row, xs)) for row in d[i].tolist()]
            ratios = [yi / xi for yi, xi in zip(ys, xs)]
            lower = max(bounds[i][0], two_ulps(min(ratios), -math.inf))
            upper = min(bounds[i][1], two_ulps(max(ratios), math.inf))
            bounds[i] = lower, upper
            if upper - lower <= spectral.DEFAULT_BRACKET_WIDTH:
                sq = sum(map(operator.mul, xs, xs))
                lam = min(max(sum(map(operator.mul, xs, ys)) / sq, lower), upper)
                norm = math.sqrt(sq)
                residual = max([abs(y - lam * x) for x, y in zip(xs, ys)]) / norm
                out[i] = (lam, lower, upper, residual, it, [x / norm for x in xs])
        todo = [i for i in todo if out[i] is None]
        if not todo:
            return out
        y = np.matmul(d[todo], x[todo][:, :, None])[:, :, 0]
        x[todo] = y / y.max(axis=1, keepdims=True)
    raise AssertionError("reference bracket did not reach the default width")


def reference_by_graph(graphs):
    """Reference fields of each distinct graph, one stack per order of its BFS distances."""
    by_order = {}
    for g in dict.fromkeys(graphs):
        by_order.setdefault(g.n, []).append(g)
    ref = {}
    for gs in by_order.values():
        ref.update(zip(gs, reference_fields(np.array([bfs_rows(g) for g in gs], dtype=np.int64))))
    return ref


def oracle_graphs():
    """Every connected graph with n <= 8, the graft families of bases n <= 5 with
    k + l <= 6, and paths on both sides of the int64 step's order limit."""
    graphs = [g for n in range(1, 9) for g in connected_graphs(n)]
    for s in graft_sites(5, 6):
        for k, l in ((s.k, s.l), (s.k + 1, s.l - 1), (s.k - 1, s.l + 1)):
            graphs.append(graft(GraftSite(base=s.base, u=s.u, v=s.v, k=k, l=l)))
    return graphs + [make_base("path", n) for n in (63, 64, 65, 70)]


def test_perron_many_matches_scalar_path_exactly():
    # the array step (every ratio divided exactly over the stack, object-array
    # sums) gives the reference's bits on every entry point
    graphs = oracle_graphs()
    assert len(graphs) == 20811
    ref = reference_by_graph(graphs)
    for g, res in zip(graphs, perron_many(graphs)):
        assert fields(res) == ref[g], g.edges
        assert [type(v) for v in fields(res)[:5]] == [float] * 4 + [int]
    for g in graphs[::101] + graphs[-4:]:
        assert fields(perron(distance_matrix(g))) == ref[g], g.edges
    for n in range(1, 9):
        assert [fields(r) for r in brackets(catalog(n).masks)] == [
            ref[g] for g in connected_graphs(n)
        ]


def test_exact_division_settles_ratios_one_float_apart(monkeypatch):
    # On the 6-cycle this X puts the float ratios of vertices 3 and 5 one ulp
    # apart at the row's max, in the opposite order to their exact quotients:
    # the float max (vertex 5) rounds exactly to one ulp below the true max
    # (vertex 3), so only exact division of every ratio finds the true max
    c6 = make_base("cycle", 6)
    d6 = distance_matrix(c6)
    xs = [2**50 - e for e in (0, 3, 6, 8, 1, 9)]
    ys = [sum(map(operator.mul, row, xs)) for row in d6.tolist()]
    floats = [float(y) / x for y, x in zip(ys, xs)]
    exact = [y / x for y, x in zip(ys, xs)]
    assert floats[5] == max(floats) and floats[3] == math.nextafter(floats[5], 0)
    assert exact[3] == max(exact) and exact[5] == math.nextafter(exact[3], 0)
    real_eigh = np.linalg.eigh

    def eigh(a):
        w, v = real_eigh(a)
        n = a.shape[-1]
        for m, vecs in zip(a.reshape(-1, n, n), v if a.ndim == 3 else v[None]):
            if np.array_equal(m, d6):
                vecs[:, -1] = np.array(xs) / 2.0**50
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    graphs = [c6] + list(connected_graphs(6))
    ref = reference_fields(np.array([bfs_rows(g) for g in graphs], dtype=np.int64))
    out = perron_many(graphs)
    assert out[0].upper == two_ulps(exact[3], math.inf)
    assert [fields(r) for r in out] == ref
    assert fields(perron(distance_matrix(c6))) == ref[0]


def test_perron_of_and_perron_many_keep_nothing():
    # a second call brackets the graphs again, to the same bits: no radius
    # outlives the call that computed it
    g = make_base("cycle", 6)
    first = perron_of(g)
    again = perron_of(g)
    assert again is not first and fields(again) == fields(first)
    assert fields(first) == fields(perron_many([g])[0]) == fields(perron(distance_matrix(g)))
    assert not hasattr(perron_of, "cache_info")
    graphs = list(connected_graphs(5))
    batch = perron_many(graphs)
    again = perron_many(graphs)
    assert all(a is not b and fields(a) == fields(b) for a, b in zip(again, batch))


def test_perron_many_mixed_orders_duplicates_and_single_vertex():
    k1, p3, c5 = build_graph(1, []), make_base("path", 3), make_base("cycle", 5)
    graphs = [c5, k1, p3, c5, p3, k1]
    out = perron_many(graphs)
    assert out[0] is out[3] and out[2] is out[4] and out[1] is out[5]
    for g, res in zip(graphs, out):
        assert fields(res) == fields(perron(distance_matrix(g)))
    assert fields(out[1]) == (0.0, 0.0, 0.0, 0.0, 0, [1.0])


def test_perron_many_rejects_disconnected_graph():
    graphs = [make_base("path", 4), build_graph(4, [(0, 1), (2, 3)])]
    with pytest.raises(GraphError, match="not connected"):
        perron_many(graphs)


def test_perron_many_falls_back_when_first_step_is_too_wide(monkeypatch):
    # eigh hands one graph a sign-alternating vector, alone (perron()) or in
    # a stack (perron_many()); |v| = ones certifies only a wide bracket, so
    # that row alone goes on by power iteration, to the bits perron() gives
    graphs = list(connected_graphs(5))
    victim = 7
    d_victim = distance_matrix(graphs[victim])
    assert len(set(d_victim.sum(axis=1).tolist())) > 1
    unpatched = [fields(perron(distance_matrix(g))) for g in graphs]
    real_eigh = np.linalg.eigh

    def eigh(a):
        w, v = real_eigh(a)
        n = a.shape[-1]
        for m, vecs in zip(a.reshape(-1, n, n), v if a.ndim == 3 else v[None]):
            if np.array_equal(m, d_victim):
                vecs[:, -1] = [(-1) ** i for i in range(n)]
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    out = perron_many(graphs)
    assert out[victim].iterations > 1
    assert out[victim].width <= spectral.DEFAULT_BRACKET_WIDTH
    assert fields(out[victim]) == fields(perron(distance_matrix(graphs[victim])))
    for i, res in enumerate(out):
        if i != victim:
            assert fields(res) == unpatched[i]


def test_truncated_eigenvector_entry_is_raised_to_one(monkeypatch):
    # eigh hands one graph the top vector e_0: every other entry truncates to
    # 0, is raised to 1, and the first step certifies a valid but wide
    # bracket, so that row alone goes on by power iteration from |e_0|
    graphs = list(connected_graphs(5))
    victim = 7
    d_victim = distance_matrix(graphs[victim])
    unpatched = [fields(perron(distance_matrix(g))) for g in graphs]
    real_eigh = np.linalg.eigh

    def eigh(a):
        w, v = real_eigh(a)
        n = a.shape[-1]
        for m, vecs in zip(a.reshape(-1, n, n), v if a.ndim == 3 else v[None]):
            if np.array_equal(m, d_victim):
                vecs[:, -1] = np.eye(n)[0]
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    out = perron_many(graphs)
    assert out[victim].iterations > 1
    assert out[victim].width <= spectral.DEFAULT_BRACKET_WIDTH
    assert encloses(out[victim], mp_radius(d_victim))
    assert fields(out[victim]) == fields(perron(d_victim))
    for i, res in enumerate(out):
        if i != victim:
            assert fields(res) == unpatched[i]
