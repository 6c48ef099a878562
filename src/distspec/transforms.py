"""Graph constructions and distance-decreasing perturbations.

Builders for the named families (cliques with pendant paths distributed
almost equally, cliques with pendant vertices, paths grafted at two adjacent
roots) plus the edge relocation move and the block-clique closure.  All
constructions keep base vertex labels and append new vertices, so results
are deterministic and easy to cross-reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, bfs_distances, block_masks, build_graph, is_connected
from .graphs import _bits, graph_from_masks, masks_of


class HypothesisError(ValueError):
    """A named hypothesis of a perturbation failed; clause says which."""

    def __init__(self, clause: str, detail: str):
        super().__init__(f"{clause}: {detail}")
        self.clause = clause


def make_base(kind: str, n: int) -> Graph:
    """Named base graph: complete, path, or cycle on n vertices."""
    if kind == "complete":
        if n < 1:
            raise GraphError(f"complete graph needs n >= 1, got {n}")
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "path":
        if n < 1:
            raise GraphError(f"path needs n >= 1, got {n}")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise GraphError(f"cycle needs n >= 3, got {n}")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    raise GraphError(f"unknown base kind {kind!r}")


def attach_path(g: Graph, root: int, length: int) -> Graph:
    """Append a pendant path of `length` edges at root.

    New vertices take labels n..n+length-1 in walk order; length 0 returns
    the graph unchanged.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} outside 0..{g.n - 1}")
    if length < 0:
        raise GraphError(f"path length must be >= 0, got {length}")
    if length == 0:
        return g
    edges = list(g.edges)
    prev = root
    for i in range(length):
        new = g.n + i
        edges.append((prev, new))
        prev = new
    return build_graph(g.n + length, edges)


@dataclass(frozen=True)
class GraftSite:
    """Two adjacent roots of a base graph plus pendant path budgets k and l."""

    base: Graph
    u: int
    v: int
    k: int
    l: int


def _check_site(site: GraftSite) -> None:
    if site.u == site.v:
        raise GraphError("graft roots must be distinct")
    if not site.base.has_edge(site.u, site.v):
        raise GraphError(f"graft roots ({site.u}, {site.v}) must be adjacent in the base")
    if site.k < 0 or site.l < 0:
        raise GraphError(f"path budgets must be >= 0, got k={site.k}, l={site.l}")
    if not is_connected(site.base):
        raise GraphError("graft base must be connected")


def graft(site: GraftSite) -> Graph:
    """The member G_{k,l}: path of k edges at u, then l edges at v.

    Base vertices keep their labels; the u-side path takes the next k labels
    ascending from the root outward, the v-side path the l after that.
    """
    _check_site(site)
    return _grafted(site.base, site.u, site.v, site.k, site.l)


def _grafted(base: Graph, u: int, v: int, k: int, l: int) -> Graph:
    """G_{k,l} in graft's labels, extended from the base's adjacency.

    Each new vertex exceeds every label before it, so appending keeps every
    adjacency list sorted: the result equals build_graph on the same edges,
    without re-validating the base.
    """
    nb = base.n
    adj = list(base.adjacency)
    path = []
    for root, first, length in ((u, nb, k), (v, nb + k, l)):
        prev = root
        for new in range(first, first + length):
            path.append((prev, new))
            adj[prev] += (new,)
            adj.append((prev,))
            prev = new
    return Graph(
        n=len(adj),
        edges=base.edges.union(path),
        adjacency=tuple(adj),
        degrees=tuple(map(len, adj)),
    )


@dataclass(frozen=True)
class GraftFamily:
    """G_{k,l} together with its two one-unit shifts.

    shift_to_u is G_{k+1,l-1} (None when l = 0); shift_to_v is G_{k-1,l+1}
    (None when k = 0).  All members share the base labels and vertex count.
    """

    member: Graph
    shift_to_u: Graph | None
    shift_to_v: Graph | None


def graft_family(site: GraftSite) -> GraftFamily:
    """Build G_{k,l} and its defined shifts, checking the site once."""
    _check_site(site)
    base, u, v, k, l = site.base, site.u, site.v, site.k, site.l
    return GraftFamily(
        member=_grafted(base, u, v, k, l),
        shift_to_u=_grafted(base, u, v, k + 1, l - 1) if l >= 1 else None,
        shift_to_v=_grafted(base, u, v, k - 1, l + 1) if k >= 1 else None,
    )


def g_nk(n: int, k: int) -> Graph:
    """Clique on n-k vertices with pendant paths of almost equal lengths.

    Total pendant length is k, path lengths differ by at most one, and the
    longer paths sit on the lowest-numbered clique vertices.  k = 0 gives
    the complete graph; k = n-2 degenerates to the path.
    """
    if n < 1:
        raise GraphError(f"order must be positive, got {n}")
    if k == 0:
        return make_base("complete", n)
    if not 1 <= k <= n - 2:
        raise GraphError(f"cut-vertex budget k={k} invalid for n={n}: need 0 <= k <= n-2")
    c = n - k
    q, r = divmod(k, c)
    lengths = [q + 1] * r + [q] * (c - r)
    g = make_base("complete", c)
    for root, length in enumerate(lengths):
        g = attach_path(g, root, length)
    return g


def k_nk(n: int, k: int) -> Graph:
    """Clique on n-k vertices with k pendant vertices on clique vertex 0.

    Exactly k cut edges.  k = n-2 is rejected: the two-vertex clique would
    turn its own edge into an extra bridge, so no graph of that shape has
    n-2 cut edges.
    """
    if n < 1:
        raise GraphError(f"order must be positive, got {n}")
    if not 0 <= k <= n - 1:
        raise GraphError(f"cut-edge budget k={k} invalid for n={n}: need 0 <= k <= n-1")
    if k == n - 2 and n >= 2:
        raise GraphError(
            f"cut-edge budget k={k} invalid for n={n}: no clique-with-pendants graph "
            f"has exactly n-2 cut edges"
        )
    g = make_base("complete", n - k)
    edges = list(g.edges)
    for i in range(k):
        edges.append((0, n - k + i))
    return build_graph(n, edges)


@dataclass(frozen=True)
class EdgePartition:
    """Vertices split by relative distance to the endpoints of an edge."""

    side_a: frozenset[int]
    equidistant: frozenset[int]
    side_b: frozenset[int]


def classify_by_edge(g: Graph, a: int, b: int) -> EdgePartition:
    """Partition all vertices by distance to a versus b (ab must be an edge).

    Adjacency forces |dist(j,a) - dist(j,b)| <= 1, so the three parts cover
    everything; a bipartite graph has an empty equidistant part.
    """
    if not g.has_edge(a, b):
        raise GraphError(f"({a}, {b}) is not an edge")
    da = bfs_distances(g, a)
    db = bfs_distances(g, b)
    if min(da) < 0:
        raise GraphError("classification undefined: graph is not connected")
    others = [j for j in range(g.n) if j not in (a, b)]
    side_a = frozenset(j for j in others if da[j] < db[j])
    side_b = frozenset(j for j in others if db[j] < da[j])
    equi = frozenset(j for j in others if da[j] == db[j])
    return EdgePartition(side_a=side_a, equidistant=equi, side_b=side_b)


@dataclass(frozen=True)
class RelocationSpec:
    """Move the edges u-t (t in targets) to v-t.

    c1 is the component of g - u containing v; targets live outside c1.
    witness, when set, is a vertex outside c1 and u whose distance to every
    target strictly drops back in g compared to the relocated graph.
    """

    g: Graph
    u: int
    v: int
    c1: frozenset[int]
    targets: tuple[int, ...]
    witness: int | None = None


def component_without(g: Graph, removed: int, seed: int) -> frozenset[int]:
    """Vertex set of the component of g - removed that contains seed."""
    if not (0 <= removed < g.n and 0 <= seed < g.n) or removed == seed:
        raise GraphError(
            f"need two distinct vertices in range, got removed={removed}, seed={seed}"
        )
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for w in g.adjacency[x]:
                if w != removed and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def make_relocation_spec(
    g: Graph, u: int, v: int, targets, witness: int | None = None
) -> RelocationSpec:
    """Assemble and validate a relocation; raises HypothesisError on failure."""
    spec = RelocationSpec(
        g=g,
        u=u,
        v=v,
        c1=component_without(g, u, v) if 0 <= v < g.n and u != v else frozenset(),
        targets=tuple(sorted(set(targets))),
        witness=witness,
    )
    validate_relocation(spec)
    return spec


def validate_relocation(spec: RelocationSpec) -> None:
    """Check every hypothesis of the relocation move, naming the failed clause."""
    g, u, v = spec.g, spec.u, spec.v
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v or not g.has_edge(u, v):
        raise HypothesisError("adjacency", f"u={u} and v={v} must be distinct adjacent vertices")
    if not is_connected(g):
        raise HypothesisError("adjacency", "graph must be connected")
    c1 = component_without(g, u, v)
    if spec.c1 != c1:
        raise HypothesisError(
            "component", f"c1 must be the component of g - {u} containing {v}: {sorted(c1)}"
        )
    if not spec.targets:
        raise HypothesisError("targets", "at least one target is required")
    nu = set(g.adjacency[u])
    nv = set(g.adjacency[v])
    for t in spec.targets:
        if t not in nu:
            raise HypothesisError("targets", f"target {t} is not adjacent to u={u}")
        if t in c1:
            raise HypothesisError("targets", f"target {t} lies inside c1")
        if t in nv:
            raise HypothesisError("targets", f"target {t} is already adjacent to v={v}")
    if (nu & c1) - {v} != nv & c1:
        raise HypothesisError(
            "neighborhood",
            f"u and v must see the same c1 vertices apart from v itself: "
            f"{sorted((nu & c1) - {v})} vs {sorted(nv & c1)}",
        )
    if spec.witness is not None:
        w = spec.witness
        if not (0 <= w < g.n) or w == u or w in c1:
            raise HypothesisError("witness", f"witness {w} must lie outside c1 and u")


def relocate_edges(spec: RelocationSpec) -> Graph:
    """Delete the u-target edges and add v-target edges."""
    validate_relocation(spec)
    edges = set(spec.g.edges)
    for t in spec.targets:
        edges.discard((min(spec.u, t), max(spec.u, t)))
        edges.add((min(spec.v, t), max(spec.v, t)))
    out = build_graph(spec.g.n, edges)
    if not is_connected(out):
        raise HypothesisError("component", "relocated graph is not connected")
    return out


def find_witness(spec: RelocationSpec, relocated: Graph | None = None) -> int | None:
    """Smallest vertex outside c1 and u whose distance to every target grows.

    Returns None when no vertex qualifies, in which case the strict
    inequality machinery does not apply to this relocation.
    """
    if relocated is None:
        relocated = relocate_edges(spec)
    g = spec.g
    old = {t: bfs_distances(g, t) for t in spec.targets}
    new = {t: bfs_distances(relocated, t) for t in spec.targets}
    for w in range(g.n):
        if w == spec.u or w in spec.c1:
            continue
        if all(old[t][w] < new[t][w] for t in spec.targets):
            return w
    return None


def block_clique_closure(g: Graph) -> Graph:
    """Complete every block into a clique.

    Distances never increase, the cut structure is unchanged, and applying
    the closure twice gives the same graph as applying it once.  Each block
    mask is ORed into its members' adjacency masks, which stay symmetric
    and loop-free, so the closure is built unchecked.
    """
    masks = masks_of(g)
    for b in block_masks(masks):
        for v in _bits(b):
            masks[v] |= b & ~(1 << v)
    return graph_from_masks(masks)


def distance_dominates(small, big) -> bool:
    """True when small's distances are entrywise <= big's (same order)."""
    if small.n != big.n:
        raise ValueError(f"orders differ: {small.n} vs {big.n}")
    return bool((small.d <= big.d).all())
