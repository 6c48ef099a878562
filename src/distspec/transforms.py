"""Graph constructions and distance-decreasing perturbations.

Builders for the named families (cliques with pendant paths distributed
almost equally, cliques with pendant vertices, paths grafted at two adjacent
roots) plus the edge relocation move and the block-clique closure.  All
constructions keep base vertex labels and append new vertices, so results
are deterministic and easy to cross-reference.  Each edits the adjacency
bitmasks of its input and builds the result with Graph(masks), unchecked:
the inputs are validated up front, and every edit keeps the masks
symmetric and loop-free.  A relocation is a RelocationSpec checked by
validate_relocation; c1 is derived, and a witness, searched or given,
passes one test on spectral's hop matrices, a batch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, GraphError, _bits, block_masks, is_connected, reach


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
        return Graph(tuple((1 << n) - 1 - (1 << v) for v in range(n)))
    if kind == "path":
        if n < 1:
            raise GraphError(f"path needs n >= 1, got {n}")
        return Graph(tuple((1 << v >> 1 | 1 << v + 1) & ((1 << n) - 1) for v in range(n)))
    if kind == "cycle":
        if n < 3:
            raise GraphError(f"cycle needs n >= 3, got {n}")
        return Graph(tuple(1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)))
    raise GraphError(f"unknown base kind {kind!r}")


def _grafted(g: Graph, *paths: tuple[int, int]) -> Graph:
    """g's masks with a path of `length` new vertices hung off root per (root, length), unchecked.

    The paths are appended in turn, each labelled in walk order after every
    vertex before it: _grafted(base, (u, k), (v, l)) is G_{k,l} in graft's labels.
    """
    masks = list(g.masks)
    for prev, length in paths:
        for new in range(len(masks), len(masks) + length):
            masks[prev] |= 1 << new
            masks.append(1 << prev)
            prev = new
    return Graph(tuple(masks))


@dataclass(frozen=True)
class GraftSite:
    """Two adjacent roots of a base graph plus pendant path budgets k and l."""

    base: Graph
    u: int
    v: int
    k: int
    l: int


def _check_sites(sites: list[GraftSite]) -> None:
    """Check every site's roots and budgets, then each distinct base's connectivity once."""
    for site in sites:
        if site.u == site.v:
            raise GraphError("graft roots must be distinct")
        if not site.base.has_edge(site.u, site.v):
            raise GraphError(f"graft roots ({site.u}, {site.v}) must be adjacent in the base")
        if site.k < 0 or site.l < 0:
            raise GraphError(f"path budgets must be >= 0, got k={site.k}, l={site.l}")
    if not all(map(is_connected, {site.base.masks: site.base for site in sites}.values())):
        raise GraphError("graft base must be connected")


def graft(site: GraftSite) -> Graph:
    """The member G_{k,l}: path of k edges at u, then l edges at v.

    Base vertices keep their labels; the u-side path takes the next k labels
    ascending from the root outward, the v-side path the l after that.
    """
    _check_sites([site])
    return _grafted(site.base, (site.u, site.k), (site.v, site.l))


def g_nk(n: int, k: int) -> Graph:
    """Clique on n-k vertices with pendant paths of almost equal lengths.

    Total pendant length is k, path lengths differ by at most one, and the
    longer paths sit on the lowest-numbered clique vertices.  k = 0 gives
    the complete graph; k = n-2 degenerates to the path.
    """
    if n < 1:
        raise GraphError(f"order must be positive, got {n}")
    if not 0 <= k <= max(n - 2, 0):
        raise GraphError(f"cut-vertex budget k={k} invalid for n={n}: need 0 <= k <= n-2")
    c = n - k
    q, r = divmod(k, c)
    lengths = [q + 1] * r + [q] * (c - r)
    return _grafted(make_base("complete", c), *enumerate(lengths))


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
    return _grafted(make_base("complete", n - k), *[(0, 1)] * k)


@dataclass(frozen=True)
class RelocationSpec:
    """Move the edges u-t (t in targets) to v-t.

    c1, the component of g - u containing v, is derived once per spec;
    targets live outside it.  witness, when set, must pass the test that
    picks a witness: outside c1 and u, each target nearer in g than after.
    """

    g: Graph
    u: int
    v: int
    targets: tuple[int, ...]
    witness: int | None = None

    @cached_property
    def c1(self) -> frozenset[int]:
        return component_without(self.g, self.u, self.v)


def component_without(g: Graph, removed: int, seed: int) -> frozenset[int]:
    """Vertex set of the component of g - removed that contains seed."""
    if not (0 <= removed < g.n and 0 <= seed < g.n) or removed == seed:
        raise GraphError(
            f"need two distinct vertices in range, got removed={removed}, seed={seed}"
        )
    return frozenset(_bits(reach(g.masks, seed, 1 << removed)))


def validate_relocation(spec: RelocationSpec) -> None:
    """Check the move's hypotheses, naming the failed clause; adjacency before the derived c1."""
    g, u, v = spec.g, spec.u, spec.v
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v or not g.has_edge(u, v):
        raise HypothesisError("adjacency", f"u={u} and v={v} must be distinct adjacent vertices")
    if not is_connected(g):
        raise HypothesisError("adjacency", "graph must be connected")
    c1 = spec.c1
    if not spec.targets:
        raise HypothesisError("targets", "at least one target is required")
    nu = set(g.neighbors(u))
    nv = set(g.neighbors(v))
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
    if spec.witness is not None and not 0 <= spec.witness < g.n:  # _witnesses tests the rest
        raise HypothesisError("witness", f"witness {spec.witness} is not a vertex of g")


def relocate_edges(spec: RelocationSpec) -> Graph:
    """Delete the u-target edges and add v-target edges.

    Validation puts every target in u's neighbourhood and outside v's and
    c1's, so the moved masks stay symmetric and loop-free, unchecked; uv
    stays, so u-v-t replaces each moved edge u-t and keeps it connected.
    """
    validate_relocation(spec)
    u, v = spec.u, spec.v
    masks = list(spec.g.masks)
    for t in spec.targets:
        masks[u] &= ~(1 << t)
        masks[v] |= 1 << t
        masks[t] = masks[t] & ~(1 << u) | 1 << v
    return Graph(tuple(masks))


def _witnesses(specs: list[RelocationSpec], dms: list[np.ndarray]) -> list[int | None]:
    """Each spec's smallest vertex outside c1 and u whose distance to every target grows.

    dms holds the graphs' hop matrices, then the relocated graphs'.  One
    array comparison per order: w qualifies when d_old[t, w] < d_new[t, w]
    for every target t, in an override's column only.  None when no vertex
    qualifies: the strict inequality machinery then does not apply to it.
    """
    found: list[int | None] = [None] * len(specs)
    for n in {s.g.n for s in specs}:
        at = [i for i, s in enumerate(specs) if s.g.n == n]
        target, barred = np.zeros((2, len(at), n), dtype=bool)
        for row, s in enumerate(specs[i] for i in at):
            target[row, list(s.targets)] = True
            barred[row, [s.u, *s.c1]] = True
            if s.witness is not None:
                barred[row, np.arange(n) != s.witness] = True
        d_old = np.stack([dms[i] for i in at])
        d_new = np.stack([dms[len(specs) + i] for i in at])
        ok = ((d_old < d_new) | ~target[..., None]).all(axis=-2) & ~barred
        for i, row in zip(at, ok.tolist()):
            found[i] = row.index(True) if True in row else None
    return found


def block_clique_closure(g: Graph) -> Graph:
    """Complete every block into a clique.

    Distances never increase, the cut structure is unchanged, and applying
    the closure twice gives the same graph as applying it once.  Each block
    mask is ORed into its members' adjacency masks, which stay symmetric
    and loop-free, so the closure is built unchecked.
    """
    masks = list(g.masks)
    for b in block_masks(masks):
        for v in _bits(b):
            masks[v] |= b & ~(1 << v)
    return Graph(tuple(masks))


def distance_dominates(small: np.ndarray, big: np.ndarray) -> bool:
    """True when the hop matrix small is entrywise <= big (same order)."""
    if small.shape[-1] != big.shape[-1]:
        raise ValueError(f"orders differ: {small.shape[-1]} vs {big.shape[-1]}")
    return bool((small <= big).all())
