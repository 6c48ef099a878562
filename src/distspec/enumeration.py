"""Isomorph-free exhaustive enumeration of connected graphs.

Level n is generated by augmenting every level n-1 representative with a new
vertex joined to each nonempty subset of the old vertices (which preserves
connectivity), deduplicating by canonical key.  Every connected graph on n
vertices has a non-cut vertex, and removing it leaves a connected graph that
the previous level already covers, so the sweep is exhaustive.

Subsets that a parent's twins prove already seen are skipped.  Vertices u
and w of a parent are twins when N(u) - {w} == N(w) - {u} (adjacent or
not); swapping them is an automorphism of the parent, and twinship is an
equivalence.  Only the subsets whose members inside each twin class are
that class's lowest-indexed vertices are visited, still in ascending
integer order.  Any other subset S of the same parent maps, by swapping a
member for a lower twin outside S, to a smaller subset whose child is
isomorphic to S's and that the loop has already visited; so a skipped
subset is never the first encounter of its class, and each class keeps the
representative the unpruned loop would give it.

Children are keyed KEY_CHUNK at a time, in loop order, by the batched
graphs.keys_from_masks, which gives each child the key key_from_masks
would; the first child met with a new key stays its class's
representative, as with one key at a time.

Each order is built once into a Level, the catalog of that order: the
graph6 string of one representative per isomorphism class with the
canonical key that deduplicated it, sorted by key, so repeated sweeps are
cheap and deterministic.  Graphs are decoded on the fly; the claim table
(cut counts and certified radius per class) is computed on first use and
keeps no graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

from .graph6 import decode_graph6, graph6_of
from .graphs import MAX_CANONICAL_N, Graph, GraphError, _ordering_table, blocks, keys_from_masks
from .spectral import PerronResult, brackets

DEFAULT_MAX_N = 9
ENV_MAX_N = "DISTSPEC_MAX_N"


def max_order() -> int:
    """Enumeration cap: 9 by default, overridable via DISTSPEC_MAX_N.

    The override must lie in 1..MAX_CANONICAL_N: no order below 1 exists,
    and MAX_CANONICAL_N is the largest order whose levels canonical keys
    can deduplicate.
    """
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise GraphError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
    if not 1 <= cap <= MAX_CANONICAL_N:
        raise GraphError(
            f"{ENV_MAX_N} must be in 1..{MAX_CANONICAL_N} "
            f"(canonical keys stop at {MAX_CANONICAL_N}), got {cap}"
        )
    return cap


@dataclass(eq=False)
class Level:
    """Catalog of one order: a representative per isomorphism class, sorted by key.

    keys[i] is the canonical key of the graph graph6[i] encodes.  Graphs stay
    graph6 text, a few bytes per class; analysed() adds the claim table.
    """

    keys: tuple[bytes, ...]
    graph6: tuple[str, ...]
    _analysed: tuple[list[tuple[int, int]], list[PerronResult]] | None = field(
        default=None, repr=False
    )

    def __len__(self) -> int:
        return len(self.keys)

    def graphs(self) -> Iterator[Graph]:
        """The graphs in key order, decoded on the fly."""
        return map(decode_graph6, self.graph6)

    def analysed(self) -> tuple[list[tuple[int, int]], list[PerronResult]]:
        """Each class's (cut vertices, cut edges) and certified radius, by index.

        Computed on first use, KEY_CHUNK classes at a time: a chunk is
        decoded, cut-analysed by blocks(), bracketed as one stack, dropped.
        """
        if self._analysed is None:
            cuts, radii = [], []
            graphs = self.graphs()
            while chunk := list(islice(graphs, KEY_CHUNK)):
                cuts += [(len(b.cut_vertices), len(b.cut_edges)) for b in map(blocks, chunk)]
                radii += brackets(chunk)
            self._analysed = cuts, radii
        return self._analysed


def twin_classes(masks: Sequence[int]) -> list[list[int]]:
    """Partition of the vertices into twin classes, each ascending, by lowest member.

    masks[v] is the adjacency bitmask of v.  u and w are twins when
    masks[u] and masks[w] agree outside bits u and w, which covers adjacent
    (true) and non-adjacent (false) twins alike.  Twinship is an
    equivalence, so each vertex is tested against class leaders only.
    """
    classes = []
    placed = 0
    for u, mu in enumerate(masks):
        if placed >> u & 1:
            continue
        cls = [u]
        for w in range(u + 1, len(masks)):
            if not placed >> w & 1 and mu & ~(1 << w) == masks[w] & ~(1 << u):
                cls.append(w)
                placed |= 1 << w
        classes.append(cls)
    return classes


def _twin_pruned_subsets(classes: list[list[int]]) -> list[int]:
    """Nonempty subsets, ascending, whose members in each class are its lowest ones."""
    subs = [0]
    for cls in classes:
        prefixes = [0]
        for v in cls:
            prefixes.append(prefixes[-1] | 1 << v)
        subs = [s | p for s in subs for p in prefixes]
    subs.sort()
    return subs[1:]


# Children keyed per keys_from_masks call: large enough to amortise its
# numpy overhead, small enough to keep its arrays small.
KEY_CHUNK = 256


@lru_cache(maxsize=None)
def _level(n: int) -> Level:
    """Catalog of all connected graphs on n vertices."""
    if n == 1:
        # the key key_from_masks gives the one-vertex graph
        return Level(keys=(bytes([1, 0]),), graph6=(graph6_of(1, ()),))
    reps: dict[bytes, str] = {}
    new = n - 1
    # (child bitmasks, parent, neighbourhood of the new vertex), not yet keyed
    pending: list[tuple[list[int], Graph, int]] = []

    def flush() -> None:
        keys = keys_from_masks(n, [masks for masks, _, _ in pending])
        for key, (_, parent, sub) in zip(keys, pending):
            if key not in reps:
                edges = list(parent.edges)
                m = sub
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    edges.append((i, new))
                reps[key] = graph6_of(n, edges)
        pending.clear()

    for parent in _level(n - 1).graphs():
        pmasks = [0] * n
        for u, v in parent.edges:
            pmasks[u] |= 1 << v
            pmasks[v] |= 1 << u
        for sub in _twin_pruned_subsets(twin_classes(pmasks[:new])):
            masks = pmasks.copy()
            masks[new] = sub
            m = sub
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                masks[i] |= 1 << new
            pending.append((masks, parent, sub))
            if len(pending) == KEY_CHUNK:
                flush()
    flush()
    # the key tables are per order, and no later level reads this order's
    _ordering_table.cache_clear()
    keys = tuple(sorted(reps))
    return Level(keys=keys, graph6=tuple(reps[key] for key in keys))


def catalog(n: int) -> Level:
    """The catalog of order n, built on first use."""
    cap = max_order()
    if not 1 <= n <= cap:
        raise GraphError(
            f"enumeration supports 1 <= n <= {cap} "
            f"(raise the cap with {ENV_MAX_N}), got {n}"
        )
    return _level(n)


def connected_graphs(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class, sorted by key."""
    yield from catalog(n).graphs()


def count_connected(n: int) -> int:
    """Number of isomorphism classes of connected graphs on n vertices."""
    return len(catalog(n))


@dataclass(frozen=True)
class EnumFilter:
    """Structural filter; None leaves the corresponding count unconstrained."""

    cut_vertex_count: int | None = None
    cut_edge_count: int | None = None


def filtered_graphs(n: int, filt: EnumFilter) -> Iterator[Graph]:
    """Stream the enumerated graphs matching the filter, order preserved."""
    for g in catalog(n).graphs():
        dec = blocks(g)
        cv, ce = len(dec.cut_vertices), len(dec.cut_edges)
        if filt.cut_vertex_count in (None, cv) and filt.cut_edge_count in (None, ce):
            yield g
