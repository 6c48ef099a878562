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

Children are built KEY_CHUNK (parent, subset) pairs at a time, in loop
order, as one int64 mask array keyed by graphs.keys_from_masks; the first
child met with a new key is its class's representative, the only row kept.

Each order is built once into a Level, the catalog of that order: one
representative per isomorphism class, as the adjacency bitmasks it was
keyed by, sorted by that key, which the level keeps beside the masks.  The
next order's parents and the claim table read the masks: Level.cuts (each
class's cut counts, for the cut filters and claims 3 and 4) and
Level.radii (each class's bracket ends, for claims 3 and 4), both arrays
computed on first use and kept with the level.  Rows leave the catalog as
Graphs by one route, filtered_graphs (connected_graphs is its unfiltered
case): one Graph per kept row, its masks taken as is, built as it is taken.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .graphs import MAX_CANONICAL_N, Graph, GraphError, _ordering_table, keys_from_masks
from .graphs import cut_counts
from .spectral import brackets

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
    """Catalog of one order: a representative per isomorphism class, in key order.

    masks[i] holds class i's adjacency bitmasks (a read-only uint16 array of
    shape (classes, n)), keys[i] its canonical key (read-only int64, strictly
    ascending: np.searchsorted finds a graph's row); cuts and radii add the
    claim table.
    """

    masks: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def cuts(self) -> np.ndarray:
        """Each class's (cut vertices, cut edges), by index: a read-only uint8 (classes, 2) array.

        Computed on first use from each row's block masks, without a Graph.
        """
        counts = map(cut_counts, map(np.ndarray.tolist, self.masks))
        cuts = np.fromiter(counts, (np.uint8, 2), len(self))
        cuts.setflags(write=False)
        return cuts

    @cached_property
    def radii(self) -> np.ndarray:
        """Each class's (value, lower, upper), by index: a read-only float64 (classes, 3) array.

        Bracketed on first use, TABLE_CHUNK rows to a stack; no PerronResult outlives its stack.
        """
        masks = np.split(self.masks, range(TABLE_CHUNK, len(self), TABLE_CHUNK))
        ends = ((r.value, r.lower, r.upper) for m in masks for r in brackets(m))
        radii = np.fromiter(ends, (np.float64, 3), len(self))
        radii.setflags(write=False)
        return radii


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


# Children keyed per keys_from_masks call, and classes per bracket stack of
# the claim table: each large enough to amortise numpy's call overhead and
# small enough to keep peak memory low (bracket stacks hold float matrices).
KEY_CHUNK = 1024
TABLE_CHUNK = 256


@lru_cache(maxsize=None)
def _level(n: int) -> Level:
    """Catalog of all connected graphs on n vertices."""
    if n == 1:
        k1 = np.frombuffer(bytes(2), np.uint16).reshape(1, 1)
        return Level(k1, np.frombuffer(bytes(8), np.int64))  # K1, key 0
    # canonical key of each class, in the order of the class's row: its first child met
    reps: dict[int, None] = {}
    rows = bytearray()
    new = n - 1
    parents = _level(new).masks.astype(np.int64)
    bits = np.arange(new)
    subsets = (_twin_pruned_subsets(twin_classes(m)) for m in map(np.ndarray.tolist, parents))
    pairs = ((p, sub) for p, subs in enumerate(subsets) for sub in subs)
    while chunk := list(islice(pairs, KEY_CHUNK)):
        owners, subs = np.array(chunk).T
        children = np.column_stack((parents[owners] | (subs[:, None] >> bits & 1) << new, subs))
        fresh = []
        for i, key in enumerate(keys_from_masks(n, children)):
            if key not in reps:
                reps[key] = None
                fresh.append(i)
        rows.extend(children[fresh].astype(np.uint16).tobytes())
    # the key tables are per order, and no later level reads this order's
    _ordering_table.cache_clear()
    keys = np.fromiter(reps, np.int64, len(reps))
    reps.clear()  # before the sorted copy is made
    order = np.argsort(keys, kind="stable")  # keys_from_masks's kind: no more sort code paged in
    keys, masks = keys[order], np.frombuffer(rows, dtype=np.uint16).reshape(-1, n)[order]
    keys.setflags(write=False)
    masks.setflags(write=False)
    return Level(masks, keys)


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
    return filtered_graphs(n, EnumFilter())


def count_connected(n: int) -> int:
    """Number of isomorphism classes of connected graphs on n vertices."""
    return len(catalog(n))


@dataclass(frozen=True)
class EnumFilter:
    """Structural filter; None leaves the corresponding count unconstrained."""

    cut_vertex_count: int | None = None
    cut_edge_count: int | None = None


def filtered_graphs(n: int, filt: EnumFilter) -> Iterator[Graph]:
    """Stream the graphs matching the filter, in key order, each built when it is taken."""
    level = catalog(n)
    keep = np.ones(len(level), dtype=bool)
    for column, count in enumerate((filt.cut_vertex_count, filt.cut_edge_count)):
        if count is not None:
            keep &= level.cuts[:, column] == count
    for row in level.masks[keep]:
        yield Graph(tuple(row.tolist()))
