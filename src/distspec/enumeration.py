"""Isomorph-free exhaustive enumeration of connected graphs.

Level n is generated by augmenting every level n-1 representative with a new
vertex joined to each nonempty subset of the old vertices (which preserves
connectivity), deduplicating by canonical key.  Every connected graph on n
vertices has a non-cut vertex, and removing it leaves a connected graph that
the previous level already covers, so the sweep is exhaustive.  Levels are
cached as graph6 strings and streamed back in sorted-key order, so repeated
sweeps are cheap and deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .graph6 import decode_graph6, encode_graph6
from .graphs import (
    MAX_CANONICAL_N,
    Graph,
    GraphError,
    build_graph,
    cut_edges,
    cut_vertices,
    key_from_masks,
)

DEFAULT_MAX_N = 9
ENV_MAX_N = "DISTSPEC_MAX_N"


def max_order() -> int:
    """Enumeration cap: 9 by default, overridable via DISTSPEC_MAX_N.

    The override may not exceed MAX_CANONICAL_N, the largest order whose
    levels canonical keys can deduplicate.
    """
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise GraphError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
    if cap > MAX_CANONICAL_N:
        raise GraphError(
            f"{ENV_MAX_N} must be at most {MAX_CANONICAL_N} (canonical key limit), got {cap}"
        )
    return cap


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[str, ...]:
    """graph6 strings of all connected graphs on n vertices, sorted by key."""
    if n == 1:
        return (encode_graph6(build_graph(1, [])),)
    reps: dict[bytes, str] = {}
    new = n - 1
    for parent6 in _level(n - 1):
        parent = decode_graph6(parent6)
        pmasks = [0] * n
        for u, v in parent.edges:
            pmasks[u] |= 1 << v
            pmasks[v] |= 1 << u
        for sub in range(1, 1 << new):
            masks = pmasks.copy()
            masks[new] = sub
            m = sub
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                masks[i] |= 1 << new
            key = key_from_masks(n, masks)
            if key not in reps:
                edges = list(parent.edges)
                m = sub
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    edges.append((i, new))
                reps[key] = encode_graph6(build_graph(n, edges))
    return tuple(reps[key] for key in sorted(reps))


def connected_graphs(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class, sorted by key."""
    cap = max_order()
    if not 1 <= n <= cap:
        raise GraphError(
            f"enumeration supports 1 <= n <= {cap} "
            f"(raise the cap with {ENV_MAX_N}), got {n}"
        )
    for g6 in _level(n):
        yield decode_graph6(g6)


def count_connected(n: int) -> int:
    """Number of isomorphism classes of connected graphs on n vertices."""
    cap = max_order()
    if not 1 <= n <= cap:
        raise GraphError(f"enumeration supports 1 <= n <= {cap}, got {n}")
    return len(_level(n))


@dataclass(frozen=True)
class EnumFilter:
    """Structural filter; None leaves the corresponding count unconstrained."""

    cut_vertex_count: int | None = None
    cut_edge_count: int | None = None


def filtered_graphs(n: int, filt: EnumFilter) -> Iterator[Graph]:
    """Stream the enumerated graphs matching the filter, order preserved."""
    for g in connected_graphs(n):
        if filt.cut_vertex_count is not None and len(cut_vertices(g)) != filt.cut_vertex_count:
            continue
        if filt.cut_edge_count is not None and len(cut_edges(g)) != filt.cut_edge_count:
            continue
        yield g
