"""Core graph type and structural analysis.

Simple undirected graphs on vertices 0..n-1, kept immutable so that every
operation downstream is a pure function of its inputs.  A Graph is its
adjacency bitmasks and nothing else; its edge set, neighbour tuples and
degrees are views of them.  Algorithms here are the standard linear-time
ones on those masks: reach for connectivity, one lowpoint DFS for the
blocks and the cut counts.  Hop distances come from spectral's hop stack.

A canonical key is the minimal graph6 bit string over the vertex orderings
that list the 1-WL refinement classes in class order, as one integer (first
pair most significant; K1's is 0) that names a class only within its order.
Two evaluators give the same integer: key_from_masks searches one graph's
orderings level by level, keeping every tie; keys_from_masks, for a mask
array of one order, refines every row at once and takes each minimum over
a cached table of all such orderings, handing a graph with too many
orderings (a regular one has n!) and orders above MAX_CANONICAL_N to
key_from_masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from operator import index
from typing import Iterator

import numpy as np


class GraphError(ValueError):
    """Raised when a graph or a graph operation is malformed."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, stored as its bitmasks.

    masks is a tuple of Python ints, bit w of masks[u] set iff uw is an edge;
    the other attributes are views computed from it on each access.
    Graph(masks) trusts the masks to be symmetric and loop-free; build_graph validates.
    """

    masks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(edges_of(self.masks))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.masks[u] >> v & 1 == 1

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(_bits(self.masks[u]))


def build_graph(n: int, edge_list) -> Graph:
    """Validate an edge list and assemble a Graph.

    Rejects loops, duplicate edges and endpoints outside 0..n-1, naming the
    offending pair in the error message.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    masks = [0] * n
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop ({u}, {v}) not allowed")
        u, v = index(u), index(v)
        if masks[u] >> v & 1:
            raise GraphError(f"duplicate edge {(min(u, v), max(u, v))}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(tuple(masks))


def reach(masks, seed: int, avoid: int = 0) -> int:
    """Bitmask of the vertices that seed reaches through vertices outside the mask avoid."""
    reached = frontier = 1 << seed
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= masks[u]
        frontier = nxt & ~reached & ~avoid
        reached |= frontier
    return reached


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    return reach(g.masks, 0) == (1 << g.n) - 1


def block_masks(masks) -> list[int]:
    """Blocks of a connected graph as vertex bitmasks, in completion order.

    masks[v] is the adjacency bitmask of v.  An iterative lowpoint DFS
    (Hopcroft and Tarjan, CACM 16, 1973) from vertex 0, lowest neighbour
    bit first; the neighbours of w visited before it are its ancestors (no
    cross edges), which give low[w].  A child u of p that finishes with
    low[u] >= disc[p] closes a block: p and the vertices visited since u
    that no earlier block took; K1 is one block.  Raises GraphError if disconnected.
    """
    n = len(masks)
    disc, low, before = [0] * n, [0] * n, [0] * n
    todo = list(masks)
    visited, taken = 1, 0
    path = [0]
    found = []
    while path:
        u = path[-1]
        fresh = todo[u] & ~visited
        if fresh:
            todo[u] = fresh & (fresh - 1)
            w = (fresh & -fresh).bit_length() - 1
            before[w] = visited
            disc[w] = low[w] = visited.bit_count()
            for a in _bits(masks[w] & visited & ~(1 << u)):
                if disc[a] < low[w]:
                    low[w] = disc[a]
            visited |= 1 << w
            path.append(w)
            continue
        path.pop()
        if path:
            p = path[-1]
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                block = visited & ~before[u] & ~taken
                taken |= block
                found.append(block | 1 << p)
    if visited != (1 << n) - 1:
        raise GraphError("graph is not connected")
    return found or [1]


def cut_counts(masks) -> tuple[int, int]:
    """(cut vertices, cut edges) of a connected graph's bitmasks: shared and 2-vertex blocks."""
    found = block_masks(masks)
    seen = shared = 0
    for b in found:
        shared |= seen & b
        seen |= b
    return shared.bit_count(), sum(b.bit_count() == 2 for b in found)


def _bits(m: int) -> Iterator[int]:
    """Indices of the set bits of m, ascending."""
    while m:
        yield (m & -m).bit_length() - 1
        m &= m - 1


def edges_of(masks) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of adjacency bitmasks, by j and then i."""
    return [(i, j) for j, m in enumerate(masks) for i in _bits(m & ((1 << j) - 1))]


@dataclass(frozen=True)
class PendantPath:
    """Path v0 v1 .. vs hanging off the rest of the graph at v0.

    root is v0, of any degree (cor1 sites on A_ have roots of degree 2);
    vertices holds v1..vs in walk order, interior degree 2, tip vs degree 1;
    length is s >= 1.
    """

    root: int
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


# Largest order keys_from_masks batches (its sums are exact up to it), and so
# the highest enumeration cap.
MAX_CANONICAL_N = 10
# Frontier states pack a vertex id into the low 4 bits of an int.
MAX_KEY_N = 16


def _refinement_classes(n: int, masks) -> list[int]:
    """Iterated degree partition (1-WL), classes numbered invariantly.

    Starts from degrees and refines each vertex by the sorted multiset of its
    neighbors' classes until stable.  Class ids are assigned by sorting the
    signatures, so isomorphic graphs get identical class structure regardless
    of labeling.
    """
    sigs = [masks[v].bit_count() for v in range(n)]
    nclasses = 0
    while True:
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) in (nclasses, n):
            return colors
        nclasses = len(rank)
        sigs = [(colors[v], *sorted(colors[u] for u in _bits(masks[v]))) for v in range(n)]


def key_from_masks(n: int, masks) -> int:
    """Canonical key from adjacency bitmasks (masks[v] bit u set iff uv edge).

    Orderings are restricted to list the refinement classes in class order
    (an isomorphism-invariant restriction, so the key remains a complete
    invariant), and the minimum is found level by level: frontier states are
    tuples of packed ints (column_bits << 4) | vertex for the vertices not
    yet placed, where a vertex's column bits record its adjacency to the
    placed vertices, earliest placement most significant.  Integer order on
    a column therefore equals lexicographic order on the key string.
    """
    if n > MAX_KEY_N:
        raise GraphError(f"key_from_masks packs vertex ids in 4 bits: n <= {MAX_KEY_N}, got {n}")
    if n == 1:
        return 0
    colors = _refinement_classes(n, masks)
    placement = sorted(range(n), key=lambda v: (colors[v], v))
    # cands[level] = how many leading state entries share the current class.
    cands = [sum(colors[w] == colors[placement[k]] for w in placement[k:]) for k in range(n)]
    states: set[tuple[int, ...]] = {tuple(placement)}
    key_cols: list[int] = []
    for level in range(n):
        limit = cands[level]
        best = 1 << 40
        winners: list[tuple[tuple[int, ...], int]] = []
        for st in states:
            for idx in range(limit):
                col = st[idx] >> 4
                if col < best:
                    best = col
                    winners = [(st, idx)]
                elif col == best:
                    winners.append((st, idx))
        key_cols.append(best)
        if level == n - 1:
            break
        new_states = set()
        for st, idx in winners:
            mv = masks[st[idx] & 15]
            rest = st[:idx] + st[idx + 1:]
            new_states.add(
                tuple(
                    [((((p >> 4) << 1) | ((mv >> (p & 15)) & 1)) << 4) | (p & 15)
                     for p in rest]
                )
            )
        states = new_states
    acc = 0
    for level in range(1, n):
        acc = (acc << level) | key_cols[level]
    return acc


# A row whose class-respecting orderings times n(n-1)/2 exceed this goes to
# key_from_masks; it also caps the rows of one key matrix product.
KEY_TABLE_BUDGET = 1 << 16


def keys_from_masks(n: int, rows) -> list[int]:
    """key_from_masks for many graphs of one order, as one batched computation.

    rows is a (rows, n) integer array of bitmask rows, or anything
    np.asarray makes one of; element by element the result equals
    [key_from_masks(n, r) for r in rows].  The 1-WL classes of all rows
    are refined together (_refine_many), and each row's key is the
    minimum, over every ordering that lists the classes in class order, of
    its upper-triangle bits packed as one integer: exactly the orderings
    whose ties the frontier search of key_from_masks keeps, so the minimum
    is the same.  Rows with the same class sizes share one table of those
    orderings (_ordering_table).  A row with more orderings than
    KEY_TABLE_BUDGET allows (a regular graph has n! of them), and every row
    of an order above MAX_CANONICAL_N, goes to key_from_masks instead.
    """
    if n > MAX_KEY_N:
        raise GraphError(f"key_from_masks packs vertex ids in 4 bits: n <= {MAX_KEY_N}, got {n}")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    if n == 1 or n > MAX_CANONICAL_N or not len(rows):
        return [key_from_masks(n, r) for r in rows.tolist()]
    # adj[b, v, u] is bit u of row b's mask v; every mask fits 16 bits
    octets = rows.astype("<u2").view(np.uint8).reshape(-1, n, 2)
    adj = np.unpackbits(octets, axis=2, count=n, bitorder="little")
    colours = _refine_many(adj)
    # placement[q] is the vertex at sorted position q, as key_from_masks places them
    placement = np.argsort(colours, axis=1, kind="stable").astype(np.uint8)
    first, second = _pairs(n)
    bits = np.take_along_axis(
        adj.reshape(len(rows), n * n), placement[:, first] * n + placement[:, second], axis=1
    ).astype(np.float64)
    # rows whose shape codes (the size of class c in bits 4c..4c+3) agree form a group
    codes = (16 ** colours).sum(axis=1)
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1)).tolist() + [len(rows)]
    best = np.zeros(len(rows), dtype=np.int64)
    scalar = []
    for lo, hi in zip(starts, starts[1:]):
        members, code = order[lo:hi], int(codes[order[lo]])
        table = _ordering_table(n, tuple(c for c in (code >> 4 * k & 15 for k in range(n)) if c))
        if table is None:
            scalar += members.tolist()
            continue
        step = max(1, KEY_TABLE_BUDGET // table.shape[1])
        for at in range(0, len(members), step):
            chunk = members[at:at + step]
            best[chunk] = (bits[chunk] @ table).min(axis=1)
    keys = best.tolist()
    for b in scalar:
        keys[b] = key_from_masks(n, rows[b].tolist())
    return keys


def _refine_many(adj: np.ndarray) -> np.ndarray:
    """_refinement_classes of every row of a (rows, n, n) 0/1 adjacency stack.

    Worked on transposed, [v, u, row], so each step spans all rows.  A
    colour counts the smaller values in its row, first of the degrees (it
    may skip numbers until the fixed point is made dense).  Each round
    ranks a row's vertices by (colour, -#neighbours of colour 0, ...,
    -#neighbours of colour n-1), packed into one int64 with 4 bits a field:
    sum_c (n-1-count_c) 16^(n-1-c) is a constant less
    sum_{u in N(v)} 16^(n-1-colour(u)), one matrix-vector product per row,
    exact in int64 for n <= MAX_CANONICAL_N; ranking drops the constant.
    Vertices of one colour have equal degree, and for two sorted
    neighbour-colour lists of one length, comparing the lists is comparing
    these negated count vectors, so the ranks order the classes as the
    sorted signatures of _refinement_classes do.
    """
    n = adj.shape[1]
    stack = np.ascontiguousarray(adj.transpose(1, 2, 0), dtype=np.uint8)
    colours = _ranks(stack.sum(axis=1, dtype=np.uint8))
    weights = 16 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    while True:
        below = np.einsum("vub,ub->vb", stack, weights[colours])
        new = _ranks((colours.astype(np.int64) << (4 * n)) - below)
        if np.array_equal(new, colours):
            break
        colours = new
    # a dense rank counts the distinct ranks up to its own, less one
    used = np.cumsum((colours == np.arange(n)[:, None, None]).any(axis=1), axis=0)
    return np.take_along_axis(used, colours, axis=0).T - 1


def _ranks(values: np.ndarray) -> np.ndarray:
    """For each entry of an (n, rows) array, how many of its column are smaller, as uint8."""
    return (values < values[:, None, :]).view(np.uint8).sum(axis=1, dtype=np.uint8)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the upper-triangle pairs i < j in graph6 column-major order.

    Pair (i, j) sits at index j(j-1)/2 + i.
    """
    first, second = zip(*((i, j) for j in range(1, n) for i in range(j)))
    return np.array(first), np.array(second)


@lru_cache(maxsize=None)
def _ordering_table(n: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """Key weights of every ordering of sorted positions that keeps each class together.

    shape holds the class sizes in class order.  Column m belongs to one
    ordering P (P[p] is the sorted position placed p-th): row
    j(j-1)/2 + i, for the pair {i, j} of sorted positions that P places at
    the t-th graph6 pair, holds 2^(n(n-1)/2 - 1 - t).  So a row's bits in
    sorted-position pair order times column m is its key integer under P:
    a sum of distinct powers of two below 2^45 (n <= MAX_CANONICAL_N),
    which float64 holds and sums exactly.  None when the table would
    exceed KEY_TABLE_BUDGET entries.
    """
    nbits = n * (n - 1) // 2
    count = prod(map(factorial, shape))
    if count * nbits > KEY_TABLE_BUDGET:
        return None
    # itertools.product order over the classes' permutations, the first
    # slowest; a class of one vertex has one
    orderings = np.tile(np.arange(n), (count, 1))
    start, before = 0, 1
    for size in shape:
        if size > 1:
            perms = np.array(list(permutations(range(start, start + size))))
            after = count // (before * len(perms))
            block = np.repeat(perms, after, axis=0)
            orderings[:, start:start + size] = np.tile(block, (before, 1))
            before *= len(perms)
        start += size
    a, b = (orderings[:, column] for column in _pairs(n))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    table = np.zeros((nbits, count))
    table[hi * (hi - 1) // 2 + lo, np.arange(count)[:, None]] = 2.0 ** np.arange(nbits)[::-1]
    return table
