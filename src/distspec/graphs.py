"""Core graph type and structural analysis.

Simple undirected graphs on vertices 0..n-1, kept immutable so that every
operation downstream is a pure function of its inputs.  Algorithms here are
the standard linear-time ones (BFS for distances and connectivity, one DFS
lowpoint pass for cut vertices, bridges and blocks); canonical labeling is a
refined permutation search that is exact for the small orders this package
enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    """Raised when a graph or a graph operation is malformed."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]


def build_graph(n: int, edge_list) -> Graph:
    """Validate an edge list and assemble a Graph.

    Rejects loops, duplicate edges and endpoints outside 0..n-1, naming the
    offending pair in the error message.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop ({u}, {v}) not allowed")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    adjacency = tuple(tuple(sorted(nb)) for nb in adj)
    degrees = tuple(len(nb) for nb in adjacency)
    return Graph(n=n, edges=frozenset(seen), adjacency=adjacency, degrees=degrees)


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: vertex i of g becomes perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphError(f"not a permutation of 0..{g.n - 1}: {perm}")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    return min(bfs_distances(g, 0)) >= 0


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("graph is not connected")


def _dfs_lowpoint(g: Graph):
    """Iterative DFS from vertex 0 returning (order, disc, low, parent).

    Assumes g connected.  disc is the discovery index, low the classic
    lowpoint (smallest discovery index reachable via tree edges plus at most
    one back edge), parent the DFS tree parent (-1 at the root).
    """
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    order: list[int] = []
    counter = 0
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        u, i = stack[-1]
        if i == 0:
            disc[u] = low[u] = counter
            counter += 1
            order.append(u)
        if i < len(g.adjacency[u]):
            stack[-1] = (u, i + 1)
            w = g.adjacency[u][i]
            if disc[w] < 0:
                parent[w] = u
                stack.append((w, 0))
            elif w != parent[u]:
                if disc[w] < low[u]:
                    low[u] = disc[w]
        else:
            stack.pop()
            p = parent[u]
            if p >= 0 and low[u] < low[p]:
                low[p] = low[u]
    return order, disc, low, parent


def cut_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose removal disconnects the graph."""
    _require_connected(g)
    if g.n == 1:
        return frozenset()
    _, disc, low, parent = _dfs_lowpoint(g)
    root_children = sum(1 for v in range(g.n) if parent[v] == 0)
    cuts = set()
    if root_children >= 2:
        cuts.add(0)
    for v in range(1, g.n):
        p = parent[v]
        if p > 0 and low[v] >= disc[p]:
            cuts.add(p)
    return frozenset(cuts)


def cut_edges(g: Graph) -> frozenset[tuple[int, int]]:
    """Bridges: edges whose removal disconnects the graph."""
    _require_connected(g)
    _, disc, low, parent = _dfs_lowpoint(g)
    out = set()
    for v in range(g.n):
        p = parent[v]
        if p >= 0 and low[v] > disc[p]:
            out.add((min(p, v), max(p, v)))
    return frozenset(out)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs plus bridges) and cut structure."""

    cut_vertices: frozenset[int]
    cut_edges: frozenset[tuple[int, int]]
    blocks: tuple[frozenset[int], ...]


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected decomposition via an edge-stack DFS.

    Every edge lands in exactly one block; a 2-vertex block is a bridge and a
    vertex shared by two blocks is a cut vertex, so the cut structure falls
    out of the same pass.  An isolated vertex (n = 1) forms its own block.
    """
    _require_connected(g)
    if g.n == 1:
        return BlockDecomposition(frozenset(), frozenset(), (frozenset({0}),))
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    counter = 0
    estack: list[tuple[int, int]] = []
    block_sets: list[frozenset[int]] = []
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        u, i = stack[-1]
        if i == 0:
            disc[u] = low[u] = counter
            counter += 1
        if i < len(g.adjacency[u]):
            stack[-1] = (u, i + 1)
            w = g.adjacency[u][i]
            if disc[w] < 0:
                parent[w] = u
                estack.append((u, w))
                stack.append((w, 0))
            elif w != parent[u] and disc[w] < disc[u]:
                estack.append((u, w))
                if disc[w] < low[u]:
                    low[u] = disc[w]
        else:
            stack.pop()
            p = parent[u]
            if p >= 0:
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    # (p, u) closes a block; pop its edges.
                    members = set()
                    while True:
                        a, b = estack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (p, u):
                            break
                    block_sets.append(frozenset(members))
    cuts = {}
    for bs in block_sets:
        for v in bs:
            cuts[v] = cuts.get(v, 0) + 1
    cut_vs = frozenset(v for v, c in cuts.items() if c >= 2)
    cut_es = frozenset(
        (min(bs), max(bs)) for bs in block_sets if len(bs) == 2
    )
    return BlockDecomposition(cut_vs, cut_es, tuple(block_sets))


@dataclass(frozen=True)
class PendantPath:
    """Path v0 v1 .. vs hanging off the rest of the graph at v0.

    root is v0 with degree > 2, vertices holds v1..vs in walk order where
    interior vertices have degree 2 and the tip vs degree 1, length is s >= 1.
    """

    root: int
    vertices: tuple[int, ...]
    length: int


def pendant_paths(g: Graph) -> list[PendantPath]:
    """All pendant paths, sorted by (root, first vertex).

    A path graph has no vertex of degree > 2 and therefore no pendant paths.
    """
    _require_connected(g)
    out = []
    for r in range(g.n):
        if g.degrees[r] <= 2:
            continue
        for w in g.adjacency[r]:
            if g.degrees[w] > 2:
                continue
            walk = [w]
            prev, cur = r, w
            while g.degrees[cur] == 2 and cur != r:
                nxt = next(x for x in g.adjacency[cur] if x != prev)
                prev, cur = cur, nxt
                walk.append(cur)
            if cur != r and g.degrees[cur] == 1:
                out.append(PendantPath(root=r, vertices=tuple(walk), length=len(walk)))
    out.sort(key=lambda p: (p.root, p.vertices[0]))
    return out


MAX_CANONICAL_N = 10
# Frontier states pack a vertex id into the low 4 bits of an int.
MAX_KEY_N = 16


def canonical_key(g: Graph, max_n: int = MAX_CANONICAL_N) -> bytes:
    """Canonical form: equal keys exactly for isomorphic graphs.

    The key is the lexicographically minimal upper-triangle adjacency bit
    string (column-major, the graph6 bit order) over all vertex orderings.
    The search keeps a frontier of partial orderings tied on the minimal
    prefix, deduplicated by (remaining vertices, adjacency columns already
    fixed), which keeps it exact while pruning hard enough for n <= 10.
    """
    n = g.n
    if n > max_n:
        raise GraphError(f"canonical_key supports n <= {max_n}, got {n}")
    masks = [0] * n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return key_from_masks(n, masks)


def _refinement_classes(n: int, masks) -> list[int]:
    """Iterated degree partition (1-WL), classes numbered invariantly.

    Starts from degrees and refines each vertex by the sorted multiset of its
    neighbors' classes until stable.  Class ids are assigned by sorting the
    signatures, so isomorphic graphs get identical class structure regardless
    of labeling.
    """
    order = sorted(set(masks[v].bit_count() for v in range(n)))
    rank = {c: i for i, c in enumerate(order)}
    colors = [rank[masks[v].bit_count()] for v in range(n)]
    nclasses = len(order)
    while nclasses < n:
        sigs = []
        for v in range(n):
            m = masks[v]
            nb = []
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                nb.append(colors[u])
            nb.sort()
            sigs.append((colors[v], *nb))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if len(rank) == nclasses:
            return new
        nclasses = len(rank)
        colors = new
    return colors


def key_from_masks(n: int, masks) -> bytes:
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
        return bytes([1, 0])
    colors = _refinement_classes(n, masks)
    placement = sorted(range(n), key=lambda v: (colors[v], v))
    # cands[level] = how many leading state entries share the current class.
    cands = [0] * n
    i = 0
    while i < n:
        j = i
        while j < n and colors[placement[j]] == colors[placement[i]]:
            j += 1
        for k in range(i, j):
            cands[k] = j - k
        i = j
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
    nbits = n * (n - 1) // 2
    return bytes([n]) + acc.to_bytes((nbits + 7) // 8 or 1, "big")
