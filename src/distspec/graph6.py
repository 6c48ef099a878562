"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix in column-major
bit order, x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per printable byte
with offset 63.  Orders up to 62 use a single size byte; 63..258047 use the
four-byte form introduced by '~'.  Round trips are bit exact.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, GraphError, build_graph

HEADER = ">>graph6<<"


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    return graph6_of(g.n, g.edges)


def graph6_of(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """graph6 string of order n with edges (i, j), 0 <= i < j < n, unchecked.

    Only the order is validated: the edges are taken as given, so a caller
    that holds an edge list need not build a Graph to encode it.
    """
    if n <= 62:
        prefix = [n + 63]
    elif n <= 258047:
        prefix = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise GraphError(f"graph6 encoding supports n <= 258047, got {n}")
    # Edge (i, j), i < j, is bit j(j-1)/2 + i of the column-major upper
    # triangle, counted from the most significant end of the padded body.
    padded = (n * (n - 1) // 2 + 5) // 6 * 6
    top = padded - 1
    bits = 0
    for i, j in edges:
        bits |= 1 << (top - (j * (j - 1) // 2 + i))
    chunks = [((bits >> (padded - 6 * (k + 1))) & 63) + 63 for k in range(padded // 6)]
    return bytes(prefix + chunks).decode("ascii")


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 string, tolerating the optional format header."""
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    if not s:
        raise GraphError("empty graph6 string")
    data = s.encode("ascii")
    if any(b < 63 or b > 126 for b in data):
        raise GraphError(f"invalid graph6 byte in {s!r}")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise GraphError(f"unsupported graph6 size prefix in {s!r}")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise GraphError(f"graph6 order must be positive, got {n}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    padded = need * 6
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (bits >> (padded - 1 - pos)) & 1:
                edges.append((i, j))
            pos += 1
    if padded > nbits and bits & ((1 << (padded - nbits)) - 1):
        raise GraphError(f"nonzero padding bits in {s!r}")
    return build_graph(n, edges)
