"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix in column-major
bit order, x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per printable byte
with offset 63.  Orders up to 62 use a single size byte; 63..258047 use the
four-byte form introduced by '~'.  Round trips are bit exact.  Both
directions work on a Graph's adjacency bitmasks.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, _bits

HEADER = ">>graph6<<"


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    n = g.n
    if n <= 62:
        prefix = [n + 63]
    elif n <= 258047:
        prefix = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise GraphError(f"graph6 encoding supports n <= 258047, got {n}")
    # Edge (i, j), i < j, is bit j(j-1)/2 + i of the column-major upper
    # triangle, counted from the most significant end of the padded body.
    padded = (n * (n - 1) // 2 + 5) // 6 * 6
    bits = 0
    for j, m in enumerate(g.masks):
        top = padded - 1 - j * (j - 1) // 2
        for i in _bits(m & ((1 << j) - 1)):
            bits |= 1 << (top - i)
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
    if padded > nbits and bits & ((1 << (padded - nbits)) - 1):
        raise GraphError(f"nonzero padding bits in {s!r}")
    masks = [0] * n
    pos = padded
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return Graph(tuple(masks))
