"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix in column-major
bit order, x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per printable byte
with offset 63.  Orders up to 62 use a single size byte; 63..258047 use the
four-byte form introduced by '~'.  Round trips are bit exact.  Both
directions go through the 0/1 adjacency matrix; the one encoder names a
batch of graphs as one stack, a single graph being a batch of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import Graph, GraphError

HEADER = ">>graph6<<"


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    return encode_rows([g.masks])[0]


def encode_rows(rows: Sequence[Sequence[int]]) -> list[str]:
    """graph6 of each row of Python int adjacency bitmasks, all rows as one stack.

    Edge (i, j), i < j, is body bit j(j-1)/2 + i at every order: the strict
    lower triangle of the adjacency matrix read row by row.  So rows of any
    orders are zero-padded to the largest and unpacked into one 0/1 stack.
    """
    top = max(map(len, rows), default=1)
    if top > 258047:
        raise GraphError(f"graph6 encoding supports n <= 258047, got {top}")
    width = (top + 7) // 8
    masks = (m for row in rows for m in (*row, *[0] * (top - len(row))))
    octets = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    adj = np.unpackbits(octets.reshape(len(rows), top, width), 2, top, bitorder="little")
    lower = adj[:, np.tri(top, k=-1, dtype=bool)]
    bits = np.hstack([lower, np.zeros((len(rows), -lower.shape[1] % 6), np.uint8)])
    chunks = bits.shape[1] // 6
    text = ((np.packbits(bits.reshape(len(rows), chunks, 6), axis=2) >> 2) + 63).tobytes().decode()
    return [
        _size(n) + text[k * chunks : k * chunks + (n * (n - 1) // 2 + 5) // 6]
        for k, n in enumerate(map(len, rows))
    ]


def _size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 string, tolerating the optional format header."""
    s = text.strip().removeprefix(HEADER)
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
    bits = np.unpackbits(np.frombuffer(body, np.uint8)[:, None] - 63, axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise GraphError(f"nonzero padding bits in {s!r}")
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    rows = np.packbits(adj | adj.T, axis=1, bitorder="little")
    return Graph(tuple(int.from_bytes(row.tobytes(), "little") for row in rows))
