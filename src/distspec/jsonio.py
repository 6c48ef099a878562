"""Deterministic JSON emission.

The stdlib encoder formats floats with repr (shortest round trip); reports
here pin floats to 17 significant digits so that identical computations give
byte-identical output regardless of how they were scheduled.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring


def fmt_float(x: float) -> str:
    """17 significant digits, enough to round-trip any float64."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value not representable in a report: {x}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Serialize dicts, sequences and scalars with deterministic float text."""
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        # escapes the quote, the backslash and U+0000-U+001F (RFC 8259) only
        return encode_basestring(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([_key(k) + ": " + dumps(v) for k, v in obj.items()]) + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _key(k) -> str:
    if not isinstance(k, str):
        raise ValueError(f"JSON object keys must be strings, got {k!r}")
    return encode_basestring(k)
