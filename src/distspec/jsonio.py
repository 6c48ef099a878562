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
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        # escapes the quote, the backslash and U+0000-U+001F (RFC 8259) only
        parts.append(encode_basestring(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(fmt_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            if not isinstance(k, str):
                raise ValueError(f"JSON object keys must be strings, got {k!r}")
            _emit(k, parts)
            parts.append(": ")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(v, parts)
        parts.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")
