"""The package's public surface."""

from __future__ import annotations

import distspec


def test_all_names_resolve_sorted_and_unique():
    names = distspec.__all__
    assert [n for n in names if not hasattr(distspec, n)] == []
    assert names == sorted(set(names))
