#!/usr/bin/env python3
"""Ledger of the catalog and of claims 3 and 4, one order per fresh interpreter.

Usage: python tools/ledger.py ORDERS...   (e.g. python tools/ledger.py 8 9)

Each order n runs in its own interpreter on the sources in src/.  It builds
the catalog of order n - 1 untimed, then times the catalog of order n (in
µs per child keyed), its cut table and its claim table (in µs per class)
and both claim sweeps.  It records the classes, the children keyed, the
outcomes and the sha256 of each claim's report_json lines joined by
newlines, then the process's peak RSS.  One JSON object on stdout holds
the run conditions (Python, numpy, usable cores) and one entry per order.
Counts and digests repeat exactly from run to run; times and RSS do not.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLAIMS = ("min-cut-vertices", "min-cut-edges")


def measure(n: int) -> dict:
    """The ledger entry of order n, measured in this process."""
    from distspec.enumeration import _twin_pruned_subsets, catalog, twin_classes
    from distspec.verify import report_json, sweep_min_cut_edges, sweep_min_cut_vertices

    parents = catalog(n - 1).masks.tolist()
    children = sum(len(_twin_pruned_subsets(twin_classes(m))) for m in parents)
    t0 = time.perf_counter()
    level = catalog(n)
    t1 = time.perf_counter()
    level.cuts
    t2 = time.perf_counter()
    level.radii
    t3 = time.perf_counter()
    reports = dict(zip(CLAIMS, (sweep_min_cut_vertices(n), sweep_min_cut_edges(n))))
    t4 = time.perf_counter()
    return {
        "n": n,
        "classes": len(level),
        "children_keyed": children,
        "level_us_per_child": round((t1 - t0) * 1e6 / children, 2),
        "cuts_us_per_class": round((t2 - t1) * 1e6 / len(level), 2),
        "radii_us_per_class": round((t3 - t2) * 1e6 / len(level), 2),
        "claim_sweeps_s": round(t4 - t3, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "outcomes": {c: dict(sorted(Counter(r.outcome for r in reps).items()))
                     for c, reps in reports.items()},
        "reports_sha256": {
            c: hashlib.sha256("\n".join(map(report_json, reps)).encode()).hexdigest()
            for c, reps in reports.items()
        },
    }


def main(orders: list[str]) -> int:
    if not orders or not all(o.isdigit() and int(o) >= 2 for o in orders):
        print("usage: python tools/ledger.py ORDERS...  (each order at least 2)", file=sys.stderr)
        return 2
    import numpy as np

    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    entries = []
    for n in orders:
        child = [sys.executable, __file__, "--order", n]
        out = subprocess.run(child, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
        entries.append(json.loads(out))
    conditions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"conditions": conditions, "orders": entries}, indent=2))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--order"]:
        print(json.dumps(measure(int(sys.argv[2]))))
    else:
        sys.exit(main(sys.argv[1:]))
