"""One workload in a fresh interpreter: python3 bench/child.py WORKLOAD SEED [--trace].

Prints one JSON line.  Untimed bookkeeping (labelling verdicts, reducing
spans) happens after the last verdict, whose clock reading is reported as
t_end; the parent subtracts its launch time to get launch-to-last-verdict.
Here cli-sweeps calls distspec.cli.main in this process, with stdout
captured and the per-process caches cleared before each command as a fresh
process would have them; the timed cli-sweeps runs instead start the real
command line, one process per command (run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import distspec  # noqa: F401
from distspec import cli, enumeration, spectral, verify

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-process caches whose state a run records: (module, attribute).
CACHES = ((enumeration, "_level"), (spectral, "perron_of"))


class Caches:
    """Reads and clears the program's lru_caches through the original objects."""

    def __init__(self) -> None:
        self.fns = {
            f"{mod.__name__}.{name}": getattr(mod, name)
            for mod, name in CACHES
            if hasattr(getattr(mod, name, None), "cache_info")
        }
        self.perron_hits = 0
        self.perron_misses = 0
        self.kept_graphs = 0

    def sizes(self) -> dict[str, int]:
        return {k: fn.cache_info().currsize for k, fn in self.fns.items()}

    def drain(self, clear: bool) -> None:
        """Add the caches' tallies to the totals, then optionally clear them."""
        perron = self.fns.get("distspec.spectral.perron_of")
        if perron is not None:
            info = perron.cache_info()
            self.perron_hits += info.hits
            self.perron_misses += info.misses
        level = self.fns.get("distspec.enumeration._level")
        if level is not None:
            # Levels are built recursively, so the cached ones are 1..currsize.
            built = level.cache_info().currsize
            self.kept_graphs += sum(len(level(n)) for n in range(2, built + 1))
        if clear:
            for fn in self.fns.values():
                fn.cache_clear()


def cpu_s() -> float:
    """CPU time of this process and of its waited-for children (pool workers)."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_sweeps(workload: str) -> list:
    labels = []
    for name, args in workloads.SWEEPS[workload]:
        for r in getattr(verify, name)(*args):
            labels.append(workloads.label(r.theorem, r.outcome, r.certified_gap, r.witness, r.instance))
    return labels


def run_cli_in_process(seed: int, caches: Caches, out: dict) -> list:
    labels = []
    for argv, expected in workloads.cli_commands(seed):
        caches.drain(clear=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        text = buf.getvalue()
        out["stdout_bytes"] += len(text.encode())
        out["exit_codes_ok"] &= rc == expected
        for r in json.loads(text):
            labels.append(workloads.label(r["theorem"], r["outcome"], r["certified_gap"], r["witness"], r["instance"]))
    return labels


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), "--trace" in argv[2:]
    caches = Caches()
    out = {"cache_sizes_at_start": caches.sizes(), "stdout_bytes": 0, "exit_codes_ok": True}
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    c0, w0 = cpu_s(), time.perf_counter()
    if workload == "cli-sweeps":
        labels = run_cli_in_process(seed, caches, out)
        jobs = workloads.CLI_JOBS
    else:
        labels = run_sweeps(workload)
        jobs = 1
    t_end = time.perf_counter()
    cpu = cpu_s() - c0
    if tracer is not None:
        tracer.uninstall()
    out["t_end"] = t_end
    out["labels"] = workloads.count_labels(labels)
    if tracer is not None:
        caches.drain(clear=False)
        m = tracer.metrics(caches.kept_graphs, caches.perron_hits, caches.perron_misses)
        verdicts = len(labels)
        inconclusive = sum(1 for _, o in labels if o == "INCONCLUSIVE")
        m["verify.verdicts"] = verdicts
        m["verify.inconclusive_share"] = inconclusive / verdicts if verdicts else 0.0
        m["verify.pool_efficiency"] = cpu / (jobs * (t_end - w0))
        m["cli.stdout_bytes"] = out["stdout_bytes"]
        out["metrics"] = m
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
