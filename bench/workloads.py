"""Workload definitions and the verdict reference check.

Each workload is a fixed, exhaustive set of sweeps.  The reference check
compares outcome counts per theorem with the counts the claims are known to
produce (README's claim catalog), so it does not depend on how
representatives are labelled or on the exact digits of a bracket: a tighter
certified bracket is not a failure, a changed verdict is.
"""

from __future__ import annotations

import random
from collections import Counter

WORKLOADS = ("extremal7", "graft5", "cli-sweeps", "extremal8", "graft6")

# In-process sweeps, run serially (jobs=1) in one fresh interpreter:
# (name of the distspec.verify function, positional arguments).
SWEEPS = {
    "extremal7": (("sweep_min_cut_vertices", (7,)), ("sweep_min_cut_edges", (7,))),
    "graft5": (("sweep_graft", (5, 4)), ("sweep_pendant", (5, 4))),
    "extremal8": (("sweep_min_cut_vertices", (8,)), ("sweep_min_cut_edges", (8,))),
    "graft6": (("sweep_graft", (6, 4)), ("sweep_pendant", (6, 4))),
}

# Seconds one iteration of each workload takes on the reference copy of
# distspec at reference host speed: fixed scales, near what the 2-core
# x86-64 VM of README.md's baseline measured.  run.py multiplies the
# median program / reference ratio of a run by them.
REF_WALL_S = {"extremal7": 1.5, "graft5": 1.8, "cli-sweeps": 4.0, "extremal8": 25.0, "graft6": 10.0}

# `distspec sweep` commands, one process each, with an explicit job count so
# the figures do not depend on the host's core count.  Value: expected exit
# code (1 = the documented certified refutations of claims 1 and 2).
# Claim 1 runs on bases n <= 5: at the default n <= 6 it alone takes 7 s,
# too long for a run to hold the many iterations timed_run needs.
CLI_JOBS = 2
CLI_COMMANDS = (
    (("sweep", "--theorem", "1", "--max-base-n", "5", "--jobs", str(CLI_JOBS)), 1),
    (("sweep", "--theorem", "2", "--jobs", str(CLI_JOBS)), 1),
    (("sweep", "--theorem", "bound", "--jobs", str(CLI_JOBS)), 0),
    (("sweep", "--theorem", "mono", "--max-n", "7", "--jobs", str(CLI_JOBS)), 0),
)

# Outcome counts per theorem at the seed.  "PASS+" is a claim 3/4 PASS whose
# minimizer is isomorphic to the target and whose certified gap is positive
# (a one-graph class has no runner-up and no gap).
_GRAFT5 = {"PASS": 1280, "FAIL": 8}
REFERENCE = {
    "extremal7": {"min-cut-vertices": {"PASS+": 6}, "min-cut-edges": {"PASS+": 6}},
    "graft5": {"graft-shift": _GRAFT5, "pendant-mass": {"PASS": 644}},
    "cli-sweeps": {
        "graft-shift": _GRAFT5,
        "edge-relocation": {"PASS": 247, "FAIL": 9, "INCONCLUSIVE": 387},
        "perturbation-bound": {"PASS": 821},
        "closure-monotonicity": {"PASS": 996},
    },
    "extremal8": {"min-cut-vertices": {"PASS+": 7}, "min-cut-edges": {"PASS+": 7}},
    "graft6": {"graft-shift": {"PASS": 8888, "FAIL": 8}, "pendant-mass": {"PASS": 4448}},
}


def cli_commands(seed: int) -> list[tuple[tuple[str, ...], int]]:
    """The CLI commands in a seed-dependent order (each is its own process)."""
    cmds = list(CLI_COMMANDS)
    random.Random(seed).shuffle(cmds)
    return cmds


def label(theorem: str, outcome: str, gap, witness, instance) -> tuple[str, str]:
    """(theorem, outcome) with claim 3/4 PASSes checked for a real minimizer."""
    if theorem in ("min-cut-vertices", "min-cut-edges") and outcome == "PASS":
        ok = bool(witness and witness.get("minimizer_isomorphic_to_target"))
        singleton = instance.get("class_size") == 1
        if ok and (singleton or (gap is not None and gap > 0)):
            outcome = "PASS+"
    return theorem, outcome


def count_labels(labels) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for (theorem, outcome), c in Counter(labels).items():
        out.setdefault(theorem, {})[outcome] = c
    return out


def check(workload: str, observed: dict[str, dict[str, int]]) -> tuple[int, int]:
    """(attempted, failed) verdicts against the reference counts.

    attempted is the larger of the expected and the observed total per
    theorem; every verdict beyond the per-outcome match counts as failed,
    so missing verdicts (a sweep that raised) fail too.
    """
    attempted = failed = 0
    ref = REFERENCE[workload]
    for theorem in sorted(set(ref) | set(observed)):
        exp = ref.get(theorem, {})
        obs = observed.get(theorem, {})
        total = max(sum(exp.values()), sum(obs.values()))
        matched = sum(min(c, obs.get(o, 0)) for o, c in exp.items())
        attempted += total
        failed += total - matched
    return attempted, failed
