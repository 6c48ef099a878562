"""distspec benchmark: time to the last verdict of exhaustive claim sweeps.

    python3 bench/run.py --workload {extremal7,graft5,cli-sweeps,extremal8,graft6} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
src/ (nothing is installed).  Every workload iteration is a fresh
interpreter, so the per-process caches (enumeration levels, Perron
results) start cold, as they do for each `distspec` invocation.

--trace 0 repeats the workload for about S seconds, each iteration
paired with one on a frozen reference copy of distspec (seedref/), and
prints the end-to-end metrics scaled by the pairs (see timed_run).
--trace 1 runs the workload traced (spans around calls into each module,
see tracer.py), untraced, and traced again if the run limit leaves time,
and prints the per-layer metrics; the exact counts of the traced runs
must agree.  Verdicts are checked against reference outcome counts on
every run.  The last stdout line is the result object;
the line before it records the run conditions and raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# Import probes are spread over the run (this many before the first
# iteration, before any iteration that starts PROBE_EVERY_S or more after
# the last probes, and after the last) so that setup_s does not hinge on
# one moment's load.
PROBES_PER_SLOT = 2
PROBE_EVERY_S = 10.0
# distspec as of the commit that defined this benchmark, never edited: the
# timed runs pair each program process with one of this copy.
REFERENCE_SRC = BENCH / "seedref"
# Import time of the reference copy at reference host speed, in seconds.
REF_SETUP_S = 0.25
# Every run must end within 180 s; children still running at this mark are
# killed and the run fails without a result.
RUN_LIMIT_S = 170.0
STARTED = time.perf_counter()
PROBE = "import distspec, time; print(repr(time.perf_counter()))"
# Counts that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = (
    "enumeration.key_calls",
    "graph6.decode_calls",
    "graph6.encode_calls",
    "graphs.cut_calls",
    "graphs.canonical_key_calls",
    "spectral.perron_calls",
    "spectral.brackets",
    "spectral.power_iterations",
    "spectral.kernel_flops",
    "spectral.tightened_calls",
    "verify.verdicts",
    "cli.stdout_bytes",
)
# Metric names and units, in the order BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The workload could not be measured (crash, unparsable output)."""


@dataclass
class Proc:
    launch: float
    exit: float
    rc: int
    out: bytes
    err: bytes
    maxrss_mb: float


def remaining_s() -> float:
    return RUN_LIMIT_S - (time.perf_counter() - STARTED)


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict) -> Proc:
    """Run a child to completion; rusage covers it and its waited-for children."""
    launch = time.perf_counter()
    # A session of its own lets the watchdog kill pool workers too: they hold
    # the stdout pipe open after their parent dies.
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    watchdog = threading.Timer(max(remaining_s(), 0.0), kill_group, (proc.pid,))
    watchdog.start()
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{argv[1:]} killed by signal {-proc.returncode} (run limit {RUN_LIMIT_S:.0f} s)")
    return Proc(launch, end, proc.returncode, out, b"".join(err), usage.ru_maxrss / 1024.0)


def child_env(seed: int, src: Path = ROOT / "src") -> dict:
    """Environment whose `import distspec` finds the package under src."""
    env = dict(os.environ)
    env.pop("DISTSPEC_MAX_N", None)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def last_json(p: Proc, what: str):
    if p.rc != 0:
        raise BenchError(f"{what} exited {p.rc}: {p.err.decode(errors='replace')[-2000:]}")
    lines = p.out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def setup_probe(env: dict) -> float:
    """Interpreter start to `import distspec` returning."""
    p = spawn([sys.executable, "-c", PROBE], env)
    return float(last_json(p, "import probe")) - p.launch


def run_untraced(workload: str, seed: int, env: dict) -> dict:
    """One fresh-interpreter iteration: wall, peak RSS, verdict check."""
    if workload != "cli-sweeps":
        return run_child(workload, seed, env, traced=False)
    labels = []
    first = None
    rss = 0.0
    codes_ok = True
    nbytes = 0
    for argv, expected in workloads.cli_commands(seed):
        p = spawn([sys.executable, "-m", "distspec.cli", *argv], env)
        first = p.launch if first is None else first
        try:
            reports = json.loads(p.out)
        except ValueError:
            raise BenchError(f"distspec {' '.join(argv)} exited {p.rc}: {p.err.decode(errors='replace')[-2000:]}")
        codes_ok &= p.rc == expected
        rss = max(rss, p.maxrss_mb)
        nbytes += len(p.out)
        for r in reports:
            labels.append(workloads.label(r["theorem"], r["outcome"], r["certified_gap"], r["witness"], r["instance"]))
    attempted, failed = workloads.check(workload, workloads.count_labels(labels))
    return {
        "wall_s": p.exit - first,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "cold": True,  # a fresh process per command
        "exit_codes_ok": codes_ok,
        "stdout_bytes": nbytes,
    }


def run_child(workload: str, seed: int, env: dict, traced: bool) -> dict:
    """bench/child.py in a fresh interpreter (cli-sweeps runs in-process there)."""
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed)]
    p = spawn(argv + ["--trace"] if traced else argv, env)
    res = last_json(p, f"{'traced ' if traced else ''}{workload}")
    res["attempted"], res["failed"] = workloads.check(workload, res["labels"])
    res["wall_s"] = res["t_end"] - p.launch
    res["peak_rss_mb"] = p.maxrss_mb
    res["cold"] = not any(res["cache_sizes_at_start"].values())
    return res


def tabulate(values: dict, group: str) -> dict:
    """Metrics of one BENCHMARK.json group, each with its unit."""
    names = [m["name"] for m in SPEC[group]]
    if set(values) != set(names):
        raise BenchError(f"metrics differ from BENCHMARK.json {group}: {sorted(set(values) ^ set(names))}")
    return {k: {"value": values[k], "unit": UNITS[k]} for k in names}


def conditions(workload: str, cold: bool) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "radius_cache_cold_at_start": cold,
        "jobs": workloads.CLI_JOBS if workload == "cli-sweeps" else 1,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "distspec" / "__init__.py").is_file():
        print(f"error: no distspec sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    env = child_env(args.seed)
    try:
        info, result = (trace_run if args.trace else timed_run)(args.workload, args.seed, args.seconds, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def paired(measure, env: dict, ref_env: dict, reference_first: bool):
    """(program, reference) results of measure(env), in the order given."""
    if reference_first:
        ref = measure(ref_env)
        return measure(env), ref
    prog = measure(env)
    return prog, measure(ref_env)


def timed_run(workload: str, seed: int, seconds: float, env: dict):
    """Program iterations and import probes, each paired with the reference copy's.

    On the shared host this benchmark was built on, one iteration ran 1.0,
    1.5 or 2 times as long depending on the host's load, each level lasting
    seconds to minutes, with CPU time equal to wall time and no steal
    counted in the guest.  Medians, and even minima, of a run's iterations
    then spread by 25-40% between runs, and a small reference loop timed
    between iterations did not follow the slowdowns.  The same workload on
    a frozen copy of distspec does: it is the same kind of code, run right
    before or after (alternately) on the same host.  So a time is reported
    as the median over the run of program / reference, times the
    reference's time at reference host speed (workloads.REF_WALL_S,
    REF_SETUP_S).  At the commit that defined the benchmark the two are
    the same code and the ratio is 1; a faster program reads lower.
    """
    ref_env = child_env(seed, REFERENCE_SRC)
    pairs: list[tuple[dict, dict]] = []
    probes: list[tuple[float, float]] = []

    def probe_slot() -> None:
        for k in range(PROBES_PER_SLOT):
            probes.append(paired(setup_probe, env, ref_env, k % 2 == 1))

    t0 = time.perf_counter()
    probed = -PROBE_EVERY_S
    while True:
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            probed = time.perf_counter()
            probe_slot()
        t_pair = time.perf_counter()
        pairs.append(paired(lambda e: run_untraced(workload, seed, e), env, ref_env, len(pairs) % 2 == 1))
        # Start another pair only if it would end no later than half a pair
        # past the window, judging by the last one.
        now = time.perf_counter()
        if now - t0 + (now - t_pair) / 2 > seconds:
            break
    probe_slot()
    runs = [p for p, _ in pairs]
    refs = [r for _, r in pairs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    cold = all(r["cold"] for r in runs + refs)
    same_output = all(len({r["stdout_bytes"] for r in side}) == 1 for side in (runs, refs))
    codes_ok = all(r["exit_codes_ok"] for r in runs)
    reference_ok = all(r["failed"] == 0 and r["exit_codes_ok"] for r in refs)
    wall_ratios = [p["wall_s"] / r["wall_s"] for p, r in pairs]
    setup_ratios = [p / r for p, r in probes]
    metrics = {
        "wall_s": statistics.median(wall_ratios) * workloads.REF_WALL_S[workload],
        "setup_s": statistics.median(setup_ratios) * REF_SETUP_S,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_share": 1.0 - failed / attempted,
    }
    info = {
        "conditions": conditions(workload, cold),
        "raw_medians": {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "reference_wall_s": statistics.median(r["wall_s"] for r in refs),
            "setup_s": statistics.median(p for p, _ in probes),
            "reference_setup_s": statistics.median(r for _, r in probes),
        },
        "samples": {
            "wall_s": [r["wall_s"] for r in runs],
            "reference_wall_s": [r["wall_s"] for r in refs],
            "setup_s": [p for p, _ in probes],
            "reference_setup_s": [r for _, r in probes],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "stdout_bytes": [r["stdout_bytes"] for r in runs],
        },
        "checks": {
            "cli_exit_codes": codes_ok,
            "stdout_bytes_repeat": same_output,
            "reference_verdicts_and_exit_codes": reference_ok,
        },
    }
    result = {
        "correct": failed == 0 and cold and codes_ok and same_output and reference_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": tabulate(metrics, "end_to_end"),
    }
    return info, result


def trace_run(workload: str, seed: int, seconds: float, env: dict):
    traced = [run_child(workload, seed, env, traced=True)]
    base = run_child(workload, seed, env, traced=False)
    # The repeat that checks the exact counts is skipped, and says so, when
    # a slow host leaves too little of the run limit for it.
    if remaining_s() > 1.5 * traced[0]["wall_s"]:
        traced.append(run_child(workload, seed, env, traced=True))
    counts = [{k: t["metrics"][k] for k in EXACT_COUNTS} for t in traced]
    repeat = all(c == counts[0] for c in counts)
    repeat &= counts[0]["cli.stdout_bytes"] == base["stdout_bytes"]
    metrics = {
        k: statistics.median(t["metrics"][k] for t in traced) for k in traced[0]["metrics"]
    }
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - base["wall_s"]
    attempted = base["attempted"] + sum(t["attempted"] for t in traced)
    failed = base["failed"] + sum(t["failed"] for t in traced)
    cold = base["cold"] and all(t["cold"] for t in traced)
    codes_ok = base["exit_codes_ok"] and all(t["exit_codes_ok"] for t in traced)
    info = {
        "conditions": conditions(workload, cold),
        "samples": {"untraced_wall_s": base["wall_s"], "traced_wall_s": [t["wall_s"] for t in traced]},
        "checks": {
            "exact_counts_repeat": repeat,
            "traced_runs_compared": len(traced),
            "cli_exit_codes": codes_ok,
        },
        "exact_counts": counts[0],
        "notes": [
            "pool workers run outside the tracer: their time is attributed to the sweep span (verify.self_s)",
            "spectral.kernel_flops is computed as sum(2*n*n*iterations), not measured",
            "cli-sweeps traced runs call distspec.cli.main in one process, caches cleared per command",
        ],
    }
    result = {
        "correct": failed == 0 and cold and codes_ok and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": tabulate(metrics, "per_layer"),
    }
    return info, result


if __name__ == "__main__":
    sys.exit(main())
