"""Command-line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from distspec import cli, spectral, verify
from distspec.cli import main
from distspec.graph6 import decode_graph6
from distspec.graphs import GraphError
from distspec.spectral import BracketError
from distspec.transforms import GraftSite, RelocationSpec, graft, make_base
from distspec.verify import report_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_inline_complete_graph(capsys):
    code, out, err = run(capsys, ["compute", "--g6", "E~~w"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert set(payload) == {"lambda", "lower", "upper", "residual", "iterations", "vector"}
    assert len(payload["vector"]) == 6
    assert abs(payload["lambda"] - 5.0) < 1e-10
    assert payload["lower"] <= 5.0 <= payload["upper"]


def test_compute_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Cs\n"))
    code, out, _ = run(capsys, ["compute", "--input", "-"])
    assert code == 0
    assert len(json.loads(out)["vector"]) == 4


def test_compute_edge_list_file(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("4\n0 1\n0 2\n0 3\n")
    code, out, _ = run(
        capsys, ["compute", "--input", str(path), "--format", "edges"]
    )
    assert code == 0
    assert abs(json.loads(out)["lambda"] - (2 + 7 ** 0.5)) < 1e-9


def test_compute_rejects_bad_graph6(capsys):
    code, out, err = run(capsys, ["compute", "--g6", "A~"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


EDGES = ["--input", "-", "--format", "edges"]


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["--g6", "A_", "--input", "-"], "", "argument --input: not allowed with argument --g6"),
        (["--input", "-"], "A_\nBw\n", "error: expected one graph6 line, got 2"),
        (EDGES, "x\n0 1\n", "error: expected the vertex count, got 'x'"),
        (EDGES, "3\n1 2 5\n", "error: expected an edge 'u v', got '1 2 5'"),
        (EDGES, "3\n0 1\nx 2\n", "error: expected an edge 'u v', got 'x 2'"),
    ],
    ids=["both-sources", "two-graph6-lines", "bad-count", "three-fields", "not-integers"],
)
def test_bad_graph_input_is_a_usage_error(capsys, monkeypatch, argv, stdin, message):
    """One graph per input from one source; a malformed edge-list line is quoted."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(["compute", *argv])
    except SystemExit as exc:  # argparse rejects the flag pair itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_unreachable_bracket_is_an_input_error(capsys, monkeypatch):
    """A width no certified step reaches is the caller's error (exit 2), not a FAIL."""

    def unreachable(g, width):
        raise BracketError(4.0, 4.0000001, 100000)

    monkeypatch.setattr(cli, "perron_of", unreachable)
    code, out, err = run(capsys, ["compute", "--g6", "D~{", "--tol", "1e-300"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bracket [4.0, 4.0000001] still wider")


def test_cycling_bracket_exits_early(capsys):
    """A --tol below the float limit exits 2 at the first step that does not narrow."""
    code, out, err = run(capsys, ["compute", "--g6", "G{CI?C", "--tol", "2e-14"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bracket [18.80340747096862, 18.803407470968654] still wider")


def test_construct_known_families(capsys):
    code, out, _ = run(capsys, ["construct", "--family", "knk", "--n", "4", "--k", "3"])
    assert code == 0
    assert out.strip() == "Cs"
    code, out, _ = run(capsys, ["construct", "--family", "complete", "--n", "6"])
    assert out.strip() == "E~~w"
    code, out, _ = run(capsys, ["construct", "--family", "gnk", "--n", "6", "--k", "2"])
    assert out.strip() == "E~`?"


def test_construct_graft_round_trip(capsys):
    code, out, _ = run(
        capsys,
        ["construct", "--family", "gkl", "--base", "Bw",
         "--u", "0", "--v", "1", "--k", "2", "--l", "1"],
    )
    assert code == 0
    expected = graft(GraftSite(base=make_base("complete", 3), u=0, v=1, k=2, l=1))
    assert decode_graph6(out.strip()).edges == expected.edges


def test_enumerate_counts_and_filters(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "5"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert len(set(lines)) == 21

    code, out, _ = run(capsys, ["enumerate", "--n", "5", "--cut-vertices", "3"])
    assert out.splitlines() == ["DqG"]


def test_verify_minimizer_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "--theorem", "3", "--n", "5", "--k", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "PASS"
    assert rep["witness"]["minimizer_isomorphic_to_target"] is True
    assert list(rep) == ["theorem", "instance", "outcome", "certified_gap", "witness"]


def test_verify_relocation_exit_codes(capsys):
    ok = ["verify", "--theorem", "2", "--g6", "Cs", "--u", "0", "--v", "1",
          "--targets", "2"]
    code, out, _ = run(capsys, ok)
    assert code == 0
    assert json.loads(out)["outcome"] == "PASS"

    stuck = ["verify", "--theorem", "2", "--g6", "Cs", "--u", "0", "--v", "1",
             "--targets", "2,3"]
    code, out, _ = run(capsys, stuck)
    assert code == 3
    assert json.loads(out)["outcome"] == "INCONCLUSIVE"

    # Documented decreasing instance: hypotheses hold, radius drops.
    falsified = ["verify", "--theorem", "2", "--g6", "Es`_", "--u", "0",
                 "--v", "3", "--targets", "1"]
    code, out, _ = run(capsys, falsified)
    assert code == 1
    assert json.loads(out)["outcome"] == "FAIL"


def test_verify_relocation_checks_the_witness_override(capsys):
    # on Cu no vertex qualifies for u=0, v=2, target 1, so neither does the
    # override 1; 9 is not a vertex at all
    base = ["verify", "--theorem", "2", "--g6", "Cu", "--u", "0", "--v", "2", "--targets", "1"]
    for extra in ([], ["--witness", "1"], ["--witness", "9"]):
        code, out, _ = run(capsys, base + extra)
        assert code == 3
        rep = json.loads(out)
        assert rep["outcome"] == "INCONCLUSIVE"
        assert rep["witness"]["failed_clause"] == "witness"
    # on the star Ds_ the search picks 3; the override 4 qualifies as well
    star = ["verify", "--theorem", "2", "--g6", "Ds_", "--u", "0", "--v", "1", "--targets", "2"]
    for extra, w in (([], 3), (["--witness", "4"], 4)):
        code, out, _ = run(capsys, star + extra)
        assert code == 0
        assert json.loads(out)["witness"]["witness_vertex"] == w


@pytest.mark.parametrize("u, v", [(0, 0), (0, 9), (-1, 0)])
def test_verify_relocation_bad_roots_are_inconclusive(capsys, u, v):
    args = ["verify", "--theorem", "2", "--g6", "Cu", "--u", str(u), "--v", str(v),
            "--targets", "1"]
    code, out, err = run(capsys, args)
    assert (code, err) == (3, "")
    assert json.loads(out)["witness"]["failed_clause"] == "adjacency"


@pytest.mark.parametrize(
    "k, code, outcome", [(5, 1, "FAIL"), (8, 3, "INCONCLUSIVE"), (200, 3, "INCONCLUSIVE")]
)
def test_verify_graft_shift_past_the_catalog_cap(capsys, k, code, outcome):
    # the member and both shifts are the (2k+2)-vertex path: FAIL by
    # isomorphism at 12 vertices; at 18, past the keyed orders, the
    # overlapping brackets stay open, as at 402, where they settle wider
    # than the default width
    got, out, _ = run(capsys, ["verify", "--theorem", "1", "--base", "A_", "--u", "0",
                               "--v", "1", "--k", str(k), "--l", str(k)])
    assert got == code
    report = json.loads(out)
    assert report["outcome"] == outcome
    assert ("shift_to_u_needs_exact_followup" in report["witness"]) == (code == 3)


def test_verify_graft_shift_root_outside_the_base(capsys):
    # on A_, vertex -1 is no alias of vertex 1: the roots are not adjacent
    code, out, err = run(capsys, ["verify", "--theorem", "1", "--base", "A_", "--u", "-1",
                                  "--v", "0", "--k", "1", "--l", "1"])
    assert code == 2
    assert out == ""
    assert "must be adjacent" in err


def test_verify_bound_and_monotonicity(capsys):
    code, out, _ = run(
        capsys, ["verify", "--theorem", "bound", "--old", "Cs", "--new", "C~"]
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "PASS"

    code, out, _ = run(capsys, ["verify", "--theorem", "mono", "--g6", "Dhc"])
    assert code == 0
    assert json.loads(out)["witness"]["relation_original_vs_closure"] == "GREATER"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_bound_rejects_unchecked_tolerance(capsys, monkeypatch, tol):
    def untouched(*args):
        raise AssertionError("computed before the tolerance was checked")

    monkeypatch.setattr(spectral, "perron_of", untouched)
    code, out, err = run(
        capsys,
        ["verify", "--theorem", "bound", "--old", "Cs", "--new", "C~", "--tol", tol],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tol" in err


def test_verify_missing_flag_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--theorem", "3", "--k", "2"])
    assert code == 2
    assert "error:" in err


def test_unknown_theorem_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "9", "--n", "5", "--k", "2"])
    assert exc.value.code == 2


def test_sweep_array_and_exit(capsys):
    code, out, _ = run(capsys, ["sweep", "--theorem", "4", "--n", "5"])
    assert code == 0
    reps = json.loads(out)
    assert isinstance(reps, list)
    assert [r["instance"]["k"] for r in reps] == [0, 1, 2, 4]
    assert all(r["outcome"] == "PASS" for r in reps)


def test_sweep_relocation_small_orders_inconclusive_only(capsys):
    """No decreasing instances exist below six vertices, so the sweep's
    worst outcome is the witness-free INCONCLUSIVE and the exit code is 3."""
    code, out, _ = run(capsys, ["sweep", "--theorem", "2", "--max-n", "4"])
    assert code == 3
    outcomes = {r["outcome"] for r in json.loads(out)}
    assert outcomes == {"PASS", "INCONCLUSIVE"}


def test_repeated_runs_identical(capsys):
    argv = ["sweep", "--theorem", "3", "--n", "5"]
    first = run(capsys, argv)[:2]
    second = run(capsys, argv)[:2]
    # --jobs and --width are deprecated no-ops
    third = run(capsys, argv + ["--jobs", "4", "--width", "1e-3"])[:2]
    assert first == second == third


# theorem -> (verify arguments of one instance, the in-process verifier's report)
K3_SITE = GraftSite(base=decode_graph6("Bw"), u=0, v=1, k=2, l=1)
DROPPING = RelocationSpec(decode_graph6("Es`_"), 0, 3, (1,))  # radius drops: FAIL
VERIFIES = {
    "1": (["--base", "Bw", "--u", "0", "--v", "1", "--k", "2", "--l", "1"],
          lambda: verify.verify_graft_monotonicity(K3_SITE)),
    "2": (["--g6", "Es`_", "--u", "0", "--v", "3", "--targets", "1"],
          lambda: verify.verify_relocation(DROPPING)),
    "3": (["--n", "5", "--k", "2"], lambda: verify.verify_min_cut_vertices(5, 2)),
    "4": (["--n", "5", "--k", "4"], lambda: verify.verify_min_cut_edges(5, 4)),
    "cor1": (["--base", "Bw", "--u", "0", "--v", "1", "--k", "2", "--l", "1"],
             lambda: verify.pendant_report_for_site(K3_SITE)),
    "bound": (["--old", "Cs", "--new", "C~"],
              lambda: verify.verify_perturbation_bound(decode_graph6("Cs"), decode_graph6("C~"))),
    "mono": (["--g6", "Dhc"], lambda: verify.verify_distance_monotonicity(decode_graph6("Dhc"))),
}


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_verify_runs_every_claim(capsys, theorem):
    # every row of the claim table answers verify with its verifier's report
    args, verifier = VERIFIES[theorem]
    code, out, _ = run(capsys, ["verify", "--theorem", theorem, *args])
    rep = verifier()
    assert out == report_json(rep) + "\n"
    assert code == {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}[rep.outcome]


# (sweep arguments, the in-process sweep that makes the same reports).  The
# pendant sweep's 644 reports are 92 batches of 7; the relocation sweep's
# FAILs come only at n = 6, after batches of PASS and INCONCLUSIVE.
SWEEPS = {
    "1": (["--theorem", "1", "--max-base-n", "4"], lambda: verify.sweep_graft(4, 4)),
    "cor1": (["--theorem", "cor1", "--max-base-n", "5"], lambda: verify.sweep_pendant(5, 4)),
    "2": (["--theorem", "2"], lambda: verify.sweep_relocation(6)),
    "bound": (["--theorem", "bound", "--max-n", "5"], lambda: verify.sweep_perturbation(5)),
    "mono": (["--theorem", "mono", "--max-n", "6"], lambda: verify.sweep_monotonicity(6)),
    "3": (["--theorem", "3", "--n", "6"], lambda: verify.sweep_min_cut_vertices(6)),
    "4": (["--theorem", "4", "--n", "6"], lambda: verify.sweep_min_cut_edges(6)),
    "2-empty": (["--theorem", "2", "--max-n", "0"], lambda: verify.sweep_relocation(0)),
    "1-empty": (["--theorem", "1", "--max-base-n", "1"], lambda: verify.sweep_graft(1, 4)),
}


@pytest.mark.parametrize("batch", [1, 7, verify.SWEEP_BATCH])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_streamed_sweep_is_the_whole_array(capsys, monkeypatch, name, batch):
    # stdout, written batch by batch, is the array of the sweep's reports,
    # and the exit code is the worst outcome over all of them
    args, sweep = SWEEPS[name]
    monkeypatch.setattr(verify, "SWEEP_BATCH", batch)
    code, out, _ = run(capsys, ["sweep", *args])
    reports = sweep()
    assert out == "[" + ", ".join(report_json(r) for r in reports) + "]\n"
    outcomes = {r.outcome for r in reports}
    assert code == (1 if "FAIL" in outcomes else 3 if "INCONCLUSIVE" in outcomes else 0)
    assert name.endswith("-empty") == (out == "[]\n")


def test_every_claim_is_swept():
    assert {name for name in SWEEPS if not name.endswith("-empty")} == set(cli.THEOREMS)


class Discard:
    """A stdout that keeps nothing but, when given a list, the order of writes."""

    def __init__(self, events=None):
        self.events = events

    def write(self, text):
        if self.events is not None:
            self.events.append("write")
        return len(text)

    def flush(self):
        pass


def test_sweep_writes_each_batch_before_building_the_next(monkeypatch):
    events = []
    real = verify._graft_reports

    def batch(sites):
        events.append("batch")
        return real(sites)

    monkeypatch.setattr(verify, "_graft_reports", batch)
    monkeypatch.setattr(verify, "SWEEP_BATCH", 7)
    monkeypatch.setattr(sys, "stdout", Discard(events))
    assert main(["sweep", "--theorem", "1", "--max-base-n", "4"]) == 1
    batches = 36  # 248 reports, 7 at a time
    assert events == ["batch", "write"] * batches + ["write"]


def test_streamed_sweep_peaks_below_half_the_whole_text(monkeypatch):
    # The first run builds what both measured runs share and leave as they
    # are: the catalogs and the key tables.  So the peaks count the sweep's
    # own graphs, brackets, names, reports and text.
    argv = ["sweep", "--theorem", "1", "--max-base-n", "5"]
    monkeypatch.setattr(sys, "stdout", Discard())
    main(argv)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: main(argv))
    whole = peak(lambda: "[" + ", ".join(map(report_json, verify.sweep_graft(5, 4))) + "]\n")
    assert streamed <= whole / 2, (streamed, whole)


def test_sweep_above_the_cap_writes_nothing(capsys, monkeypatch):
    monkeypatch.setenv("DISTSPEC_MAX_N", "4")
    code, out, err = run(capsys, ["sweep", "--theorem", "1", "--max-base-n", "5"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_sweep_error_after_the_first_batch_leaves_a_truncated_array(capsys, monkeypatch):
    argv = ["sweep", "--theorem", "1", "--max-base-n", "4"]
    monkeypatch.setattr(verify, "SWEEP_BATCH", 7)
    full = run(capsys, argv)[1]
    real, calls = verify._graft_reports, []

    def failing(sites):
        calls.append(len(sites))
        if len(calls) == 2:
            raise GraphError("second batch")
        return real(sites)

    monkeypatch.setattr(verify, "_graft_reports", failing)
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "error: second batch\n")
    assert out and full.startswith(out) and out != full
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, ["construct", "--family", "path", "--n", "3"])[:2] == (0, "Bg\n")
    assert run(capsys, ["compute", "--g6", "A~"])[0] == 2
    assert gc.get_freeze_count() == before


def test_command_line_run_freezes_the_heap_after_its_output():
    code = (
        "import gc, sys; from distspec.cli import main; "
        "sys.argv = ['distspec', 'construct', '--family', 'path', '--n', '3']; "
        "main(); print(gc.get_freeze_count() > 0)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "Bg\nTrue\n")


def test_console_script_installed():
    proc = subprocess.run(
        ["distspec", "enumerate", "--n", "4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 6
