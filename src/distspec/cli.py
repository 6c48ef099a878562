"""Command-line front end.

Subcommands: compute (certified radius of one graph), construct (named
families), enumerate (connected graphs up to isomorphism), verify (one
claim instance), sweep (a full grid of claim instances).

JSON goes to standard output, graph6 one per line, diagnostics to the
error stream.  Exit codes: 0 success and every report PASS, 1 at least
one FAIL, 2 usage or input error, 3 INCONCLUSIVE reports but no FAIL.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .enumeration import EnumFilter, filtered_graphs
from .graph6 import decode_graph6, encode_graph6, encode_rows
from .graphs import GraphError, build_graph
from .spectral import DEFAULT_BRACKET_WIDTH, BracketError, perron_json, perron_of
from .transforms import (
    GraftSite,
    HypothesisError,
    RelocationSpec,
    graft,
    g_nk,
    k_nk,
    make_base,
)
from .verify import (
    BOUND_TOL,
    _batches,
    _bound_batches,
    _graft_batches,
    _min_batches,
    _monotonicity_batches,
    _pendant_batches,
    _relocation_batches,
    pendant_report_for_site,
    report_json,
    verify_distance_monotonicity,
    verify_graft_monotonicity,
    verify_min_cut_edges,
    verify_min_cut_vertices,
    verify_perturbation_bound,
    verify_relocation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _read_graph(args):
    if args.g6 is not None:
        return decode_graph6(args.g6)
    if args.input is None:
        raise GraphError("provide --g6 or --input")
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text("ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty input")
    if args.format == "graph6":
        if len(lines) > 1:
            raise GraphError(f"expected one graph6 line, got {len(lines)}")
        return decode_graph6(lines[0])
    (n,) = _int_line(lines[0], 1, "the vertex count")
    return build_graph(n, [_int_line(ln, 2, "an edge 'u v'") for ln in lines[1:]])


def _int_line(line: str, count: int, what: str) -> tuple:
    """The `count` integers on an edge-list line, or a GraphError quoting the line."""
    fields = line.split()
    try:
        if len(fields) == count:
            return tuple(map(int, fields))
    except ValueError:
        pass
    raise GraphError(f"expected {what}, got {line!r}")


def _exit_code(outcomes: set) -> int:
    if "FAIL" in outcomes:
        return EXIT_FAIL
    if "INCONCLUSIVE" in outcomes:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _cmd_compute(args) -> int:
    g = _read_graph(args)
    print(perron_json(perron_of(g, args.tol)))
    return EXIT_PASS


def _cmd_construct(args) -> int:
    fam = args.family
    if fam in ("complete", "path", "cycle"):
        g = make_base(fam, _req(args, "n"))
    elif fam == "gnk":
        g = g_nk(_req(args, "n"), _req(args, "k"))
    elif fam == "knk":
        g = k_nk(_req(args, "n"), _req(args, "k"))
    else:
        g = graft(_site_from(args))
    print(encode_graph6(g))
    return EXIT_PASS


def _cmd_enumerate(args) -> int:
    filt = EnumFilter(cut_vertex_count=args.cut_vertices, cut_edge_count=args.cut_edges)
    for names in _batches((g.masks for g in filtered_graphs(args.n, filt)), encode_rows):
        print("\n".join(names))
    return EXIT_PASS


def _req(args, name: str):
    val = getattr(args, name, None)
    if val is None:
        raise GraphError(f"missing required flag --{name}")
    return val


def _site_from(args) -> GraftSite:
    return GraftSite(
        base=decode_graph6(_req(args, "base")),
        u=_req(args, "u"),
        v=_req(args, "v"),
        k=_req(args, "k"),
        l=_req(args, "l"),
    )


def _spec_from(args) -> RelocationSpec:
    # Unvalidated on purpose: verify_relocation reports a failed
    # hypothesis as INCONCLUSIVE instead of erroring out.
    g = _read_graph(args)
    targets = tuple(sorted({int(s) for s in _req(args, "targets").split(",")}))
    return RelocationSpec(g, _req(args, "u"), _req(args, "v"), targets, args.witness)


def _pair_from(args):
    if args.old is None or args.new is None:
        raise GraphError("--theorem bound needs --old and --new graph6 strings")
    return decode_graph6(args.old), decode_graph6(args.new)


# theorem -> (its report on one instance, its sweep's batches), both from the
# parsed flags.  A new claim is one row here and its batch function in verify.
CLAIMS = {
    "1": (lambda a: verify_graft_monotonicity(_site_from(a)),
          lambda a: _graft_batches(a.max_base_n, a.max_total)),
    "2": (lambda a: verify_relocation(_spec_from(a)),
          lambda a: _relocation_batches(a.max_n)),
    "3": (lambda a: verify_min_cut_vertices(_req(a, "n"), _req(a, "k")),
          lambda a: _min_batches("min-cut-vertices", _req(a, "n"))),
    "4": (lambda a: verify_min_cut_edges(_req(a, "n"), _req(a, "k")),
          lambda a: _min_batches("min-cut-edges", _req(a, "n"))),
    "cor1": (lambda a: pendant_report_for_site(_site_from(a)),
             lambda a: _pendant_batches(a.max_base_n, a.max_total)),
    "bound": (lambda a: verify_perturbation_bound(*_pair_from(a), tol=a.tol),
              lambda a: _bound_batches(a.max_n)),
    "mono": (lambda a: verify_distance_monotonicity(_read_graph(a)),
             lambda a: _monotonicity_batches(a.max_n)),
}
THEOREMS = tuple(CLAIMS)


def _cmd_verify(args) -> int:
    rep = CLAIMS[args.theorem][0](args)
    print(report_json(rep))
    return _exit_code({rep.outcome})


def _cmd_sweep(args) -> int:
    """The JSON array of the sweep's reports, written and dropped one batch at a time."""
    head, outcomes = "[", set()
    for batch in CLAIMS[args.theorem][1](args):
        sys.stdout.write(head + ", ".join(map(report_json, batch)))
        head = ", "
        outcomes.update(r.outcome for r in batch)
        del batch  # dropped before the next batch is built
    sys.stdout.write("[]\n" if head == "[" else "]\n")
    return _exit_code(outcomes)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="distspec",
        description="Certified distance spectral radius computations and "
        "extremal-graph verification.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_graph_flags(sp):
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--g6", help="graph as an inline graph6 string")
        source.add_argument("--input", help="path to a graph file, or - for stdin")
        sp.add_argument(
            "--format",
            choices=("graph6", "edges"),
            default="graph6",
            help="input file format (edges: first line n, then 'u v' lines)",
        )

    sp = sub.add_parser("compute", help="certified radius of one graph")
    add_graph_flags(sp)
    sp.add_argument("--tol", type=float, default=DEFAULT_BRACKET_WIDTH,
                    help="bracket width for the certified value")
    sp.set_defaults(func=_cmd_compute)

    sp = sub.add_parser("construct", help="emit a named family member as graph6")
    sp.add_argument("--family", required=True,
                    choices=("gnk", "knk", "gkl", "complete", "path", "cycle"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--base", help="graph6 of the base graph (gkl)")
    sp.add_argument("--u", type=int)
    sp.add_argument("--v", type=int)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("enumerate", help="connected graphs up to isomorphism")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cut-vertices", type=int, dest="cut_vertices")
    sp.add_argument("--cut-edges", type=int, dest="cut_edges")
    sp.set_defaults(func=_cmd_enumerate)

    def add_verify_common(sp):
        sp.add_argument("--width", type=float,
                        help="deprecated and ignored: brackets are a few ulps wide")
        sp.add_argument("--jobs", type=int,
                        help="deprecated and ignored: claims run serially")

    sp = sub.add_parser("verify", help="verify one claim instance")
    sp.add_argument("--theorem", required=True, choices=THEOREMS)
    add_graph_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--base", help="graph6 of the base graph (theorem 1, cor1)")
    sp.add_argument("--u", type=int)
    sp.add_argument("--v", type=int)
    sp.add_argument("--targets", help="comma-separated target vertices (theorem 2)")
    sp.add_argument("--witness", type=int, help="witness vertex override (theorem 2)")
    sp.add_argument("--old", help="graph6 before perturbation (bound)")
    sp.add_argument("--new", help="graph6 after perturbation (bound)")
    sp.add_argument("--tol", type=float, default=BOUND_TOL,
                    help="slack for the perturbation bound")
    add_verify_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="verify a grid of claim instances")
    sp.add_argument("--theorem", required=True, choices=THEOREMS)
    sp.add_argument("--n", type=int, help="order for theorem 3/4 sweeps")
    sp.add_argument("--max-base-n", type=int, default=6, dest="max_base_n")
    sp.add_argument("--max-total", type=int, default=4, dest="max_total")
    sp.add_argument("--max-n", type=int, default=6, dest="max_n")
    add_verify_common(sp)
    sp.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, HypothesisError, BracketError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if argv is None:  # the process exits next: spare its teardown a collection of the heap
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
