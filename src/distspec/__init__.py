"""Certified distance spectral radius computations for connected graphs.

The distance spectral radius of a connected graph is the largest eigenvalue
of its matrix of shortest-path lengths.  This package computes it with
certified two-sided brackets, constructs the extremal families that
minimize it under cut-vertex and cut-edge constraints, enumerates small
connected graphs up to isomorphism, and verifies the associated strict
inequalities by certified comparison.
"""

from .enumeration import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    EnumFilter,
    connected_graphs,
    count_connected,
    filtered_graphs,
    max_order,
)
from .graph6 import decode_graph6, encode_graph6
from .graphs import (
    Graph,
    GraphError,
    PendantPath,
    build_graph,
    is_connected,
)
from .jsonio import dumps
from .spectral import (
    DEFAULT_BRACKET_WIDTH,
    BracketError,
    PerronResult,
    Relation,
    SpectralOrdering,
    certified_compare,
    distance_matrices,
    distance_matrix,
    perron,
    perron_json,
    perron_many,
    perron_of,
    quadratic_form_delta,
)
from .transforms import (
    GraftSite,
    HypothesisError,
    RelocationSpec,
    block_clique_closure,
    component_without,
    distance_dominates,
    g_nk,
    graft,
    k_nk,
    make_base,
    relocate_edges,
    validate_relocation,
)
from .verify import (
    VerificationReport,
    report_json,
    sweep_graft,
    sweep_min_cut_edges,
    sweep_min_cut_vertices,
    sweep_monotonicity,
    sweep_pendant,
    sweep_perturbation,
    sweep_relocation,
    verify_distance_monotonicity,
    verify_graft_monotonicity,
    verify_min_cut_edges,
    verify_min_cut_vertices,
    verify_pendant_sum,
    verify_perturbation_bound,
    verify_relocation,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "DEFAULT_BRACKET_WIDTH",
    "DEFAULT_MAX_N",
    "ENV_MAX_N",
    "EnumFilter",
    "GraftSite",
    "Graph",
    "GraphError",
    "HypothesisError",
    "PendantPath",
    "PerronResult",
    "Relation",
    "RelocationSpec",
    "SpectralOrdering",
    "VerificationReport",
    "block_clique_closure",
    "build_graph",
    "certified_compare",
    "component_without",
    "connected_graphs",
    "count_connected",
    "decode_graph6",
    "distance_dominates",
    "distance_matrices",
    "distance_matrix",
    "dumps",
    "encode_graph6",
    "filtered_graphs",
    "g_nk",
    "graft",
    "is_connected",
    "k_nk",
    "make_base",
    "max_order",
    "perron",
    "perron_json",
    "perron_many",
    "perron_of",
    "quadratic_form_delta",
    "relocate_edges",
    "report_json",
    "sweep_graft",
    "sweep_min_cut_edges",
    "sweep_min_cut_vertices",
    "sweep_monotonicity",
    "sweep_pendant",
    "sweep_perturbation",
    "sweep_relocation",
    "validate_relocation",
    "verify_distance_monotonicity",
    "verify_graft_monotonicity",
    "verify_min_cut_edges",
    "verify_min_cut_vertices",
    "verify_pendant_sum",
    "verify_perturbation_bound",
    "verify_relocation",
]
