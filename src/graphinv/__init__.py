"""Exact-arithmetic graph invariants.

Builds the degree-distance and transmission-adjacency matrices of a graph
(and their classical companions), computes Smith normal forms and
characteristic polynomials exactly, counts cospectral/coinvariant mates
over whole corpora, and verifies eigenvalue bounds numerically.
"""

from .census import (
    CensusEntry,
    CensusReport,
    Fingerprint,
    completeness_check,
    fingerprint,
    report_tsv,
    run_census,
    tree_census,
)
from .closedforms import det_tree_distance, snf_complete, snf_star, snf_tree_distance
from .exact import AbelianGroup, IntPolynomial, SnfResult, charpoly, cokernel, determinant, snf
from .generators import canonical_key, generate_connected_graphs, generate_trees, tree_certificate
from .graphs import (
    DistanceProfile,
    Graph,
    Graph6ParseError,
    complete_graph,
    conductance,
    cricket_graph,
    cycle_graph,
    distance_profile,
    graph_from_edges,
    iter_graph6,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
    triangle_count,
    wiener_indices,
    write_graph6,
)
from .matrices import IntMatrix, MatrixKind, build
from .sandpile import Multigraph, cone_graph, cross_check, sandpile_group
from .spectra import (
    BoundReport,
    GraphSpectra,
    InequalityRecord,
    Spectrum,
    check_conductance_bracket,
    check_extreme_bounds,
    check_lambda1_bracket,
    check_moments,
    check_shift_lemmas,
    check_weyl_sandwich,
    eigenvalues_symmetric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
