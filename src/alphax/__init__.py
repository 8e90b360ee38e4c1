"""Spectral extremal analysis of graphs without intersecting triangles or
quadrangles as a minor: constructions, A_alpha indices, exact minor tests,
and exhaustive desk-scale verification."""

import os as _os

# No matrix here exceeds 64x64, too small for OpenBLAS threads to pay for
# the pool they start at numpy import in every process; set before any
# submodule imports numpy, and a value the user sets still wins.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .canonical import are_isomorphic, canonical_form, canonical_graph
from .enumeration import (
    Family,
    SearchPart,
    SearchReport,
    enumerate_graphs,
    is_minor_free,
    merge_reports,
    search_extremal,
    search_part,
    stream_from_graph6_file,
)
from .graph6 import Graph6ParseError, iter_graph6_file, parse_graph6, write_graph6
from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    complement,
    disjoint_union,
    extremal_fs,
    extremal_qt,
    friendship,
    intersection_lower_bound,
    join,
    k_copies,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    matching_graph,
    quadrangle_book,
)
from .minors import (
    MinorModel,
    MinorVerdict,
    SearchLimitError,
    StructureReport,
    StructureViolation,
    check_fs_structure,
    check_qt_structure,
    has_minor,
    minor_closure_oracle,
    subgraph_contains,
    validate_model,
)
from .spectral import (
    ConvergenceError,
    InvariantError,
    NikiforovBounds,
    NonEquitablePartitionError,
    QuotientMatrix,
    SpectralResult,
    alpha_index,
    alpha_indices,
    alpha_matrix,
    certify_tops,
    f_inequality,
    jacobi_eigh,
    join_quotient_index,
    nikiforov_lower_bound,
    power_iteration,
    quotient_matrix,
    screen_alpha_indices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
