"""Exact rational toolkit for braid group matrix representations.

Builds the named representation families, verifies the defining relations,
computes friendship graphs by exact rank tests on the images, certifies
irreducibility, and recovers the standard form of corank-2 chain
representations.
"""

from .braid import (
    RelationReport,
    circular_distance,
    verify_braid_relations,
    verify_cyclic_conjugation,
    verify_deformed_relations,
)
from .classify import (
    AnalysisReport,
    IrreducibilityVerdict,
    StandardFormResult,
    Verdict,
    analyze,
    burnside_dimension,
    decide_irreducibility,
    dimension_bound_check,
    extract_standard_form,
    invariant_subspace_search,
    lemma_bb_check,
    spin,
    tym_irreducibility,
)
from .errors import (
    BraidRepError,
    NotARepresentationError,
    OutOfScaleError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
    SpecParseError,
    TrichotomyViolationError,
)
from .friendship import (
    FriendshipGraph,
    GraphClass,
    GraphClassTag,
    are_friends,
    are_true_friends,
    check_zn_equivariance,
    classify_distances,
    classify_graph,
    distance_set,
    friendship_graph,
    full_friendship_graph,
    graph_to_dot,
    graph_to_json_dict,
    is_chain,
    is_connected,
    neighbor_form,
)
from .linalg import (
    Matrix,
    Subspace,
    image_basis,
    intersect_stacked_kernel,
    inverse,
    kernel_basis,
    rank,
    rational,
    rational_eigenvalues,
)
from .zoo import (
    Representation,
    character_rep,
    conjugate_rep,
    corank,
    direct_sum,
    load_representation,
    random_invertible_matrix,
    reduced_burau,
    rep_from_dict,
    rep_to_dict,
    save_representation,
    scrambled,
    tensor_character,
    tym_standard,
)

__version__ = "0.1.0"
