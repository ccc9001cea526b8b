"""Resolution cubes of plat-closed braid words over GF(2).

The pipeline: parse a braid word, close it into a plat, resolve every
crossing region both flat ways to get a hypercube of circle diagrams,
apply the two-dimensional mod-2 Frobenius calculus to get a
weight-filtered chain complex, and run the spectral sequence of the
filtration to extract page dimensions and the nested rank bounds.
Checkerboard determinants and a free-circle doubling test provide
independent cross-checks.
"""

from .cube import (
    CubeVertex,
    Merge,
    ResolutionCube,
    Split,
    TwistSequence,
    add_aux_unknot,
    adjacent_cobordism,
    braid_to_twists,
    build_cube,
    resolve_twist,
    vertex_tangle,
)
from .f2linalg import (
    F2Matrix,
    Subspace,
    kernel_basis,
    matmul,
    rank,
    rref,
    span,
)
from .invariants import (
    DoublingResult,
    GoeritzData,
    aux_doubling_check,
    determinant,
    goeritz_data,
)
from .specseq import (
    BoundsReport,
    FilteredComplex,
    HigherMapError,
    PageData,
    SpectralPages,
    compute_pages,
    load_higher_maps,
    rank_bounds,
    total_homology_dim,
    verify_d_squared,
)
from .tangle import (
    BraidWord,
    FlatTangle,
    PlatClosure,
    close_plat,
    compose,
    cup_cap_tangle,
    elementary_tangle,
    identity_tangle,
    mirror,
    parse_braid_word,
    parse_plat,
)
from .tqft import (
    BASIS,
    COMULT_TABLE,
    MULT_TABLE,
    ONE,
    ChainComplexF2,
    VertexSpace,
    X,
    assemble_complex,
    comultiply,
    edge_map_matrix,
    multiply,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS",
    "BoundsReport",
    "BraidWord",
    "ChainComplexF2",
    "COMULT_TABLE",
    "CubeVertex",
    "DoublingResult",
    "F2Matrix",
    "FilteredComplex",
    "FlatTangle",
    "GoeritzData",
    "HigherMapError",
    "MULT_TABLE",
    "Merge",
    "ONE",
    "PageData",
    "PlatClosure",
    "ResolutionCube",
    "SpectralPages",
    "Split",
    "Subspace",
    "TwistSequence",
    "VertexSpace",
    "X",
    "add_aux_unknot",
    "adjacent_cobordism",
    "assemble_complex",
    "aux_doubling_check",
    "braid_to_twists",
    "build_cube",
    "close_plat",
    "compose",
    "compute_pages",
    "comultiply",
    "cup_cap_tangle",
    "determinant",
    "edge_map_matrix",
    "elementary_tangle",
    "goeritz_data",
    "identity_tangle",
    "kernel_basis",
    "load_higher_maps",
    "matmul",
    "mirror",
    "multiply",
    "parse_braid_word",
    "parse_plat",
    "rank",
    "rank_bounds",
    "resolve_twist",
    "rref",
    "span",
    "total_homology_dim",
    "verify_d_squared",
    "vertex_tangle",
]
