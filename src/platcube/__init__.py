"""Resolution cubes of plat-closed braid words over GF(2).

The pipeline: parse a braid word, close it into a plat, resolve every
crossing region both flat ways to get a hypercube of circle diagrams,
apply the two-dimensional mod-2 Frobenius calculus to get a
weight-filtered chain complex, and run the spectral sequence of the
filtration to extract page dimensions and the nested rank bounds.
Checkerboard determinants, read off the diagram without the cube, give
an independent cross-check of E_2, also when a free circle is added.
"""

from .cube import (
    CubeVertex,
    Merge,
    ResolutionCube,
    Split,
    TwistSequence,
    add_aux_unknot,
    braid_to_twists,
    build_cube,
)
from .f2linalg import (
    F2Coo,
    F2Matrix,
    Subspace,
    kernel_basis,
    matmul,
    rank,
    rref,
)
from .invariants import (
    GoeritzData,
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
    verify_d_squared,
)
from .tangle import (
    BraidWord,
    PlatClosure,
    mirror,
    parse_braid_word,
    parse_plat,
)
from .tqft import (
    ChainComplexF2,
    assemble_complex,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BraidWord",
    "ChainComplexF2",
    "CubeVertex",
    "F2Coo",
    "F2Matrix",
    "FilteredComplex",
    "GoeritzData",
    "HigherMapError",
    "Merge",
    "PageData",
    "PlatClosure",
    "ResolutionCube",
    "SpectralPages",
    "Split",
    "Subspace",
    "TwistSequence",
    "add_aux_unknot",
    "assemble_complex",
    "braid_to_twists",
    "build_cube",
    "compute_pages",
    "determinant",
    "goeritz_data",
    "kernel_basis",
    "load_higher_maps",
    "matmul",
    "mirror",
    "parse_braid_word",
    "parse_plat",
    "rank",
    "rank_bounds",
    "rref",
    "verify_d_squared",
]
