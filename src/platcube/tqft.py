"""Two-dimensional mod-2 Frobenius calculus on the resolution cube.

The coefficient algebra has basis {1, X} with X^2 = 0; comultiplication
sends 1 to 1(x)X + X(x)1 and X to X(x)X.  A cube vertex with c circles
carries the c-fold tensor power: dimension 2^c, basis states indexed by
assigning 1 or X to each circle.  A merge edge acts by multiplication
on its two active circles, a split edge by comultiplication, and both
act as the identity on every spectator circle.  The algebra is not
tabulated: ``_edge_columns`` writes these rules straight into the
sparse columns of each edge block.

Basis order: circles in ascending label order, the first circle most
significant, and 1 before X in each factor.  So index 0 is all-1s and
for two circles the order is 1(x)1, 1(x)X, X(x)1, X(x)X.

Generators of the total complex are grouped by vertex, vertices sorted
by (weight, bitstring-as-integer).  The differential raises weight by
exactly one and is stored as one block per source weight, gathered
straight from the sparse columns of that weight's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import ConsistencyError, Merge, ResolutionCube, Split
from .f2linalg import F2Matrix
from .specseq import FilteredComplex

__all__ = [
    "VertexSpace",
    "ChainComplexF2",
    "assemble_complex",
]


@dataclass(frozen=True)
class VertexSpace:
    """Tensor power of the algebra over the circles of one vertex."""

    circles: tuple[int, ...]

    @property
    def dim(self) -> int:
        return 1 << len(self.circles)

    def bit_of(self, label: int) -> int:
        """Bit position of a circle inside a basis index."""
        j = self.circles.index(label)
        return len(self.circles) - 1 - j


@dataclass(frozen=True)
class _ColumnMap:
    """Sparse columns of an edge block: <= 2 output rows per input."""

    dim_in: int
    dim_out: int
    out_a: np.ndarray
    out_b: np.ndarray
    terms: np.ndarray  # 1 or 2 valid outputs per column; 0 = killed

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        cols = np.arange(self.dim_in, dtype=np.int64)
        first = self.terms >= 1
        second = self.terms >= 2
        ri = np.concatenate([self.out_a[first], self.out_b[second]])
        ci = np.concatenate([cols[first], cols[second]])
        return ri, ci


def _edge_columns(space_i: VertexSpace, space_j: VertexSpace, cob: Merge | Split) -> _ColumnMap:
    v = np.arange(space_i.dim, dtype=np.int64)
    if isinstance(cob, Merge):
        active_i = set(cob.sources)
        active_j = {cob.target}
    else:
        active_i = {cob.source}
        active_j = set(cob.targets)
    base = np.zeros(space_i.dim, dtype=np.int64)
    for label in space_i.circles:
        if label in active_i:
            continue
        bit_in = space_i.bit_of(label)
        bit_out = space_j.bit_of(label)
        base |= ((v >> bit_in) & 1) << bit_out

    if isinstance(cob, Merge):
        a, b = cob.sources
        va = (v >> space_i.bit_of(a)) & 1
        vb = (v >> space_i.bit_of(b)) & 1
        product = va | vb  # X absorbs; X.X handled by the kill mask
        out_a = base | (product << space_j.bit_of(cob.target))
        terms = np.where(va & vb, 0, 1).astype(np.int64)
        return _ColumnMap(space_i.dim, space_j.dim, out_a, out_a.copy(), terms)

    a, b = cob.targets
    vc = (v >> space_i.bit_of(cob.source)) & 1
    bit_a = space_j.bit_of(a)
    bit_b = space_j.bit_of(b)
    # 1 -> 1(x)X + X(x)1 gives two rows; X -> X(x)X gives one
    out_a = np.where(vc == 0, base | (1 << bit_b), base | (1 << bit_a) | (1 << bit_b))
    out_b = np.where(vc == 0, base | (1 << bit_a), out_a)
    terms = np.where(vc == 0, 2, 1).astype(np.int64)
    return _ColumnMap(space_i.dim, space_j.dim, out_a, out_b, terms)


def _compose_columns(first: _ColumnMap, second: _ColumnMap) -> tuple[np.ndarray, np.ndarray]:
    """COO of second∘first (entries appear with multiplicity; mod 2 later)."""
    ri_parts = []
    ci_parts = []
    cols = np.arange(first.dim_in, dtype=np.int64)
    for take_first, mid in ((1, first.out_a), (2, first.out_b)):
        alive = first.terms >= take_first
        mid_alive = mid[alive]
        col_alive = cols[alive]
        for take_second, out in ((1, second.out_a), (2, second.out_b)):
            alive2 = second.terms[mid_alive] >= take_second
            ri_parts.append(out[mid_alive[alive2]])
            ci_parts.append(col_alive[alive2])
    return np.concatenate(ri_parts), np.concatenate(ci_parts)


@dataclass(eq=False)
class ChainComplexF2:
    """Total cube complex: graded generator list plus the differential.

    offsets places each vertex inside its weight block; blocks are keyed
    (1, source weight) as in ``FilteredComplex.blocks``.
    """

    cube: ResolutionCube
    offsets: dict[int, int]
    spaces: dict[int, VertexSpace]
    weights: tuple[int, ...]
    blocks: dict[tuple[int, int], F2Matrix]

    @property
    def total_dim(self) -> int:
        return len(self.weights)

    def to_filtered(self) -> FilteredComplex:
        return FilteredComplex(self.weights, self.blocks)


def assemble_complex(cube: ResolutionCube, check_faces: bool = True) -> ChainComplexF2:
    """Glue the edge blocks into one block per source weight.

    With check_faces every square of the cube is verified to commute
    before the blocks are trusted; a failure raises ConsistencyError
    since it can only come from a convention bug, never from input.
    """
    order = sorted(cube.vertices, key=lambda v: (cube.weight(v), v))
    spaces = {v: VertexSpace(cube.vertices[v].circles) for v in order}
    offsets = {}
    weights = []
    size: dict[int, int] = {}
    for v in order:
        w = cube.weight(v)
        offsets[v] = size.get(w, 0)
        size[w] = offsets[v] + spaces[v].dim
        weights.extend([w] * spaces[v].dim)

    columns = {}
    for i_vertex, j_vertex in cube.edge_pairs():
        columns[(i_vertex, j_vertex)] = _edge_columns(
            spaces[i_vertex], spaces[j_vertex], cube.edges[(i_vertex, j_vertex)]
        )

    if check_faces:
        _check_faces(cube, spaces, columns)

    coo: dict[int, tuple[list, list]] = {}
    for (i_vertex, j_vertex), cmap in columns.items():
        ri, ci = cmap.coo()
        ri_w, ci_w = coo.setdefault(cube.weight(i_vertex), ([], []))
        ri_w.append(ri + offsets[j_vertex])
        ci_w.append(ci + offsets[i_vertex])
    blocks = {
        (1, w): F2Matrix.from_coo(size[w + 1], size[w], np.concatenate(ri), np.concatenate(ci))
        for w, (ri, ci) in sorted(coo.items())
    }
    return ChainComplexF2(cube, offsets, spaces, tuple(weights), blocks)


def _check_faces(cube: ResolutionCube, spaces, columns) -> None:
    n = cube.n
    for i_vertex in cube.vertices:
        clear = [a for a in range(n) if not i_vertex >> a & 1]
        for ai in range(len(clear)):
            for bi in range(ai + 1, len(clear)):
                a, b = clear[ai], clear[bi]
                ja = i_vertex | (1 << a)
                jb = i_vertex | (1 << b)
                k_vertex = ja | jb
                r1, c1 = _compose_columns(columns[(i_vertex, ja)], columns[(ja, k_vertex)])
                r2, c2 = _compose_columns(columns[(i_vertex, jb)], columns[(jb, k_vertex)])
                # the two compositions agree mod 2 iff every entry occurs evenly often
                keys = np.concatenate([r1, r2]) * spaces[i_vertex].dim + np.concatenate([c1, c2])
                if (np.bincount(keys) & 1).any():
                    raise ConsistencyError(
                        f"face at vertex {cube.bitstring(i_vertex)} axes {a},{b} does not commute"
                    )
