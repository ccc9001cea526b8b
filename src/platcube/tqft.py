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
straight from the sparse columns of the edges, laid out as one column
map per cube axis.  It preserves Khovanov's q = #1 - #X + weight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cube import MAX_BLOCK_BYTES, ConsistencyError, Merge, ResolutionCube, Split
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
    """Sparse columns of an edge block or a cube axis: <= 2 output rows per input."""

    dim_in: int
    dim_out: int
    out_a: np.ndarray
    out_b: np.ndarray
    terms: np.ndarray  # 1 or 2 valid outputs per column; 0 = killed

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, columns) of the entries; a stack of maps has columns on its last axis."""
        first = self.terms >= 1
        second = self.terms >= 2
        ri = np.concatenate([self.out_a[first], self.out_b[second]])
        ci = np.concatenate([np.nonzero(first)[-1], np.nonzero(second)[-1]])
        return ri, ci


def _edge_columns(space_i: VertexSpace, space_j: VertexSpace, cob: Merge | Split) -> _ColumnMap:
    v = np.arange(space_i.dim, dtype=np.int64)
    active = set(cob.sources) if isinstance(cob, Merge) else {cob.source}
    base = np.zeros(space_i.dim, dtype=np.int64)
    for label in space_i.circles:
        if label in active:
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
    ri_parts, ci_parts = [], []
    for take_first, mid in ((1, first.out_a), (2, first.out_b)):
        cols = np.flatnonzero(first.terms >= take_first)
        for take_second, out in ((1, second.out_a), (2, second.out_b)):
            live = cols[second.terms[mid[cols]] >= take_second]
            ri_parts.append(out[mid[live]])
            ci_parts.append(live)
    return np.concatenate(ri_parts), np.concatenate(ci_parts)


@dataclass(eq=False)
class ChainComplexF2:
    """Total cube complex: graded generator list plus the differential.

    offsets places each vertex inside its weight block; blocks are keyed
    (1, source weight) as in ``FilteredComplex.blocks``; q holds each
    generator's quantum grading, which every block preserves.
    """

    cube: ResolutionCube
    offsets: dict[int, int]
    spaces: dict[int, VertexSpace]
    weights: tuple[int, ...]
    blocks: dict[tuple[int, int], F2Matrix]
    q: np.ndarray

    @property
    def total_dim(self) -> int:
        return len(self.weights)

    def to_filtered(self) -> FilteredComplex:
        return FilteredComplex(self.weights, self.blocks, self.q)


def _check_block_bytes(cube: ResolutionCube) -> None:
    """Refuse a cube whose largest dense (1, w) block or int64 column map exceeds MAX_BLOCK_BYTES.

    A column map holds one int64 per generator and cube axis, or per
    generator on a cube without axes.  Sizes come from the circle counts
    alone, so nothing is allocated.
    """
    size = Counter()  # generators per weight
    for v, vertex in cube.vertices.items():
        size[cube.weight(v)] += 1 << vertex.count
    nbytes, w = max((size[w + 1] * 8 * -(-size[w] // 64), w) for w in size)
    if nbytes > MAX_BLOCK_BYTES:
        raise ValueError(
            f"the differential block out of weight {w} needs {nbytes / 2**20:.0f} MiB, "
            f"over the limit of {MAX_BLOCK_BYTES >> 20} MiB"
        )
    n = sum(size.values())
    nbytes = 8 * n * max(cube.n, 1)
    if nbytes > MAX_BLOCK_BYTES:
        raise ValueError(
            f"the column maps of {n} generators need {nbytes / 2**20:.0f} MiB, "
            f"over the limit of {MAX_BLOCK_BYTES >> 20} MiB"
        )


def assemble_complex(cube: ResolutionCube, check_faces: bool = True) -> ChainComplexF2:
    """Glue the edge blocks into one block per source weight.

    The edges along cube axis a form one column map D_a on all generators.
    With check_faces every square of the cube is verified to commute before
    the blocks are trusted, as D_b∘D_a = D_a∘D_b per axis pair a < b: faces
    at different vertices have different source columns.  Every entry must
    also keep q.  A failure raises ConsistencyError since it can only come
    from a convention bug, never from input.  A cube whose largest block or
    column map would exceed ``MAX_BLOCK_BYTES`` is refused with ValueError
    before any array is allocated.
    """
    _check_block_bytes(cube)
    order = sorted(cube.vertices, key=lambda v: (cube.weight(v), v))
    spaces = {v: VertexSpace(cube.vertices[v].circles) for v in order}
    dims = [spaces[v].dim for v in order]
    starts = np.cumsum([0, *dims[:-1]])
    start = dict(zip(order, starts.tolist()))  # each vertex's first global generator
    weights = np.repeat([cube.weight(v) for v in order], dims)
    values, lows, counts = (a.tolist() for a in np.unique(weights, return_index=True, return_counts=True))
    low, size = dict(zip(values, lows)), dict(zip(values, counts))
    offsets = {v: start[v] - low[cube.weight(v)] for v in order}
    vertex_of, n = np.repeat(order, dims), weights.size
    # q = c - 2 #X + weight; index bit 1 is X, so a local index's popcount counts the X factors
    x_count = np.bitwise_count(np.arange(n) - np.repeat(starts, dims)).astype(np.int64)
    q = np.repeat([len(spaces[v].circles) for v in order], dims) - 2 * x_count + weights

    out_a, out_b, terms = (np.zeros((cube.n, n), dtype=np.int64) for _ in range(3))
    for i_vertex, j_vertex in cube.edge_pairs():
        cmap = _edge_columns(spaces[i_vertex], spaces[j_vertex], cube.edges[(i_vertex, j_vertex)])
        a = (i_vertex ^ j_vertex).bit_length() - 1
        cols = slice(start[i_vertex], start[i_vertex] + cmap.dim_in)
        out_a[a, cols] = cmap.out_a + start[j_vertex]
        out_b[a, cols] = cmap.out_b + start[j_vertex]
        terms[a, cols] = cmap.terms
    axes = [_ColumnMap(n, n, out_a[a], out_b[a], terms[a]) for a in range(cube.n)]

    if check_faces:
        _check_faces(cube, axes, vertex_of)

    ri, ci = _ColumnMap(n, n, out_a, out_b, terms).coo()  # all axes at once: D is their sum
    moved = np.flatnonzero(q[ri] != q[ci])
    if moved.size:
        e = moved[np.argmin(ci[moved])]
        i, j = cube.bitstring(int(vertex_of[ci[e]])), cube.bitstring(int(vertex_of[ri[e]]))
        raise ConsistencyError(f"edge {i}->{j} does not preserve q at generator {ci[e]}")
    blocks = {}
    for w in values[:-1]:  # every weight below the top has edges out
        sel = weights[ci] == w
        blocks[(1, w)] = F2Matrix.from_coo(size[w + 1], size[w], ri[sel] - low[w + 1], ci[sel] - low[w])
    return ChainComplexF2(cube, offsets, spaces, tuple(weights.tolist()), blocks, q)


def _check_faces(cube: ResolutionCube, axes: list[_ColumnMap], vertex_of: np.ndarray) -> None:
    n = vertex_of.size
    failing = []
    for a in range(cube.n):
        for b in range(a + 1, cube.n):
            r1, c1 = _compose_columns(axes[a], axes[b])
            r2, c2 = _compose_columns(axes[b], axes[a])
            # the two compositions agree mod 2 iff every entry occurs evenly often
            keys = np.sort(np.concatenate([r1, r2]) * n + np.concatenate([c1, c2]))
            if keys.size % 2 or (keys[0::2] != keys[1::2]).any():
                entries, counts = np.unique(keys, return_counts=True)
                failing.append((int(vertex_of[entries[counts % 2 == 1] % n].min()), a, b))
    if failing:
        v, a, b = min(failing)
        raise ConsistencyError(f"face at vertex {cube.bitstring(v)} axes {a},{b} does not commute")
