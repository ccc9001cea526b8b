"""Two-dimensional mod-2 Frobenius calculus on the resolution cube.

The coefficient algebra has basis {1, X} with X^2 = 0; comultiplication
sends 1 to 1(x)X + X(x)1 and X to X(x)X.  A cube vertex with c circles
carries the c-fold tensor power: dimension 2^c, basis states indexed by
assigning 1 or X to each circle.  A merge edge acts by multiplication
on its two active circles, a split edge by comultiplication, and both
act as the identity on every spectator circle.  ``_edge_columns`` writes
these rules into the sparse columns of each edge block.  Those columns
depend only on the edge's shape, so they are tabulated once per shape,
in a memo that lives for one assembly.

Basis order: circles in ascending label order, the first circle most
significant, and 1 before X in each factor.  So index 0 is all-1s and
for two circles the order is 1(x)1, 1(x)X, X(x)1, X(x)X.

Generators of the total complex are grouped by vertex, vertices sorted
by (weight, bitstring-as-integer).  The differential raises weight by
exactly one and is stored as one block per source weight, the block's
entries (an ``F2Coo``) gathered straight from the shape tables of the
edges out of that weight; assembly builds no dense matrix.  It preserves
Khovanov's q = #1 - #X + weight.

Circle 0 holds segment 0, so every vertex has it, as its first circle:
it is the top bit of every local index.  The generators whose circle 0
carries X, the upper half of each vertex, span the reduced subcomplex C~
(a merge keeps X on the merged circle, a split sends X to X(x)X), and
assembly marks them for ``specseq``, which ranks d_1 on C~ alone.

Over GF(2) there are no signs, and D is the sum of its parts D_a on the
edges along each axis a.  So the part of D∘D from v to v + e_a + e_b is
D_b∘D_a + D_a∘D_b there, the commutator of the face (v; a, b), and
D_a∘D_a = 0 since no edge sets a bit twice: D∘D = 0 says exactly that
every face of the cube commutes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, repeat

import numpy as np

from . import specseq
from .cube import MAX_BLOCK_BYTES, ConsistencyError, Merge, ResolutionCube, Split, _assembly_bytes
from .f2linalg import F2Coo
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


def _edge_columns(space_i: VertexSpace, space_j: VertexSpace, cob: Merge | Split, shape_columns=None) -> _ColumnMap:
    """The sparse columns of one edge block: the read-only table of its shape,
    from shape_columns, an assembly's memo of ``_shape_columns``, when given."""
    merge = isinstance(cob, Merge)
    active_in, active_out = (cob.sources, (cob.target,)) if merge else ((cob.source,), cob.targets)
    bits_in, bits_out = tuple(map(space_i.bit_of, active_in)), tuple(map(space_j.bit_of, active_out))
    return (shape_columns or _shape_columns)(merge, len(space_i.circles), bits_in, bits_out)


def _shape_columns(merge: bool, count: int, bits_in: tuple[int, ...], bits_out: tuple[int, ...]) -> _ColumnMap:
    """Columns of every edge of one shape: a merge or a split out of count
    circles, whose active circles sit at bits_in of the source index and at
    bits_out of the target index.  Circles are in ascending label order, so
    the spectators keep their relative order and fill the other bits in turn.

    ``_weight_blocks`` memoizes it for one assembly, so a table lives as long
    as that assembly; its arrays are read-only, since every edge of the shape
    shares them.
    """
    count_out = count - 1 if merge else count + 1
    v = np.arange(1 << count, dtype=np.int64)
    base = np.zeros(1 << count, dtype=np.int64)
    spectators_in = (b for b in range(count) if b not in bits_in)
    spectators_out = (b for b in range(count_out) if b not in bits_out)
    for bit_in, bit_out in zip(spectators_in, spectators_out):
        base |= ((v >> bit_in) & 1) << bit_out

    if merge:
        va, vb = ((v >> b) & 1 for b in bits_in)
        product = va | vb  # X absorbs; X.X handled by the kill mask
        out_a = out_b = base | (product << bits_out[0])
        terms = np.where(va & vb, 0, 1).astype(np.int64)
    else:
        vc = (v >> bits_in[0]) & 1
        bit_a, bit_b = bits_out
        # 1 -> 1(x)X + X(x)1 gives two rows; X -> X(x)X gives one
        out_a = np.where(vc == 0, base | (1 << bit_b), base | (1 << bit_a) | (1 << bit_b))
        out_b = np.where(vc == 0, base | (1 << bit_a), out_a)
        terms = np.where(vc == 0, 2, 1).astype(np.int64)
    for arr in (out_a, out_b, terms):
        arr.flags.writeable = False
    return _ColumnMap(1 << count, 1 << count_out, out_a, out_b, terms)


@dataclass(eq=False)
class ChainComplexF2:
    """Total cube complex: the filtered complex and where its generators sit in the cube.

    offsets places each vertex inside its weight block.  filtered holds the
    generator weights, the blocks keyed (1, source weight), each
    generator's quantum grading q, which every block preserves, and the
    mark of the generators whose circle 0 carries X.
    """

    cube: ResolutionCube
    offsets: dict[int, int]
    spaces: dict[int, VertexSpace]
    filtered: FilteredComplex

    def to_filtered(self) -> FilteredComplex:
        return self.filtered


def _check_block_bytes(cube: ResolutionCube) -> None:
    """Refuse a cube whose largest (1, w) block, sized as if dense (which
    over-counts: no block is made dense any more), or whose int64 arrays held
    at once in assembly, exceed MAX_BLOCK_BYTES.

    Assembly holds at most 4 int64 per generator (q, the mark and the index
    arithmetic that makes them, later q, the mark and the weights) and 13 per
    generator and cube axis: the shape tables laid end to end (3 arrays,
    each table once), then, for one source weight at a time with E its
    generators times the axes, at most 8.75 E: the gather's 4 arrays and 2
    masks of E entries while it makes the COO (1.5 E entries, as only a
    split's column with 1 on the split circle has two, a row and a column
    index each) and one copy of an index; later the COO and the three copies
    the q test and ``F2Coo`` make of an index (7.5 E).  Sizes
    come from the circle counts alone, so nothing is allocated.
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
    nbytes = _assembly_bytes(n, cube.n)
    if nbytes > MAX_BLOCK_BYTES:
        raise ValueError(
            f"the arrays of {n} generators need {nbytes / 2**20:.0f} MiB, "
            f"over the limit of {MAX_BLOCK_BYTES >> 20} MiB"
        )


def _weight_blocks(cube, spaces, start, low, size, q) -> tuple[dict, tuple[int, int] | None]:
    """The (1, w) blocks, as their entries, and the (source, target)
    generators of the first entry moving q.  The edges' tables are laid end
    to end, and each block's entries are gathered straight from them, one
    source weight at a time."""
    tables, index, edges = [], {}, []  # distinct tables; id -> position; axis, weight, starts and table per edge
    shape_columns = cache(_shape_columns)  # this assembly's tables, one per shape
    for (i_vertex, j_vertex), cob in cube.edges.items():
        cmap = _edge_columns(spaces[i_vertex], spaces[j_vertex], cob, shape_columns)
        if id(cmap) not in index:
            index[id(cmap)] = len(tables)
            tables.append(cmap)
        axis = (i_vertex ^ j_vertex).bit_length() - 1
        edges += axis, cube.weight(i_vertex), start[i_vertex], start[j_vertex], index[id(cmap)]
    blocks, moved = {}, None
    if not tables:
        return blocks, moved
    edges = np.array(edges).reshape(-1, 5)
    # by axis, then source: each block's entries come by axis, then by source column
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    width = np.array([cmap.dim_in for cmap in tables])
    first = np.cumsum(width) - width  # where each table starts, end to end
    out_a, out_b, terms = (np.concatenate([getattr(cmap, name) for cmap in tables]) for name in ("out_a", "out_b", "terms"))
    for w in sorted(size)[:-1]:  # every weight below the top has edges out
        lo, t_lo = low[w], low[w + 1]
        _, _, start_i, start_j, table = edges[edges[:, 1] == w].T
        cols = width[table]
        # each edge's columns in turn: where they sit in the laid tables, then in the block
        rows = np.arange(cols.sum()) + np.repeat(first[table] - (np.cumsum(cols) - cols), cols)
        ci = rows + np.repeat(start_i - lo - first[table], cols)
        shift = np.repeat(start_j, cols)
        k = terms[rows]
        one, two = k >= 1, k >= 2
        ri = np.concatenate([out_a[rows[one]] + shift[one], out_b[rows[two]] + shift[two]])
        ci = np.concatenate([ci[one], ci[two]])
        del rows, shift, k, one, two
        bad = np.flatnonzero(q[ri] != q[ci + lo])
        if bad.size and moved is None:
            e = bad[np.argmin(ci[bad])]
            moved = (lo + int(ci[e]), int(ri[e]))
        blocks[(1, w)] = F2Coo(size[w + 1], size[w], ri - t_lo, ci)
    return blocks, moved


def assemble_complex(cube: ResolutionCube, check_faces: bool = True) -> ChainComplexF2:
    """Glue the edge blocks into one block per source weight.

    The part of D∘D from v to v + e_a + e_b is the commutator of the face
    (v; a, b), and D_a∘D_a = 0.  So with check_faces, squaring D once
    (``specseq.verify_d_squared``, kept on the complex for compute_pages)
    checks every face.  The face named sits at the vertex v of the lowest
    failing generator in generator order (weight, then vertex as an
    integer), on the two axes of v XOR u, where u is the vertex of the
    lowest generator in that generator's image.  Every entry must also keep
    q; faces are reported first.  A failure raises ConsistencyError since it
    can only come from a convention bug, never from input.  A cube whose
    largest block or arrays would exceed ``MAX_BLOCK_BYTES`` is refused with
    ValueError before any array is allocated.
    """
    _check_block_bytes(cube)
    order = sorted(cube.vertices, key=lambda v: (cube.weight(v), v))
    spaces = {v: VertexSpace(cube.vertices[v].circles) for v in order}
    dims = [spaces[v].dim for v in order]
    starts = [0, *accumulate(dims)]  # vertex order[k] holds generators [starts[k], starts[k + 1])
    start = dict(zip(order, starts))
    n, size, low = starts[-1], Counter(), {}
    for v in order:
        size[cube.weight(v)] += spaces[v].dim
        low.setdefault(cube.weight(v), start[v])
    offsets = {v: start[v] - low[cube.weight(v)] for v in order}
    local = np.arange(n)
    local -= np.repeat(starts[:-1], dims)
    # circle 0 is the top bit of a local index: X there in the upper half of each vertex
    mark = local >= np.repeat([d // 2 for d in dims], dims)
    # q = c - 2 #X + weight; index bit 1 is X, so a local index's popcount counts the X factors
    base = [len(spaces[v].circles) + cube.weight(v) for v in order]
    q = np.repeat(base, dims) - 2 * np.bitwise_count(local)
    del local  # before the blocks are gathered

    blocks, moved = _weight_blocks(cube, spaces, start, low, size, q)
    # the weights go in as an iterator, so only the complex's own tuple holds them
    weights = chain.from_iterable(repeat(cube.weight(v), d) for v, d in zip(order, dims))
    fc = FilteredComplex(weights, blocks, q, mark)

    def vertex_at(g: int) -> int:
        return order[bisect_right(starts, g) - 1]

    if check_faces:
        report = specseq.verify_d_squared(fc)  # through the module, where perfbench/spans.py times it
        if not report.ok:
            v = vertex_at(report.witness)
            u = vertex_at((report.image & -report.image).bit_length() - 1)
            a, b = (k for k in range(cube.n) if (u ^ v) >> k & 1)
            raise ConsistencyError(f"face at vertex {cube.bitstring(v)} axes {a},{b} does not commute")
    if moved is not None:
        g, t = moved
        i, j = cube.bitstring(vertex_at(g)), cube.bitstring(vertex_at(t))
        raise ConsistencyError(f"edge {i}->{j} does not preserve q at generator {g}")
    return ChainComplexF2(cube, offsets, spaces, fc)
