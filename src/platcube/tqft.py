"""Two-dimensional mod-2 Frobenius calculus on the resolution cube.

The coefficient algebra has basis {1, X} with X^2 = 0; comultiplication
sends 1 to 1(x)X + X(x)1 and X to X(x)X.  A cube vertex with c circles
carries the c-fold tensor power: dimension 2^c, basis states indexed by
assigning 1 or X to each circle.  A merge edge acts by multiplication
on its two active circles, a split edge by comultiplication, and both
act as the identity on every spectator circle.  ``_edge_columns`` writes
these rules as the entries of each edge block, at most two per column.
Those entries depend only on the edge's shape, so they are tabulated once
per shape, in a memo that lives for one assembly.

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
from .cube import MAX_BLOCK_BYTES, ConsistencyError, CubeVertex, Merge, ResolutionCube, Split, _assembly_bytes
from .f2linalg import F2Coo
from .specseq import FilteredComplex

__all__ = [
    "ChainComplexF2",
    "assemble_complex",
]


def _edge_columns(vertex_i: CubeVertex, vertex_j: CubeVertex, cob: Merge | Split, shape_columns=None):
    """The (row, column) entries of one edge block: the read-only table of
    its shape, from shape_columns, an assembly's memo of ``_shape_columns``,
    when given.  A circle's bit in a basis index counts from the last circle."""
    merge = isinstance(cob, Merge)
    active_in, active_out = (cob.sources, (cob.target,)) if merge else ((cob.source,), cob.targets)
    bits_in = tuple(vertex_i.count - 1 - vertex_i.circles.index(c) for c in active_in)
    bits_out = tuple(vertex_j.count - 1 - vertex_j.circles.index(c) for c in active_out)
    return (shape_columns or _shape_columns)(merge, vertex_i.count, bits_in, bits_out)


def _shape_columns(merge: bool, count: int, bits_in: tuple[int, ...], bits_out: tuple[int, ...]):
    """The (row, column) entries of every edge of one shape: a merge or a
    split out of count circles, whose active circles sit at bits_in of the
    source index and at bits_out of the target index.  Circles are in
    ascending label order, so the spectators keep their relative order and
    fill the other bits in turn.

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
        ci = np.flatnonzero((va & vb) == 0)  # X.X = 0; otherwise X absorbs
        ri = (base | ((va | vb) << bits_out[0]))[ci]
    else:
        vc = (v >> bits_in[0]) & 1
        one = np.flatnonzero(vc == 0)
        bit_a, bit_b = bits_out
        # X -> X(x)X in every column, and 1 -> 1(x)X + X(x)1 gives a second row
        ri = np.concatenate([base | (vc << bit_a) | (1 << bit_b), base[one] | (1 << bit_a)])
        ci = np.concatenate([v, one])
    for arr in (ri, ci):
        arr.flags.writeable = False
    return ri, ci


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
    filtered: FilteredComplex

    def to_filtered(self) -> FilteredComplex:
        return self.filtered


def _check_block_bytes(cube: ResolutionCube) -> None:
    """Refuse a cube whose largest (1, w) block, sized as if dense, or whose
    int64 arrays held at once in assembly, exceed MAX_BLOCK_BYTES.

    A cube's own run cuts a block whole only if it is at most 64 columns
    wide, but ``specseq`` squares D in one grade, every block cut whole, once
    a higher-maps table adds an entry that moves q: the dense size is what
    bounds that check.

    Assembly holds at most 4 int64 per generator (q, the mark and the index
    arithmetic that makes them, later q, the mark and the weights) and 9 per
    generator and cube axis, under the 13 that ``_assembly_bytes`` counts.
    The shape tables have at most 1.5 entries per column (a split's column
    with 1 on the split circle has two, a merge's at most one), a row and a
    column index each, and every distinct table serves an edge of as many
    columns: 3 per generator and axis, held twice while they are laid end to
    end, then once.  For one source weight at a time, with E its generators
    times the axes, the gather holds at most 4 arrays of its 1.5 E entries
    (the index into the laid tables, the rows, the columns and one repeated
    offset), then the q test and ``F2Coo`` 2 more beside the rows and
    columns: 6 E.  Sizes come from the circle counts alone, so nothing is
    allocated.
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


def _weight_blocks(cube, offsets, low, size, q) -> tuple[dict, tuple[int, int] | None]:
    """The (1, w) blocks, as their entries, and the (source, target)
    generators of the entry moving q with the lowest source, then the lowest
    target.  The edges' tables are laid end to end, and each block's entries
    are gathered from them with one index, one source weight at a time."""
    tables, index, edges = [], {}, []  # distinct tables; id -> position; weight, offsets and table per edge
    shape_columns = cache(_shape_columns)  # this assembly's tables, one per shape
    for (i, j), cob in cube.edges.items():
        table = _edge_columns(cube.vertices[i], cube.vertices[j], cob, shape_columns)
        if id(table) not in index:
            index[id(table)] = len(tables)
            tables.append(table)
        edges += cube.weight(i), offsets[i], offsets[j], index[id(table)]
    blocks, moved = {}, None
    if not tables:
        return blocks, moved
    edges = np.array(edges).reshape(-1, 4)
    nnz = np.array([ri.size for ri, _ in tables])
    first = np.cumsum(nnz) - nnz  # where each table's entries start, end to end
    rows, cols = (np.concatenate(arrays) for arrays in zip(*tables))
    del tables, shape_columns  # the laid copies are all that is read from here on
    for w in sorted(size)[:-1]:  # every weight below the top has edges out
        _, off_i, off_j, table = edges[edges[:, 0] == w].T
        counts = nnz[table]
        at = np.repeat(first[table] - (np.cumsum(counts) - counts), counts)
        at += np.arange(at.size)  # each edge's entries in turn, where they sit in the laid tables
        ri, ci = rows[at], cols[at]
        del at
        ri += np.repeat(off_j, counts)
        ci += np.repeat(off_i, counts)
        lo, t_lo = low[w], low[w + 1]
        bad = np.flatnonzero(q[t_lo:][ri] != q[lo:][ci])
        if bad.size and moved is None:
            e = bad[np.lexsort((ri[bad], ci[bad]))[0]]
            moved = (lo + int(ci[e]), t_lo + int(ri[e]))
        blocks[(1, w)] = F2Coo(size[w + 1], size[w], ri, ci)
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
    dims = [1 << cube.vertices[v].count for v in order]
    starts = [0, *accumulate(dims)]  # vertex order[k] holds generators [starts[k], starts[k + 1])
    n, size, low, offsets = starts[-1], Counter(), {}, {}
    for v, start, dim in zip(order, starts, dims):
        w = cube.weight(v)
        low.setdefault(w, start)
        offsets[v] = start - low[w]
        size[w] += dim
    local = np.arange(n)
    local -= np.repeat(starts[:-1], dims)
    # circle 0 is the top bit of a local index: X there in the upper half of each vertex
    mark = local >= np.repeat([d // 2 for d in dims], dims)
    # q = c - 2 #X + weight; index bit 1 is X, so a local index's popcount counts the X factors
    base = [cube.vertices[v].count + cube.weight(v) for v in order]
    q = np.repeat(base, dims) - 2 * np.bitwise_count(local)
    del local  # before the blocks are gathered

    blocks, moved = _weight_blocks(cube, offsets, low, size, q)
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
    return ChainComplexF2(cube, offsets, fc)
