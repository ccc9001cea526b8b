"""Two-dimensional mod-2 Frobenius calculus on the resolution cube.

The coefficient algebra has basis {1, X} with X^2 = 0; comultiplication
sends 1 to 1(x)X + X(x)1 and X to X(x)X.  A cube vertex with c circles
carries the c-fold tensor power: dimension 2^c, basis states indexed by
assigning 1 or X to each circle.  A merge edge acts by multiplication
on its two active circles, a split edge by comultiplication, and both
act as the identity on every spectator circle.  ``_shape_columns`` writes
these rules as the entries of an edge block, at most two per column.
Those entries depend only on the edge's shape: merge or split, the source
circle count, and the bits of its active circles, which the cube holds
per edge.  Assembly packs each edge's shape into one integer key and
tabulates each distinct key once; the tables live for one assembly.

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

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import specseq
from .cube import MAX_BLOCK_BYTES, ConsistencyError, ResolutionCube, _assembly_bytes
from .f2linalg import F2Coo
from .specseq import FilteredComplex

__all__ = [
    "ChainComplexF2",
    "assemble_complex",
]


def _shape_columns(merge: bool, count: int, bits_in: tuple[int, ...], bits_out: tuple[int, ...]):
    """The (row, column) entries of every edge of one shape: a merge or a
    split out of count circles, whose active circles sit at bits_in of the
    source index and at bits_out of the target index.  Circles are in
    ascending label order, so the spectators keep their relative order and
    fill the other bits in turn.

    ``_edge_tables`` calls it once per distinct shape of an assembly, so a
    table lives as long as that assembly; its arrays are read-only, since
    every edge of the shape shares them.
    """
    count_out = count - 1 if merge else count + 1
    # each circle's bit moves to its bit in the target: the spectators in turn, a merge's two active
    # circles both to its target (OR, as X absorbs), a split's to its first; one mask per shift
    spectators_out = (b for b in range(count_out) if b not in bits_out)
    moves = {}
    for bit_in in range(count):
        bit_out = bits_out[0] if bit_in in bits_in else next(spectators_out)
        moves[bit_out - bit_in] = moves.get(bit_out - bit_in, 0) | 1 << bit_in
    v = np.arange(1 << count, dtype=np.int64)
    ri = None
    for shift, mask in moves.items():
        part = v & mask
        part = part << shift if shift >= 0 else part >> -shift
        ri = part if ri is None else ri | part

    if merge:
        both = (1 << bits_in[0]) | (1 << bits_in[1])
        ci = ((v & both) != both).nonzero()[0]  # X.X = 0
        ri = ri[ci]
    else:
        # X -> X(x)X in every column, and 1 -> 1(x)X + X(x)1 gives a second row
        ri |= 1 << bits_out[1]
        one = (v & 1 << bits_in[0] == 0).nonzero()[0]
        ri = np.concatenate([ri, ri[one] ^ (1 << bits_out[0] | 1 << bits_out[1])])
        ci = np.concatenate([v, one])
    ri.flags.writeable = ci.flags.writeable = False
    return ri, ci


@dataclass(eq=False)
class ChainComplexF2:
    """Total cube complex: the filtered complex and where its generators sit in the cube.

    offsets[v] places vertex v inside its weight block.  filtered holds the
    generator weights, the blocks keyed (1, source weight), each
    generator's quantum grading q, which every block preserves, and the
    mark of the generators whose circle 0 carries X.
    """

    cube: ResolutionCube
    offsets: np.ndarray
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
    arithmetic that makes them, later q, the mark and the weights) and 10 per
    generator and cube axis, under the 13 that ``_assembly_bytes`` counts.
    The shape tables have at most 1.5 entries per column (a split's column
    with 1 on the split circle has two, a merge's at most one), a row and a
    column index each, and every distinct table serves an edge of as many
    columns: 3 per generator and axis, held twice while they are laid end to
    end, then once.  For one source weight at a time, with E its generators
    times the axes, the gather holds at most 4 arrays of its 1.5 E entries
    (the index into the laid tables, the rows, the columns and one repeated
    offset), then the q test and ``F2Coo`` 2 more beside the rows and
    columns: 6 E.  Each edge's weight, offsets and table, 4 int64, add at
    most 1 more, since a vertex has 2 generators or more and N / 2
    edges out.  Sizes come from the circle counts alone, in Python ints, as
    a count can pass 63, so nothing per generator is allocated.
    """
    low, top = int(cube.weights.min()), int(cube.counts.max()) + 1
    pairs = np.bincount((cube.weights - low) * top + cube.counts)  # vertices per (weight, circle count)
    size = Counter()  # generators per weight
    for k in np.flatnonzero(pairs).tolist():
        size[low + k // top] += int(pairs[k]) << k % top
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


def _edge_tables(cube: ResolutionCube) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The distinct shape tables, one ``_shape_columns`` call each, and per
    edge in the cube's order its (source, target, index of its table).  An
    edge's shape is packed into one int64, a byte a field: merge, the
    source's circle count (the spectators and at most 4N nodes, under 256
    within the guard of ``build_cube``) and the three bits of edge_bits."""
    key = cube.edge_merges.astype(np.int64) << 8 | cube.counts[cube.edge_sources]
    for b in cube.edge_bits.T:
        key = key << 8 | b
    keys, table = np.unique(key, return_inverse=True)
    tables = []
    for key in keys.tolist():
        merge, count, *bits = (key >> s & 255 for s in (32, 24, 16, 8, 0))
        cut = 2 if merge else 1  # a merge has two circles in, a split one
        tables.append(_shape_columns(bool(merge), count, tuple(bits[:cut]), tuple(bits[cut:])))
    return tables, np.array([cube.edge_sources, cube.edge_targets, table.ravel()]).T


def _weight_blocks(cube, offsets, low, size, q) -> tuple[dict, tuple[int, int] | None]:
    """The (1, w) blocks, as their entries, and the (source, target)
    generators of the entry moving q with the lowest source, then the lowest
    target.  The edges' tables are laid end to end, and each block's entries
    are gathered from them with one index, one source weight at a time."""
    tables, edges = _edge_tables(cube)
    blocks, moved = {}, None
    if not tables:
        return blocks, moved
    nnz = np.array([ri.size for ri, _ in tables])
    first = np.cumsum(nnz) - nnz  # where each table's entries start, end to end
    rows, cols = (np.concatenate(arrays) for arrays in zip(*tables))
    del tables  # the laid copies are all that is read from here on
    # weight, offsets and table per edge, from (source, target, table)
    edges = np.array([cube.weights[edges[:, 0]], offsets[edges[:, 0]], offsets[edges[:, 1]], edges[:, 2]]).T
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
    order = np.argsort(cube.weights, kind="stable")  # by weight, then vertex
    weights, dims = cube.weights[order], 1 << cube.counts[order]
    starts = np.concatenate([[0], np.cumsum(dims)])  # vertex order[k] holds generators [starts[k], starts[k + 1])
    # vertices per weight, from vertex 0's, the lowest: every weight up to N more has some
    per = np.bincount(weights - weights[0])
    first = np.cumsum(per) - per
    values = range(int(weights[0]), int(weights[0]) + per.size)
    low = dict(zip(values, starts[first].tolist()))
    size = dict(zip(values, (starts[first + per] - starts[first]).tolist()))
    offsets = np.empty_like(dims)
    offsets[order] = starts[:-1] - np.repeat(starts[first], per)  # each vertex's start inside its weight block
    local = np.arange(starts[-1])
    local -= np.repeat(starts[:-1], dims)
    # circle 0 is the top bit of a local index: X there in the upper half of each vertex
    mark = local >= np.repeat(dims // 2, dims)
    # q = c - 2 #X + weight; index bit 1 is X, so a local index's popcount counts the X factors
    q = np.repeat(cube.counts[order] + weights, dims) - 2 * np.bitwise_count(local)
    del local  # before the blocks are gathered

    blocks, moved = _weight_blocks(cube, offsets, low, size, q)
    # the weights go in as an iterator, so only the complex's own tuple holds them
    fc = FilteredComplex(chain.from_iterable(map(repeat, weights.tolist(), dims.tolist())), blocks, q, mark)

    def vertex_at(g: int) -> int:
        return int(order[np.searchsorted(starts, g, side="right") - 1])

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
