"""Resolution hypercube of a twisted plat closure.

Each letter of a braid word contributes one twist region; a twist is
resolved in two flat ways (straight strands or a cup-cap turnback), so
a word of length N yields 2^N crossingless diagrams, one per bitstring
I.  Vertices record the circles of the resolved diagram; edges record
whether flipping one bit merges two circles or splits one.

Sign bookkeeping: the braid letter (k, e) acts through the twist
(k, -e).  A twist of sign +1 resolves to the cup-cap at bit 0 and to
the identity at bit 1; a twist of sign -1 the other way around.  The
weight of a vertex is |I| - n_minus, with n_minus the number of
negative twists.

Circles are canonically labelled by their least segment id, where
segment (t, p) of strand position p in horizontal slice t has id
t * strands + p; slices run 0..N from just above the cups to just
below the caps.  The cups, the caps and the vertical joints beside each
twist are the same at every vertex, so they are joined once.  A component
of that forest that meets no twist port is a closed circle, a spectator at
every vertex; each other component becomes one node.  The vertices are
then resolved all at once, as a matrix of node labels with one column
each, doubled once per twist: one copy of the columns so far takes the
twist's joins at bit 0, by its two vertical joints (identity) or by its
cup and cap (cup-cap), the other its joins at bit 1.  The edges are then
classified together from each vertex's circles as a node mask.  Untouched
circles of adjacent vertices carry the same segment set, hence literally
the same label: an edge is a merge or a split when these spectators match
and its twist's four port segments lie on two circles on one side and on
one on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tangle import BraidWord, PlatClosure, _UnionFind

__all__ = [
    "IDENTITY",
    "CUPCAP",
    "TwistSequence",
    "braid_to_twists",
    "CubeVertex",
    "Merge",
    "Split",
    "ResolutionCube",
    "build_cube",
    "add_aux_unknot",
]

IDENTITY = "identity"
CUPCAP = "cupcap"

# build_cube resolves 2^N vertices as arrays: 16 twists take 0.23-0.28 s and a traced peak
# of 33 MiB on a 2-core box (68 MB for the whole refused run), each twist doubles both, and the
# complex (>= 2^(N+1) generators) is then far past what the block ranks reduce, so longer words
# are refused at once.
MAX_TWISTS = 16
_EDGE_SLICE = 1 << 16  # edges build_cube classifies together: their uint64 arrays stay a few MiB

# A (1, w) block of the differential held densely, one bit per entry, would need
# 213 MiB for the largest of 4-strand s2^11, 1.7 GiB at s2^12 and 1 GiB for one
# twist on 32 strands.  A cube's own run cuts its wider blocks one q-grade at a
# time, but a higher-maps table with an entry that moves q puts the d∘d check in
# one grade, and it cuts each whole block densely: the dense size bounds that check.
# The int64 arrays that assembly holds at once, counted per generator and cube
# axis, are refused above this limit too, all before anything is allocated.
MAX_BLOCK_BYTES = 512 << 20


def _assembly_bytes(generators: int, axes: int) -> int:
    """The int64 arrays assembly holds at once, 4 per generator and 13 per
    generator and cube axis (counted in ``tqft._check_block_bytes``)."""
    return 8 * generators * (4 + 13 * axes)


def resolve_twist(sign: int, bit: int) -> str:
    """Which flat shape a twist of the given sign takes at bit 0 / 1."""
    if sign not in (-1, 1):
        raise ValueError(f"twist sign must be +1 or -1, got {sign}")
    if bit not in (0, 1):
        raise ValueError(f"resolution bit must be 0 or 1, got {bit}")
    if sign == 1:
        return CUPCAP if bit == 0 else IDENTITY
    return IDENTITY if bit == 0 else CUPCAP


@dataclass(frozen=True)
class TwistSequence:
    """Ordered twist regions (position, sign), 1-based positions."""

    twists: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple((int(k), int(s)) for k, s in self.twists))
        for k, s in self.twists:
            if k < 1:
                raise ValueError(f"twist position {k} must be >= 1")
            if s not in (-1, 1):
                raise ValueError(f"twist sign must be +1 or -1, got {s}")

    def __len__(self) -> int:
        return len(self.twists)

    @cached_property
    def n_minus(self) -> int:
        return sum(1 for _, s in self.twists if s == -1)


def braid_to_twists(b: BraidWord) -> TwistSequence:
    """Letter (k, e) at position i becomes twist (k, -e) at position i."""
    return TwistSequence(tuple((k, -e) for k, e in b.letters))


@dataclass(frozen=True, slots=True)
class CubeVertex:
    """One resolved diagram: canonically labelled circles."""

    circles: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.circles)


@dataclass(frozen=True, slots=True)
class Merge:
    """Two circles fuse into one across the edge."""

    sources: tuple[int, int]
    target: int


@dataclass(frozen=True, slots=True)
class Split:
    """One circle divides into two across the edge."""

    source: int
    targets: tuple[int, int]


def _vertex_bits(n: int) -> np.ndarray:
    """The 2^n × n int32 matrix whose row v holds the bits of vertex v, bit 0 first."""
    return np.indices((2,) * n, dtype=np.int32).reshape(n, 1 << n)[::-1].T.copy()


@dataclass(frozen=True, eq=False)
class ResolutionCube:
    """The resolved cube as arrays.  Node k is the component of fixed arcs
    on a twist port whose least segment is touched[k]; bit k of masks[v] is
    set when it labels a circle of vertex v.  Edge e, by source and then
    axis, goes from edge_sources[e] to edge_targets[e] and is a merge if
    edge_merges[e]; edge_bits[e] are the bits of its active circles in the
    basis indices: a merge's sources, lower label first, and target, or a
    split's source and targets.  vertices and edges are built when read."""

    strands: int
    twists: TwistSequence
    plat: PlatClosure
    touched: tuple[int, ...]
    spectators: tuple[int, ...]
    masks: np.ndarray
    counts: np.ndarray
    weights: np.ndarray
    edge_sources: np.ndarray
    edge_targets: np.ndarray
    edge_merges: np.ndarray
    edge_bits: np.ndarray

    @property
    def n(self) -> int:
        return len(self.twists)

    @property
    def n_minus(self) -> int:
        return self.twists.n_minus

    def weight(self, vertex: int) -> int:
        return int(self.weights[vertex])

    def circle_count(self, vertex: int) -> int:
        return int(self.counts[vertex])

    def bitstring(self, vertex: int) -> str:
        return "".join("1" if vertex >> i & 1 else "0" for i in range(self.n))

    def bitstrings(self) -> list[str]:
        """Every vertex's bitstring, in vertex order."""
        if not self.n:
            return [""]
        return (_vertex_bits(self.n) | ord("0")).view(f"U{self.n}")[:, 0].tolist()

    @cached_property
    def vertices(self) -> dict[int, CubeVertex]:
        nodes = range(len(self.touched))
        return {
            v: CubeVertex(tuple(sorted([*self.spectators, *(self.touched[k] for k in nodes if mask >> k & 1)])))
            for v, mask in enumerate(self.masks.tolist())
        }

    @cached_property
    def edges(self) -> dict[tuple[int, int], Merge | Split]:
        edges = {}
        arrays = self.edge_sources, self.edge_targets, self.edge_merges, self.edge_bits
        for i, j, merge, (a, b, c) in zip(*(x.tolist() for x in arrays)):
            ci, cj = self.vertices[i].circles, self.vertices[j].circles  # bit b is circle ~b
            edges[(i, j)] = Merge((ci[~a], ci[~b]), cj[~c]) if merge else Split(ci[~a], (cj[~b], cj[~c]))
        return edges


class ConsistencyError(RuntimeError):
    """An internal invariant failed; signals a bug, not bad input."""


def _resolve(joins: np.ndarray, nodes: int) -> np.ndarray:
    """Column v holds, for each node, the least node on its circle at vertex
    v.  At twist t the columns so far, the vertices below 2^t, are doubled:
    rows 2k and 2k + 1 are node k at bit 0 and bit 1, and joins[t, j] are
    the rows of the ends of the j-th join.  A join relabels the higher of
    its ends' labels with the lower, so the order of the joins is free."""
    labels = np.array(range(nodes), dtype=np.int8)[:, None]
    for twist in joins:
        labels = np.concatenate([labels, labels], axis=1)
        rows, halves = labels.reshape(2 * nodes, -1), labels.reshape(nodes, 2, -1)
        for pair in twist:
            a, b = rows.take(pair, axis=0)
            np.copyto(halves, np.minimum(a, b), where=halves == np.maximum(a, b))
    return labels


def build_cube(
    ts: TwistSequence,
    strands: int,
    plat: PlatClosure | None = None,
    aux_unknot: bool = False,
) -> ResolutionCube:
    """Resolve every bitstring and classify every cube edge.

    With aux_unknot=True the final two strands must be untouched by the
    twists and closed into a free circle by both cups and caps.
    """
    if strands <= 0 or strands % 2:
        raise ValueError(f"strand count must be even and positive, got {strands}")
    if len(ts) > MAX_TWISTS:
        raise ValueError(f"{len(ts)} twists exceed the limit of {MAX_TWISTS}: the cube has 2^{len(ts)} vertices")
    for k, _ in ts.twists:
        if k > strands - 1:
            raise ValueError(f"twist position {k} out of range for {strands} strands")
    if plat is None:
        plat = PlatClosure.standard(strands)
    if plat.strands != strands:
        raise ValueError(f"plat closure is for {plat.strands} strands, cube for {strands}")
    if aux_unknot:
        free = (strands - 2, strands - 1)
        if any(k >= strands - 2 for k, _ in ts.twists):
            raise ValueError("auxiliary strands must not be touched by any twist")
        if free not in plat.cups or free not in plat.caps:
            raise ValueError("auxiliary strands must be closed into their own circle")

    n_twists, n = len(ts), strands
    fixed = _UnionFind((n_twists + 1) * n)
    for (a, b), (c, d) in zip(plat.cups, plat.caps):
        fixed.union(a, b)
        fixed.union(n_twists * n + c, n_twists * n + d)
    ports, joins = [], []  # per twist: its four port segments; its two joins at bit 0 and at bit 1
    for i, (k, s) in enumerate(ts.twists):
        below, above = i * n, (i + 1) * n
        for p in set(range(n)) - {k - 1, k}:
            fixed.union(below + p, above + p)
        sw, se, nw, ne = below + k - 1, below + k, above + k - 1, above + k
        ports.append((sw, se, nw, ne))
        shape = {IDENTITY: ((sw, nw), (se, ne)), CUPCAP: ((sw, se), (nw, ne))}
        joins.append(tuple(shape[resolve_twist(s, bit)] for bit in (0, 1)))
    # a component's label is its root, since union keeps the least id; find also flattens every path
    roots = {x for x in range(len(fixed.parent)) if fixed.find(x) == x}
    # node k is the component on a twist port labelled touched[k]; the others are the spectators
    touched = sorted({fixed.parent[p] for twist in ports for p in twist})
    spectators = sorted(roots.difference(touched))
    node = {r: k for k, r in enumerate(touched)}
    ports = np.array([node[fixed.parent[p]] for twist in ports for p in twist], dtype=np.intp).reshape(n_twists, 4)
    # joins[t, j, end, bit]: the row in _resolve of one end of twist t's j-th join at that bit
    joins = [
        2 * node[fixed.parent[twist[bit][j][end]]] + bit for twist in joins for j in (0, 1) for end in (0, 1) for bit in (0, 1)
    ]
    # each vertex has the F spectators and a circle on the ports: 2^(N + F + 1) generators or more
    least = n_twists + len(spectators) + 1
    if n_twists and _assembly_bytes(1 << least, n_twists) > MAX_BLOCK_BYTES:
        raise ValueError(
            f"{strands} strands and {n_twists} twists give at least 2^{least} generators "
            f"({len(spectators)} circles touch no twist), whose arrays exceed the limit of "
            f"{MAX_BLOCK_BYTES >> 20} MiB"
        )

    labels = _resolve(np.array(joins, dtype=np.intp).reshape(n_twists, 2, 2, 2), len(touched))
    # at most 4 nodes a twist, so bit k of one uint64 stands for node k; the labels are the circles
    node_bit = np.left_shift(1, np.array(range(len(touched)), dtype=np.uint64))
    masks = np.bitwise_or.reduce(node_bit[labels], axis=0)
    counts = np.add(np.bitwise_count(masks), len(spectators), dtype=np.int64)
    bits = _vertex_bits(n_twists)
    weights = np.add.reduce(bits, axis=1, dtype=np.int64) - ts.n_minus

    # every edge, by source and then axis, in slices (one at least) that keep its uint64 arrays small:
    # the nodes at its twist's ports at either end, and the circles these lie on as node masks
    source, axis = (bits == 0).nonzero()
    ends = np.array([source, source | 1 << axis], dtype=np.int32)
    merge, edge_bits = [], []
    # the bit of node k's circle in vertex v's basis index counts the circles above it: the
    # spectators above node k, and the nodes above k that label a circle of v
    above, higher = len(spectators) - np.searchsorted(spectators, touched), ~(node_bit | node_bit - 1)
    for part in (slice(e, e + _EDGE_SLICE) for e in range(0, max(source.size, 1), _EDGE_SLICE)):
        end = ends[:, part]
        at = labels[ports[axis[part]], end[..., None]]
        active, ours = np.bitwise_or.reduce(node_bit[at], axis=2), masks[end]
        rest = ours & ~active
        kept, (n_i, n_j) = rest[0] == rest[1], np.bitwise_count(active)
        # kept spectators and 2 -> 1 or 1 -> 2 active circles (1 to 4 a side): the count changes by one
        bad = np.flatnonzero(~kept | (n_i + n_j != 3))
        if bad.size:
            e = bad[0]
            raise ConsistencyError(
                f"edge {end[0, e]:#x}->{end[1, e]:#x}: {n_i[e]} -> {n_j[e]} circles at the twist, "
                f"spectators {'kept' if kept[e] else 'changed'}"
            )
        m = n_i == 2
        k = np.array([at.min(2), at.max(2)])  # [lowest or highest, end, edge]: its nodes at the ports
        (lo_i, lo_j), (hi_i, hi_j) = above[k] + np.bitwise_count(ours & higher[k])
        merge.append(m)
        edge_bits.append(np.array([lo_i, np.where(m, hi_i, lo_j), np.where(m, lo_j, hi_j)], dtype=np.int8).T)
    return ResolutionCube(
        strands, ts, plat, tuple(touched), tuple(spectators), masks, counts, weights,
        *ends, np.concatenate(merge), np.concatenate(edge_bits),
    )


def add_aux_unknot(strands: int, plat: PlatClosure) -> tuple[int, PlatClosure]:
    """Two extra rightmost strands closed into a free circle."""
    n = strands
    return n + 2, PlatClosure(plat.cups + ((n, n + 1),), plat.caps + ((n, n + 1),))
