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
then resolved depth-first over the twists, from the last to the first,
each twist joining its nodes by its two vertical joints (identity) or by
its cup and cap (cup-cap): a choice of the higher twists that many
vertices share is joined once, and the vertices come in ascending order.
Untouched circles of adjacent vertices carry the same segment set, hence
literally the same label: an edge is a merge or a split when these
spectators match and its twist's four port segments lie on two circles on
one side and on one on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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

# build_cube resolves all 2^N vertices in Python: 16 twists take 4-5 s and 169 MB
# on a 2-core box, each twist doubles both, and the complex (>= 2^(N+1) generators)
# is then far past what the block ranks reduce, so longer words are refused at once.
MAX_TWISTS = 16

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


@dataclass(frozen=True, eq=False)
class ResolutionCube:
    strands: int
    twists: TwistSequence
    plat: PlatClosure
    vertices: dict[int, CubeVertex]
    edges: dict[tuple[int, int], Merge | Split]

    @property
    def n(self) -> int:
        return len(self.twists)

    @property
    def n_minus(self) -> int:
        return self.twists.n_minus

    def weight(self, vertex: int) -> int:
        return vertex.bit_count() - self.n_minus

    def circle_count(self, vertex: int) -> int:
        return self.vertices[vertex].count

    def bitstring(self, vertex: int) -> str:
        return "".join("1" if vertex >> i & 1 else "0" for i in range(self.n))


class ConsistencyError(RuntimeError):
    """An internal invariant failed; signals a bug, not bad input."""


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
    ports = [tuple(node[fixed.parent[p]] for p in twist) for twist in ports]
    joins = [[[(node[fixed.parent[a]], node[fixed.parent[b]]) for a, b in bit] for bit in twist] for twist in joins]
    # each vertex has the F spectators and a circle on the ports: 2^(N + F + 1) generators or more
    least = n_twists + len(spectators) + 1
    if n_twists and _assembly_bytes(1 << least, n_twists) > MAX_BLOCK_BYTES:
        raise ValueError(
            f"{strands} strands and {n_twists} twists give at least 2^{least} generators "
            f"({len(spectators)} circles touch no twist), whose arrays exceed the limit of "
            f"{MAX_BLOCK_BYTES >> 20} MiB"
        )

    # Depth-first from the last twist down, so the vertices come in ascending order and each
    # shared choice of the higher twists is joined once.  A vertex keeps its nodes' labels as a
    # list, never changed once made: a join that merges nothing hands the same list on.  For
    # memory: lists, since CPython keeps up to 2,000 freed tuples of each length below 20.
    vertices, labels = {}, []

    def resolve(twist: int, label: list[int], vertex: int) -> None:
        if twist < 0:
            # for memory: tuple() of a list, which left less behind than tuple() of a generator
            vertices[vertex] = CubeVertex(tuple(sorted([*spectators, *set(label)])))
            labels.append(label)
            return
        for bit, pairs in enumerate(joins[twist]):
            joined = label
            for a, b in pairs:
                lo, hi = joined[a], joined[b]
                if lo != hi:
                    lo, hi = min(lo, hi), max(lo, hi)
                    joined = [lo if x == hi else x for x in joined]
            resolve(twist - 1, joined, vertex | bit << twist)

    resolve(n_twists - 1, touched, 0)

    edges: dict[tuple[int, int], Merge | Split] = {}
    port_labels = [itemgetter(*twist) for twist in ports]
    for i, label_i in enumerate(labels):
        circles_i = set(vertices[i].circles)
        for axis, at_ports in enumerate(port_labels):
            if i >> axis & 1:
                continue
            j = i | 1 << axis
            active_i, active_j = set(at_ports(label_i)), set(at_ports(labels[j]))
            kept = circles_i - active_i == set(vertices[j].circles) - active_j
            # kept spectators and 2 -> 1 or 1 -> 2 active circles (1 to 4 a side): the count changes by one
            if not kept or len(active_i) + len(active_j) != 3:
                raise ConsistencyError(
                    f"edge {i:#x}->{j:#x}: {len(active_i)} -> {len(active_j)} circles at the twist, "
                    f"spectators {'kept' if kept else 'changed'}"
                )
            if len(active_i) == 2:
                edges[(i, j)] = Merge(tuple(sorted(active_i)), *active_j)
            else:
                edges[(i, j)] = Split(*active_i, tuple(sorted(active_j)))
        labels[i] = None  # no later edge starts or ends here
    return ResolutionCube(strands, ts, plat, vertices, edges)


def add_aux_unknot(strands: int, plat: PlatClosure) -> tuple[int, PlatClosure]:
    """Two extra rightmost strands closed into a free circle."""
    n = strands
    return n + 2, PlatClosure(plat.cups + ((n, n + 1),), plat.caps + ((n, n + 1),))
