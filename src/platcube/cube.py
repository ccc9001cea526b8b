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
below the caps.  Untouched circles of adjacent vertices carry the same
segment set, hence literally the same label, which is what lets edge
descriptors name only the active circles.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# build_cube resolves all 2^N vertices in Python: 16 twists take 11 s and 240 MB
# on a 2-core box, each twist doubles both, and the complex (>= 2^(N+1) generators)
# is then far past what the block ranks reduce, so longer words are refused at once.
MAX_TWISTS = 16

# assemble_complex stores each (1, w) block of the differential densely, one
# bit per entry.  4-strand s2^11, the largest corpus complex, needs 213 MiB for
# its largest block, s2^12 1.7 GiB, and one twist on 32 strands 1 GiB: a block
# above this limit is refused before anything is allocated, and so are the
# int64 arrays that assembly holds at once, counted per generator and cube axis.
MAX_BLOCK_BYTES = 512 << 20


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

    @property
    def n_minus(self) -> int:
        return sum(1 for _, s in self.twists if s == -1)


def braid_to_twists(b: BraidWord) -> TwistSequence:
    """Letter (k, e) at position i becomes twist (k, -e) at position i."""
    return TwistSequence(tuple((k, -e) for k, e in b.letters))


@dataclass(frozen=True)
class CubeVertex:
    """One resolved diagram: canonically labelled circles."""

    circles: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.circles)


@dataclass(frozen=True)
class Merge:
    """Two circles fuse into one across the edge."""

    sources: tuple[int, int]
    target: int


@dataclass(frozen=True)
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
        return bin(vertex).count("1") - self.n_minus

    def circle_count(self, vertex: int) -> int:
        return self.vertices[vertex].count

    def bitstring(self, vertex: int) -> str:
        return "".join("1" if vertex >> i & 1 else "0" for i in range(self.n))

    def edge_pairs(self):
        """All (I, J) with J = I plus one bit, in deterministic order."""
        for i_vertex in sorted(self.vertices):
            for axis in range(self.n):
                if not i_vertex >> axis & 1:
                    yield i_vertex, i_vertex | (1 << axis)


class ConsistencyError(RuntimeError):
    """An internal invariant failed; signals a bug, not bad input."""


def _trace_vertex(ts: TwistSequence, strands: int, plat: PlatClosure, vertex: int) -> list[int]:
    """Label every segment with the least segment id of its circle."""
    n = strands
    nseg = (len(ts) + 1) * n
    uf = _UnionFind(nseg)
    for a, b in plat.cups:
        uf.union(a, b)
    top = len(ts) * n
    for a, b in plat.caps:
        uf.union(top + a, top + b)
    for i, (k, s) in enumerate(ts.twists):
        below = i * n
        above = below + n
        kind = resolve_twist(s, vertex >> i & 1)
        if kind == CUPCAP:
            uf.union(below + k - 1, below + k)
            uf.union(above + k - 1, above + k)
            for p in range(n):
                if p != k - 1 and p != k:
                    uf.union(below + p, above + p)
        else:
            for p in range(n):
                uf.union(below + p, above + p)
    return [uf.find(x) for x in range(nseg)]


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

    n_twists = len(ts)
    n = strands
    labels_of = {}
    vertices = {}
    for vertex in range(1 << n_twists):
        seg_label = _trace_vertex(ts, strands, plat, vertex)
        labels_of[vertex] = seg_label
        vertices[vertex] = CubeVertex(tuple(sorted(set(seg_label))))

    edges: dict[tuple[int, int], Merge | Split] = {}
    for i_vertex in range(1 << n_twists):
        for axis in range(n_twists):
            if i_vertex >> axis & 1:
                continue
            j_vertex = i_vertex | (1 << axis)
            k = ts.twists[axis][0]
            touched = (
                axis * n + k - 1,
                axis * n + k,
                (axis + 1) * n + k - 1,
                (axis + 1) * n + k,
            )
            li, lj = labels_of[i_vertex], labels_of[j_vertex]
            active_i = {li[s] for s in touched}
            active_j = {lj[s] for s in touched}
            ci = vertices[i_vertex].count
            cj = vertices[j_vertex].count
            if abs(ci - cj) != 1:
                raise ConsistencyError(
                    f"edge {i_vertex:#x}->{j_vertex:#x}: circle count changed by {cj - ci}"
                )
            spect_i = set(vertices[i_vertex].circles) - active_i
            spect_j = set(vertices[j_vertex].circles) - active_j
            if spect_i != spect_j:
                raise ConsistencyError(
                    f"edge {i_vertex:#x}->{j_vertex:#x}: spectator circles do not match"
                )
            if len(active_i) == 2 and len(active_j) == 1:
                a, b = sorted(active_i)
                edges[(i_vertex, j_vertex)] = Merge((a, b), next(iter(active_j)))
            elif len(active_i) == 1 and len(active_j) == 2:
                a, b = sorted(active_j)
                edges[(i_vertex, j_vertex)] = Split(next(iter(active_i)), (a, b))
            else:
                raise ConsistencyError(
                    f"edge {i_vertex:#x}->{j_vertex:#x}: {len(active_i)} -> {len(active_j)} active circles"
                )
    return ResolutionCube(strands, ts, plat, vertices, edges)


def add_aux_unknot(strands: int, plat: PlatClosure) -> tuple[int, PlatClosure]:
    """Two extra rightmost strands closed into a free circle."""
    n = strands
    return n + 2, PlatClosure(plat.cups + ((n, n + 1),), plat.caps + ((n, n + 1),))
