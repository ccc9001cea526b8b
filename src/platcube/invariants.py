"""Diagram-level cross-checks that bypass the cube machinery entirely.

The plat diagram of a braid word is checkerboard-colourable with the
unbounded region white; colour is determined by the parity of the gap
(the space between strand positions) a region occupies.  Summing
crossing signs between pairs of white regions gives the Goeritz form,
and deleting the row and column of the unbounded region leaves an
integer matrix whose determinant, up to sign, is the determinant of the
closed diagram.  A connected unknot diagram gives the empty matrix and
determinant 1; a disconnected (split) diagram has determinant 0 and is
flagged, since the colouring argument needs a connected diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tangle import BraidWord, PlatClosure, _UnionFind

__all__ = [
    "GoeritzData",
    "goeritz_data",
    "determinant",
]


@dataclass(frozen=True, eq=False)
class GoeritzData:
    """Checkerboard summary of one plat diagram."""

    white_regions: int
    black_regions: int
    matrix: np.ndarray  # reduced form, unbounded region deleted
    determinant: int
    is_split: bool
    diagram_components: int


def _diagram_components(b: BraidWord, plat: PlatClosure) -> int:
    """Connected components of the underlying curve of the plat diagram."""
    n = b.strands
    nrows = len(b.letters)
    uf = _UnionFind((nrows + 1) * n)
    for x, y in plat.cups:
        uf.union(x, y)
    top = nrows * n
    for x, y in plat.caps:
        uf.union(top + x, top + y)
    for i, (k, _) in enumerate(b.letters):
        below = i * n
        above = below + n
        # at a crossing all four incident arcs meet the same vertex
        quad = [below + k - 1, below + k, above + k - 1, above + k]
        for q in quad[1:]:
            uf.union(quad[0], q)
        for p in range(n):
            if p != k - 1 and p != k:
                uf.union(below + p, above + p)
    return len({uf.find(x) for x in range((nrows + 1) * n)})


def _spanned_gaps(pairs) -> dict[int, frozenset[int]]:
    """For each gap, the set of closure arcs passing below/above it.

    Two gaps bound the same region of the closed-off side exactly when
    the same arcs separate them from the unbounded region.
    """
    gaps: dict[int, set[int]] = {}
    n = 2 * len(pairs)
    for g in range(n + 1):
        over = set()
        for idx, (a, b) in enumerate(pairs):
            if a < g <= b:  # gap g sits strictly inside the arc a-b
                over.add(idx)
        gaps[g] = frozenset(over)
    return gaps


def _regions(b: BraidWord, plat: PlatClosure):
    """Union-find of planar regions; nodes are (slice, gap) plus merging."""
    n = b.strands
    nrows = len(b.letters)
    ngaps = n + 1
    uf = _UnionFind((nrows + 1) * ngaps)

    for i, (k, _) in enumerate(b.letters):
        below = i * ngaps
        above = below + ngaps
        for g in range(ngaps):
            if g != k:  # the crossing point blocks only its own gap
                uf.union(below + g, above + g)

    for base, pairs in ((0, plat.cups), (nrows * ngaps, plat.caps)):
        spans = _spanned_gaps(pairs)
        rep: dict[frozenset, int] = {}
        for g in range(ngaps):
            key = spans[g]
            if key in rep:
                uf.union(base + rep[key], base + g)
            else:
                rep[key] = g
    return uf, ngaps, nrows


def goeritz_data(
    b: BraidWord, plat: PlatClosure | None = None, color: str = "white"
) -> GoeritzData:
    """Goeritz summary built on the chosen checkerboard colour.

    Both colours give the same |determinant| on a connected diagram;
    keeping the black form around makes that a cheap cross-check.
    """
    if color not in ("white", "black"):
        raise ValueError(f"color must be 'white' or 'black', got {color!r}")
    if plat is None:
        plat = PlatClosure.standard(b.strands)
    if plat.strands != b.strands:
        raise ValueError("plat closure strand count does not match the word")
    components = _diagram_components(b, plat)
    if components > 1:
        return GoeritzData(0, 0, np.zeros((0, 0), dtype=np.int64), 0, True, components)

    uf, ngaps, nrows = _regions(b, plat)
    roots = {uf.find(x) for x in range((nrows + 1) * ngaps)}
    white = sorted(r for r in roots if (r % ngaps) % 2 == 0)
    black = sorted(r for r in roots if (r % ngaps) % 2)
    shaded_parity = 0 if color == "white" else 1
    if color == "white":
        unbounded = uf.find(0)  # gap 0 of slice 0 borders the outer face
        order = [unbounded] + [r for r in white if r != unbounded]
    else:
        order = black  # zero row sums make every cofactor equal; drop the first
    index = {r: i for i, r in enumerate(order)}

    g_full = np.zeros((len(order), len(order)), dtype=np.int64)
    for i, (k, e) in enumerate(b.letters):
        below = i * ngaps
        above = below + ngaps
        south_north = k % 2 == shaded_parity
        eta = e * (1 if south_north else -1)
        if south_north:
            pair = (uf.find(below + k), uf.find(above + k))
        else:
            pair = (uf.find(below + k - 1), uf.find(below + k + 1))
        a, c = index[pair[0]], index[pair[1]]
        if a != c:
            g_full[a, c] -= eta
            g_full[c, a] -= eta
            g_full[a, a] += eta
            g_full[c, c] += eta

    reduced = g_full[1:, 1:]
    det = abs(_int_det(reduced))
    return GoeritzData(len(white), len(black), reduced, det, False, 1)


def _int_det(m: np.ndarray) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [[int(v) for v in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for s in range(k + 1, n):
                if a[s][k]:
                    a[k], a[s] = a[s], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(b: BraidWord, plat: PlatClosure | None = None) -> int:
    """|det| of the plat closure via the Goeritz form; 0 when split."""
    return goeritz_data(b, plat).determinant
