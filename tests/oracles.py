"""Slow reference implementations that the test-suite trusts.

Everything here is deliberately naive: dense uint8 matrices, dict-based
graph walking, textbook Gaussian cancellation.  Nothing imports from the
package, so an agreement between the two sides is a real cross-check and
not a tautology.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# -- dense GF(2) linear algebra ---------------------------------------


def dense_rref(a) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy over GF(2); returns (rref, pivot columns)."""
    m = (np.array(a, dtype=np.uint8) & 1).copy()
    if m.ndim != 2:
        m = m.reshape(0, 0)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        hit = next((i for i in range(r, rows) if m[i, c]), None)
        if hit is None:
            continue
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_rank(a) -> int:
    return len(dense_rref(a)[1])


def dense_matmul(a, b) -> np.ndarray:
    prod = np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)
    return (prod % 2).astype(np.uint8)


def dense_coo(a) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(rows, cols, row indices, column indices) of the set entries of a 0/1
    matrix, row-major: the arguments of a sparse block."""
    m = np.array(a, dtype=np.uint8) & 1
    return (*m.shape, *np.nonzero(m))


def dense_kernel(a) -> np.ndarray:
    """Rows span the right null space."""
    m = (np.array(a, dtype=np.uint8) & 1)
    cols = m.shape[1]
    red, pivots = dense_rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            if red[r, fc]:
                basis[i, pc] = 1
    return basis


# -- circles of a resolved plat diagram -------------------------------

# the frozen resolution convention, restated literally so the tests
# compare the package against this table rather than against itself
KIND_OF_BIT = {
    (1, 0): "cupcap",
    (1, 1): "identity",
    (-1, 0): "identity",
    (-1, 1): "cupcap",
}


def walk_circles(strands, kinds, positions, cups, caps):
    """Circles of a resolved diagram, found by walking arcs.

    kinds[i] is "identity" or "cupcap" at 1-based position positions[i];
    cups/caps are 0-based pairs on the bottom/top slice.  Returns the
    circles as frozensets of (slice, strand) nodes, sorted by least node.
    Every node must close up with degree exactly two.
    """
    levels = len(kinds)
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def link(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for t, (kind, k) in enumerate(zip(kinds, positions)):
        for p in range(strands):
            if kind == "cupcap" and p in (k - 1, k):
                continue
            link((t, p), (t + 1, p))
        if kind == "cupcap":
            link((t, k - 1), (t, k))
            link((t + 1, k - 1), (t + 1, k))
    for a, b in cups:
        link((0, a), (0, b))
    for a, b in caps:
        link((levels, a), (levels, b))

    seen: set[tuple[int, int]] = set()
    circles = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    frontier.append(v)
        seen |= comp
        for node in comp:
            assert len(adj[node]) == 2, f"node {node} has degree {len(adj[node])}"
        circles.append(frozenset(comp))
    assert len(seen) == (levels + 1) * strands
    return sorted(circles, key=min)


def vertex_circles(positions, signs, strands, cups, caps, vertex):
    kinds = [KIND_OF_BIT[(s, vertex >> i & 1)] for i, s in enumerate(signs)]
    return walk_circles(strands, kinds, positions, cups, caps)


# -- the resolution cube, one vertex at a time ------------------------


class UnionFind:
    """Union keeps the least id, so a root is the least member of its set."""

    def __init__(self, n):
        self.parent = list(range(n))

    def copy(self):
        clone = UnionFind(0)
        clone.parent = self.parent.copy()
        return clone

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        self.parent[max(ra, rb)] = min(ra, rb)


def naive_cube(positions, signs, strands, cups, caps):
    """(vertices, edges) of the resolution cube, every vertex resolved afresh.

    Segment (t, p) has id t * strands + p.  The cups, the caps and the joints
    beside each twist are joined once; each vertex copies that forest and
    joins all of its twists.  A circle's label is its least segment id.
    vertices lists (vertex, labels) by vertex; edges lists ((i, j), edge) by
    i and then by axis, an edge being ("merge", (a, b), c) or
    ("split", a, (b, c)), with the active circles at the twist's ports.
    """
    n, n_twists = strands, len(signs)
    fixed = UnionFind((n_twists + 1) * n)
    for (a, b), (c, d) in zip(cups, caps):
        fixed.union(a, b)
        fixed.union(n_twists * n + c, n_twists * n + d)
    ports = []
    for i, k in enumerate(positions):
        below, above = i * n, (i + 1) * n
        for p in range(n):
            if p not in (k - 1, k):
                fixed.union(below + p, above + p)
        ports.append((below + k - 1, below + k, above + k - 1, above + k))
    roots = [x for x in range(len(fixed.parent)) if fixed.find(x) == x]

    vertices, labels = {}, {}
    for v in range(1 << n_twists):
        uf = fixed.copy()
        for i, (sw, se, nw, ne) in enumerate(ports):
            if KIND_OF_BIT[(signs[i], v >> i & 1)] == "identity":
                uf.union(sw, nw)
                uf.union(se, ne)
            else:
                uf.union(sw, se)
                uf.union(nw, ne)
        vertices[v] = tuple(r for r in roots if uf.find(r) == r)
        labels[v] = [[uf.find(x) for x in twist] for twist in ports]

    edges = {}
    for i in range(1 << n_twists):
        for axis in range(n_twists):
            if i >> axis & 1:
                continue
            j = i | 1 << axis
            active_i, active_j = set(labels[i][axis]), set(labels[j][axis])
            assert set(vertices[i]) - active_i == set(vertices[j]) - active_j
            if (len(active_i), len(active_j)) == (2, 1):
                edges[(i, j)] = ("merge", tuple(sorted(active_i)), *active_j)
            else:
                assert (len(active_i), len(active_j)) == (1, 2)
                edges[(i, j)] = ("split", *active_i, tuple(sorted(active_j)))
    return list(vertices.items()), list(edges.items())


# -- the cube complex, rebuilt from scratch ---------------------------

MUL = {(0, 0): ((0,),), (0, 1): ((1,),), (1, 0): ((1,),), (1, 1): ()}
COMUL = {0: ((0, 1), (1, 0)), 1: ((1, 1),)}


def naive_cube_complex(positions, signs, strands, cups, caps):
    """(weights, dense differential) of the resolution-cube complex.

    Generators are grouped by vertex in (weight, vertex) order; within a
    vertex the basis runs over label tuples with circle j at bit j.  The
    dimensions are what matter downstream, not the basis order.
    """
    n = len(signs)
    n_minus = sum(1 for s in signs if s < 0)
    circ = {v: vertex_circles(positions, signs, strands, cups, caps, v) for v in range(1 << n)}
    weight = {v: bin(v).count("1") - n_minus for v in range(1 << n)}
    order = sorted(range(1 << n), key=lambda v: (weight[v], v))
    offset = {}
    total = 0
    for v in order:
        offset[v] = total
        total += 1 << len(circ[v])

    weights = []
    for v in order:
        weights.extend([weight[v]] * (1 << len(circ[v])))

    d = np.zeros((total, total), dtype=np.uint8)
    for src in range(1 << n):
        for axis in range(n):
            if src >> axis & 1:
                continue
            tgt = src | 1 << axis
            ci, cj = circ[src], circ[tgt]
            shared = set(ci) & set(cj)
            left_i = [c for c in ci if c not in shared]
            left_j = [c for c in cj if c not in shared]
            assert frozenset().union(*left_i) == frozenset().union(*left_j)
            spect = [(ci.index(c), cj.index(c)) for c in shared]
            for s in range(1 << len(ci)):
                vals = [s >> j & 1 for j in range(len(ci))]
                if len(left_i) == 2:
                    key = (vals[ci.index(left_i[0])], vals[ci.index(left_i[1])])
                    images = [{cj.index(left_j[0]): out[0]} for out in MUL[key]]
                else:
                    x = vals[ci.index(left_i[0])]
                    images = [
                        {cj.index(left_j[0]): out[0], cj.index(left_j[1]): out[1]}
                        for out in COMUL[x]
                    ]
                for img in images:
                    t = 0
                    for a, b in spect:
                        t |= vals[a] << b
                    for b, val in img.items():
                        t |= val << b
                    d[offset[tgt] + t, offset[src] + s] ^= 1
    return weights, d


def edge_shape(vertex_i, vertex_j, cob):
    """(merge, count, bits_in, bits_out) of one edge, read from its vertices'
    circles and its active circles one at a time: the arguments of its shape
    table.  A circle's bit in a basis index counts from the last circle, and
    cob is a merge when it has sources, else a split.  A circle missing from
    its vertex raises ValueError."""
    merge = hasattr(cob, "sources")
    active_in, active_out = (cob.sources, (cob.target,)) if merge else ((cob.source,), cob.targets)
    bits_in = tuple(vertex_i.count - 1 - vertex_i.circles.index(c) for c in active_in)
    bits_out = tuple(vertex_j.count - 1 - vertex_j.circles.index(c) for c in active_out)
    return merge, vertex_i.count, bits_in, bits_out


def naive_face_check(n, edge_blocks):
    """The lowest non-commuting face of a cube, as (vertex, a, b), or None.

    edge_blocks maps each edge (I, J) of the n-dimensional cube to its
    dense block.  Faces are visited vertex by vertex in ascending order,
    then by axis pairs a < b, and the two paths around each face are
    multiplied out.
    """
    for i in range(1 << n):
        clear = [a for a in range(n) if not i >> a & 1]
        for ai, a in enumerate(clear):
            for b in clear[ai + 1 :]:
                ja, jb, k = i | 1 << a, i | 1 << b, i | 1 << a | 1 << b
                via_a = dense_matmul(edge_blocks[(ja, k)], edge_blocks[(i, ja)])
                via_b = dense_matmul(edge_blocks[(jb, k)], edge_blocks[(i, jb)])
                if not np.array_equal(via_a, via_b):
                    return i, a, b
    return None


def naive_failing_faces(n, edge_blocks):
    """Every non-commuting face of a cube, as (vertex, a, b), in the order
    naive_face_check visits them."""
    failing = []
    for i in range(1 << n):
        clear = [a for a in range(n) if not i >> a & 1]
        for ai, a in enumerate(clear):
            for b in clear[ai + 1 :]:
                ja, jb, k = i | 1 << a, i | 1 << b, i | 1 << a | 1 << b
                via_a = dense_matmul(edge_blocks[(ja, k)], edge_blocks[(i, ja)])
                via_b = dense_matmul(edge_blocks[(jb, k)], edge_blocks[(i, jb)])
                if not np.array_equal(via_a, via_b):
                    failing.append((i, a, b))
    return failing


def graded_homology(weights, d):
    """Per-weight kernel-mod-image dims of a shift-one differential."""
    w_arr = np.array(weights)
    dims = {}
    for w in sorted(set(weights)):
        cols = np.flatnonzero(w_arr == w)
        rows_out = np.flatnonzero(w_arr == w + 1)
        rows_in = np.flatnonzero(w_arr == w - 1)
        out_rank = dense_rank(d[np.ix_(rows_out, cols)]) if len(rows_out) else 0
        in_rank = dense_rank(d[np.ix_(cols, rows_in)]) if len(rows_in) else 0
        dims[w] = len(cols) - out_rank - in_rank
    return dims


# -- spectral pages by Gaussian cancellation --------------------------


def cancellation_pages(weights, d):
    """Page dimension dicts [E_1, E_2, ...] down to E_infinity.

    Repeatedly cancels an entry of minimal weight shift: removing its two
    generators and rerouting the rest is a filtered homotopy equivalence,
    and once no entries of shift < r remain the survivor count per weight
    is exactly dim E_r.  Cancelling minimal shifts never creates smaller
    ones (created shift = s1 + s2 - r with s1, s2 >= r).
    """
    m = (np.array(d, dtype=np.uint8) & 1).copy()
    w = list(weights)
    alive = set(range(len(w)))

    def cancel_all(shift):
        while True:
            pair = next(
                ((x, y) for x in alive for y in alive if m[y, x] and w[y] - w[x] == shift),
                None,
            )
            if pair is None:
                return
            x, y = pair
            srcs = [a for a in alive if a != x and m[y, a]]
            tgts = [b for b in alive if b != y and m[b, x]]
            for a in srcs:
                for b in tgts:
                    m[b, a] ^= 1
            alive.discard(x)
            alive.discard(y)

    spread = max(w) - min(w) if w else 0
    pages = []
    for r in range(spread + 2):
        cancel_all(r)  # after this, survivors per weight = dim E_{r+1}
        pages.append(dict(Counter(w[i] for i in alive)))
    assert not any(m[y, x] for x in alive for y in alive)
    return pages  # pages[0] is E_1 (any weight-0 part already flushed)


# -- D^2-preserving perturbations -------------------------------------


def conjugate_dense(weights, d, rng, density=3, min_shift=1):
    """Conjugate by 1 + u with u strictly raising weight.

    P = 1 + u is invertible with inverse 1 + u + u^2 + ..., and P D P^-1
    still squares to zero, still strictly raises weight, and has the same
    pages as D on every r >= 1 (P acts as the identity on the associated
    graded).  A shift-1 u leaves d_1 alone and plants honest shift-2
    components; this is how the tests manufacture complexes with higher
    maps whose pages are known in advance.
    """
    n = len(weights)
    u = np.zeros((n, n), dtype=np.uint8)
    raisers = [
        (i, j) for i in range(n) for j in range(n) if weights[i] - weights[j] >= min_shift
    ]
    for i, j in rng.sample(raisers, min(density * n, len(raisers))) if raisers else []:
        u[i, j] = 1
    p = (np.eye(n, dtype=np.uint8) + u) % 2
    pinv = np.eye(n, dtype=np.uint8)
    acc = np.eye(n, dtype=np.uint8)
    while True:
        acc = dense_matmul(acc, u)
        if not acc.any():
            break
        pinv = (pinv + acc) % 2
    return dense_matmul(dense_matmul(p, d), pinv)


def split_by_block(weights, d):
    """Dense differential -> {(shift, source weight): dense block}.

    Only blocks holding an entry are listed; rows of a block are the
    generators of the target weight, columns those of the source weight.
    """
    w = np.asarray(weights)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for i, j in zip(*np.nonzero(d)):
        key = (int(w[i] - w[j]), int(w[j]))
        if key not in blocks:
            blocks[key] = d[np.ix_(w == w[i], w == w[j])]
    return blocks


# -- higher-map tables ------------------------------------------------


def naive_table_blocks(text, layout):
    """{(shift, source weight): dense block} of a valid --higher-maps table,
    read one character at a time; a repeated record adds mod 2.

    layout lists (bitstring, weight, offset, dim) for every vertex, the
    offsets counting all generators in order of weight.
    """
    where = {bits: (w, off, dim) for bits, w, off, dim in layout}
    low, size = {}, Counter()
    for _, w, off, dim in layout:
        low[w] = min(low.get(w, off), off)
        size[w] += dim
    tokens = []
    for line in text.splitlines():
        tokens += line.split("#", 1)[0].split()
    blocks: dict[tuple[int, int], np.ndarray] = {}
    pos = 0
    while pos < len(tokens):
        r, (sw, s_off, _), (tw, t_off, t_dim) = int(tokens[pos]), where[tokens[pos + 1]], where[tokens[pos + 2]]
        pos += 3
        block = blocks.setdefault((r, sw), np.zeros((size[sw + r], size[sw]), dtype=np.uint8))
        for q in range(t_dim):
            for p, ch in enumerate(tokens[pos]):
                if ch == "1":
                    block[t_off - low[tw] + q, s_off - low[sw] + p] ^= 1
            pos += 1
    return blocks


# -- misc -------------------------------------------------------------


def random_letters(rng, strands, length):
    return tuple(
        (rng.randint(1, strands - 1), rng.choice((-1, 1))) for _ in range(length)
    )
