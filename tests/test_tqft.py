"""Frobenius-algebra edge maps and the assembled cube differential."""

import random
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platcube.specseq as specseq
import platcube.tqft as tqft
from platcube.cube import (
    ConsistencyError,
    CubeVertex,
    Merge,
    Split,
    add_aux_unknot,
    braid_to_twists,
    build_cube,
    resolve_twist,
)
from platcube.f2linalg import F2Coo, F2Matrix, matmul, rank
from platcube.specseq import FilteredComplex, compute_pages, load_higher_maps
from platcube.tangle import BraidWord, PlatClosure, parse_braid_word
from platcube.tqft import assemble_complex

from oracles import (
    COMUL,
    MUL,
    dense_matmul,
    dense_rank,
    edge_shape,
    graded_homology,
    naive_cube_complex,
    naive_face_check,
    naive_failing_faces,
    random_letters,
)


def cube_of(word, strands):
    return build_cube(braid_to_twists(parse_braid_word(word, strands)), strands)


def block(circles_in, circles_out, cob) -> F2Matrix:
    """One edge block, built from the entries assembly gathers."""
    vi, vj = CubeVertex(circles_in), CubeVertex(circles_out)
    return F2Matrix.from_coo(1 << vj.count, 1 << vi.count, *tqft._shape_columns(*edge_shape(vi, vj, cob)))


_edge_tables = tqft._edge_tables  # unpatched, so that tampers never stack


def tamper(monkeypatch, edit) -> list:
    """Give an edge a tampered copy of its table as its own: edit(cube, i, j,
    ri, ci) sees each edge (i, j) in the cube's order with its table, and
    returns the copy, or None to leave the edge as it is.  Returns a list
    that gets, per assembly, every edge's table as assembly reads it."""
    used = []

    def tampered(cube):
        tables, edges = _edge_tables(cube)
        edges = edges.copy()
        for e, (i, j, t) in enumerate(edges.tolist()):
            table = edit(cube, i, j, *tables[t])
            if table is not None:
                edges[e, 2] = len(tables)
                tables.append(table)
        used.append([tables[t] for t in edges[:, 2].tolist()])
        return tables, edges

    monkeypatch.setattr(tqft, "_edge_tables", tampered)
    return used


def first_entries(ci) -> np.ndarray:
    """The first entry of each column that has one: for a split's column of
    two, the one whose row has X on the second new circle."""
    return np.unique(ci, return_index=True)[1]


def edge_matrix(cube, i, j) -> F2Matrix:
    return block(cube.vertices[i].circles, cube.vertices[j].circles, cube.edges[(i, j)])


def alg(circles_in, circles_out, cob) -> np.ndarray:
    return block(circles_in, circles_out, cob).to_dense()


# -- the algebra, as the edge maps apply it ---------------------------
#
# Basis 1 = 0 and X = 1 per circle, the first circle most significant:
# on two circles the columns are 1(x)1, 1(x)X, X(x)1, X(x)X.

MERGE = alg((0, 5), (0,), Merge((0, 5), 0))
SPLIT = alg((0,), (0, 5), Split(0, (0, 5)))


def test_multiplication_table():
    # 1.1 = 1, 1.X = X.1 = X, X.X = 0
    assert MERGE.tolist() == [[1, 0, 0, 0], [0, 1, 1, 0]]


def test_comultiplication_table():
    # 1 -> 1(x)X + X(x)1, X -> X(x)X
    assert SPLIT.tolist() == [[0, 0], [1, 0], [1, 0], [0, 1]]


def test_multiply_commutative_associative():
    swap = [0, 2, 1, 3]  # a(x)b -> b(x)a on two circles
    assert np.array_equal(MERGE[:, swap], MERGE)
    # (ab)c and a(bc) on circles 0, 5, 9
    left = dense_matmul(alg((0, 9), (0,), Merge((0, 9), 0)), alg((0, 5, 9), (0, 9), Merge((0, 5), 0)))
    right = dense_matmul(alg((0, 5), (0,), Merge((0, 5), 0)), alg((0, 5, 9), (0, 5), Merge((5, 9), 5)))
    assert np.array_equal(left, right)


def test_unit_and_linearity():
    # merging with a circle labelled 1 is the identity on the other circle
    assert MERGE[:, :2].tolist() == [[1, 0], [0, 1]]
    # (1+X)(1+X) = 1 + 2X + X^2 = 1: the sum of all four columns
    assert (MERGE.sum(axis=1) % 2).tolist() == [1, 0]


def test_coassociativity():
    # (Delta (x) 1) Delta and (1 (x) Delta) Delta, from circle 0 to 0, 3, 5
    left = dense_matmul(alg((0, 5), (0, 3, 5), Split(0, (0, 3))), SPLIT)
    right = dense_matmul(
        alg((0, 3), (0, 3, 5), Split(3, (3, 5))), alg((0,), (0, 3), Split(0, (0, 3)))
    )
    assert np.array_equal(left, right)


def test_frobenius_compatibility():
    # Delta m = (m (x) 1)(1 (x) Delta) = (1 (x) m)(Delta (x) 1) on circles 0, 5
    middle = dense_matmul(SPLIT, MERGE)
    via_right = dense_matmul(
        alg((0, 3, 5), (0, 5), Merge((0, 3), 0)), alg((0, 5), (0, 3, 5), Split(5, (3, 5)))
    )
    via_left = dense_matmul(
        alg((0, 3, 5), (0, 5), Merge((3, 5), 5)), alg((0, 5), (0, 3, 5), Split(0, (0, 3)))
    )
    assert np.array_equal(middle, via_right)
    assert np.array_equal(middle, via_left)


# -- vertex spaces ----------------------------------------------------


def shape_of(circles_in, circles_out, cob):
    """The arguments the edge's table is built from: (merge, count, bits_in, bits_out)."""
    return edge_shape(CubeVertex(circles_in), CubeVertex(circles_out), cob)


def test_vertex_space_indexing():
    """A vertex's space has 2^count basis states; the edge tables read each
    circle's bit with the first circle most significant: order 11, 1X, X1, XX."""
    assert 1 << CubeVertex((3, 7)).count == 4
    assert shape_of((3, 7), (3,), Merge((3, 7), 3)) == (True, 2, (1, 0), (0,))
    # splitting circle 7 into 7 and 9 leaves spectator 3 the top bit on both sides
    assert shape_of((3, 7), (3, 7, 9), Split(7, (7, 9))) == (False, 2, (0,), (1, 0))
    assert block((3, 7), (3,), Merge((3, 7), 3)).shape == (2, 4)
    with pytest.raises(ValueError):
        shape_of((3, 7), (3,), Merge((3, 5), 3))


def test_empty_vertex_space():
    assert 1 << CubeVertex(()).count == 1
    # one circle and no twist: one vertex, two generators, no block
    fc = assemble_complex(cube_of("", 2)).to_filtered()
    assert (fc.n, fc.blocks) == (2, {})


# -- edge matrices ----------------------------------------------------


def naive_edge_matrix(cube, i, j):
    """Rebuild one block scalar-by-scalar from the oracle's tables."""
    cob = cube.edges[(i, j)]
    ci, cj = cube.vertices[i].circles, cube.vertices[j].circles
    dense = [[0] * (1 << len(ci)) for _ in range(1 << len(cj))]
    for col in range(1 << len(ci)):
        state = {c: col >> (len(ci) - 1 - t) & 1 for t, c in enumerate(ci)}
        if isinstance(cob, Merge):
            outs = [{cob.target: m[0]} for m in MUL[(state[cob.sources[0]], state[cob.sources[1]])]]
            gone = set(cob.sources)
        else:
            a, b = cob.targets
            outs = [{a: l, b: r} for l, r in COMUL[state[cob.source]]]
            gone = {cob.source}
        for out in outs:
            full = {c: v for c, v in state.items() if c not in gone}
            full.update(out)
            row = sum(full[c] << (len(cj) - 1 - t) for t, c in enumerate(cj))
            dense[row][col] ^= 1
    return F2Matrix.from_dense(dense)


def test_edge_matrices_match_tables():
    rng = random.Random(0)
    words = ["s2 s2", "s1 s2^-1 s1", "s2 s2 s2", "s3 s1 s2^-1"]
    for word in words:
        cube = cube_of(word, 4)
        for i, j in cube.edges:
            assert edge_matrix(cube, i, j) == naive_edge_matrix(cube, i, j)
    for _ in range(6):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 5)))
        cube = build_cube(braid_to_twists(b), strands)
        for i, j in cube.edges:
            assert edge_matrix(cube, i, j) == naive_edge_matrix(cube, i, j)


def test_edge_columns_are_sparse():
    # merge: one output unless both inputs are X; split: two unless X
    cube = cube_of("s2 s2 s2", 4)
    for i, j in cube.edges:
        m = edge_matrix(cube, i, j).to_dense()
        col_sums = m.sum(axis=0)
        assert set(col_sums.tolist()) <= {0, 1, 2}


def test_shape_tables_built_once(monkeypatch):
    """An edge's columns depend only on its shape: merge or split, the source
    circle count, and where the active circles sit among the source's and the
    target's circles.  Assembly builds each shape's read-only table once, and
    none outlives it."""
    cube = cube_of("s2 s2 s2 s2 s2 s2 s2 s2", 4)
    shapes = {edge_shape(cube.vertices[i], cube.vertices[j], cob) for (i, j), cob in cube.edges.items()}
    original = tqft._shape_columns
    made, tables = [], []

    def spy(*shape):
        table = original(*shape)
        assert not any(arr.flags.writeable for arr in table)
        made.append(shape)
        tables.extend(map(weakref.ref, table))
        return table

    monkeypatch.setattr(tqft, "_shape_columns", spy)
    cc = assemble_complex(cube)
    assert len(made) == len(set(made)) == len(shapes) < len(cube.edges)
    assert set(made) == shapes
    # gone with their assembly, although its complex lives on; outside one, nothing is kept
    assert cc.filtered.blocks and not any(ref() for ref in tables)
    assert original(*made[0]) is not original(*made[0])


def test_shape_keys_match_edge_oracle(monkeypatch):
    """The (merge, count, bits_in, bits_out) of every edge, as assembly reads
    them from the cube's arrays packed one key an edge, equal those the oracle
    reads off the vertices' and edges' circles: on random cubes of 2-8
    strands and up to 10 twists, and on cubes whose vertices have 17 to 22
    circles, 16 to 18 of them spectators."""
    monkeypatch.setattr(tqft, "_shape_columns", lambda *shape: shape)
    rng = random.Random(24)
    cubes = [cube_of("s1 s3", 40), cube_of("s1^-1 s2 s1", 36), cube_of("s2", 38)]
    for _ in range(30):
        strands = rng.choice([2, 4, 6, 8])
        cubes.append(build_cube(braid_to_twists(BraidWord(strands, random_letters(rng, strands, rng.randint(0, 10)))), strands))
    assert max(cube.counts.max() for cube in cubes) > 16
    for cube in cubes:
        shapes, edges = tqft._edge_tables(cube)
        assert [shapes[t] for t in edges[:, 2].tolist()] == [
            edge_shape(cube.vertices[i], cube.vertices[j], cob) for (i, j), cob in cube.edges.items()
        ]


def test_spectators_tensor_factor():
    """Flipping a spectator circle commutes with every edge map."""
    cube = cube_of("s1 s2^-1 s1", 4)
    for (i, j), cob in cube.edges.items():
        ci, cj = cube.vertices[i].circles, cube.vertices[j].circles
        active = set(cob.sources) if isinstance(cob, Merge) else {cob.source}
        spectators = [c for c in ci if c not in active]
        m = edge_matrix(cube, i, j).to_dense()
        for spect in spectators:
            bi, bo = len(ci) - 1 - ci.index(spect), len(cj) - 1 - cj.index(spect)
            for col in range(1 << len(ci)):
                for row in range(1 << len(cj)):
                    assert m[row][col] == m[row ^ (1 << bo)][col ^ (1 << bi)]


# -- the assembled complex --------------------------------------------


def test_assembled_blocks_match_dense_oracle():
    """Per-weight block ranks equal the from-scratch dense build."""
    rng = random.Random(1)
    for _ in range(8):
        strands = rng.choice([2, 4])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(0, 4)))
        ts = braid_to_twists(b)
        cube = build_cube(ts, strands)
        cc = assemble_complex(cube)
        fc = cc.to_filtered()

        positions = [k for k, _ in ts.twists]
        signs = [s for _, s in ts.twists]
        ow, od = naive_cube_complex(
            positions, signs, strands, cube.plat.cups, cube.plat.caps
        )
        assert list(fc.weights) == ow
        w_arr = np.array(ow)
        # one block per source weight that has a weight above it
        assert set(fc.blocks) == {(1, w) for w in set(ow) if w + 1 in ow}
        for (_, w), blk in fc.blocks.items():
            ref = od[np.ix_(np.flatnonzero(w_arr == w + 1), np.flatnonzero(w_arr == w))]
            assert blk.shape == ref.shape
            assert rank(blk.to_matrix()) == dense_rank(ref)


def test_d_squared_zero():
    rng = random.Random(2)
    for _ in range(10):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 6)))
        d = assemble_complex(build_cube(braid_to_twists(b), strands)).to_filtered().differential
        assert matmul(d, d).is_zero()


def test_edge_check_catches_wrong_shape(monkeypatch):
    """The first resolution build_cube asks for, twist 0 at bit 0, comes back
    as the other shape: edge 0 -> 1 then joins two equal resolutions there,
    neither a merge nor a split."""
    calls = []

    def flipped(sign, bit):
        calls.append((sign, bit))
        return resolve_twist(sign, 1 - bit if len(calls) == 1 else bit)

    monkeypatch.setattr("platcube.cube.resolve_twist", flipped)
    with pytest.raises(ConsistencyError, match="^edge 0x0->0x1: "):
        cube_of("s2 s2 s2", 4)
    assert calls[0] == (-1, 0)


def test_face_check_catches_corruption(monkeypatch):
    """A deliberately tampered edge block must fail the face check."""
    state = {"hit": False}

    def tampered(cube, i, j, ri, ci):
        if not state["hit"] and cube.circle_count(i) >= 1:
            state["hit"] = True
            ri = ri.copy()
            ri[0] = (ri[0] + 1) % (1 << cube.circle_count(j))  # column 0's first entry
            return ri, ci

    tamper(monkeypatch, tampered)
    with pytest.raises(ConsistencyError):
        assemble_complex(cube_of("s2 s2", 4))
    assert state["hit"]


def test_face_check_matches_naive_oracle(monkeypatch):
    """One tampered column of one random edge: the single D∘D square fails
    exactly when the per-face oracle does, and names the same face."""
    rng = random.Random(9)
    outcomes = {"face": 0, "q": 0, "none": 0}
    for _ in range(150):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(2, 5)))
        cube = build_cube(braid_to_twists(b), strands)
        target = rng.choice(sorted(cube.edges))
        moved = {}

        def tampered(cube, i, j, ri, ci):
            if (i, j) == target:
                dim_out = 1 << cube.circle_count(j)
                col, shift = rng.randrange(1 << cube.circle_count(i)), rng.randrange(1, dim_out)
                at = np.flatnonzero(ci == col)[:1]  # the column's first entry; none if it is killed
                row = ri[at]
                ri = ri.copy()
                ri[at] = (row + shift) % dim_out
                # an entry keeps q iff its row keeps the number of X factors
                moved["q"] = bool(at.size) and int(ri[at][0]).bit_count() != int(row[0]).bit_count()
                return ri, ci

        used = tamper(monkeypatch, tampered)
        try:
            assemble_complex(cube)
            err = None
        except ConsistencyError as e:
            err = str(e)
        blocks = {}
        for (i, j), table in zip(cube.edges, used[-1]):
            dims = 1 << cube.circle_count(j), 1 << cube.circle_count(i)
            blocks[(i, j)] = F2Matrix.from_coo(*dims, *table).to_dense()
        face = naive_face_check(cube.n, blocks)
        if face is not None:
            i, a, b = face
            assert err == f"face at vertex {cube.bitstring(i)} axes {a},{b} does not commute"
            outcomes["face"] += 1
        elif moved["q"]:
            assert err is not None and "does not preserve q" in err
            outcomes["q"] += 1
        else:
            assert err is None
            outcomes["none"] += 1
    assert outcomes["face"] >= 50 and outcomes["q"] and outcomes["none"], outcomes


def test_q_check_catches_shifted_entry(monkeypatch):
    """An entry moved to another generator of the same target vertex keeps
    the weight; flipping its last circle between 1 and X changes q."""
    state = {"hit": False}

    def shifted(cube, i, j, ri, ci):
        if not state["hit"]:
            state["hit"] = True
            ri = ri.copy()
            ri[first_entries(ci)[-1]] ^= 1  # the last column with an entry
            return ri, ci

    tamper(monkeypatch, shifted)
    for word, faces in (("s2", True), ("s2 s1^-1 s2", False)):
        state["hit"] = False
        with pytest.raises(ConsistencyError, match="does not preserve q"):
            assemble_complex(cube_of(word, 4), check_faces=faces)
        assert state["hit"]


def test_q_witness_is_lowest_source_then_target(monkeypatch):
    """Every entry of one column of a vertex is moved to another q on each
    edge out of it, both entries of a split's column included.  The edge
    named is the one to the lowest target out of the lowest source, however
    the entries are gathered: as built, or with the edges and each table's
    entries reversed."""
    cube = cube_of("s2 s1^-1 s2 s2", 4)
    order = sorted(cube.vertices, key=lambda v: (cube.weight(v), v))
    start = dict(zip(order, np.cumsum([0] + [1 << cube.circle_count(v) for v in order])))
    # the lowest vertex with a split out of it, and a column with two entries there
    source = next(v for v in order if any(i == v and isinstance(c, Split) for (i, _), c in cube.edges.items()))
    out = {j: cob for (i, j), cob in cube.edges.items() if i == source}
    tables = {j: tqft._shape_columns(*edge_shape(cube.vertices[source], cube.vertices[j], cob)) for j, cob in out.items()}
    split = next(j for j, cob in out.items() if isinstance(cob, Split))
    col = int(np.flatnonzero(np.bincount(tables[split][1]) == 2)[0])
    hit = sorted(j for j, (_, ci) in tables.items() if col in ci)
    assert len(hit) >= 2
    original = tqft._edge_tables

    def moved(cube):
        tables, edges = original(cube)
        edges = edges.copy()
        for e in np.flatnonzero(edges[:, 0] == source):
            ri, ci = tables[edges[e, 2]]
            ri = ri.copy()
            ri[ci == col] ^= 1  # the last circle, 1 for X or back: q moves by 2
            edges[e, 2] = len(tables)
            tables.append((ri, ci))
        return ([(ri[::-1], ci[::-1]) for ri, ci in tables], edges[::-1]) if reverse else (tables, edges)

    monkeypatch.setattr(tqft, "_edge_tables", moved)
    messages = set()
    for reverse in (False, True):
        with pytest.raises(ConsistencyError, match="does not preserve q") as err:
            assemble_complex(cube, check_faces=False)
        messages.add(str(err.value))
    edge = f"{cube.bitstring(source)}->{cube.bitstring(hit[0])}"
    assert messages == {f"edge {edge} does not preserve q at generator {start[source] + col}"}


# every planar pairing of 4 and 6 strands, 0-based
PLANAR = {
    4: [((0, 1), (2, 3)), ((0, 3), (1, 2))],
    6: [((0, 1), (2, 3), (4, 5)), ((0, 1), (2, 5), (3, 4)), ((0, 3), (1, 2), (4, 5)),
        ((0, 5), (1, 2), (3, 4)), ((0, 5), (1, 4), (2, 3))],
}


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_q_block_ranks_match_dense(data):
    """The E_1 ranks derived from the marked half, and the per-weight E_2 they
    give, equal the dense ranks of the whole (1, w) blocks and the dense
    homology of the whole complex.  Inputs: random words, 2-strand words, the
    empty word, split diagrams (letters at odd positions only, so no twist
    joins two standard pairs), non-standard plat pairings and aux-unknot cubes.
    """
    kind = data.draw(st.sampled_from(["word", "two", "empty", "split", "plat", "aux"]))
    strands = data.draw(st.sampled_from(
        {"word": [4, 6, 8], "two": [2], "empty": [2, 4, 6, 8], "split": [4, 6], "plat": [4, 6], "aux": [2, 4]}[kind]
    ))
    positions = range(1, strands, 2) if kind == "split" else range(1, strands)
    letters = data.draw(st.lists(
        st.tuples(st.sampled_from(positions), st.sampled_from([-1, 1])),
        max_size={"empty": 0, "split": 4, "aux": 4}.get(kind, 5),
    ))
    if kind == "plat":
        plat = PlatClosure(data.draw(st.sampled_from(PLANAR[strands])), data.draw(st.sampled_from(PLANAR[strands])))
    else:
        plat = PlatClosure.standard(strands)
    ts = braid_to_twists(BraidWord(strands, tuple(letters)))
    if kind == "aux":
        strands, plat = add_aux_unknot(strands, plat)
    fc = assemble_complex(build_cube(ts, strands, plat, aux_unknot=kind == "aux")).to_filtered()
    assert fc.mark is not None and 2 * int(fc.mark.sum()) == fc.n
    pages = compute_pages(fc, r_max=2)
    dense = fc.differential.to_dense()
    for w in fc.weight_values:
        blk = fc.blocks.get((1, w))
        assert pages.page(1).d_ranks[w] == (dense_rank(blk.to_matrix().to_dense()) if blk is not None else 0)
    assert pages.dims(2) == graded_homology(fc.weights, dense)
    with pytest.raises(ValueError, match="q grades"):
        FilteredComplex(fc.weights, fc.blocks, fc.q[:-1])
    with pytest.raises(ValueError, match="a mark needs q"):
        FilteredComplex(fc.weights, fc.blocks, fc.q, fc.mark[:-1])
    with pytest.raises(ValueError, match="a mark must be bool"):
        FilteredComplex(fc.weights, fc.blocks, fc.q, fc.mark.astype(int))


def test_reduced_ranks_are_checked(monkeypatch):
    """An entry out of the marked half, a q that an entry of it moves, or a
    mark that makes a derived d_1 rank leave [0, min(m_w - rk_{w-1},
    m_{w+1})], is a consistency failure.

    The tampered entry, out of a marked generator, trades X on circle 0 for X
    on another circle of the same target, so it keeps the weight and q.
    """
    state = {"hit": False}

    def leaving(cube, i, j, ri, ci):
        top = 1 << cube.circle_count(j) - 1  # circle 0's bit in the target
        first = first_entries(ci)
        low = ~ri[first] & (ri[first] + 1)  # the last circle carrying 1
        at = np.flatnonzero((ci[first] >= 1 << cube.circle_count(i) - 1) & (low < top))
        if not state["hit"] and at.size:
            state["hit"] = True
            ri = ri.copy()
            ri[first[at[0]]] ^= top | low[at[0]]
            return ri, ci

    tamper(monkeypatch, leaving)
    for word in ("s2 s2 s2", "s2 s1^-1 s2", "s1 s2 s1"):
        state["hit"] = False
        fc = assemble_complex(cube_of(word, 4), check_faces=False).to_filtered()
        assert state["hit"]
        # the tamper breaks d∘d too, which compute_pages tests first
        with pytest.raises(ConsistencyError, match="out of the marked subcomplex"):
            specseq._d1_ranks(fc)
    monkeypatch.undo()

    fc = assemble_complex(cube_of("s2 s2 s2", 4)).to_filtered()
    assert compute_pages(fc).total(2) == 6
    # a merge sends 1 on circle 0 to X: the half where circle 0 carries 1 is no subcomplex
    with pytest.raises(ConsistencyError, match="out of the marked subcomplex"):
        compute_pages(FilteredComplex(fc.weights, fc.blocks, fc.q, ~fc.mark))
    # a q the blocks do not keep would cut the wrong (w, q) sub-blocks
    for seed in range(5):
        q = np.random.default_rng(seed).permutation(fc.q)
        with pytest.raises(ConsistencyError, match="takes marked generator .* from q"):
            compute_pages(FilteredComplex(fc.weights, fc.blocks, q, fc.mark))
    # subcomplexes, but not the reduced one: E_2 comes out 0, then twice the true E_2
    for mark, message in (
        (np.zeros(fc.n, bool), "derived d_1 rank 10 at weight -1 is outside \\[0, 8\\]"),
        (np.ones(fc.n, bool), "derived d_1 rank 2 at weight 0 is outside \\[0, 0\\]"),
    ):
        with pytest.raises(ConsistencyError, match=message):
            compute_pages(FilteredComplex(fc.weights, fc.blocks, fc.q, mark))


def test_to_filtered_shape():
    cc = assemble_complex(cube_of("s2 s2 s2", 4))
    fc = cc.to_filtered()
    assert fc.n == 30
    assert {r for r, _ in fc.blocks} == {1}
    assert fc is cc.filtered
    # offsets count from the start of each weight block
    cube = cc.cube
    for w in fc.weight_values:
        lo, hi = fc.block_range(w)
        ends = sorted((cc.offsets[v], cc.offsets[v] + (1 << cube.circle_count(v)))
                      for v in cube.vertices if cube.weight(v) == w)
        assert ends[0][0] == 0 and ends[-1][1] == hi - lo
        assert all(a[1] == b[0] for a, b in zip(ends, ends[1:]))
    assert all(a <= b for a, b in zip(fc.weights, fc.weights[1:]))


def test_block_size_guard():
    """The largest dense (1, w) block is sized from the circle counts alone."""
    from platcube.cube import MAX_BLOCK_BYTES

    assert MAX_BLOCK_BYTES == 512 << 20
    tqft._check_block_bytes(cube_of(" ".join(["s2"] * 11), 4))  # 213 MiB: admitted
    with pytest.raises(ValueError, match="needs 1702 MiB, over the limit of 512 MiB"):
        tqft._check_block_bytes(cube_of(" ".join(["s2"] * 12), 4))
    with pytest.raises(ValueError, match="needs 1024 MiB"):
        assemble_complex(cube_of("s1", 32))


def test_column_maps_are_sized(monkeypatch):
    """A single-weight cube has no block to size, so its generator arrays are sized instead."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy allocated an array")

    tqft._check_block_bytes(cube_of("", 40))  # 2^20 generators, 32 MiB: admitted
    for name in ("arange", "cumsum", "repeat", "unique", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    # 2^32 generators, where the first n-long array alone needs 32 GiB
    with pytest.raises(ValueError, match="arrays of 4294967296 generators need 131072 MiB, over the limit"):
        assemble_complex(cube_of("", 64))
    # 2^65 generators used to overflow numpy's repeat count
    with pytest.raises(ValueError, match=f"arrays of {2**65} generators"):
        assemble_complex(cube_of("", 130))


def test_arrays_held_together_are_sized(monkeypatch, capsys):
    """52 strands and no twist: 2^26 generators, so each int64 array is exactly
    512 MiB, and assembly holds four of them at once."""
    from platcube import cli

    tqft._check_block_bytes(cube_of(" ".join(["s2"] * 11), 4))  # 177,150 generators on 11 axes: admitted
    tqft._check_block_bytes(cube_of("", 40))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy allocated an array")

    for name in ("arange", "cumsum", "empty", "repeat", "unique", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    started = time.perf_counter()
    code = cli.main(["--strands", "52", "--word", ""])
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: the arrays of 67108864 generators need 2048 MiB, over the limit of 512 MiB\n"
    assert elapsed < 1


def test_guard_bounds_measured_peak():
    """What the guard sizes is at least what assembly holds at its peak,
    besides the blocks it keeps (traced by tracemalloc, which sees numpy)."""
    for word, strands in (("", 36), ("s1", 30), ("s1 s3", 24), ("s2 s2 s2 s2 s2 s2", 4)):
        cube = cube_of(word, strands)
        n = sum(1 << v.count for v in cube.vertices.values())
        tracemalloc.start()
        try:
            fc = assemble_complex(cube, check_faces=False).to_filtered()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(m.ri.nbytes + m.ci.nbytes for m in fc.blocks.values())
        # 64 KiB for the per-vertex dicts and lists
        assert peak - kept <= 8 * n * (4 + 13 * cube.n) + (64 << 10), (word, strands)


def test_cube_is_squared_once(monkeypatch):
    """Assembly squares D once, and compute_pages reads that square.  A cube
    whose widest block is more than one word wide is squared one q-grade at
    a time: one product per pair of consecutive blocks and grade that both
    have entries in.  A narrower one is squared in one grade."""
    calls = []
    original = specseq.matmul
    monkeypatch.setattr(specseq, "matmul", lambda a, b: calls.append(1) or original(a, b))
    for word, graded in (("s2 s2 s1^-1 s2", False), ("s2 s2 s1^-1 s2 s2 s1^-1", True)):
        calls.clear()
        cc = assemble_complex(cube_of(word, 4))
        fc = cc.to_filtered()
        assert cc.to_filtered() is fc
        assert (max(blk.cols for blk in fc.blocks.values()) > 64) == graded == fc._graded_by_q()

        def grades(w):  # the grades of the (1, w) block's entries
            return set(fc.q[fc.low_index(w) + fc.blocks[(1, w)].ci].tolist()) if graded else {0}

        products = sum(len(grades(w) & grades(w + 1)) for _, w in fc.blocks if (1, w + 1) in fc.blocks)
        assert products and len(calls) == products
        compute_pages(fc)
        assert len(calls) == products


def test_no_dense_weight_block_is_built(monkeypatch):
    """On 4-strand s2^9 no dense matrix that assembly and the pages build is
    as large as the widest (1, w) block, and the traced peak stays under the
    8.1 MiB that the dense (1, w) blocks would hold on their own."""
    cube = cube_of(" ".join(["s2"] * 9), 4)
    sizes = []
    original = F2Matrix.from_coo.__func__

    def recording(cls, rows, cols, ri, ci):
        sizes.append(rows * -(-cols // 64))
        return original(cls, rows, cols, ri, ci)

    monkeypatch.setattr(F2Matrix, "from_coo", classmethod(recording))
    tracemalloc.start()
    try:
        fc = assemble_complex(cube).to_filtered()
        total = compute_pages(fc).total(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = [blk.rows * -(-blk.cols // 64) for blk in fc.blocks.values()]
    assert total == 18
    assert sizes and max(sizes) < max(words)
    assert peak < 8 * sum(words) == 8_507_664


def q_moving_entry(fc) -> tuple[int, int, int]:
    """(w, t, g): a shift-2 entry into the top weight, from generator g of
    weight w that D hits from nowhere, so D∘D stays 0, to generator t of
    weight w + 2 at another q; t and g count inside their weight blocks."""
    w = fc.weight_values[-3]
    (lo, hi), (t_lo, t_hi) = fc.block_range(w), fc.block_range(w + 2)
    g = next(g for g in range(hi - lo) if g not in set(fc.blocks[(1, w - 1)].ri.tolist()))
    t = next(t for t in range(t_hi - t_lo) if fc.q[t_lo + t] != fc.q[lo + g])
    return w, t, g


def test_q_moving_table_cuts_whole_blocks(monkeypatch):
    """A higher-maps table with an entry that moves q puts D∘D in one grade,
    so loading it cuts every (1, w) block of 4-strand s2^8 whole: its widest
    part is the widest block, 1,792 columns, and the guard's dense size of
    the (1, w) blocks is what covers it."""
    cube = cube_of(" ".join(["s2"] * 8), 4)
    fc = assemble_complex(cube).to_filtered()
    w, t, g = q_moving_entry(fc)
    (lo, hi), (t_lo, t_hi) = fc.block_range(w), fc.block_range(w + 2)
    sizes = []
    original = F2Matrix.from_coo.__func__

    def recording(cls, rows, cols, ri, ci):
        sizes.append((rows * 8 * -(-cols // 64), rows, cols))
        return original(cls, rows, cols, ri, ci)

    monkeypatch.setattr(F2Matrix, "from_coo", classmethod(recording))
    loaded = load_higher_maps(fc, {(2, w): F2Coo(t_hi - t_lo, hi - lo, [t], [g])})
    assert not loaded._graded_by_q() and fc._graded_by_q()
    (_, widest), blk = max(fc.blocks.items(), key=lambda item: item[1].cols)
    nbytes, rows, cols = max(sizes)
    assert (rows, cols) == blk.shape and cols == 1792
    assert nbytes == max(b.rows * 8 * -(-b.cols // 64) for b in fc.blocks.values())
    tqft._check_block_bytes(cube)
    monkeypatch.setattr(tqft, "MAX_BLOCK_BYTES", nbytes - 1)
    with pytest.raises(ValueError, match=f"the differential block out of weight {widest} needs"):
        tqft._check_block_bytes(cube)


def test_page_windows_are_sized(monkeypatch, tmp_path, capsys):
    """A page window is sized before it is built, and what the guard sizes
    bounds the traced peak of the pages: on a window whose kernel is nearly
    all of it, and on 4-strand s2^7 with the one-entry table above, whose
    widest window is the whole complex.  On s2^8 with that table and a limit
    one byte under the first window the pages need, the three lowest weights,
    the run exits 1 with an error line, and that window is not built."""
    m = 1500
    rank_one = FilteredComplex([0] * m + [1] * m + [2] * m, {(2, 0): F2Coo(m, m, [0], [0])})
    fc = assemble_complex(cube_of(" ".join(["s2"] * 7), 4)).to_filtered()
    w, t, g = q_moving_entry(fc)
    (lo, hi), (t_lo, t_hi) = fc.block_range(w), fc.block_range(w + 2)
    for complex_ in (rank_one, load_higher_maps(fc, {(2, w): F2Coo(t_hi - t_lo, hi - lo, [t], [g])})):
        tracemalloc.start()
        try:
            pages = compute_pages(complex_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pages.stabilization == 3
        assert peak <= specseq._window_bytes(complex_.n) + (64 << 10)

    word = " ".join(["s2"] * 8)
    cc = assemble_complex(cube_of(word, 4))
    cube, fc = cc.cube, cc.filtered
    w, t, g = q_moving_entry(fc)
    # the table names the entry by its vertices and its place in their blocks
    (src, col), (tgt, row) = (
        next((v, x - cc.offsets[v]) for v in range(1 << cube.n)
             if cube.weight(v) == wt and 0 <= x - cc.offsets[v] < 1 << cube.circle_count(v))
        for wt, x in ((w, g), (w + 2, t))
    )
    cols = 1 << cube.circle_count(src)
    rows = ["".join("1" if (r, c) == (row, col) else "0" for c in range(cols)) for r in range(1 << cube.circle_count(tgt))]
    table = tmp_path / "maps.txt"
    table.write_text(f"2 {cube.bitstring(src)} {cube.bitstring(tgt)}\n" + "\n".join(rows) + "\n")
    sizes = []
    original = F2Matrix.from_coo.__func__

    def recording(cls, rows, cols, ri, ci):
        sizes.append((rows, cols))
        return original(cls, rows, cols, ri, ci)

    monkeypatch.setattr(F2Matrix, "from_coo", classmethod(recording))
    low = fc.weight_values[0]
    n = fc.low_index(low + 3)
    monkeypatch.setattr(specseq, "MAX_BLOCK_BYTES", specseq._window_bytes(n) - 1)
    from platcube import cli

    code = cli.main(["--strands", "4", "--word", word, "--higher-maps", str(table), "--pages", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: the page window of weights [{low}, {low + 3}) has {n} generators and needs")
    assert sizes and (n, n) not in sizes


def test_face_named_at_lowest_failing_generator(monkeypatch):
    """Faces fail at two weights, the lower-weight ones at higher vertex
    integers: the face named sits at the lowest failing generator in
    generator order (weight, then vertex), not at the lowest integer."""
    cube = cube_of("s2 s2 s2 s2", 4)
    # 12->13 lies on faces at 4 and 8 (weight 1), 7->15 on faces at 3, 5 and 6 (weight 2)
    targets = [(12, 13), (7, 15)]

    def tampered(cube, i, j, ri, ci):
        if (i, j) in targets:
            first = first_entries(ci)
            ri = ri.copy()
            ri[first] = (ri[first] + 1) % (1 << cube.circle_count(j))
            return ri, ci

    used = tamper(monkeypatch, tampered)
    with pytest.raises(ConsistencyError) as err:
        assemble_complex(cube)
    blocks = {}
    for (i, j), table in zip(cube.edges, used[-1]):
        dims = 1 << cube.circle_count(j), 1 << cube.circle_count(i)
        blocks[(i, j)] = F2Matrix.from_coo(*dims, *table).to_dense()
    failing = naive_failing_faces(cube.n, blocks)
    assert naive_face_check(cube.n, blocks) == failing[0]
    lowest = min(v for v, _, _ in failing)
    first = min((cube.weight(v), v) for v, _, _ in failing)[1]
    assert cube.weight(first) < cube.weight(lowest)
    named = {f"face at vertex {cube.bitstring(v)} axes {a},{b} does not commute" for v, a, b in failing if v == first}
    assert str(err.value) in named
