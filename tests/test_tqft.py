"""Frobenius-algebra edge maps and the assembled cube differential."""

import random
from itertools import product

import numpy as np
import pytest

import platcube.tqft as tqft
from platcube.cube import ConsistencyError, Merge, braid_to_twists, build_cube
from platcube.f2linalg import F2Matrix, matmul, rank
from platcube.tangle import BraidWord, parse_braid_word
from platcube.tqft import (
    BASIS,
    COMULT_TABLE,
    MULT_TABLE,
    ONE,
    X,
    VertexSpace,
    assemble_complex,
    comultiply,
    edge_map_matrix,
    multiply,
)

from oracles import dense_rank, naive_cube_complex, random_letters

ELEMENTS = [frozenset(), frozenset([ONE]), frozenset([X]), frozenset([ONE, X])]


def cube_of(word, strands):
    return build_cube(braid_to_twists(parse_braid_word(word, strands)), strands)


# -- the algebra ------------------------------------------------------


def test_multiplication_table():
    assert multiply(ONE, ONE) == {ONE}
    assert multiply(ONE, X) == {X} == multiply(X, ONE)
    assert multiply(X, X) == frozenset()  # X^2 = 0


def test_comultiplication_table():
    assert comultiply(ONE) == {(ONE, X), (X, ONE)}
    assert comultiply(X) == {(X, X)}


def test_multiply_commutative_associative():
    for a, b in product(ELEMENTS, repeat=2):
        assert multiply(a, b) == multiply(b, a)
    for a, b, c in product(ELEMENTS, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_unit_and_linearity():
    for a in ELEMENTS:
        assert multiply(ONE, a) == a
    # multiply is bilinear over the set representation by construction;
    # spot-check the one nontrivial cancellation
    assert multiply(frozenset([ONE, X]), frozenset([ONE, X])) == {ONE}  # 1+2X+X^2


def _comult_pairs(a):
    return comultiply(a)


def test_coassociativity():
    for a in ELEMENTS:
        left: set = set()
        for l, r in _comult_pairs(a):
            for l2, r2 in comultiply(l):
                left ^= {(l2, r2, r)}
        right: set = set()
        for l, r in _comult_pairs(a):
            for l2, r2 in comultiply(r):
                right ^= {(l, l2, r2)}
        assert left == right


def test_frobenius_compatibility():
    # Delta(a.b) = (a (x) 1) . Delta(b), both as pair sets
    for a, b in product(BASIS, repeat=2):
        left: set = set()
        for m in multiply(a, b):
            left ^= set(comultiply(m))
        right: set = set()
        for l, r in comultiply(b):
            for m in multiply(a, l):
                right ^= {(m, r)}
        assert left == right


# -- vertex spaces ----------------------------------------------------


def test_vertex_space_indexing():
    s = VertexSpace((3, 7))
    assert s.dim == 4
    # first circle most significant: order 11, 1X, X1, XX
    assert s.state_of_index(0) == (ONE, ONE)
    assert s.state_of_index(1) == (ONE, X)
    assert s.state_of_index(2) == (X, ONE)
    assert s.state_of_index(3) == (X, X)
    for idx in range(4):
        assert s.index_of_state(s.state_of_index(idx)) == idx
    assert s.bit_of(3) == 1 and s.bit_of(7) == 0
    with pytest.raises(ValueError):
        s.index_of_state((ONE, 2))


def test_empty_vertex_space():
    s = VertexSpace(())
    assert s.dim == 1
    assert s.state_of_index(0) == ()


# -- edge matrices ----------------------------------------------------


def naive_edge_matrix(cube, i, j):
    """Rebuild one block scalar-by-scalar from the tables."""
    cob = cube.edges[(i, j)]
    si = VertexSpace(cube.vertices[i].circles)
    sj = VertexSpace(cube.vertices[j].circles)
    dense = [[0] * si.dim for _ in range(sj.dim)]
    for col in range(si.dim):
        state = dict(zip(si.circles, si.state_of_index(col)))
        if isinstance(cob, Merge):
            outs = [{cob.target: m} for m in MULT_TABLE[(state[cob.sources[0]], state[cob.sources[1]])]]
            gone = set(cob.sources)
        else:
            a, b = cob.targets
            outs = [{a: l, b: r} for l, r in COMULT_TABLE[state[cob.source]]]
            gone = {cob.source}
        for out in outs:
            full = {c: v for c, v in state.items() if c not in gone}
            full.update(out)
            row = sj.index_of_state(tuple(full[c] for c in sj.circles))
            dense[row][col] ^= 1
    return F2Matrix.from_dense(dense)


def test_edge_matrices_match_tables():
    rng = random.Random(0)
    words = ["s2 s2", "s1 s2^-1 s1", "s2 s2 s2", "s3 s1 s2^-1"]
    for word in words:
        cube = cube_of(word, 4)
        for i, j in cube.edge_pairs():
            assert edge_map_matrix(cube, i, j) == naive_edge_matrix(cube, i, j)
    for _ in range(6):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 5)))
        cube = build_cube(braid_to_twists(b), strands)
        for i, j in cube.edge_pairs():
            assert edge_map_matrix(cube, i, j) == naive_edge_matrix(cube, i, j)


def test_edge_columns_are_sparse():
    # merge: one output unless both inputs are X; split: two unless X
    cube = cube_of("s2 s2 s2", 4)
    for i, j in cube.edge_pairs():
        m = edge_map_matrix(cube, i, j).to_dense()
        col_sums = m.sum(axis=0)
        assert set(col_sums.tolist()) <= {0, 1, 2}


def test_spectators_tensor_factor():
    """Flipping a spectator circle commutes with every edge map."""
    cube = cube_of("s1 s2^-1 s1", 4)
    for (i, j), cob in cube.edges.items():
        si = VertexSpace(cube.vertices[i].circles)
        sj = VertexSpace(cube.vertices[j].circles)
        active = set(cob.sources) if isinstance(cob, Merge) else {cob.source}
        spectators = [c for c in si.circles if c not in active]
        m = edge_map_matrix(cube, i, j).to_dense()
        for spect in spectators:
            bi, bo = si.bit_of(spect), sj.bit_of(spect)
            for col in range(si.dim):
                for row in range(sj.dim):
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
        for w in sorted(set(ow)):
            lo, hi = fc.block_range(w)
            t0, t1 = fc.block_range(w + 1)
            blk = fc.differential.submatrix(t0, t1, lo, hi)
            ref = od[np.ix_(np.flatnonzero(w_arr == w + 1), np.flatnonzero(w_arr == w))]
            assert rank(blk) == dense_rank(ref)


def test_d_squared_zero():
    rng = random.Random(2)
    for _ in range(10):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 6)))
        cc = assemble_complex(build_cube(braid_to_twists(b), strands))
        assert matmul(cc.d1, cc.d1).is_zero()


def test_face_check_catches_corruption(monkeypatch):
    """A deliberately tampered edge block must fail the face check."""
    original = tqft._edge_columns
    state = {"hit": False}

    def tampered(space_i, space_j, cob):
        cm = original(space_i, space_j, cob)
        if not state["hit"] and space_i.dim >= 2:
            state["hit"] = True
            out_a = cm.out_a.copy()
            out_a[0] = (out_a[0] + 1) % cm.dim_out
            return tqft._ColumnMap(cm.dim_in, cm.dim_out, out_a, cm.out_b, cm.terms)
        return cm

    monkeypatch.setattr(tqft, "_edge_columns", tampered)
    with pytest.raises(ConsistencyError):
        assemble_complex(cube_of("s2 s2", 4))
    assert state["hit"]


def test_to_filtered_shape():
    cc = assemble_complex(cube_of("s2 s2 s2", 4))
    fc = cc.to_filtered()
    assert fc.n == cc.total_dim == 30
    assert list(fc.components) == [1]
    assert fc.weights == cc.weights
    assert all(a <= b for a, b in zip(fc.weights, fc.weights[1:]))
