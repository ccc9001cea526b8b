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
from platcube.cube import ConsistencyError, Merge, Split, add_aux_unknot, braid_to_twists, build_cube, resolve_twist
from platcube.f2linalg import F2Matrix, matmul, rank
from platcube.specseq import FilteredComplex, compute_pages
from platcube.tangle import BraidWord, PlatClosure, parse_braid_word
from platcube.tqft import VertexSpace, assemble_complex

from oracles import (
    COMUL,
    MUL,
    column_map_coo,
    dense_matmul,
    dense_rank,
    graded_homology,
    naive_cube_complex,
    naive_face_check,
    naive_failing_faces,
    random_letters,
)


def cube_of(word, strands):
    return build_cube(braid_to_twists(parse_braid_word(word, strands)), strands)


def block(circles_in, circles_out, cob) -> F2Matrix:
    """One edge block, built from the sparse columns assembly uses."""
    si, sj = VertexSpace(circles_in), VertexSpace(circles_out)
    ri, ci = column_map_coo(tqft._edge_columns(si, sj, cob))
    return F2Matrix.from_coo(sj.dim, si.dim, ri, ci)


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


def test_vertex_space_indexing():
    s = VertexSpace((3, 7))
    assert s.dim == 4
    # first circle most significant: order 11, 1X, X1, XX
    assert s.bit_of(3) == 1 and s.bit_of(7) == 0
    with pytest.raises(ValueError):
        s.bit_of(5)


def test_empty_vertex_space():
    assert VertexSpace(()).dim == 1


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
    shapes = set()
    for (i, j), cob in cube.edges.items():
        ci, cj = cube.vertices[i].circles, cube.vertices[j].circles
        active_i, active_j = (cob.sources, (cob.target,)) if isinstance(cob, Merge) else ((cob.source,), cob.targets)
        shapes.add((type(cob), len(ci), tuple(map(ci.index, active_i)), tuple(map(cj.index, active_j))))
    original = tqft._edge_columns
    infos, memos = [], set()

    def spy(space_i, space_j, cob, shape_columns):
        cm = original(space_i, space_j, cob, shape_columns)
        assert not any(arr.flags.writeable for arr in (cm.out_a, cm.out_b, cm.terms))
        infos.append(shape_columns.cache_info())
        memos.add(weakref.ref(shape_columns))
        return cm

    monkeypatch.setattr(tqft, "_edge_columns", spy)
    assemble_complex(cube)
    built = infos[-1]
    assert len(infos) == len(cube.edges) == built.hits + built.misses
    assert built.misses == built.currsize == len(shapes) < len(cube.edges)
    # one memo, gone with its assembly; outside one, nothing is kept
    assert len(memos) == 1 and memos.pop()() is None
    (i, j), cob = next(iter(cube.edges.items()))
    spaces = VertexSpace(cube.vertices[i].circles), VertexSpace(cube.vertices[j].circles)
    assert original(*spaces, cob) is not original(*spaces, cob)


def test_spectators_tensor_factor():
    """Flipping a spectator circle commutes with every edge map."""
    cube = cube_of("s1 s2^-1 s1", 4)
    for (i, j), cob in cube.edges.items():
        si = VertexSpace(cube.vertices[i].circles)
        sj = VertexSpace(cube.vertices[j].circles)
        active = set(cob.sources) if isinstance(cob, Merge) else {cob.source}
        spectators = [c for c in si.circles if c not in active]
        m = edge_matrix(cube, i, j).to_dense()
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
    original = tqft._edge_columns
    state = {"hit": False}

    def tampered(space_i, space_j, cob, *memo):
        cm = original(space_i, space_j, cob, *memo)
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


def test_face_check_matches_naive_oracle(monkeypatch):
    """One tampered column of one random edge: the single D∘D square fails
    exactly when the per-face oracle does, and names the same face."""
    rng = random.Random(9)
    original = tqft._edge_columns
    outcomes = {"face": 0, "q": 0, "none": 0}
    for _ in range(150):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(2, 5)))
        cube = build_cube(braid_to_twists(b), strands)
        target = cube.edges[rng.choice(sorted(cube.edges))]
        maps = {}
        moved = {}

        def tampered(space_i, space_j, cob, *memo):
            cm = original(space_i, space_j, cob, *memo)
            if cob is target:
                col = rng.randrange(cm.dim_in)
                out_a = cm.out_a.copy()
                out_a[col] = (out_a[col] + rng.randrange(1, cm.dim_out)) % cm.dim_out
                # an entry keeps q iff its row keeps the number of X factors
                popcounts = (int(out_a[col]).bit_count(), int(cm.out_a[col]).bit_count())
                moved["q"] = cm.terms[col] >= 1 and popcounts[0] != popcounts[1]
                cm = tqft._ColumnMap(cm.dim_in, cm.dim_out, out_a, cm.out_b, cm.terms)
            maps[id(cob)] = cm
            return cm

        monkeypatch.setattr(tqft, "_edge_columns", tampered)
        try:
            assemble_complex(cube)
            err = None
        except ConsistencyError as e:
            err = str(e)
        blocks = {}
        for edge, cob in cube.edges.items():
            cm = maps[id(cob)]
            blocks[edge] = F2Matrix.from_coo(cm.dim_out, cm.dim_in, *column_map_coo(cm)).to_dense()
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
    original = tqft._edge_columns
    state = {"hit": False}

    def shifted(space_i, space_j, cob, *memo):
        cm = original(space_i, space_j, cob, *memo)
        if not state["hit"]:
            state["hit"] = True
            col = int(np.flatnonzero(cm.terms >= 1)[-1])
            out_a = cm.out_a.copy()
            out_a[col] ^= 1
            return tqft._ColumnMap(cm.dim_in, cm.dim_out, out_a, cm.out_b, cm.terms)
        return cm

    monkeypatch.setattr(tqft, "_edge_columns", shifted)
    for word, faces in (("s2", True), ("s2 s1^-1 s2", False)):
        state["hit"] = False
        with pytest.raises(ConsistencyError, match="does not preserve q"):
            assemble_complex(cube_of(word, 4), check_faces=faces)
        assert state["hit"]


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
    original = tqft._edge_columns
    state = {"hit": False}

    def leaving(space_i, space_j, cob, *memo):
        cm = original(space_i, space_j, cob, *memo)
        top = space_j.dim >> 1  # circle 0's bit in the target
        low = ~cm.out_a & (cm.out_a + 1)  # the last circle carrying 1
        cols = np.flatnonzero((cm.terms >= 1) & (np.arange(cm.dim_in) >= space_i.dim >> 1) & (low < top))
        if not state["hit"] and cols.size:
            state["hit"] = True
            out_a = cm.out_a.copy()
            out_a[cols[0]] ^= top | low[cols[0]]
            return tqft._ColumnMap(cm.dim_in, cm.dim_out, out_a, cm.out_b, cm.terms)
        return cm

    monkeypatch.setattr(tqft, "_edge_columns", leaving)
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
        ends = sorted((cc.offsets[v], cc.offsets[v] + cc.spaces[v].dim)
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


def test_face_named_at_lowest_failing_generator(monkeypatch):
    """Faces fail at two weights, the lower-weight ones at higher vertex
    integers: the face named sits at the lowest failing generator in
    generator order (weight, then vertex), not at the lowest integer."""
    cube = cube_of("s2 s2 s2 s2", 4)
    # 12->13 lies on faces at 4 and 8 (weight 1), 7->15 on faces at 3, 5 and 6 (weight 2)
    targets = [cube.edges[(12, 13)], cube.edges[(7, 15)]]
    original = tqft._edge_columns
    maps = {}

    def tampered(space_i, space_j, cob, *memo):
        cm = original(space_i, space_j, cob, *memo)
        if any(cob is t for t in targets):
            cm = tqft._ColumnMap(cm.dim_in, cm.dim_out, (cm.out_a + 1) % cm.dim_out, cm.out_b, cm.terms)
        maps[id(cob)] = cm
        return cm

    monkeypatch.setattr(tqft, "_edge_columns", tampered)
    with pytest.raises(ConsistencyError) as err:
        assemble_complex(cube)
    blocks = {}
    for edge, cob in cube.edges.items():
        cm = maps[id(cob)]
        blocks[edge] = F2Matrix.from_coo(cm.dim_out, cm.dim_in, *column_map_coo(cm)).to_dense()
    failing = naive_failing_faces(cube.n, blocks)
    assert naive_face_check(cube.n, blocks) == failing[0]
    lowest = min(v for v, _, _ in failing)
    first = min((cube.weight(v), v) for v, _, _ in failing)[1]
    assert cube.weight(first) < cube.weight(lowest)
    named = {f"face at vertex {cube.bitstring(v)} axes {a},{b} does not commute" for v, a, b in failing if v == first}
    assert str(err.value) in named
