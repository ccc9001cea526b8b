"""Bit-packed GF(2) kernels checked against the dense references."""

import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from platcube import f2linalg
from platcube.cube import braid_to_twists, build_cube
from platcube.f2linalg import (
    F2Matrix,
    kernel_basis,
    matmul,
    rank,
    rref,
)
from platcube.tangle import parse_braid_word
from platcube.tqft import assemble_complex

from oracles import dense_kernel, dense_matmul, dense_rank, dense_rref


def rand_dense(rng, rows, cols, density=0.5):
    flat = np.array([rng.random() < density for _ in range(rows * cols)], dtype=np.uint8)
    return flat.reshape(rows, cols)


# -- round trips ------------------------------------------------------


def test_dense_roundtrip():
    rng = random.Random(0)
    for rows, cols in [(1, 1), (3, 64), (5, 65), (7, 200), (64, 3)]:
        a = rand_dense(rng, rows, cols)
        m = F2Matrix.from_dense(a)
        assert m.shape == (rows, cols)
        assert np.array_equal(m.to_dense(), a)


def test_bitstring_orientation():
    # column j of a dense row is column j of its COO form
    m = F2Matrix.from_dense([[1, 0, 0], [0, 1, 0]])
    assert m == F2Matrix.from_coo(2, 3, [0, 1], [0, 1])
    assert m.to_dense().tolist() == [[1, 0, 0], [0, 1, 0]]


def test_coo_parity():
    # duplicate coordinates cancel mod 2
    m = F2Matrix.from_coo(2, 3, np.array([0, 0, 1, 0]), np.array([1, 1, 2, 2]))
    assert m.to_dense().tolist() == [[0, 0, 1], [0, 0, 1]]


def test_empty_shapes():
    z = F2Matrix.zeros(0, 5)
    assert rank(z) == 0
    assert rank(F2Matrix.zeros(7, 0)) == 0
    assert z.transpose().shape == (5, 0)
    assert matmul(z, F2Matrix.zeros(5, 4)).shape == (0, 4)
    assert kernel_basis(z).dim == 5  # nothing constrains the domain


# -- agreement with the dense oracle ----------------------------------


def elimination_cases(rng, count):
    """(kind, matrix) pairs: wide, square and tall matrices of 0-300 rows and
    columns, so rows span several words, from density 0.01 to 0.9; some with
    duplicated rows, some with groups of rows that share a lowest set bit.
    Every kind comes up at least 20 times in 160 cases."""
    kinds = ("plain", "duplicated", "shared lowest bit")
    for _ in range(count):
        rows, cols = (int(x) for x in rng.integers(0, 301, 2))
        a = (rng.random((rows, cols)) < rng.choice([0.01, 0.05, 0.1, 0.5, 0.9])).astype(np.uint8)
        kind = rng.choice(kinds) if rows >= 2 and cols else "plain"
        if kind == "duplicated":
            a[rng.integers(0, rows, rows // 2)] = a[rng.integers(0, rows, rows // 2)]
        elif kind == "shared lowest bit":
            for _ in range(3):
                group = rng.integers(0, rows, max(2, rows // 4))
                c = int(rng.integers(0, cols))
                a[group, :c] = 0
                a[group, c] = 1
        yield kind, a


def test_rank_matches_dense():
    """rank agrees with the dense oracle on elimination_cases and leaves its
    argument as it was."""
    kinds = Counter()
    for kind, a in elimination_cases(np.random.default_rng(2), 160):
        kinds[kind] += 1
        m = F2Matrix.from_dense(a)
        before = m.words.copy()
        assert rank(m) == dense_rank(a)
        assert np.array_equal(m.words, before)
    assert len(kinds) == 3 and min(kinds.values()) >= 20, kinds


def test_rref_matches_dense():
    """rref gives the dense oracle's reduced rows and pivots on
    elimination_cases, on zero rows or columns, and on widths at the 64- and
    128-bit word boundaries.  It leaves its argument as it was, its pivots
    are _echelon's (the leading columns of a row space are unique), and it
    is idempotent."""
    rng = np.random.default_rng(3)
    cases = [a for _, a in elimination_cases(rng, 160)]
    cases += [np.zeros(shape, dtype=np.uint8) for shape in ((0, 0), (0, 70), (5, 0), (0, 300), (4, 130))]
    for cols in (63, 64, 65, 127, 128, 129, 191, 192, 193):
        cases += [(rng.random((rows, cols)) < 0.5).astype(np.uint8) for rows in (3, cols, 2 * cols)]
        cases.append(np.ones((4, cols), dtype=np.uint8))
    for a in cases:
        m = F2Matrix.from_dense(a)
        before = m.words.copy()
        got, rk, pivots = rref(m)
        ref, ref_pivots = dense_rref(a)
        assert np.array_equal(m.words, before)
        assert rk == len(ref_pivots)
        assert pivots == tuple(ref_pivots) == tuple(f2linalg._echelon(m).tolist())
        assert got.shape == m.shape and got.words.dtype == np.uint64
        assert np.array_equal(got.to_dense(), ref)
        again, rk2, _ = rref(got)
        assert rk2 == rk and again == got  # idempotent


def test_matmul_matches_dense(monkeypatch):
    def check(a, b):
        got = matmul(F2Matrix.from_dense(a), F2Matrix.from_dense(b))
        assert got.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(got.to_dense(), dense_matmul(a, b))
        return got

    rng = random.Random(4)
    for _ in range(60):
        n, k, m = rng.randint(1, 30), rng.randint(1, 130), rng.randint(1, 30)
        check(rand_dense(rng, n, k), rand_dense(rng, k, m))
    # output widths around word boundaries
    for m in (63, 64, 65, 128, 129):
        check(rand_dense(rng, 9, 70), rand_dense(rng, 70, m))
    # bit 63 of a word, and all-ones words, on either side
    ones = np.ones((5, 128), dtype=np.uint8)
    edge = np.zeros((128, 129), dtype=np.uint8)
    edge[63, :] = edge[127, :] = edge[:, 63] = edge[:, 127] = 1
    check(ones, edge)
    check(edge.T, np.ones((128, 65), dtype=np.uint8))
    # all-zero rows of a, among others and throughout
    a = rand_dense(rng, 12, 80)
    a[[0, 5, 6, 11]] = 0
    check(a, rand_dense(rng, 80, 40))
    assert check(np.zeros((4, 80), dtype=np.uint8), rand_dense(rng, 80, 40)).is_zero()
    # empty inner dimension k and empty output width m
    assert check(np.zeros((6, 0), dtype=np.uint8), np.zeros((0, 7), dtype=np.uint8)).is_zero()
    check(rand_dense(rng, 6, 70), np.zeros((70, 0), dtype=np.uint8))
    # steps of a few words: every row's terms straddle several steps
    monkeypatch.setattr(f2linalg, "_STEP_WORDS", 5)
    check(rand_dense(rng, 7, 130, 0.9), rand_dense(rng, 130, 129))
    monkeypatch.undo()
    # a cube differential squares to zero
    cube = build_cube(braid_to_twists(parse_braid_word("s2 s2 s2 s2 s2", 4)), 4)
    d = assemble_complex(cube).to_filtered().differential
    assert check(d.to_dense(), d.to_dense()).is_zero()


def test_set_bits_match_dense():
    """_set_bits lists the (row, column) of every set bit, row-major, as
    np.nonzero of the dense matrix does, also when the nonzero words are
    passed in chunks, as matmul passes them."""

    def check(a, chunk=None):
        m = F2Matrix.from_dense(a)
        words = m.words.reshape(-1)
        flat = np.flatnonzero(words)
        step = chunk or max(flat.size, 1)
        parts = [f2linalg._set_bits(words, m.words.shape[1], flat[i : i + step]) for i in range(0, flat.size, step)]
        rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [r for r, _ in parts])
        cols = np.concatenate([np.zeros(0, dtype=np.int64)] + [c for _, c in parts])
        want = np.nonzero(m.to_dense())
        assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])

    rng = random.Random(8)
    for _ in range(40):
        rows, cols = rng.randint(1, 20), rng.randint(1, 200)
        a = rand_dense(rng, rows, cols, rng.choice([0.01, 0.1, 0.5, 0.95]))
        check(a)
        check(a, chunk=rng.randint(1, 5))
    # bit 63 of a word, all-ones words and words with one set byte
    edge = np.zeros((6, 192), dtype=np.uint8)
    edge[:, 63] = edge[:, 127] = edge[1, :] = 1
    edge[3, 64:72] = 1
    check(edge)
    check(edge, chunk=1)
    check(np.ones((3, 128), dtype=np.uint8), chunk=2)
    # empty matrices and a matrix with no set bit
    for shape in ((0, 0), (0, 70), (5, 0), (4, 130)):
        check(np.zeros(shape, dtype=np.uint8))


def test_kernel_matches_dense():
    def check(a):
        ker = kernel_basis(F2Matrix.from_dense(a))
        k = ker.basis.to_dense()
        assert ker.basis.shape == (a.shape[1] - dense_rank(a), a.shape[1])
        assert not dense_matmul(a, k.T).any()
        # independent, and spanning the same space as the dense kernel
        ref = dense_kernel(a)
        assert dense_rank(k) == ker.dim == len(ref)
        assert dense_rank(np.vstack([k, ref])) == ker.dim

    rng = random.Random(5)
    for _ in range(60):
        check(rand_dense(rng, rng.randint(1, 25), rng.randint(1, 80)))
    # widths around word boundaries
    for cols in (63, 64, 65, 129):
        check(rand_dense(rng, 20, cols))
        check(rand_dense(rng, 70, cols, 0.1))
    # all-zero: the whole domain; full column rank: nothing
    check(np.zeros((5, 70), dtype=np.uint8))
    full = np.vstack([np.eye(65, dtype=np.uint8), rand_dense(rng, 4, 65)])
    check(full[rng.sample(range(69), 69)])
    # 0-row and 0-column shapes
    for shape in ((0, 0), (0, 7), (0, 65), (3, 0)):
        check(np.zeros(shape, dtype=np.uint8))


def test_transpose():
    rng = random.Random(6)
    for _ in range(40):
        a = rand_dense(rng, rng.randint(1, 70), rng.randint(1, 70))
        m = F2Matrix.from_dense(a)
        t = m.transpose()
        assert np.array_equal(t.to_dense(), a.T)
        assert t.transpose() == m


def test_identity_neutral():
    rng = random.Random(10)
    a = rand_dense(rng, 20, 20)
    m = F2Matrix.from_dense(a)
    eye = F2Matrix.from_dense(np.eye(20))
    assert matmul(eye, m) == m
    assert matmul(m, eye) == m


# -- rank/nullity style properties ------------------------------------


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**20), rows=st.integers(1, 15), cols=st.integers(1, 60))
def test_rank_nullity(seed, rows, cols):
    m = F2Matrix.from_dense(rand_dense(random.Random(seed), rows, cols))
    assert rank(m) + kernel_basis(m).dim == cols
    assert rank(m) == rank(m.transpose())


# -- row spaces ------------------------------------------------------


def test_subspace_canonical_equality():
    # a shuffled, xor-mixed set of rows spans the same space: same RREF
    rng = random.Random(11)
    for _ in range(25):
        m = rand_dense(rng, rng.randint(1, 7), rng.randint(1, 70))
        mixed = m.copy()
        for _ in range(10):
            if len(mixed) >= 2:
                i, j = rng.sample(range(len(mixed)), 2)
                mixed[i] ^= mixed[j]
        mixed = mixed[rng.sample(range(len(mixed)), len(mixed))]
        assert rref(F2Matrix.from_dense(mixed))[0] == rref(F2Matrix.from_dense(m))[0]

