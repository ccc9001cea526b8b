"""Bit-packed exact linear algebra over the two-element field.

Matrices are stored row-major, 64 columns per uint64 word, with the
padding bits of the last word kept at zero.  Every operation is pure:
arguments are never mutated and results are freshly allocated.  Storage
is dense.  ``matmul`` visits only the set bits of its left operand and
costs nnz(a)·⌈b.cols/64⌉ word XORs, so squaring a sparse matrix such as
a cube differential (at most 2 entries per edge per column) is cheap.
``_set_bits`` lists set bits for it and for ``specseq`` by unpacking only
the nonzero bytes of the nonzero words.

``rank`` counts the owners of ``_echelon``, which reduces every row at
once, one round per rise of the rows' lowest set bits (the lowest-one
pivot rule of persistent-homology column reduction).  ``rref``, which
serves only ``kernel_basis``, eliminates over Python ints instead: each
row is one int with its bits reversed, so its leftmost column is its
highest bit and ``int.bit_length`` finds the pivot.  That suits the page
windows, of 100-4,000 columns at about half rank, where numpy's per-call
overhead dominated a loop over the columns.  ``rank`` stays on rounds:
on the thousands of rows of the d_1 sub-blocks of 4-strand ``s2^10`` and
``s2^11`` the same int loop was two to four times slower.
``kernel_basis`` is read off the reduced rows by numpy indexing.
``F2Matrix.transpose`` goes through a dense 0/1 array.  Nothing in the
package calls it: it is kept because ``perfbench/spans.py`` wraps it and
``perfbench/micro.py`` replays it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "F2Matrix",
    "Subspace",
    "matmul",
    "rank",
    "rref",
    "kernel_basis",
]

_WORD = 64
_STEP_WORDS = 1 << 16  # words of b gathered per matmul step (512 KiB)
# byte -> its bits in reverse order; rref's rows are read and written through it
_REV = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _nwords(cols: int) -> int:
    return (cols + _WORD - 1) // _WORD


class F2Matrix:
    """Dense matrix over GF(2); rows packed into uint64 words."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if words.shape != (rows, _nwords(cols)) or words.dtype != np.uint64:
            raise ValueError("words array does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.words = words

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, np.zeros((rows, _nwords(cols)), dtype=np.uint64))

    @classmethod
    def from_dense(cls, arr) -> "F2Matrix":
        """Build from any 0/1 array-like (entries taken mod 2)."""
        a = np.asarray(arr, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise ValueError("from_dense expects a 2-d array")
        rows, cols = a.shape
        nw = _nwords(cols)
        padded = np.zeros((rows, nw * _WORD), dtype=np.uint8)
        padded[:, :cols] = a
        packed = np.packbits(padded, axis=1, bitorder="little")
        return cls(rows, cols, packed.view("<u8").astype(np.uint64))

    @classmethod
    def from_coo(cls, rows: int, cols: int, ri, ci) -> "F2Matrix":
        """Build from coordinate lists, entries accumulated mod 2."""
        out = cls.zeros(rows, cols)
        ri = np.asarray(ri, dtype=np.int64)
        ci = np.asarray(ci, dtype=np.int64)
        bits = np.uint64(1) << (ci % _WORD).astype(np.uint64)
        np.bitwise_xor.at(out.words, (ri, ci // _WORD), bits)
        return out

    # -- accessors ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_dense(self) -> np.ndarray:
        if self.cols == 0:
            return np.zeros((self.rows, 0), dtype=np.uint8)
        bytes_ = self.words.astype("<u8").view(np.uint8)
        bits = np.unpackbits(bytes_, axis=1, bitorder="little")
        return bits[:, : self.cols]

    def is_zero(self) -> bool:
        return not self.words.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.words, other.words)

    __hash__ = None  # mutable container semantics

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return F2Matrix(self.rows, self.cols, self.words ^ other.words)

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_dense(self.to_dense().T)


def matmul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Matrix product over GF(2).

    Row i of the product is the XOR of the rows b[k] over the set bits
    (i, k) of a, so the cost is nnz(a)·⌈b.cols/64⌉ word XORs: the set
    bits are listed from the nonzero words of a, and the gathered rows
    of b are XOR-reduced per output row in steps of at most
    ``_STEP_WORDS`` words.  A row whose terms straddle two steps is
    simply XORed into twice.
    """
    if a.cols != b.rows:
        raise ValueError(f"inner dimension mismatch {a.shape} @ {b.shape}")
    nw = _nwords(b.cols)
    out = np.zeros((a.rows, nw), dtype=np.uint64)
    step = max(1, _STEP_WORDS // max(nw, 1))  # terms gathered per step
    chunk = max(1, _STEP_WORDS // _WORD)  # words of a listed at once: <= _STEP_WORDS terms
    words = a.words.reshape(-1)
    flat = np.flatnonzero(words)
    for w0 in range(0, flat.size, chunk):
        rows, ks = _set_bits(words, a.words.shape[1], flat[w0 : w0 + chunk])
        for t0 in range(0, rows.size, step):
            r, k = rows[t0 : t0 + step], ks[t0 : t0 + step]
            starts = np.flatnonzero(np.diff(r, prepend=-1))  # first term of each row
            out[r[starts]] ^= np.bitwise_xor.reduceat(b.words[k], starts, axis=0)
    return F2Matrix(a.rows, b.cols, out)


def _set_bits(words: np.ndarray, row_words: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit in the words at the given flat indices
    of a matrix's raveled words; row-major when the indices ascend.

    Only the nonzero bytes of those words are unpacked, 8 bits each, so a
    sparse word costs a few bytes' bits rather than all 64.
    """
    packed = words[flat].astype("<u8").view(np.uint8)
    nonzero = np.flatnonzero(packed)
    t, bit = np.nonzero(np.unpackbits(packed[nonzero, None], axis=1, bitorder="little"))
    byte = nonzero[t]
    rows, w = np.divmod(flat[byte >> 3], row_words)
    return rows, w * _WORD + (byte & 7) * 8 + bit


def _column_bits(words: np.ndarray, col: int) -> np.ndarray:
    return ((words[:, col // _WORD] >> np.uint64(col % _WORD)) & np.uint64(1)).astype(bool)


def rref(m: F2Matrix) -> tuple[F2Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, rank, pivot columns).

    Leftmost-pivot, eliminate-above-and-below, so R is the canonical
    basis of the row space (padded with zero rows).

    Each row is one Python int with its bits reversed: its bytes read
    big-endian after ``_REV``, so column c is bit 64·nw − 1 − c and a row's
    leftmost column is its highest bit, which ``int.bit_length`` finds in
    O(1) (a lowest-bit key would need ``x & -x``, two more big ints a
    step).  The forward pass XORs each row with the basis row owning its
    highest bit until that bit is new or the row vanishes.  The backward
    pass clears the pivots rightmost first: a row XORs in the cleared row
    owning each other pivot bit it has, which adds no pivot bit, so the
    cost follows the fill of R rather than rank².  The rows are written
    back through ``_REV`` into one byte buffer, never a dense 0/1 array.
    ``rank`` does not use this loop (see the module docstring).
    """
    nb = m.words.shape[1] * 8  # bytes per row
    flat = _REV[m.words.astype("<u8").view(np.uint8)].tobytes()
    owner: dict[int, int] = {}  # highest bit -> basis row
    for i in range(m.rows):
        x = int.from_bytes(flat[i * nb : (i + 1) * nb], "big")
        while x:
            h = x.bit_length()
            y = owner.get(h)
            if y is None:
                owner[h] = x
                break
            x ^= y
    del flat  # the ints hold the rows now
    below = 0  # the pivot bits already cleared, all lower than the next
    for h in sorted(owner):
        x = owner[h]
        t = x & below
        while t:
            x ^= owner[t.bit_length()]
            t = x & below
        owner[h] = x
        below |= 1 << (h - 1)
    order = sorted(owner, reverse=True)  # leftmost pivot first
    out = np.zeros((m.rows, nb), dtype=np.uint8)
    view = memoryview(out.reshape(-1))
    for i, h in enumerate(order):
        view[i * nb : (i + 1) * nb] = owner.pop(h).to_bytes(nb, "big")
    w = _REV[out].view("<u8").astype(np.uint64, copy=False)
    return F2Matrix(m.rows, m.cols, w), len(order), tuple(nb * 8 - h for h in order)


def _echelon(m: F2Matrix) -> np.ndarray:
    """The pivot columns of an echelon basis of m's row space: the distinct
    lowest set bits, ascending, of the rows that end up owning them.

    Each round reads the lowest set bit of every unsettled row at once.  A
    row whose lowest bit already has an owner XORs that owner in; among the
    rows sharing a new lowest bit one becomes its owner and the others XOR it
    in.  Owners and zero rows settle.  An owner has no bit below its
    lowest, so the XOR clears a row's lowest bit and sets none below it: a
    row's lowest bit only rises, and after at most cols rounds every row has
    settled.  The owners have distinct lowest bits, so they are independent.
    """
    owner = np.full(m.cols, -1, dtype=np.int64)  # column -> row of own whose lowest bit it is
    pick = np.empty(m.cols, dtype=np.int64)
    live = m.words[m.words.any(axis=1)]  # a copy: fancy indexing
    own = np.empty((min(m.rows, m.cols), live.shape[1]), dtype=np.uint64)
    k = 0
    while live.shape[0]:
        j = (live != 0).argmax(axis=1)
        word = live[np.arange(live.shape[0]), j]
        low = j * _WORD + np.bitwise_count((word & (~word + np.uint64(1))) - np.uint64(1))
        cand = np.flatnonzero(owner[low] < 0)
        pick[low[cand]] = cand  # one row per new lowest bit is left written
        won = cand[pick[low[cand]] == cand]
        own[k : k + won.size] = live[won]
        owner[low[won]] = np.arange(k, k + won.size)
        k += won.size
        live ^= own[owner[low]]  # an owner clears itself
        live = live[live.any(axis=1)]
    return np.flatnonzero(owner >= 0)


def rank(m: F2Matrix) -> int:
    """Rank over GF(2): the number of owners ``_echelon`` settles.

    It runs in rounds, one per rise of the rows' lowest set bits, not one
    per column: each round reduces every unsettled row at once, and the
    rounds end because a reduced row's lowest bit only rises.
    """
    return _echelon(m).size


def kernel_basis(m: F2Matrix) -> "Subspace":
    """Right null space {v : m v = 0} as a Subspace of F_2^cols.

    Free column f contributes the vector with bit f set and bit p_i set
    wherever pivot row i of the RREF has a 1 in column f.  The rows come
    in ascending order of their free column, and row f is the only one
    with bit f set, so they are independent.
    """
    R, rk, pivots = rref(m)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[list(pivots)] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, m.cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, list(pivots)] = R.to_dense()[:rk, free].T
    return Subspace(F2Matrix.from_dense(basis))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of F_2^cols spanned by the independent rows of ``basis``."""

    basis: F2Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows
