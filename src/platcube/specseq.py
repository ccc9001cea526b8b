"""Pages of the spectral sequence of a weight-filtered GF(2) complex.

The total complex carries an increasing integer weight per generator and a
differential split into components D_r that raise weight by exactly r.
Writing F_w for the span of generators of weight >= w, the standard
subspace chains

    Z_r^w = F_w  intersect  D^{-1}(F_{w+r})
    B_r^w = F_w  intersect  D(F_{w-r+1})

give E_r^w = Z_r^w / (Z_{r-1}^{w+1} + B_r^w), and the differential
d_r descends from D.  Because weights are sorted, every F_w is a
coordinate subspace.  Projecting to the weight-w coordinates kills
exactly Z_{r-1}^{w+1}, so dim E_r^w = z_r^w - b_r^w, where z_r^w and
b_r^w are the dimensions of the weight-w parts of Z_r^w and B_r^w.  z_r^w
is read off the kernel of the diagonal block of D on the contiguous window
of weights [w, w + r); rank d_r^w = z_r^w - z_{r+1}^w, and
b_r^w is the sum of the ranks of the d_s (s < r) that land at w.

D is stored as one block per shift r >= 1 and source weight w.  z_1^w is
the number m_w of weight-w generators, and z_2^w = m_w - rk_w, where rk_w
is the rank of the (1, w) block.  A pure weight-1 differential, such as
the cube's, has z_r^w = z_2^w for r >= 2.  Only wider windows of a complex
with higher maps are built, from the blocks, and eliminated.

A cube complex also marks the generators whose circle 0 carries X.  They
span a subcomplex C~ that keeps q, and over GF(2) Kh = Khr (x) A
(Shumakovitch, arXiv:math/0405474), so E_2^w = 2 dim H^w(C~).  The rk_w
are then read off C~ alone, half the generators, one (w, q) sub-block at a
time: with m~_w marked generators and rk~_w the rank of C~'s (1, w) block,
from the lowest weight up,

    E_2^w = 2 (m~_w - rk~_w - rk~_{w-1}),    rk_w = m_w - E_2^w - rk_{w-1}.

An entry of C~ that leaves it or moves q, or a derived rank outside its
bounds, raises ConsistencyError.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from operator import gt

import numpy as np

from .cube import ConsistencyError
from .f2linalg import F2Matrix, _column_bits, _set_bits, kernel_basis, matmul, rank

__all__ = [
    "FilteredComplex",
    "DSquaredReport",
    "verify_d_squared",
    "HigherMapError",
    "load_higher_maps",
    "PageData",
    "SpectralPages",
    "compute_pages",
    "BoundsReport",
    "rank_bounds",
]


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Weight-filtered complex: sorted generator weights + blocks of D.

    blocks maps (r, w), a shift r >= 1 and a source weight w, to the
    block of D from the weight-w generators to the weight-(w + r) ones.
    Rows index targets, columns sources, each in generator order.
    q, when given, is a second grading of the generators that every
    (1, w) block preserves (the cube's quantum grading).  mark, when
    given with q, is a bool per generator that flags the cube's reduced
    subcomplex C~, whose (w, q) sub-blocks give every rank of the (1, w)
    blocks.
    """

    weights: tuple[int, ...]
    blocks: dict[tuple[int, int], F2Matrix]
    q: np.ndarray | None = None
    mark: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(int, self.weights)))
        if any(map(gt, self.weights, self.weights[1:])):
            raise ValueError("generator weights must be sorted ascending")
        for (r, w), mat in self.blocks.items():
            if not isinstance(r, int) or not isinstance(w, int) or r < 1:
                raise ValueError(f"block key {(r, w)!r} must be integers (shift >= 1, source weight)")
            (lo, hi), (t_lo, t_hi) = self.block_range(w), self.block_range(w + r)
            if mat.shape != (t_hi - t_lo, hi - lo):
                raise ValueError(f"block {(r, w)} has shape {mat.shape}, expected {(t_hi - t_lo, hi - lo)}")
        if self.q is not None and len(self.q) != self.n:
            raise ValueError(f"q grades {len(self.q)} generators, not {self.n}")
        if self.mark is not None and (self.q is None or len(self.mark) != self.n):
            raise ValueError(f"a mark needs q and one flag per generator, not {len(self.mark)}")
        if self.mark is not None and self.mark.dtype != bool:
            raise ValueError(f"a mark must be bool, not {self.mark.dtype}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def window(self, lo: int, hi: int) -> F2Matrix:
        """The diagonal block of D on the generators of weights [lo, hi), from the blocks' set bits."""
        base, top = self.low_index(lo), self.low_index(hi)
        ri, ci = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for (r, w), mat in self.blocks.items():
            if lo <= w and w + r < hi:
                words = mat.words.reshape(-1)
                rows, cols = _set_bits(words, mat.words.shape[1], np.flatnonzero(words))
                ri.append(rows + self.low_index(w + r) - base)
                ci.append(cols + self.low_index(w) - base)
        return F2Matrix.from_coo(top - base, top - base, np.concatenate(ri), np.concatenate(ci))

    @cached_property
    def differential(self) -> F2Matrix:
        """The n-by-n matrix of D: the window over every weight."""
        return self.window(self.weights[0], self.weights[-1] + 1) if self.n else F2Matrix.zeros(0, 0)

    @cached_property
    def weight_values(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.weights)))

    def block_range(self, w: int) -> tuple[int, int]:
        """Index range [lo, hi) of generators of weight exactly w."""
        return bisect_left(self.weights, w), bisect_right(self.weights, w)

    def low_index(self, w: int) -> int:
        """First index of weight >= w (start of F_w)."""
        return bisect_left(self.weights, w)

    @property
    def max_shift(self) -> int:
        return max((r for (r, _), m in self.blocks.items() if not m.is_zero()), default=0)

    @cached_property
    def _d_squared(self) -> DSquaredReport:
        """D∘D one source weight at a time, lowest first.

        For source weight w the products B(s, w + r)·B(r, w) are summed
        per target weight before the zero test.  The witness is the lowest
        failing generator, the lowest bit of the OR of the failing products'
        rows, and the image its whole column of D∘D, read from one word
        column of each product.
        """
        by_source: dict[int, list[tuple[int, F2Matrix]]] = {}
        for (r, w), mat in self.blocks.items():
            by_source.setdefault(w, []).append((r, mat))
        for w in sorted(by_source):
            sums: dict[int, F2Matrix] = {}
            for r, first in by_source[w]:
                for s, second in by_source.get(w + r, ()):
                    prod = matmul(second, first)
                    t = w + r + s
                    sums[t] = sums[t] + prod if t in sums else prod
            failing = [(self.low_index(t), p.words) for t, p in sums.items() if not p.is_zero()]
            if failing:
                used = np.bitwise_or.reduce([np.bitwise_or.reduce(p, axis=0) for _, p in failing])
                j = int(_set_bits(used, used.size, np.flatnonzero(used)[:1])[1][0])
                # the target blocks are disjoint, so adding their columns is a union
                image = sum(1 << (lo + int(i)) for lo, p in failing for i in np.flatnonzero(_column_bits(p, j)))
                return DSquaredReport(False, witness=self.low_index(w) + j, image=image)
        return DSquaredReport(True)


@dataclass(frozen=True)
class DSquaredReport:
    ok: bool
    witness: int | None = None
    image: int | None = None


def verify_d_squared(fc: FilteredComplex) -> DSquaredReport:
    """Does the total differential square to zero?  Witness on failure.

    Computed once per complex and kept on it.
    """
    return fc._d_squared


class HigherMapError(ValueError):
    """External higher-map table breaks the complex; carries a witness."""

    def __init__(self, message: str, witness: int | None = None, image: int | None = None):
        super().__init__(message)
        self.witness = witness
        self.image = image


def load_higher_maps(fc: FilteredComplex, table: dict[tuple[int, int], F2Matrix]) -> FilteredComplex:
    """Adjoin externally supplied strictly-weight-raising blocks.

    table is keyed like ``FilteredComplex.blocks``.  Shifts must be >= 2
    and the augmented differential must still square to zero; violations
    raise (HigherMapError when a D^2 witness exists).  An empty table
    returns the complex unchanged.  The (1, w) blocks stay as they are, so
    q and the mark stay valid.
    """
    if not table:
        return fc
    for r, _ in table:
        if not isinstance(r, int) or r < 2:
            raise ValueError(f"higher map shift must be an integer >= 2, got {r!r}")
    merged = dict(fc.blocks)
    for key, mat in table.items():
        merged[key] = merged[key] + mat if key in merged else mat
    augmented = FilteredComplex(fc.weights, merged, fc.q, fc.mark)
    report = verify_d_squared(augmented)
    if not report.ok:
        raise HigherMapError(
            f"augmented differential does not square to zero (witness generator {report.witness})",
            witness=report.witness,
            image=report.image,
        )
    return augmented


# -- page computation -------------------------------------------------


@dataclass(frozen=True, eq=False)
class PageData:
    """Dimensions and differential ranks of one page, keyed by weight."""

    r: int
    dims: dict[int, int]
    d_ranks: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.dims.values())


@dataclass(eq=False)
class SpectralPages:
    """Computed pages E_1..E_stop plus the stabilization index r*.

    stabilization is the least r with E_r = E_infinity when that is
    determined by the computation, else None.
    """

    pages: tuple[PageData, ...]
    stabilization: int | None
    weight_values: tuple[int, ...]

    def page(self, r: int) -> PageData:
        if r < 1:
            raise ValueError("pages are indexed from 1")
        if r <= len(self.pages):
            return self.pages[r - 1]
        if self.stabilization is not None and self.stabilization <= len(self.pages):
            return self.pages[-1]
        raise ValueError(f"page {r} was not computed and stabilization is unknown")

    def dims(self, r: int) -> dict[int, int]:
        return dict(self.page(r).dims)

    def total(self, r: int) -> int:
        return self.page(r).total

    @property
    def e_infinity(self) -> dict[int, int]:
        if self.stabilization is None or self.stabilization > len(self.pages):
            raise ValueError("E_infinity undetermined: computation was truncated")
        return dict(self.pages[self.stabilization - 1].dims)

    @property
    def e_infinity_total(self) -> int:
        return sum(self.e_infinity.values())


def _d1_ranks(fc: FilteredComplex) -> dict[int, int]:
    """rk_w, the rank of the (1, w) block, for every weight w.

    Unmarked, each block is ranked.  Marked, only C~'s (w, q) sub-blocks are
    ranked, and rk_w is derived from the lowest weight up (module
    docstring).  Each derived rk_w must lie in [0, min(m_w - rk_{w-1},
    m_{w+1})], since D∘D = 0 puts the image of the (1, w - 1) block in the
    kernel of the (1, w) one: at the top weight it must vanish.
    """
    if fc.mark is None:
        return {w: rank(fc.blocks[(1, w)]) if (1, w) in fc.blocks else 0 for w in fc.weight_values}
    ranks, reduced = {}, {}
    for w in fc.weight_values:
        (lo, hi), (t_lo, t_hi) = fc.block_range(w), fc.block_range(w + 1)
        src, tgt = fc.mark[lo:hi], fc.mark[t_lo:t_hi]
        reduced[w] = 0
        if (1, w) in fc.blocks:
            words = fc.blocks[(1, w)].words
            rows, cols = _set_bits(words.reshape(-1), words.shape[1], np.flatnonzero(words))
            inside = src[cols]
            q_src, q_tgt = fc.q[lo:hi], fc.q[t_lo:t_hi]
            # an entry of C~ that leaves it or moves q would be missed by the sub-blocks below
            stray = np.flatnonzero(inside & ~(tgt[rows] & (q_src[cols] == q_tgt[rows])))
            if stray.size:
                e = stray[np.argmin(cols[stray])]
                g, t = lo + cols[e], t_lo + rows[e]
                where = f"from q {fc.q[g]} to q {fc.q[t]}" if tgt[rows[e]] else "out of the marked subcomplex"
                raise ConsistencyError(f"the differential takes marked generator {g} {where}, to generator {t}")
            rows, cols = rows[inside], cols[inside]
            for qv in np.unique(q_src[cols]):
                src_q, tgt_q, sel = src & (q_src == qv), tgt & (q_tgt == qv), q_src[cols] == qv
                # each marked generator's position among those of its q, in generator order
                ri, ci = (np.cumsum(tgt_q) - 1)[rows[sel]], (np.cumsum(src_q) - 1)[cols[sel]]
                reduced[w] += rank(F2Matrix.from_coo(int(tgt_q.sum()), int(src_q.sum()), ri, ci))
        below = ranks.get(w - 1, 0)
        e2 = 2 * (int(np.count_nonzero(src)) - reduced[w] - reduced.get(w - 1, 0))
        rk = ranks[w] = hi - lo - e2 - below
        bound = min(hi - lo - below, t_hi - t_lo)
        if not 0 <= rk <= bound:
            raise ConsistencyError(f"derived d_1 rank {rk} at weight {w} is outside [0, {bound}]")
    return ranks


def _cycle_dims(fc: FilteredComplex) -> Callable[[int, int], int]:
    """z(w, r) = z_r^w, the dimension of the weight-w part of Z_r^w.

    x in F_w lies in Z_r^w iff D kills its part in the window of weights
    [w, w + r) there, so the weight-w part of Z_r^w is that of the kernel of
    the window's diagonal block.  The window [w, w + 2) has z_2^w = m_w - rk_w,
    with every rk_w from ``_d1_ranks``: read off C~ when the complex is
    marked.  A window is keyed by its last weight that has generators, so
    each one is computed once: a window that already reaches past the top
    weight repeats the last.
    """
    higher = fc.max_shift > 1
    d1 = _d1_ranks(fc)

    @cache
    def window_dim(w: int, end: int) -> int:
        lo, hi = fc.block_range(w)
        if end == w + 1:  # weight w alone, where D has no block
            return hi - lo
        if end == w + 2:  # only the (1, w) block acts
            return hi - lo - d1[w]
        ker = kernel_basis(fc.window(w, end)).basis
        return rank(F2Matrix.from_dense(ker.to_dense()[:, : hi - lo]))

    def z(w: int, r: int) -> int:
        # a pure weight-1 differential has z_r = z_2 for every r >= 2
        top = fc.low_index(w + (r if higher else min(r, 2)))
        return window_dim(w, fc.weights[top - 1] + 1)

    return z


def compute_pages(fc: FilteredComplex, r_max: int | None = None) -> SpectralPages:
    """Pages E_1, E_2, ... with their differentials and ranks.

    Stops at r_max when given, else at the first page guaranteed final:
    weight spread + 1 in general, E_2 for a pure weight-1 differential,
    whose stabilization E_1's ranks already tell.  rank d_r^w = z_r^w -
    z_{r+1}^w, because the kernel of d_r^w is the weight-w part of Z_{r+1}^w
    modulo the same boundaries b_r^w.  Its image joins them at its target.
    """
    report = verify_d_squared(fc)
    if not report.ok:
        raise ValueError(
            f"differential does not square to zero (witness generator {report.witness})"
        )
    if r_max is not None and r_max < 1:
        raise ValueError("r_max must be at least 1")

    wvals = fc.weight_values
    spread = wvals[-1] - wvals[0] if wvals else 0
    higher = fc.max_shift > 1
    final = spread + 1 if higher else min(spread + 1, 2)
    stop = final if r_max is None else min(r_max, final)

    z = _cycle_dims(fc)
    pages = []
    b = dict.fromkeys(wvals, 0)
    for r in range(1, stop + 1):
        dims = {w: z(w, r) - b[w] for w in wvals}
        d_ranks = {w: z(w, r) - z(w, r + 1) for w in wvals}
        for w, k in d_ranks.items():
            # no generators at w + r: dims.get gives 0, so d_r^w must vanish
            if not 0 <= k <= min(dims[w], dims.get(w + r, 0)):
                raise ConsistencyError(f"d_{r} at weight {w} has rank {k}, beyond the pages it maps between")
            if k:
                b[w + r] += k
        pages.append(PageData(r, dims, d_ranks))

    moved = [p.r for p in pages if any(p.d_ranks.values())]
    stabilization = max(moved, default=0) + 1 if stop == final or not higher else None
    return SpectralPages(tuple(pages), stabilization, wvals)


# -- rank bounds ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Nested upper bounds: E_infinity <= ... <= E_2 <= E_1 totals.

    chain runs from the deepest page out to E_1; first_page_bound is
    the headline E_1 figure (the a-priori rank bound available before
    any differential is computed).  Per-weight chains carry the same
    labels.
    """

    chain: tuple[tuple[str, int], ...]
    per_weight: dict[int, tuple[tuple[str, int], ...]]
    first_page_bound: int


def rank_bounds(pages: SpectralPages) -> BoundsReport:
    labels: list[tuple[str, PageData]] = []
    have_inf = pages.stabilization is not None and pages.stabilization <= len(pages.pages)
    if have_inf:
        labels.append(("E_inf", pages.pages[pages.stabilization - 1]))
    for page in reversed(pages.pages):
        labels.append((f"E_{page.r}", page))
    chain = tuple((name, page.total) for name, page in labels)
    totals = [t for _, t in chain]
    if any(a > b for a, b in zip(totals, totals[1:])):
        raise ConsistencyError("page totals failed to be nested")
    per_weight = {}
    for w in pages.weight_values:
        per_weight[w] = tuple((name, page.dims.get(w, 0)) for name, page in labels)
    return BoundsReport(chain, per_weight, pages.pages[0].total)
