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

D is stored as one block per shift r >= 1 and source weight w, each as
its entries (``F2Coo``); dense matrices are built only for the parts that
``d∘d``, a rank or a window needs.  When q is given, every entry keeps it
and some block is wider than one 64-bit word, D∘D goes one q-grade at a
time across all weights, as Bar-Natan computes Khovanov homology one
q-degree at a time (arXiv:math/0201043), so only one grade's dense parts
are held at once.

z_1^w is the number m_w of weight-w generators, and z_2^w = m_w - rk_w,
where rk_w is the rank of the (1, w) block.  A pure weight-1
differential, such as the cube's, has z_r^w = z_2^w for r >= 2.  Only
wider windows of a complex with higher maps are built, from the blocks,
and eliminated.

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
from .f2linalg import _WORD, F2Coo, F2Matrix, _set_bits, kernel_basis, matmul, rank

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
    block of D from the weight-w generators to the weight-(w + r) ones, as
    an ``F2Coo``.
    Rows index targets, columns sources, each in generator order.
    q, when given, is a second grading of the generators that every
    (1, w) block preserves (the cube's quantum grading).  mark, when
    given with q, is a bool per generator that flags the cube's reduced
    subcomplex C~, whose (w, q) sub-blocks give every rank of the (1, w)
    blocks.
    """

    weights: tuple[int, ...]
    blocks: dict[tuple[int, int], F2Coo]
    q: np.ndarray | None = None
    mark: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(int, self.weights)))
        if any(map(gt, self.weights, self.weights[1:])):
            raise ValueError("generator weights must be sorted ascending")
        for (r, w), blk in self.blocks.items():
            if not isinstance(r, int) or not isinstance(w, int) or r < 1:
                raise ValueError(f"block key {(r, w)!r} must be integers (shift >= 1, source weight)")
            if not isinstance(blk, F2Coo):
                raise TypeError(f"block {(r, w)} must be an F2Coo, not {type(blk).__name__}")
            (lo, hi), (t_lo, t_hi) = self.block_range(w), self.block_range(w + r)
            if blk.shape != (t_hi - t_lo, hi - lo):
                raise ValueError(f"block {(r, w)} has shape {blk.shape}, expected {(t_hi - t_lo, hi - lo)}")
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
        """The diagonal block of D on the generators of weights [lo, hi), from the blocks' entries."""
        base, top = self.low_index(lo), self.low_index(hi)
        ri, ci = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for (r, w), blk in self.blocks.items():
            if lo <= w and w + r < hi:
                ri.append(blk.ri + (self.low_index(w + r) - base))
                ci.append(blk.ci + (self.low_index(w) - base))
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
        return max((r for (r, _), blk in self.blocks.items() if blk.nnz), default=0)

    def _graded_by_q(self) -> bool:
        """Does D∘D go one q-grade at a time?  Only if q is given, every entry
        keeps it, and some block is wider than one 64-bit word: a narrower
        block costs one word per row whole, so grading it saves nothing."""
        if self.q is None or all(blk.cols <= _WORD for blk in self.blocks.values()):
            return False
        return all(
            np.array_equal(self.q[self.low_index(w + r) + blk.ri], self.q[self.low_index(w) + blk.ci])
            for (r, w), blk in self.blocks.items()
        )

    @cached_property
    def _d_squared(self) -> DSquaredReport:
        """D∘D one grade at a time, lowest first, and in each grade one source
        weight at a time, lowest first.

        The grade is q when ``_graded_by_q`` holds, else one grade for all.
        Each weight's generators and each block's entries are grouped by grade
        once.  For one grade, every block is cut once into its dense part
        between the generators of that grade, each indexed by its position
        among them.  Since D keeps the grade, so does D∘D, and for source
        weight w the products B(s, w + r)·B(r, w) of the parts are summed per
        target weight before the zero test.  A grade's parts are freed before
        the next grade's are cut.  In a grade, the lowest failing generator is
        the lowest bit of the OR of the failing products' rows at its lowest
        failing weight; the witness is the lowest over all grades.  The image
        is its whole column of D∘D, read from one word column of each product
        of its grade and mapped back to generators.
        """
        graded = self._graded_by_q()
        by_source: dict[int, list[int]] = {}
        for r, w in self.blocks:
            by_source.setdefault(w, []).append(r)
        by_weight = {}  # weight -> its generators grouped by grade
        for w in {w + d for r, w in self.blocks for d in (0, r)}:
            lo, hi = self.block_range(w)
            by_weight[w] = _Grading(self.q[lo:hi] if graded else None, hi - lo)
        entries = {  # block key -> {grade: indices of its entries in that grade}
            (r, w): _by_grade(self.q[self.low_index(w) + blk.ci] if graded else None, blk.nnz)
            for (r, w), blk in self.blocks.items()
        }

        def lowest_failing(v: int) -> tuple[int, int] | None:
            """The lowest failing generator of grade v and its image, if any."""
            parts = {}
            for (r, w), e in entries.items():
                if v in e:
                    blk = self.blocks[(r, w)]
                    parts[(r, w)] = _part(by_weight[w], by_weight[w + r], v, blk.ri[e[v]], blk.ci[e[v]])
            for w in sorted(by_source):
                sums: dict[int, np.ndarray] = {}  # target weight -> the words of the summed products
                for r in by_source[w]:
                    for s in by_source.get(w + r, ()):
                        if (r, w) in parts and (s, w + r) in parts:
                            prod, t = matmul(parts[(s, w + r)], parts[(r, w)]).words, w + r + s
                            sums[t] = sums[t] ^ prod if t in sums else prod
                failing = {t: p for t, p in sums.items() if p.any()}
                if failing:
                    used = np.bitwise_or.reduce([np.bitwise_or.reduce(p, axis=0) for p in failing.values()])
                    j = int(_set_bits(used, used.size, np.flatnonzero(used)[:1])[1][0])
                    word, bit = j // _WORD, np.uint64(j % _WORD)
                    # the target blocks are disjoint, so adding their columns is a union
                    image = 0
                    for t, p in failing.items():
                        targets = self.low_index(t) + by_weight[t].members[v]
                        image |= sum(1 << int(targets[i]) for i in np.flatnonzero(p[:, word] >> bit & np.uint64(1)))
                    return self.low_index(w) + int(by_weight[w].members[v][j]), image
            return None

        failures = [f for f in map(lowest_failing, sorted(set().union(*entries.values()))) if f is not None]
        witness, image = min(failures, default=(None, None))
        return DSquaredReport(witness is None, witness=witness, image=image)


def _by_grade(g: np.ndarray | None, n: int, kept: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Indices 0..n-1, or those in the mask kept, grouped by a grade g, each
    group ascending, keyed by the grades in ascending order; all in one grade
    0 when g is None."""
    if g is None:
        return {0: np.arange(n)}
    if kept is None:
        order = np.argsort(g, kind="stable")
    else:
        kept = np.flatnonzero(kept)
        order = kept[np.argsort(g[kept], kind="stable")]
    s = g[order]
    starts = np.flatnonzero(np.diff(s, prepend=s[:1] - 1)).tolist()
    return {v: order[a:b] for v, a, b in zip(s[starts].tolist(), starts, [*starts[1:], s.size])}


class _Grading:
    """Generators 0..n-1, or those in the mask kept, grouped by a grade g
    (``_by_grade``): members[v] are those of grade v, ascending, and pos[i] is
    generator i's position among them (0 if not kept)."""

    __slots__ = ("members", "pos")

    def __init__(self, g: np.ndarray | None, n: int, kept: np.ndarray | None = None):
        self.members = _by_grade(g, n, kept)
        if g is None:  # the positions are then the generators themselves
            self.pos = self.members[0]
            return
        self.pos = np.zeros(n, dtype=np.int64)
        for m in self.members.values():
            self.pos[m] = np.arange(m.size)


def _part(src: _Grading, tgt: _Grading, v: int, ri: np.ndarray, ci: np.ndarray) -> F2Matrix:
    """The dense part between the generators of grade v of a block's entries
    (ri, ci), all from sources of grade v."""
    return F2Matrix.from_coo(tgt.members[v].size, src.members[v].size, tgt.pos[ri], src.pos[ci])


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


def load_higher_maps(fc: FilteredComplex, table: dict[tuple[int, int], F2Coo]) -> FilteredComplex:
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
    for key, blk in table.items():
        merged[key] = merged[key] + blk if key in merged else blk
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
        return {w: rank(fc.blocks[(1, w)].to_matrix()) if (1, w) in fc.blocks else 0 for w in fc.weight_values}
    ranks, reduced = {}, {}
    for w in fc.weight_values:
        (lo, hi), (t_lo, t_hi) = fc.block_range(w), fc.block_range(w + 1)
        src, tgt = fc.mark[lo:hi], fc.mark[t_lo:t_hi]
        reduced[w] = 0
        if (1, w) in fc.blocks:
            rows, cols = fc.blocks[(1, w)].ri, fc.blocks[(1, w)].ci  # row-major
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
            by_src, by_tgt = _Grading(q_src, hi - lo, src), _Grading(q_tgt, t_hi - t_lo, tgt)
            for qv, e in _by_grade(q_src[cols], cols.size).items():
                reduced[w] += rank(_part(by_src, by_tgt, qv, rows[e], cols[e]))
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
