"""Spectral pages: subspace formula vs Gaussian-cancellation oracle."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platcube import specseq
from platcube.cube import ConsistencyError, braid_to_twists, build_cube
from platcube.f2linalg import F2Matrix, matmul, rank
from platcube.specseq import (
    FilteredComplex,
    HigherMapError,
    compute_pages,
    load_higher_maps,
    rank_bounds,
    verify_d_squared,
)
from platcube.tangle import BraidWord, parse_braid_word
from platcube.tqft import assemble_complex

from oracles import (
    cancellation_pages,
    conjugate_dense,
    dense_kernel,
    dense_matmul,
    dense_rank,
    random_letters,
    split_by_block,
)


def blocks_from_dense(weights, dense):
    return {key: F2Matrix.from_dense(b) for key, b in split_by_block(weights, dense).items()}


def fc_from_dense(weights, dense):
    return FilteredComplex(tuple(weights), blocks_from_dense(weights, dense))


def filtered_of(word, strands):
    b = parse_braid_word(word, strands)
    return assemble_complex(build_cube(braid_to_twists(b), strands)).to_filtered()


def oracle_homology_dim(fc):
    """dim ker D - dim im D of the total differential, by the dense oracle."""
    return fc.n - 2 * dense_rank(fc.differential.to_dense())


def random_filtered(rng, max_len=5):
    strands = rng.choice([2, 4])
    b = BraidWord(strands, random_letters(rng, strands, rng.randint(0, max_len)))
    return assemble_complex(build_cube(braid_to_twists(b), strands)).to_filtered()


# -- construction and validation --------------------------------------


def test_weights_must_be_sorted():
    with pytest.raises(ValueError):
        FilteredComplex((1, 0), {})


def test_component_shape_checked():
    with pytest.raises(ValueError):
        FilteredComplex((0, 1), {(1, 0): F2Matrix.zeros(3, 3)})


def test_block_shape_and_key_checked():
    # 40 generators at weight 0, 40 at 1, 20 at 2: blocks cross a word boundary
    weights = (0,) * 40 + (1,) * 40 + (2,) * 20
    d = np.zeros((100, 100), dtype=np.uint8)
    d[45, 3] = d[90, 70] = d[99, 79] = 1  # shift-1 entries
    d[99, 39] = 1  # a shift-2 entry
    blocks = blocks_from_dense(weights, d)
    assert {key: m.shape for key, m in blocks.items()} == {
        (1, 0): (40, 40),
        (1, 1): (20, 40),
        (2, 0): (20, 40),
    }
    fc = FilteredComplex(weights, blocks)
    assert np.array_equal(fc.differential.to_dense(), d)
    # a block sized for the wrong weights is named in the error
    swapped = dict(blocks)
    swapped[(1, 1)] = F2Matrix.zeros(40, 20)
    with pytest.raises(ValueError, match=r"block \(1, 1\) has shape \(40, 20\), expected \(20, 40\)"):
        FilteredComplex(weights, swapped)
    # one source column too many
    with pytest.raises(ValueError, match="expected"):
        FilteredComplex(weights, {(2, 0): F2Matrix.zeros(20, 41)})
    # a block into no generators must have no rows
    FilteredComplex(weights, {(1, 2): F2Matrix.zeros(0, 20)})
    with pytest.raises(ValueError):
        FilteredComplex(weights, {(1, 2): F2Matrix.zeros(1, 20)})


def test_component_key_checked():
    # shifts below 1 and non-integer keys are refused
    for key in [(0, 0), (-1, 1), (1.0, 0), (1, "0")]:
        with pytest.raises(ValueError, match="block key"):
            FilteredComplex((0, 1), {key: F2Matrix.zeros(1, 1)})


def test_block_lookup():
    fc = FilteredComplex((0, 0, 2, 2, 2, 5), {})
    assert fc.block_range(0) == (0, 2)
    assert fc.block_range(2) == (2, 5)
    assert fc.block_range(1) == (2, 2)
    assert fc.low_index(3) == 5
    assert fc.weight_values == (0, 2, 5)


# -- d^2 verification -------------------------------------------------


def test_verify_d_squared_ok():
    fc = filtered_of("s2 s2", 4)
    report = verify_d_squared(fc)
    assert report.ok and report.witness is None


def test_verify_d_squared_witness():
    fc = fc_from_dense((0, 1, 2), np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.uint8))
    report = verify_d_squared(fc)
    assert not report.ok
    assert report.witness == 0
    assert report.image == 0b100  # generator 2
    with pytest.raises(ValueError):
        compute_pages(fc)


def test_verify_d_squared_lowest_witness():
    """With several failing columns the witness is the lowest one."""
    weights = (0, 0, 0, 1, 1, 2, 2)
    d = np.zeros((7, 7), dtype=np.uint8)
    for target, source in [(3, 1), (3, 2), (4, 2), (5, 3), (6, 3), (6, 4)]:
        d[target, source] = 1
    sq = dense_matmul(d, d)
    failing = np.flatnonzero(sq.any(axis=0))
    assert list(failing) == [1, 2]
    report = verify_d_squared(fc_from_dense(weights, d))
    assert not report.ok
    assert report.witness == failing[0]
    assert report.image == sum(int(b) << i for i, b in enumerate(sq[:, failing[0]]))


def test_verify_d_squared_sums_products_per_target():
    """Products into one target block are summed before the zero test.

    Generator 0 (weight 0) reaches 6 (weight 3) two ways, through 1 by
    shifts 1 then 2 and through 3 by shifts 2 then 1: each product alone
    is nonzero, their sum is zero.  The real failure is generator 2, one
    weight higher; generator 5, at weight 2, fails too.
    """
    weights = (0, 1, 1, 2, 2, 2, 3, 3, 4)
    d = np.zeros((9, 9), dtype=np.uint8)
    for target, source in [(1, 0), (3, 0), (6, 1), (6, 3), (4, 2), (6, 4), (7, 5), (8, 7)]:
        d[target, source] = 1
    fc = fc_from_dense(weights, d)
    one = F2Matrix.from_dense([[1], [0]])  # generator 0 to 6, not to 7
    assert matmul(fc.blocks[(2, 1)], fc.blocks[(1, 0)]) == one
    assert matmul(fc.blocks[(1, 2)], fc.blocks[(2, 0)]) == one
    sq = dense_matmul(d, d)
    assert list(np.flatnonzero(sq.any(axis=0))) == [2, 5]
    report = verify_d_squared(fc)
    assert not report.ok
    assert report.witness == 2
    assert report.image == sum(int(b) << i for i, b in enumerate(sq[:, 2])) == 1 << 6


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_witness_matches_dense_oracle(data):
    """verify_d_squared against D∘D of the whole dense differential: the
    witness is the lowest nonzero column and the image exactly its set rows.

    Inputs: random complexes with shifts from 1-3 at densities 0.01-0.3,
    and cube complexes with one to three entries of their blocks flipped.
    """
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        # some weights span two words, so the lowest failing column need not sit in word 0
        counts = data.draw(st.lists(st.integers(0, 12) | st.integers(65, 100), min_size=1, max_size=6))
        weights = np.repeat(np.arange(len(counts)), counts)
        shifts = data.draw(st.sets(st.integers(1, 3), min_size=1))
        density = data.draw(st.floats(0.01, 0.3))
        allowed = np.isin(weights[:, None] - weights[None, :], list(shifts))
        d = (allowed & (rng.random(allowed.shape) < density)).astype(np.uint8)
    else:
        strands = data.draw(st.sampled_from([2, 4, 6]))
        letters = random_letters(random.Random(seed), strands, data.draw(st.integers(1, 5 if strands < 6 else 3)))
        fc = assemble_complex(build_cube(braid_to_twists(BraidWord(strands, letters)), strands)).to_filtered()
        weights, d = fc.weights, fc.differential.to_dense()
        keys = sorted(fc.blocks)
        for _ in range(data.draw(st.integers(1, 3))):
            _, w = keys[rng.integers(len(keys))]
            (lo, hi), (t_lo, t_hi) = fc.block_range(w), fc.block_range(w + 1)
            d[rng.integers(t_lo, t_hi), rng.integers(lo, hi)] ^= 1
    sq = dense_matmul(d, d)
    failing = np.flatnonzero(sq.any(axis=0))
    report = verify_d_squared(fc_from_dense(weights, d))
    assert report.ok == (failing.size == 0)
    if failing.size:
        assert report.witness == failing[0]
        assert report.image == sum(1 << int(i) for i in np.flatnonzero(sq[:, failing[0]]))
    else:
        assert report.witness is None and report.image is None


# -- higher-map loading -----------------------------------------------


def test_empty_table_is_identity():
    fc = filtered_of("s2 s2", 4)
    assert load_higher_maps(fc, {}) is fc


def test_zero_block_changes_nothing(monkeypatch):
    fc = filtered_of("s2 s2", 4)
    w0 = fc.weight_values[0]
    lo, hi = fc.block_range(w0)
    t0, t1 = fc.block_range(w0 + 2)
    out = load_higher_maps(fc, {(2, w0): F2Matrix.zeros(t1 - t0, hi - lo)})
    assert out.q is fc.q  # shift >= 2 blocks leave the q grading valid

    def ranked(cx):
        shapes = []

        def recording(m):
            shapes.append(m.shape)
            return rank(m)

        monkeypatch.setattr(specseq, "rank", recording)
        pages = compute_pages(cx)
        monkeypatch.undo()
        assert pages.stabilization is not None
        return shapes, [(p.r, p.dims, p.d_ranks) for p in pages.pages]

    # the same (w, q) sub-blocks are ranked, not whole weight blocks
    assert ranked(out) == ranked(fc)


def test_higher_map_shift_bounds():
    fc = filtered_of("s2 s2", 4)
    w0 = fc.weight_values[0]
    with pytest.raises(ValueError, match=">= 2"):
        load_higher_maps(fc, {(1, w0): F2Matrix.zeros(4, 4)})
    with pytest.raises(ValueError, match="expected"):
        load_higher_maps(fc, {(2, w0): F2Matrix.zeros(3, 3)})


def test_higher_map_d2_witness():
    """A block that breaks D^2 = 0 is rejected with a usable witness.

    The arrow must land mid-filtration: on a spread-2 complex every
    legally shaped shift-2 block goes bottom-to-top and commutes for
    free, so a spread-3 word is the smallest honest test.
    """
    fc = filtered_of("s2 s2 s2", 4)
    w0 = fc.weight_values[0]
    lo, _ = fc.block_range(w0)
    t0, _ = fc.block_range(w0 + 2)
    h = np.zeros((fc.n, fc.n), dtype=np.uint8)
    h[t0, lo] = 1  # D(h(g_lo)) != 0 because the target splits onward
    with pytest.raises(HigherMapError) as err:
        load_higher_maps(fc, blocks_from_dense(fc.weights, h))
    exc = err.value
    assert exc.witness is not None and exc.image
    total = (fc.differential + F2Matrix.from_dense(h)).to_dense()
    sq = dense_matmul(total, total)
    col = sq[:, exc.witness]
    assert sum(int(b) << i for i, b in enumerate(col)) == exc.image


def test_spread_two_blocks_always_load():
    """On a spread-2 complex any legal shift-2 block keeps D^2 = 0."""
    rng = random.Random(17)
    fc = filtered_of("s2 s2", 4)
    lo, hi = fc.block_range(fc.weight_values[0])
    t0, t1 = fc.block_range(fc.weight_values[0] + 2)
    h = np.zeros((fc.n, fc.n), dtype=np.uint8)
    for i in range(t0, t1):
        for j in range(lo, hi):
            h[i, j] = rng.random() < 0.5
    aug = load_higher_maps(fc, blocks_from_dense(fc.weights, h))
    base = compute_pages(fc)
    full = compute_pages(aug)
    assert full.dims(1) == base.dims(1)
    assert full.dims(2) == base.dims(2)
    d2_rank = full.page(2).d_ranks[fc.weight_values[0]]
    assert full.total(3) == full.total(2) - 2 * d2_rank
    assert full.e_infinity_total == oracle_homology_dim(aug)
    ref = cancellation_pages(list(fc.weights), aug.differential.to_dense())
    assert {w: d for w, d in full.e_infinity.items() if d} == {
        w: d for w, d in ref[-1].items() if d
    }


def test_conjugated_injection_preserves_low_pages():
    """Valid higher components leave E_1 and E_2 dims untouched."""
    rng = random.Random(0)
    fc = filtered_of("s2 s2 s2", 4)
    dense = fc.differential.to_dense()
    conj = conjugate_dense(list(fc.weights), dense, rng, min_shift=2)
    parts = blocks_from_dense(fc.weights, conj)
    assert {key: parts.pop(key) for key in fc.blocks} == fc.blocks  # d_1 itself is unchanged
    assert all(r == 1 for r, _ in fc.blocks) and all(r >= 2 for r, _ in parts)
    table = parts
    if not table:
        pytest.skip("conjugation produced no higher part for this seed")
    aug = load_higher_maps(fc, table)
    base = compute_pages(fc)
    full = compute_pages(aug)
    assert full.dims(1) == base.dims(1)
    assert full.dims(2) == base.dims(2)
    assert full.e_infinity_total == oracle_homology_dim(aug)


# -- pages against the cancellation oracle ----------------------------


def test_golden_unknot():
    pages = compute_pages(filtered_of("", 2))
    assert pages.dims(1) == {0: 2}
    assert pages.dims(2) == {0: 2}
    assert pages.stabilization == 1
    assert pages.e_infinity == {0: 2}


def test_golden_hopf():
    pages = compute_pages(filtered_of("s2 s2", 4))
    assert pages.total(1) == 12
    assert pages.total(2) == 4
    assert pages.stabilization == 2


def test_golden_trefoil():
    pages = compute_pages(filtered_of("s2 s2 s2", 4))
    assert pages.dims(1) == {-3: 4, -2: 6, -1: 12, 0: 8}
    assert pages.dims(2) == {-3: 2, -2: 0, -1: 2, 0: 2}
    assert pages.stabilization == 2
    assert pages.e_infinity_total == 6


def test_golden_figure_eight():
    fc = filtered_of("s2 s1^-1 s2 s2", 4)
    pages = compute_pages(fc)
    assert pages.total(1) == 66
    assert pages.total(2) == 10
    assert oracle_homology_dim(fc) == 10


def test_pure_d1_matches_cancellation():
    rng = random.Random(1)
    for _ in range(12):
        fc = random_filtered(rng)
        pages = compute_pages(fc)
        ref = cancellation_pages(list(fc.weights), fc.differential.to_dense())
        want1 = {w: d for w, d in ref[0].items()}
        want2 = {w: d for w, d in ref[1].items()} if len(ref) > 1 else want1
        got1 = {w: d for w, d in pages.dims(1).items() if d}
        got2 = {w: d for w, d in pages.dims(2).items() if d}
        assert got1 == {w: d for w, d in want1.items() if d}
        assert got2 == {w: d for w, d in want2.items() if d}
        assert pages.e_infinity_total == oracle_homology_dim(fc)


def test_conjugated_matches_cancellation():
    """The general windowed path, on complexes with real higher parts."""
    rng = random.Random(2)
    done = 0
    while done < 10:
        fc = random_filtered(rng, max_len=4)
        if fc.n == 0 or len(fc.weight_values) < 3:
            continue
        dense = conjugate_dense(list(fc.weights), fc.differential.to_dense(), rng)
        conj = fc_from_dense(list(fc.weights), dense)
        if conj.max_shift <= 1:
            continue
        done += 1
        pages = compute_pages(conj)
        ref = cancellation_pages(list(fc.weights), dense)
        for page in pages.pages:
            want = ref[min(page.r, len(ref)) - 1]
            got = {w: d for w, d in page.dims.items() if d}
            assert got == {w: d for w, d in want.items() if d}
        assert pages.stabilization is not None
        assert pages.e_infinity_total == len(fc.weights) - 2 * dense_rank(dense)
        # conjugation is a filtered iso: pages agree with the plain cube
        plain = compute_pages(fc)
        assert pages.dims(1) == plain.dims(1)
        assert pages.dims(2) == plain.dims(2)


def oracle_cycle_dim(fc, dense, w, r):
    """z_r^w by the dense oracle: the window's kernel, projected to weight w."""
    lo, hi = fc.block_range(w)
    top = fc.low_index(w + r)
    return dense_rank(dense_kernel(dense[lo:top, lo:top])[:, : hi - lo])


def test_cycle_dims_match_window_kernel(monkeypatch):
    """Every z_r^w, r = 1..spread + 2, against the dense kernel of its window.

    Cube complexes carry q and a pure d_1, so they must take the r <= 2 and
    pure-d1 shortcuts without eliminating any window.  Their conjugates
    carry higher maps.  Lifting the weights above a cut by one leaves a
    q-less complex with a weight gap, where windows end below w + r: with
    the conjugate's blocks it has higher maps, and with the cube's blocks
    minus the one across the cut it is pure d_1.
    """
    rng = random.Random(3)
    seen = Counter()

    def check(kind, fc, dense):
        z = specseq._cycle_dims(fc)
        spread = fc.weight_values[-1] - fc.weight_values[0]
        for w in fc.weight_values:
            for r in range(1, spread + 3):
                assert z(w, r) == oracle_cycle_dim(fc, dense, w, r), (kind, w, r)
        seen[kind, fc.max_shift > 1] += 1

    def no_elimination(m):
        raise AssertionError("a pure d_1 complex eliminated a window")

    done = 0
    while done < 8:
        fc = random_filtered(rng, max_len=4)
        if len(fc.weight_values) < 2:
            continue
        done += 1
        dense = fc.differential.to_dense()
        conj = conjugate_dense(list(fc.weights), dense, rng)
        cut = rng.choice(fc.weight_values[:-1])
        lifted = [w + (w > cut) for w in fc.weights]
        lo, hi = fc.block_range(cut)
        split = dense.copy()
        split[hi:, lo:hi] = 0  # drop the (1, cut) block, so d∘d stays zero
        with monkeypatch.context() as m:
            m.setattr(specseq, "kernel_basis", no_elimination)
            check("cube", fc, dense)
            check("gap", fc_from_dense(lifted, split), split)
        check("conjugated", fc_from_dense(fc.weights, conj), conj)
        check("gap", fc_from_dense(lifted, conj), conj)
    assert {kind for kind, higher in seen if higher} == {"conjugated", "gap"}
    assert {kind for kind, higher in seen if not higher} >= {"cube", "gap"}


# -- toy complexes with genuine higher differentials ------------------


def test_nonzero_d2():
    # two generators at weights 0 and 2, one weight-2 arrow between them
    fc = FilteredComplex((0, 2), {(2, 0): F2Matrix.from_dense([[1]])})
    pages = compute_pages(fc)
    assert pages.dims(1) == {0: 1, 2: 1}
    assert pages.dims(2) == {0: 1, 2: 1}
    assert pages.page(2).d_ranks == {0: 1, 2: 0}
    assert pages.dims(3) == {0: 0, 2: 0}
    assert pages.stabilization == 3
    assert pages.e_infinity_total == 0 == oracle_homology_dim(fc)


def canonical_complex(rng, spread):
    """Disjoint arrows x -> y of shift 1..spread plus free generators.

    Returns the sorted weights, the dense differential and the arrows as
    (source weight, shift).  In this form d_r is exactly the arrows of
    shift r, and every other generator survives to E_infinity.
    """
    arrows = []
    for _ in range(rng.randint(0, 6)):
        s = rng.randint(1, spread)
        arrows.append((rng.randint(0, spread - s), s))
    free = [rng.randint(0, spread) for _ in range(rng.randint(0, 4))]
    ends = [(w, i, "x") for i, (w, _) in enumerate(arrows)]
    ends += [(w + s, i, "y") for i, (w, s) in enumerate(arrows)]
    ends += [(w, -1, "free") for w in free]
    ends.sort()
    index = {(i, role): k for k, (_, i, role) in enumerate(ends)}
    d = np.zeros((len(ends), len(ends)), dtype=np.uint8)
    for i in range(len(arrows)):
        d[index[(i, "y")], index[(i, "x")]] = 1
    return [w for w, _, _ in ends], d, arrows


def test_canonical_complexes_rank_every_d_r():
    """d_r ranks and the stabilization of conjugated canonical complexes.

    Conjugation is a filtered isomorphism, so it keeps the pages but
    smears each arrow across higher-shift blocks: the ranks must still
    count the arrows of shift r leaving weight w.
    """
    rng = random.Random(5)
    higher = 0
    for _ in range(300):
        weights, d, arrows = canonical_complex(rng, rng.randint(1, 4))
        fc = fc_from_dense(weights, conjugate_dense(weights, d, rng))
        pages = compute_pages(fc)
        for page in pages.pages:
            want = {w: sum(1 for a in arrows if a == (w, page.r)) for w in fc.weight_values}
            assert page.d_ranks == want
            higher += sum(v > 0 for v in want.values()) if page.r >= 2 else 0
            # an arrow of shift s < r is gone from E_r at both its ends
            gone = [w for w, s in arrows if s < page.r] + [w + s for w, s in arrows if s < page.r]
            assert page.dims == {w: weights.count(w) - gone.count(w) for w in fc.weight_values}
        assert pages.stabilization == max((s for _, s in arrows), default=0) + 1
    assert higher >= 100  # the draws do reach d_2 and beyond


def test_page_ranks_are_checked(monkeypatch):
    """A d_r rank outside [0, min(dim E_r^w, dim E_r^{w+r})] is an internal error."""
    fc = FilteredComplex((0, 1, 1, 2), {(2, 0): F2Matrix.from_dense([[1]])})
    # cycle dimensions that grow with the window would give d_1 a negative rank
    monkeypatch.setattr(specseq, "_cycle_dims", lambda fc: lambda w, r: fc.low_index(w + r))
    with pytest.raises(ConsistencyError, match="d_1 at weight 0 has rank -2"):
        compute_pages(fc)


def test_empty_complex():
    fc = FilteredComplex((), {})
    pages = compute_pages(fc)
    assert pages.stabilization == 1
    assert pages.e_infinity == {}
    assert oracle_homology_dim(fc) == 0


# -- truncation and page access ---------------------------------------


def test_truncated_pure_run():
    fc = filtered_of("s2 s2 s2", 4)
    pages = compute_pages(fc, r_max=1)
    assert len(pages.pages) == 1
    assert pages.stabilization == 2  # known even though E_2 was not built
    with pytest.raises(ValueError):
        pages.e_infinity
    with pytest.raises(ValueError):
        pages.page(2)
    with pytest.raises(ValueError):
        pages.page(0)
    with pytest.raises(ValueError):
        compute_pages(fc, r_max=0)


def test_truncated_general_run():
    fc = FilteredComplex((0, 2), {(2, 0): F2Matrix.from_dense([[1]])})
    pages = compute_pages(fc, r_max=2)
    assert pages.stabilization is None
    with pytest.raises(ValueError):
        pages.e_infinity
    # beyond stabilization, page() replays the stable page
    full = compute_pages(fc)
    assert full.dims(9) == full.dims(3)


def test_stable_page_replay():
    pages = compute_pages(filtered_of("s2 s2", 4))
    assert pages.dims(7) == pages.dims(2)


# -- bounds -----------------------------------------------------------


def test_rank_bounds_chain():
    pages = compute_pages(filtered_of("s2 s2 s2", 4))
    rep = rank_bounds(pages)
    assert rep.chain == (("E_inf", 6), ("E_2", 6), ("E_1", 30))
    assert rep.first_page_bound == 30
    for w, chain in rep.per_weight.items():
        names = [n for n, _ in chain]
        assert names == ["E_inf", "E_2", "E_1"]
        vals = [v for _, v in chain]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_rank_bounds_without_e_inf():
    fc = FilteredComplex((0, 2), {(2, 0): F2Matrix.from_dense([[1]])})
    rep = rank_bounds(compute_pages(fc, r_max=2))
    assert rep.chain[0][0] == "E_2"
    assert rep.first_page_bound == 2
