"""End-to-end acceptance gate.

Each test covers one advertised guarantee and prints a single
"acceptance N: PASS/FAIL - ..." line (bypassing capture) so the verdicts
are visible in a plain pytest run.  Time budgets are part of the
guarantee and are asserted, not just reported.
"""

import random
import time

import numpy as np

from platcube.cube import add_aux_unknot, braid_to_twists, build_cube
from platcube.f2linalg import F2Coo, F2Matrix, kernel_basis, matmul, rank
from platcube.invariants import determinant
from platcube.specseq import FilteredComplex, compute_pages
from platcube.tangle import BraidWord, PlatClosure, mirror, parse_braid_word
from platcube.tqft import assemble_complex

from oracles import (
    conjugate_dense,
    dense_coo,
    dense_kernel,
    dense_matmul,
    dense_rank,
    random_letters,
    split_by_block,
)


def _verdict(capsys, idx: int, ok: bool, detail: str) -> None:
    line = f"acceptance {idx}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _pages_of(b: BraidWord, r_max=2, check_faces=True):
    cc = assemble_complex(build_cube(braid_to_twists(b), b.strands), check_faces=check_faces)
    return compute_pages(cc.to_filtered(), r_max=r_max)


def _e2_total(b: BraidWord, check_faces=False) -> int:
    return _pages_of(b, check_faces=check_faces).total(2)


def test_acceptance_1_unknot(capsys):
    t0 = time.perf_counter()
    b = parse_braid_word("", 2)
    pages = _pages_of(b)
    e1, e2 = pages.total(1), pages.total(2)
    det = determinant(b)
    elapsed = time.perf_counter() - t0
    ok = e1 == 2 and e2 == 2 and det == 1 and elapsed < 1.0
    _verdict(capsys, 1, ok, f"unknot: E_1 total {e1}, E_2 total {e2}, det {det} ({elapsed:.2f}s)")


def test_acceptance_2_trefoil_and_aux(capsys):
    t0 = time.perf_counter()
    b = parse_braid_word("s2 s2 s2", 4)
    e2 = _e2_total(b, check_faces=True)
    det = determinant(b)
    t1 = time.perf_counter()
    aux_strands, aux_plat = add_aux_unknot(4, PlatClosure.standard(4))
    cube = build_cube(braid_to_twists(b), aux_strands, aux_plat, aux_unknot=True)
    aux_e2 = compute_pages(assemble_complex(cube).to_filtered(), r_max=2).total(2)
    t2 = time.perf_counter()
    ok = e2 == 6 and det == 3 and e2 == 2 * det and aux_e2 == 12
    ok = ok and (t1 - t0) < 1.0 and (t2 - t1) < 1.0
    _verdict(
        capsys, 2, ok,
        f"trefoil: E_2 {e2} == 2*det({det}), aux unknot doubles to {aux_e2}"
        f" ({t1 - t0:.2f}s + {t2 - t1:.2f}s)",
    )


def test_acceptance_3_figure_eight_and_hopf(capsys):
    t0 = time.perf_counter()
    fig8 = parse_braid_word("s2 s1^-1 s2 s2", 4)
    e2_fig8, det_fig8 = _e2_total(fig8, check_faces=True), determinant(fig8)
    t1 = time.perf_counter()
    hopf = parse_braid_word("s2 s2", 4)
    e2_hopf, det_hopf = _e2_total(hopf, check_faces=True), determinant(hopf)
    t2 = time.perf_counter()
    ok = (e2_fig8, det_fig8) == (10, 5) and (e2_hopf, det_hopf) == (4, 2)
    ok = ok and (t1 - t0) < 1.0 and (t2 - t1) < 1.0
    _verdict(
        capsys, 3, ok,
        f"figure-eight E_2 {e2_fig8} == 2*{det_fig8}, Hopf E_2 {e2_hopf} == 2*{det_hopf}"
        f" ({t1 - t0:.2f}s + {t2 - t1:.2f}s)",
    )


# Alternating plat words with their determinants: torus links, the
# twist-region families [3,3,3] and [2,2,2,2,2], and two connected sums
# drawn on six strands.  Dets are frozen from the Goeritz goldens.
ALTERNATING_CORPUS = (
    ("s2 s2", 4, 2),
    ("s2 s2 s2", 4, 3),
    ("s2 s2 s2 s2", 4, 4),
    ("s2 s2 s2 s2 s2", 4, 5),
    ("s2 s2 s2 s2 s2 s2", 4, 6),
    ("s2 s2 s2 s2 s2 s2 s2", 4, 7),
    ("s2 s2 s2 s2 s2 s2 s2 s2", 4, 8),
    ("s2 s1^-1 s2 s2", 4, 5),
    ("s2 s2 s2 s1^-1 s2", 4, 7),
    ("s2 s2 s2 s2 s1^-1 s2", 4, 9),
    ("s2 s2 s2 s1^-1 s2 s2", 4, 11),
    ("s2 s2 s1^-1 s2 s1^-1 s2", 4, 13),
    ("s2 s2 s2 s1^-1 s1^-1 s1^-1 s2 s2 s2", 4, 33),
    ("s2 s2 s1^-1 s1^-1 s2 s2 s1^-1 s1^-1 s2 s2", 4, 70),
    ("s2 s2 s4 s4", 6, 4),
    ("s2 s2 s2 s4 s4 s4", 6, 9),
)


def test_acceptance_4_alternating_collapse(capsys):
    t0 = time.perf_counter()
    failures = []
    for word, strands, expected_det in ALTERNATING_CORPUS:
        b = parse_braid_word(word, strands)
        det = determinant(b)
        e2 = _e2_total(b)
        if det != expected_det or e2 != 2 * det:
            failures.append(f"{word!r}: det {det} (expected {expected_det}), E_2 {e2}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = f"{len(ALTERNATING_CORPUS)} alternating words, E_2 == 2*det throughout ({elapsed:.1f}s)"
    if failures:
        detail = "; ".join(failures)
    _verdict(capsys, 4, ok, detail)


# Length caps per strand count for the random structural suite.  Total
# dimension grows ~3x per extra crossing on narrow braids, so the caps
# keep the worst single word (plus an inserted s_k s_k^-1 pair) around a
# second while still ranging over 2..8 strands and up to 9 crossings.
_LENGTH_CAP = {2: 5, 4: 7, 6: 5, 8: 4}


def _sample_word(rng: random.Random) -> BraidWord:
    strands = rng.choice((2, 2, 4, 4, 4, 6, 6, 8))
    cap = _LENGTH_CAP[strands]
    length = min(rng.randint(0, cap), rng.randint(0, cap))
    return BraidWord(strands, random_letters(rng, strands, length))


def test_acceptance_5_structural_suite(capsys):
    rng = random.Random(501)
    t0 = time.perf_counter()
    failures = []
    for i in range(200):
        b = _sample_word(rng)
        cube = build_cube(braid_to_twists(b), b.strands)
        if any(
            abs(cube.circle_count(iv) - cube.circle_count(jv)) != 1
            for iv, jv in cube.edges
        ):
            failures.append(f"word {i}: edge changes circle count by != 1")
        cc = assemble_complex(cube, check_faces=True)  # raises if any 2-face disagrees
        d = cc.to_filtered().differential
        if not matmul(d, d).is_zero():
            failures.append(f"word {i}: d_1^2 != 0")
        base = compute_pages(cc.to_filtered(), r_max=2).total(2)
        if _e2_total(mirror(b)) != base:
            failures.append(f"word {i}: mirror E_2 differs")
        letters = list(b.letters)
        pos = rng.randint(0, len(letters))
        k = rng.randint(1, b.strands - 1)
        letters[pos:pos] = [(k, 1), (k, -1)]
        if _e2_total(BraidWord(b.strands, tuple(letters))) != base:
            failures.append(f"word {i}: s{k} s{k}^-1 insertion moves E_2")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = (
        "200 random words: d_1^2 == 0, faces commute, circle counts step by 1,"
        f" E_2 stable under mirror and s_k s_k^-1 insertion ({elapsed:.1f}s)"
    )
    if failures:
        detail = "; ".join(failures[:4])
    _verdict(capsys, 5, ok, detail)


def test_acceptance_6_deformed_complexes(capsys):
    rng = random.Random(601)
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        strands = rng.choice((2, 4))
        length = rng.randint(2, 4)
        b = BraidWord(strands, random_letters(rng, strands, length))
        fc = assemble_complex(build_cube(braid_to_twists(b), strands), check_faces=False).to_filtered()
        weights = fc.weights
        conj = conjugate_dense(weights, fc.differential.to_dense(), rng)
        parts = split_by_block(weights, conj)
        if not any(r == 2 for r, _ in parts):
            failures.append(f"complex {i}: conjugation produced no shift-2 block")
            continue
        fc2 = FilteredComplex(weights, {key: F2Coo(*dense_coo(p)) for key, p in parts.items()})
        pages = compute_pages(fc2)
        if pages.stabilization is None or pages.stabilization > length + 1:
            failures.append(f"complex {i}: stabilized at {pages.stabilization}, N+1 = {length + 1}")
            continue
        n = len(weights)
        if sum(pages.e_infinity.values()) != n - 2 * dense_rank(conj):
            failures.append(f"complex {i}: E_inf total != dim ker - rank")
        for r in range(2, pages.stabilization + 1):
            prev, cur = pages.dims(r - 1), pages.dims(r)
            if any(cur[w] > prev[w] for w in cur):
                failures.append(f"complex {i}: page {r} grew in some weight")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = (
        "100 complexes with injected shift-2 blocks: E_inf total == dim ker - rank,"
        f" pages monotone, stabilization <= N+1 ({elapsed:.1f}s)"
    )
    if failures:
        detail = "; ".join(failures[:4])
    _verdict(capsys, 6, ok, detail)


def _random_dense(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    flat = np.array([rng.getrandbits(1) for _ in range(rows * cols)], dtype=np.uint8)
    return flat.reshape(rows, cols)


def test_acceptance_7_linear_algebra_oracles(capsys):
    rng = random.Random(701)
    t0 = time.perf_counter()
    failures = []
    for i in range(500):
        rows, inner, cols = (rng.randint(0, 100) for _ in range(3))
        a = _random_dense(rng, rows, inner)
        b = _random_dense(rng, inner, cols)
        fa, fb = F2Matrix.from_dense(a), F2Matrix.from_dense(b)
        r = rank(fa)
        if r != dense_rank(a):
            failures.append(f"matrix {i}: rank {r} != dense {dense_rank(a)}")
        if not np.array_equal(matmul(fa, fb).to_dense(), dense_matmul(a, b)):
            failures.append(f"matrix {i}: product mismatch")
        ker = kernel_basis(fa)
        k = ker.basis.to_dense()
        if ker.dim != inner - r or dense_matmul(a, k.T).any():
            failures.append(f"matrix {i}: kernel wrong")
        # same span: both independent, and stacking them adds nothing
        oracle = dense_kernel(a)
        if not dense_rank(k) == len(oracle) == dense_rank(np.vstack([k, oracle])) == ker.dim:
            failures.append(f"matrix {i}: kernel span != dense oracle span")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    detail = f"500 random matrices up to 100x100: rank, kernel, product match dense oracles ({elapsed:.1f}s)"
    if failures:
        detail = "; ".join(failures[:4])
    _verdict(capsys, 7, ok, detail)
