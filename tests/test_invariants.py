"""Goeritz determinants and the free-circle doubling cross-check."""

import random

import numpy as np
import pytest

from platcube import cli
from platcube.invariants import (
    _int_det,
    determinant,
    goeritz_data,
)
from platcube.tangle import BraidWord, PlatClosure, mirror, parse_braid_word

from oracles import random_letters


def word(text, strands=4):
    return parse_braid_word(text, strands)


# -- frozen hand-built forms ------------------------------------------


def test_trefoil_goeritz_matrix():
    g = goeritz_data(word("s2 s2 s2"))
    assert np.array_equal(g.matrix, [[2, -1], [-1, 2]])
    assert g.determinant == 3
    assert not g.is_split


def test_figure_eight_goeritz_matrix():
    g = goeritz_data(word("s2 s1^-1 s2 s2"))
    assert np.array_equal(g.matrix, [[3, -1], [-1, 2]])
    assert g.determinant == 5


def test_unknot_empty_matrix():
    g = goeritz_data(parse_braid_word("", 2))
    assert g.matrix.shape == (0, 0)
    assert g.determinant == 1


def test_determinant_goldens():
    assert determinant(parse_braid_word("s1", 2)) == 1  # kinked unknot
    assert determinant(word("s2 s2")) == 2  # Hopf link
    for n in range(3, 9):
        assert determinant(word(" ".join(["s2"] * n))) == n  # (2, n) torus


def test_two_bridge_corpus():
    cases = [
        ("s2 s2 s2 s1^-1 s2", 7),
        ("s2 s2 s2 s2 s1^-1 s2", 9),
        ("s2 s2 s2 s1^-1 s2 s2", 11),
        ("s2 s2 s1^-1 s2 s1^-1 s2", 13),
        ("s2 s2 s2 s1^-1 s1^-1 s1^-1 s2 s2 s2", 33),
        ("s2 s2 s1^-1 s1^-1 s2 s2 s1^-1 s1^-1 s2 s2", 70),
    ]
    for text, want in cases:
        assert determinant(word(text)) == want


def test_connected_sums_multiply():
    assert determinant(parse_braid_word("s2 s2 s4 s4", 6)) == 4
    assert determinant(parse_braid_word("s2 s2 s2 s4 s4 s4", 6)) == 9


# -- structural properties --------------------------------------------


def test_both_colors_agree():
    rng = random.Random(0)
    for _ in range(50):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 7)))
        w = goeritz_data(b, color="white")
        if w.is_split:
            continue
        k = goeritz_data(b, color="black")
        assert w.determinant == k.determinant
        assert not k.is_split


def test_region_counts_eulerian():
    # connected diagram: white + black regions = crossings + 2
    for text, strands in [("s2 s2 s2", 4), ("s2 s1^-1 s2 s2", 4), ("s2 s2", 4)]:
        g = goeritz_data(parse_braid_word(text, strands))
        assert g.white_regions + g.black_regions == len(text.split()) + 2


def test_kink_insertion_invariance():
    # a crossing adjacent to its own cup is a curl and drops out
    rng = random.Random(1)
    for _ in range(15):
        b = BraidWord(4, random_letters(rng, 4, rng.randint(1, 6)))
        base = determinant(b)
        for kink in ((1, 1), (1, -1), (3, 1)):
            curled = BraidWord(4, (kink,) + b.letters)
            assert determinant(curled) == base


def test_r2_insertion_invariance():
    rng = random.Random(2)
    for _ in range(15):
        b = BraidWord(4, random_letters(rng, 4, rng.randint(1, 6)))
        base = determinant(b)
        pos = rng.randint(0, len(b.letters))
        k = rng.randint(1, 3)
        ins = ((k, 1), (k, -1))
        patched = BraidWord(4, b.letters[:pos] + ins + b.letters[pos:])
        assert determinant(patched) == base


def test_mirror_invariance():
    rng = random.Random(3)
    for _ in range(15):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 6)))
        assert determinant(b) == determinant(mirror(b))


def test_presentation_independence():
    # the same trefoil from a conjugated word and from the mirror
    assert determinant(word("s1 s2 s2 s2 s1^-1")) == 3
    assert determinant(word("s2^-1 s2^-1 s2^-1")) == 3
    assert determinant(word("s2^-1 s2 s2 s2 s2")) == 3


# -- split diagrams ---------------------------------------------------


def test_split_diagram_flagged():
    g = goeritz_data(parse_braid_word("", 4))
    assert g.is_split and g.determinant == 0
    assert g.diagram_components == 2

    g = goeritz_data(parse_braid_word("s2 s2", 6))
    assert g.is_split and g.determinant == 0
    assert g.diagram_components == 2


def test_connectivity_count():
    assert goeritz_data(parse_braid_word("", 2)).diagram_components == 1
    assert goeritz_data(parse_braid_word("s2 s2 s4 s4", 6)).diagram_components == 1


# -- argument validation ----------------------------------------------


def test_color_argument():
    with pytest.raises(ValueError):
        goeritz_data(word("s2 s2"), color="red")


def test_plat_strand_mismatch():
    with pytest.raises(ValueError):
        determinant(word("s2 s2"), PlatClosure.standard(6))


# -- exact integer determinant ----------------------------------------


def test_int_det_reference():
    assert _int_det(np.zeros((0, 0), dtype=np.int64)) == 1
    assert _int_det(np.array([[5]])) == 5
    assert _int_det(np.array([[2, -1], [-1, 2]])) == 3
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = np.array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert _int_det(m) == round(np.linalg.det(m))


# -- doubling ---------------------------------------------------------


def doubling(strands, text):
    """E_2 totals of a pipeline run as given and with a free circle added."""
    return tuple(cli.run(strands, text, aux_unknot=aux)["e2"]["total"] for aux in (False, True))


def test_doubling_unknot():
    assert doubling(2, "") == (2, 4)


def test_doubling_trefoil():
    assert doubling(4, "s2 s2 s2") == (6, 12)


def test_doubling_random_words():
    rng = random.Random(5)
    for _ in range(5):
        b = BraidWord(4, random_letters(rng, 4, rng.randint(1, 6)))
        base, doubled = doubling(4, b.as_text())
        assert doubled == 2 * base
