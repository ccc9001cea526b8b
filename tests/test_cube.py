"""The resolution hypercube: vertices, circle bookkeeping, edge shapes."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platcube.cube import (
    Merge,
    Split,
    TwistSequence,
    add_aux_unknot,
    braid_to_twists,
    build_cube,
    resolve_twist,
)
from platcube.tangle import BraidWord, PlatClosure, parse_braid_word

from oracles import KIND_OF_BIT, naive_cube, random_letters, vertex_circles


def cube_of(word, strands, **kw):
    return build_cube(braid_to_twists(parse_braid_word(word, strands)), strands, **kw)


# -- twist bookkeeping ------------------------------------------------


def test_resolution_convention():
    # restated from the frozen table, not derived from it
    for (sign, bit), kind in KIND_OF_BIT.items():
        assert resolve_twist(sign, bit) == kind
    with pytest.raises(ValueError):
        resolve_twist(2, 0)
    with pytest.raises(ValueError):
        resolve_twist(1, 2)


def test_braid_to_twists_flips_signs():
    b = parse_braid_word("s1 s2^-1", 4)
    ts = braid_to_twists(b)
    assert ts.twists == ((1, -1), (2, 1))
    assert ts.n_minus == 1
    assert braid_to_twists(BraidWord(2, ())).n_minus == 0


def test_twist_sequence_validates():
    with pytest.raises(ValueError):
        TwistSequence(((0, 1),))
    with pytest.raises(ValueError):
        TwistSequence(((1, 2),))


# -- build validation -------------------------------------------------


def test_build_rejects_bad_strands():
    ts = TwistSequence(())
    with pytest.raises(ValueError):
        build_cube(ts, 3)
    with pytest.raises(ValueError):
        build_cube(ts, 0)
    with pytest.raises(ValueError):
        build_cube(TwistSequence(((5, 1),)), 4)


def test_build_rejects_plat_mismatch():
    with pytest.raises(ValueError):
        build_cube(TwistSequence(()), 4, PlatClosure.standard(6))


def test_aux_unknot_guards():
    # a twist touching the reserved strands is rejected
    ts = TwistSequence(((3, 1),))
    with pytest.raises(ValueError):
        build_cube(ts, 4, aux_unknot=True)
    # a plat that ties the reserved strands to the rest is rejected
    plat = PlatClosure(((0, 1), (2, 3)), ((0, 3), (1, 2)))
    with pytest.raises(ValueError):
        build_cube(TwistSequence(((1, 1),)), 4, plat, aux_unknot=True)


def test_add_aux_unknot_extends_plat():
    strands, plat = add_aux_unknot(4, PlatClosure.standard(4))
    assert strands == 6
    assert (4, 5) in plat.cups and (4, 5) in plat.caps


def test_untouched_circles_bound_the_cube():
    """Each vertex has the F circles no twist touches and at least one more,
    so 2^(N + F + 1) generators or more.  The cube is refused where
    assembly's array rule, 8 B * n * (4 + 13 N) <= 512 MiB, refuses that n:
    for one twist F = 19 passes (272 MiB) and F = 20 does not."""
    assert len(cube_of("s1", 40).vertices) == 2
    with pytest.raises(ValueError, match=r"^42 strands and 1 twists give at least 2\^22 generators \(20 circles"):
        cube_of("s1", 42)


# -- golden cubes -----------------------------------------------------


def test_empty_word_cube():
    cube = cube_of("", 2)
    assert len(cube.vertices) == 1
    assert cube.circle_count(0) == 1
    assert cube.weight(0) == 0
    assert list(cube.edges) == []


def test_trefoil_cube():
    cube = cube_of("s2 s2 s2", 4)
    assert len(cube.vertices) == 8
    counts = {cube.bitstring(v): cube.circle_count(v) for v in cube.vertices}
    # negative twists put identity at bit 0: the all-zero vertex keeps the
    # two plat circles, one cup-cap fuses them, further cup-caps deloop
    assert counts == {
        "000": 2,
        "100": 1, "010": 1, "001": 1,
        "110": 2, "101": 2, "011": 2,
        "111": 3,
    }
    assert sum(2 ** c for c in counts.values()) == 30
    # s2 s2 s2 gives three negative twists, so weights run -3..0
    assert sorted(cube.weight(v) for v in cube.vertices) == [-3, -2, -2, -2, -1, -1, -1, 0]


def test_weight_distribution_is_binomial():
    rng = random.Random(2)
    for _ in range(10):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 6)))
        cube = build_cube(braid_to_twists(b), strands)
        n, nm = cube.n, cube.n_minus
        hist = Counter(cube.weight(v) for v in cube.vertices)
        assert hist == {w - nm: math.comb(n, w) for w in range(n + 1)}


# -- circles against the arc walker -----------------------------------


def test_circle_labels_match_walker():
    """Least-segment labels and counts, whole cubes at a time."""
    rng = random.Random(3)
    for _ in range(25):
        strands = rng.choice([2, 4, 6])
        length = rng.randint(0, 6)
        b = BraidWord(strands, random_letters(rng, strands, length))
        ts = braid_to_twists(b)
        plat = PlatClosure.standard(strands)
        cube = build_cube(ts, strands, plat)
        positions = [k for k, _ in ts.twists]
        signs = [s for _, s in ts.twists]
        for v in cube.vertices:
            ref = vertex_circles(positions, signs, strands, plat.cups, plat.caps, v)
            labels = tuple(sorted(min(t * strands + p for t, p in c) for c in ref))
            assert cube.vertices[v].circles == labels


# -- edges ------------------------------------------------------------


def test_edges_change_one_circle():
    rng = random.Random(5)
    for _ in range(15):
        strands = rng.choice([4, 6])
        b = BraidWord(strands, random_letters(rng, strands, rng.randint(1, 6)))
        cube = build_cube(braid_to_twists(b), strands)
        for (i, j), cob in cube.edges.items():
            ci, cj = cube.circle_count(i), cube.circle_count(j)
            assert abs(ci - cj) == 1
            if isinstance(cob, Merge):
                assert cj == ci - 1
                assert set(cob.sources) <= set(cube.vertices[i].circles)
                assert cob.target in cube.vertices[j].circles
                assert cob.target == min(cob.sources)
            else:
                assert isinstance(cob, Split)
                assert cj == ci + 1
                assert cob.source in cube.vertices[i].circles
                assert set(cob.targets) <= set(cube.vertices[j].circles)
                assert cob.source == min(cob.targets)


def test_edge_spectators_keep_labels():
    cube = cube_of("s1 s2^-1 s1", 4)
    for (i, j), cob in cube.edges.items():
        active_i = set(cob.sources) if isinstance(cob, Merge) else {cob.source}
        active_j = {cob.target} if isinstance(cob, Merge) else set(cob.targets)
        spect_i = set(cube.vertices[i].circles) - active_i
        spect_j = set(cube.vertices[j].circles) - active_j
        assert spect_i == spect_j


def test_far_letters_commute():
    """Swapping two far-apart letters permutes the circle-count multiset."""
    b1 = parse_braid_word("s1 s4 s2", 6)
    b2 = parse_braid_word("s4 s1 s2", 6)
    c1 = build_cube(braid_to_twists(b1), 6)
    c2 = build_cube(braid_to_twists(b2), 6)
    m1 = Counter(c1.circle_count(v) for v in c1.vertices)
    m2 = Counter(c2.circle_count(v) for v in c2.vertices)
    assert m1 == m2


def test_aux_unknot_adds_one_circle_everywhere():
    b = parse_braid_word("s2 s2 s2", 4)
    ts = braid_to_twists(b)
    base = build_cube(ts, 4)
    strands, plat = add_aux_unknot(4, PlatClosure.standard(4))
    doubled = build_cube(ts, strands, plat, aux_unknot=True)
    for v in base.vertices:
        assert doubled.circle_count(v) == base.circle_count(v) + 1


# -- the whole cube against a per-vertex resolver ---------------------

# every planar pairing of 4 and 6 strands, 0-based
PLANAR = {
    4: [((0, 1), (2, 3)), ((0, 3), (1, 2))],
    6: [((0, 1), (2, 3), (4, 5)), ((0, 1), (2, 5), (3, 4)), ((0, 3), (1, 2), (4, 5)),
        ((0, 5), (1, 2), (3, 4)), ((0, 5), (1, 4), (2, 3))],
}


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_cube_matches_per_vertex_oracle(data):
    """build_cube gives the vertices and the edges of the oracle that resolves
    every vertex afresh: the same values in the same insertion order.  Inputs:
    random words on 2-8 strands with 0-7 letters (the empty word included),
    non-standard plat pairings on 4 and 6 strands, and aux-unknot cubes."""
    kind = data.draw(st.sampled_from(["word", "plat", "aux"]))
    strands = data.draw(st.sampled_from({"word": [2, 4, 6, 8], "plat": [4, 6], "aux": [2, 4, 6]}[kind]))
    letters = data.draw(st.lists(
        st.tuples(st.integers(1, strands - 1), st.sampled_from([-1, 1])), max_size=7,
    ))
    if kind == "plat":
        plat = PlatClosure(data.draw(st.sampled_from(PLANAR[strands])), data.draw(st.sampled_from(PLANAR[strands])))
    else:
        plat = PlatClosure.standard(strands)
    ts = braid_to_twists(BraidWord(strands, tuple(letters)))
    if kind == "aux":
        strands, plat = add_aux_unknot(strands, plat)
    cube = build_cube(ts, strands, plat, aux_unknot=kind == "aux")
    vertices = [(v, vertex.circles) for v, vertex in cube.vertices.items()]
    edges = [
        (edge, ("merge", cob.sources, cob.target) if isinstance(cob, Merge) else ("split", cob.source, cob.targets))
        for edge, cob in cube.edges.items()
    ]
    positions, signs = [k for k, _ in ts.twists], [s for _, s in ts.twists]
    assert (vertices, edges) == naive_cube(positions, signs, strands, plat.cups, plat.caps)
