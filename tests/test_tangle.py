"""Braid words, plat closures, and the flat-resolution relations."""

import random

import pytest

from platcube.cube import TwistSequence, build_cube
from platcube.tangle import (
    BraidWord,
    PlatClosure,
    _noncrossing,
    mirror,
    parse_braid_word,
    parse_plat,
)

# -- parsing ----------------------------------------------------------


def test_parse_word():
    b = parse_braid_word("s1 s2^-1  s3", 4)
    assert b.strands == 4
    assert b.letters == ((1, 1), (2, -1), (3, 1))
    assert b.as_text() == "s1 s2^-1 s3"


def test_parse_empty_word():
    assert parse_braid_word("", 2).letters == ()
    assert parse_braid_word("   ", 6).letters == ()


@pytest.mark.parametrize("bad", ["s0", "s4", "x1", "s1^2", "s1^+1", "s", "1", "s1s2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError) as err:
        parse_braid_word(bad, 4)
    assert bad.split()[0] in str(err.value)


def test_braidword_validates_range():
    with pytest.raises(ValueError):
        BraidWord(4, ((4, 1),))
    with pytest.raises(ValueError):
        BraidWord(4, ((1, 2),))


def test_mirror():
    b = parse_braid_word("s1 s2^-1 s3", 4)
    m = mirror(b)
    assert m.letters == ((3, -1), (2, 1), (1, -1))
    assert mirror(m) == b


def test_parse_plat():
    p = parse_plat("1-2,3-4/1-4,2-3", 4)
    assert p.cups == ((0, 1), (2, 3))
    assert p.caps == ((0, 3), (1, 2))
    assert p.strands == 4


@pytest.mark.parametrize(
    "bad",
    ["1-2,3-4", "1-2/3-4", "1-2,3-4/1-2,3-5", "1-3,2-4/1-2,3-4", "1-2,2-3/1-2,3-4"],
)
def test_parse_plat_rejects(bad):
    with pytest.raises(ValueError):
        parse_plat(bad, 4)


def test_standard_plat():
    p = PlatClosure.standard(6)
    assert p.cups == ((0, 1), (2, 3), (4, 5)) == p.caps
    with pytest.raises(ValueError):
        PlatClosure.standard(5)


# -- planar matchings ------------------------------------------------


def test_tangle_canonical_pairs():
    p = PlatClosure(((1, 0), (3, 2)), ((2, 1), (3, 0)))
    assert p.cups == ((0, 1), (2, 3))
    assert p.caps == ((0, 3), (1, 2))


def test_tangle_rejects_crossing():
    # (0,2),(1,3) on four points in a row crosses; the nested matching does not
    assert not _noncrossing(((0, 2), (1, 3)), range(4))
    assert _noncrossing(((0, 3), (1, 2)), range(4))
    with pytest.raises(ValueError, match="not planar"):
        PlatClosure(((0, 2), (1, 3)), ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="not planar"):
        PlatClosure(((0, 1), (2, 3)), ((0, 2), (1, 3)))
    PlatClosure(((0, 3), (1, 2)), ((0, 1), (2, 3)))


def test_tangle_rejects_bad_matchings():
    with pytest.raises(ValueError, match="perfect matching"):
        PlatClosure(((0, 1), (1, 3)), ((0, 1), (2, 3)))  # 1 used twice
    with pytest.raises(ValueError, match="perfect matching"):
        PlatClosure(((0, 1), (2, 4)), ((0, 1), (2, 3)))  # 3 skipped
    with pytest.raises(ValueError, match="perfect matching"):
        PlatClosure(((0, 1), (2, 3)), ((0, 1),))  # caps for fewer strands


# -- flat-resolution relations, read off the resolved cube ------------
#
# A twist of sign +1 resolves to the cup-cap e_k at bit 0 and to the
# identity at bit 1, so the vertices of a cube of positive twists are the
# products of e_k's, closed by the plat.


def _positive(positions):
    return TwistSequence(tuple((k, 1) for k in positions))


def _circles(strands, positions, plat, vertex):
    return build_cube(_positive(positions), strands, plat).circle_count(vertex)


def _plats(strands):
    nested = tuple((i, strands - 1 - i) for i in range(strands // 2))
    return [PlatClosure.standard(strands), PlatClosure(nested, PlatClosure.standard(strands).caps)]


def test_cup_cap_positions():
    # e_k on 4 strands under the standard plat: e_1 and e_3 close three
    # circles, e_2 joins everything into one
    plat = PlatClosure.standard(4)
    assert [_circles(4, (k,), plat, 0) for k in (1, 2, 3)] == [3, 1, 3]
    with pytest.raises(ValueError):
        build_cube(_positive((4,)), 4)
    with pytest.raises(ValueError):
        _positive((0,))


def test_identity_neutral():
    # a twist resolved to the identity can be dropped from the word
    rng = random.Random(1)
    for _ in range(20):
        n = rng.choice([2, 4, 6])
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 5)))
        plat = rng.choice(_plats(n))
        i = rng.randrange(len(word))
        full = build_cube(_positive(word), n, plat)
        short = build_cube(_positive(word[:i] + word[i + 1 :]), n, plat)
        for v in short.vertices:
            with_identity = v & ((1 << i) - 1) | 1 << i | v >> i << (i + 1)
            assert full.circle_count(with_identity) == short.circle_count(v)


def test_delooping_relation():
    # e_k e_k = circle + e_k
    for n, k in [(2, 1), (4, 2), (6, 3), (6, 5)]:
        for plat in _plats(n):
            both = _circles(n, (k, k), plat, 0b00)
            assert both == _circles(n, (k, k), plat, 0b10) + 1
            assert both == _circles(n, (k, k), plat, 0b01) + 1


def test_jones_projector_relation():
    # e_k e_{k+-1} e_k = e_k, no circle
    for n, k in [(4, 1), (4, 2), (6, 3)]:
        for other in (k - 1, k + 1):
            if not 1 <= other <= n - 1:
                continue
            for plat in _plats(n):
                word = (k, other, k)
                assert _circles(n, word, plat, 0b000) == _circles(n, word, plat, 0b110)


def test_far_commutation():
    # swapping two far-apart letters swaps the two bits of every vertex
    rng = random.Random(0)
    for _ in range(10):
        n = 6
        prefix = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 3)))
        for plat in _plats(n):
            a = build_cube(_positive(prefix + (1, 4)), n, plat)
            b = build_cube(_positive(prefix + (4, 1)), n, plat)
            i, j = len(prefix), len(prefix) + 1
            for v in a.vertices:
                swapped = v & ~(1 << i | 1 << j) | (v >> i & 1) << j | (v >> j & 1) << i
                assert a.circle_count(v) == b.circle_count(swapped)


def test_unknot_closure():
    # the plat closure of the trivial braid on 2m strands has m circles
    for n in (2, 4, 6):
        cube = build_cube(TwistSequence(()), n)
        assert cube.circle_count(0) == n // 2
