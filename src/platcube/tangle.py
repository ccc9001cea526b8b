"""Braid words and the plat closures that cap them off.

A braid word on 2m strands lists its letters s_k^(+-1); a plat closure
pairs the strand ends below (cups) and above (caps) by planar perfect
matchings of the positions 0..2m-1.  The standard closure pairs 2i with
2i+1 on both sides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "BraidWord",
    "parse_braid_word",
    "mirror",
    "PlatClosure",
    "parse_plat",
]


# -- braid words ------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """Word in the generators s1..s(strands-1); letters are (index, sign)."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands <= 0 or self.strands % 2:
            raise ValueError(f"strand count must be even and positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple((int(k), int(e)) for k, e in self.letters))
        for k, e in self.letters:
            if not 1 <= k <= self.strands - 1:
                raise ValueError(f"letter index {k} out of range 1..{self.strands - 1}")
            if e not in (-1, 1):
                raise ValueError(f"letter sign must be +1 or -1, got {e}")

    def __len__(self) -> int:
        return len(self.letters)

    def as_text(self) -> str:
        return " ".join(f"s{k}" if e == 1 else f"s{k}^-1" for k, e in self.letters)


_TOKEN = re.compile(r"s(\d+)(\^-1)?$")


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens s<k> / s<k>^-1 into a BraidWord."""
    letters = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"malformed braid token {tok!r}")
        k = int(m.group(1))
        e = -1 if m.group(2) else 1
        if not 1 <= k <= strands - 1:
            raise ValueError(f"token {tok!r}: index {k} out of range for {strands} strands")
        letters.append((k, e))
    return BraidWord(strands, tuple(letters))


def mirror(b: BraidWord) -> BraidWord:
    """Reverse the word and invert every letter."""
    return BraidWord(b.strands, tuple((k, -e) for k, e in reversed(b.letters)))


# -- planar matchings -------------------------------------------------


def _noncrossing(pairs, order) -> bool:
    """Is the matching non-crossing in the given boundary order?"""
    stack: list[int] = []
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    for p in order:
        if stack and partner[stack[-1]] == p:
            stack.pop()
        else:
            stack.append(p)
    return not stack


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


# -- plat closures ----------------------------------------------------


@dataclass(frozen=True)
class PlatClosure:
    """Planar pairings closing a 2m-strand tangle below (cups) and above (caps).

    Pairs are 0-based strand positions.
    """

    cups: tuple[tuple[int, int], ...]
    caps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for name in ("cups", "caps"):
            raw = getattr(self, name)
            canon = tuple(sorted(tuple(sorted(p)) for p in raw))
            object.__setattr__(self, name, canon)
        n = self.strands
        for name in ("cups", "caps"):
            pairs = getattr(self, name)
            flat = sorted(p for pair in pairs for p in pair)
            if flat != list(range(n)):
                raise ValueError(f"{name} are not a perfect matching of 0..{n - 1}")
            if not _noncrossing(pairs, list(range(n))):
                raise ValueError(f"{name} matching is not planar")

    @property
    def strands(self) -> int:
        return 2 * len(self.cups)

    @classmethod
    def standard(cls, strands: int) -> "PlatClosure":
        if strands <= 0 or strands % 2:
            raise ValueError("plat closure needs an even, positive strand count")
        pairs = tuple((2 * i, 2 * i + 1) for i in range(strands // 2))
        return cls(pairs, pairs)


def parse_plat(text: str, strands: int) -> PlatClosure:
    """Parse "a-b,c-d/e-f,g-h" (1-based, cups/caps) into a PlatClosure."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError("plat spec needs exactly one '/' between cups and caps")

    def side(chunk: str) -> tuple[tuple[int, int], ...]:
        pairs = []
        for item in chunk.split(","):
            m = re.match(r"(\d+)-(\d+)$", item.strip())
            if not m:
                raise ValueError(f"malformed plat pair {item!r}")
            a, b = int(m.group(1)), int(m.group(2))
            if not (1 <= a <= strands and 1 <= b <= strands):
                raise ValueError(f"plat pair {item!r} out of range for {strands} strands")
            pairs.append((a - 1, b - 1))
        return tuple(pairs)

    return PlatClosure(side(parts[0]), side(parts[1]))
