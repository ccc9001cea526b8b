#!/usr/bin/env python
"""Walk the resolution cube of the trefoil plat word s2 s2 s2."""

from platcube.cube import braid_to_twists, build_cube
from platcube.tangle import parse_braid_word

b = parse_braid_word("s2 s2 s2", 4)
cube = build_cube(braid_to_twists(b), 4)

# 3 crossings -> 2^3 resolved diagrams; each vertex is a set of circles
# labelled canonically (smallest arc id on the circle).  The weight is
# |bits set| - n_minus, where n_minus counts negative twists — each
# positive braid letter contributes one, so here weights run -3..0.
print("vertex  weight  circle labels")
for v in sorted(cube.vertices):
    cv = cube.vertices[v]
    print(f"  {cube.bitstring(v)}   {cube.weight(v):+d}     {cv.circles}")

total = sum(2 ** cube.circle_count(v) for v in cube.vertices)
print(f"\ntotal state-space dimension: {total}")

# each edge flips one bit and either merges two circles or splits one
print("\nedges out of 000:")
for (iv, jv), cob in cube.edges.items():
    if iv != 0:
        continue
    print(f"  000 -> {cube.bitstring(jv)}: {type(cob).__name__} {cob}")

# circle counts always step by exactly 1 across an edge
for iv, jv in cube.edges:
    assert abs(cube.circle_count(iv) - cube.circle_count(jv)) == 1
print("\nevery edge changes the circle count by exactly 1")
