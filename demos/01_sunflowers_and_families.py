#!/usr/bin/env python3
"""Families, sunflower detection, and the link operation.

A sunflower with p petals is p sets whose pairwise intersections are all the
same set (the core).  Everything downstream builds on detecting them and on
the link operation that strips a common set T from its supersets.
"""

from sunflowers import SetFamily, find_disjoint_sets, is_sunflower, link
from sunflowers.bitset import elements_of, mask_from_elements


def m(*elements):
    return mask_from_elements(elements)


def show(mask):
    return "{" + ",".join(map(str, elements_of(mask))) + "}"


print("=" * 64)
print("sunflower detection")
print("=" * 64)

for sets in (
    [m(1, 2), m(3, 4), m(5, 6)],  # pairwise disjoint: empty core
    [m(1, 2), m(1, 3), m(1, 4)],  # shared element: core {1}
    [m(1, 2), m(2, 3), m(1, 3)],  # triangle: three different intersections
):
    flower = is_sunflower(sets)
    label = f"core={show(flower.core)}" if flower else "not a sunflower"
    print(f"  {[show(s) for s in sets]} -> {label}")

print()
print("=" * 64)
print("link: strip a common set from its supersets")
print("=" * 64)

fam = SetFamily(5, 3, [m(0, 1, 2), m(0, 1, 3), m(0, 2, 4), m(1, 2, 4)])
print(f"  family: {[show(s) for s in fam]}")
for t in (m(0), m(0, 1)):
    linked = link(fam, t)
    print(f"  link at T={show(t)}: {[show(s) for s in linked]}  (k drops to {linked.k})")

print()
print("=" * 64)
print("disjoint members by exhaustive backtracking")
print("=" * 64)

fam = SetFamily(8, 2, [m(0, 1), m(0, 2), m(2, 3), m(4, 5), m(6, 7)])
for p in (2, 3, 4):
    result = find_disjoint_sets(fam.sets, p)
    print(f"  p={p}: {[show(s) for s in result] if result else 'none exist'}")
