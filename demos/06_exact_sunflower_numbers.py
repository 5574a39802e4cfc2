#!/usr/bin/env python3
"""Exact small sunflower numbers by exhaustive canonical search.

sun(p, k) is the least s such that every family of s distinct k-sets
contains a p-petal sunflower.  The search proves maxima by exhausting
canonically labeled families; every exact value must land strictly above
(p-1)^k and at most (p-1)^k * k! + 1.
"""

from sunflowers import sun_value
from sunflowers.bitset import elements_of
from sunflowers.sunvalues import erdos_rado_upper_bound, verify_sunflower_free

print("=" * 72)
print("exact values (exhaustive search)")
print("=" * 72)
print(f"  {'p':>2} {'k':>2} {'sun(p,k)':>9} {'lower (p-1)^k':>14} {'upper ER':>9} {'nodes':>8} {'seconds':>8}")
for p, k in [(2, 2), (2, 5), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2)]:
    value = sun_value(p, k)
    print(
        f"  {p:>2} {k:>2} {value.exact!s:>9} {(p - 1) ** k:>14} "
        f"{erdos_rado_upper_bound(p, k):>9} {value.search.nodes:>8} {value.search.seconds:>8.3f}"
    )

print()
print("=" * 72)
print("the extremal witness for sun(3,2) = 7")
print("=" * 72)
value = sun_value(3, 2)
witness = value.search.witness
rows = [sorted(elements_of(s)) for s in witness]
print(f"  a largest 3-petal-sunflower-free family of 2-sets ({len(witness)} members):")
print(f"    {rows}")
print(f"  independent verification: sunflower-free = {verify_sunflower_free(witness, 3)}")
print("  (two disjoint triangles: max degree 2 kills cores of size 1,")
print("   matching number 2 kills the empty core)")

print()
print("=" * 72)
print("a node budget turns the answer into a bracket, never a guess")
print("=" * 72)
value = sun_value(3, 3, max_nodes=200)
if value.exact is not None:
    print(f"  sun(3,3) finished anyway: {value.exact}")
else:
    print(f"  sun(3,3) in 200 nodes: bracket [{value.lower}, {value.upper}], "
          f"best family so far has {value.search.max_size} members")
