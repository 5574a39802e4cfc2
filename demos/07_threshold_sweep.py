#!/usr/bin/env python3
"""Where does the hit probability cross 1/2, as the blocks widen?

For the width-r transversal family the hit probability at fixed delta grows
with r; below 0.25/delta * ln(2k) it provably stays under 1/2.  The sweep
finds the first crossing r*(k) exactly, in rational arithmetic, and
compares its growth with the (1/delta) * ln(2k) scale: the fitted constant
stays near 1, far below the safety margin of 8 used in the acceptance gate.
A Monte Carlo estimate at r* cross-checks the exact value.
"""

import math

from sunflowers import hit_threshold_sweep, mc_block_hit_probability

DELTA = 0.25

print("=" * 74)
print(f"exact crossing r*(k) at delta = {DELTA}, Monte Carlo cross-check (50k trials)")
print("=" * 74)
points = hit_threshold_sweep([2, 4, 8, 16], delta=DELTA)
print(f"  {'k':>3} {'floor':>7} {'r*':>4} {'exact at r*':>12} {'MC at r*':>12} {'c fitted':>9}")
for pt in points:
    scale = (1.0 / DELTA) * math.log(2 * pt.k)
    mc = mc_block_hit_probability(pt.k, pt.r_star, DELTA, trials=50_000, seed=3)
    print(
        f"  {pt.k:>3} {pt.tightness_floor:>7.3f} {pt.r_star:>4} "
        f"{pt.p_hat:>12.4f} {mc.p_hat:>12.4f} {pt.r_star / scale:>9.3f}"
    )
print()
print("  floor = 0.25/delta * ln(2k); fitted c = r* / ((1/delta) ln(2k))")
print("  r* hugs the logarithmic scale: consistent with a p*log(k)-type threshold")
