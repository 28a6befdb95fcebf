"""Numeric periods on superelliptic curves: monodromy, ranks, residues.

The same matrix entries that the exact builders produce as residues are here
computed the hard way: tracking the branch of w along explicit contours and
integrating w^{jn} dz/(z - a_i) by adaptive panels. The two routes agree to
quadrature precision, small loops reproduce 2*pi*i times the exact residues,
and the period matrix over a cycle basis has rank N - 1 on this curve.

The rank is not N - 1 on every curve: it is N - 2 where n < 0, j n is not
divisible by m and m divides N (see rank_check for the measured cases).
"""

import cmath
import math

import numpy as np

from isolab import (SuperellipticCurve, residue_series_oracle, continue_w,
                    build_cycle_basis, infinity_loop, puncture_loop,
                    integrate_omega, period_matrix, rank_check,
                    isomonodromy_fd_check, PathSpec, ArcSegment)

curve = SuperellipticCurve(3, [0.0, 1.0, 2.0 + 1.0j], 1)
print("curve: w^3 = z(z-1)(z-(2+i)),  n = 1")
inv = curve.invariants()
print(f"  genus {inv.genus}, {inv.s} points over infinity, "
      f"{curve.cycle_count()} independent cycles")

print("\nmonodromy of w around one branch point (m-th root continuation):")
loop = PathSpec((ArcSegment(0j, 0.3, 0.0, 2 * math.pi),), 0)
samples = continue_w(curve, loop, steps=64)
ratio = samples[-1][1] / samples[0][1]
print(f"  w_end / w_start = {ratio:.6f}  (expect e^(2 pi i/3) = "
      f"{cmath.exp(2j*math.pi/3):.6f})")

print("\nperiod matrix over the double-loop basis, differential index j = 1:")
B = period_matrix(curve, 1, build_cycle_basis(curve))
with np.printoptions(precision=3, suppress=True):
    print(B.entries)
print(f"  row sums ~ 0: {np.abs(B.entries.sum(axis=0)).max():.1e}")
print(f"  numerical rank = {rank_check(B)} (N - 1 = {curve.N - 1})")

print("\nsmall loops around the infinity points bridge to the exact residues:")
for k in (1, 2, 3):
    val, phase = residue_series_oracle(curve, 1, 1, k)
    rot = cmath.exp(2j * math.pi * phase[0] / phase[1])
    per = integrate_omega(curve, 1, 1, infinity_loop(curve, k))
    err = abs(per - (-2j * math.pi * val * rot))
    print(f"  P_{k}: loop = {per:.6f}, -2 pi i res = "
          f"{-2j*math.pi*val*rot:.6f}, |diff| = {err:.1e}")

print("\nnegative exponent: poles move to the branch points")
cneg = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], -1)
val, _ = residue_series_oracle(cneg, 2, 2, 1)
per = integrate_omega(cneg, 2, 2, puncture_loop(cneg, 1))
print(f"  puncture loop = {per:.6f} vs 2 pi i res = {2j*math.pi*val:.6f}")

print("\nisomonodromic flow, finite differences vs the reduced system:")
cyc = build_cycle_basis(cneg)[0]
err = isomonodromy_fd_check(cneg, 1, 2, cyc, vary=3, h=1e-4)
print(f"  |d b_1/d a_3 + (jn/m)(b_1 - b_3)/(a_1 - a_3)| = {err:.1e}")
