"""Tour of the representation side.

Builds the DGA of the Legendrian (2,m) torus link, enumerates its
n-dimensional representations over a small prime field, and computes the
cohomology category: hom spaces, units, compositions, isomorphism classes.
"""

import random

from legtorus.ainfty import (enumerate_reps, hom_cohomology, is_isomorphic,
                             mu2, random_rep, unit)
from legtorus.freedga import build_lambda_dga, kcopy_dga, poly_str
from legtorus.torusrep import cohomology_closed

print("=" * 72)
print("The DGA of the (2,m) torus link, m = 3 over F_5")
print("=" * 72)
dga = build_lambda_dga(3, 5)
for name in ("b1", "b2", "a1"):
    print(f"  d({name}) = {poly_str(dga.diff[name])}")
d_squared_zero = dga.check_d_squared()
print(f"  d^2 = 0: {d_squared_zero}")
assert d_squared_zero

copy = kcopy_dga(dga, 2)
copy_d_squared_zero = copy.check_d_squared()
print(f"\nThe 2-copy has {len(copy.gens)} generators; d^2 = 0: "
      f"{copy_d_squared_zero}")
assert copy_d_squared_zero
print(f"  d(y1^12) = {poly_str(copy.diff['y1^12'])}")
print(f"  d(x1^12) = {poly_str(copy.diff['x1^12'])}")

print()
print("=" * 72)
print("Objects: tuples (A_1,...,A_m) with P_m(A) invertible")
print("=" * 72)
reps = enumerate_reps(2, 1, 2)
print(f"m=2, n=1 over F_2: {len(reps)} objects:")
for r in reps:
    print(f"  A = ({int(r.A[0][0, 0])}, {int(r.A[1][0, 0])})   "
          f"T1 = {int(r.T1[0, 0])}, T2 = {int(r.T2[0, 0])}")

print("\nHom cohomology between all ordered pairs (dim H^0, dim H^1):")
for r0 in reps:
    row = []
    for r1 in reps:
        H = hom_cohomology(r0, r1)
        row.append(f"({H.dims[0]},{H.dims[1]})")
    print("  " + "  ".join(row))

print("\nCompositions agree with the closed forms, e.g. the unit acts as")
print("the identity on every cohomology class:")
r0, r1 = reps[0], reps[1]
H = hom_cohomology(r0, r1)
f = H.basis(0)[0] if H.basis(0) else H.basis(1)[0]
left = mu2(r0, r1, r1, unit(r1), f)
unit_law = H.same_class(left, f)
print(f"  [mu2(e, f)] == [f]: {unit_law}")
assert unit_law

print("\nIsomorphism: conjugate representations are isomorphic;")
print("(0,1) and (1,0) over F_2 are not:")
by_tuple = {(int(r.A[0][0, 0]), int(r.A[1][0, 0])): r for r in reps}
iso_01_10 = is_isomorphic(by_tuple[(0, 1)], by_tuple[(1, 0)]) is not None
iso_01_01 = is_isomorphic(by_tuple[(0, 1)], by_tuple[(0, 1)]) is not None
print(f"  (0,1) ~ (1,0): {iso_01_10}")
print(f"  (0,1) ~ (0,1): {iso_01_01}")
assert not iso_01_10 and iso_01_01

print("\nA 2-dimensional example over F_3 (closed-form route):")
rng = random.Random(0)
r0 = random_rep(2, 2, 3, rng)
r1 = random_rep(2, 2, 3, rng)
C = cohomology_closed(r0, r1)
print(f"  dim H^0 = {C.dims[0]}, dim H^1 = {C.dims[1]}, dim H^2 = {C.dims[2]}")
euler = C.dims[0] - C.dims[1] == (2 - 2) * 4
print(f"  Euler characteristic (2-m) n^2 = {(2 - 2) * 4}: {euler}")
assert euler
