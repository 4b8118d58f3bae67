"""Tour of the sheaf side.

Sheaves of microlocal rank n on the rainbow front are coordinatized by the
same matrix tuples; morphisms are chain maps, Ext^1 classes are extensions in
a normal form, and the transpose functor carries the representation category
over on the nose.
"""

import random

import numpy as np

from legtorus import exactalg as xa
from legtorus.ainfty import enumerate_reps, random_rep
from legtorus.sheafcat import (SheafObject, check_extension_exact, compose00,
                               compose01, ext0, ext1, extension_from_class,
                               functor_h0, functor_h1, functor_obj)
from legtorus.torusrep import H1Class, cohomology_closed, mu2_closed


def is_chain_morphism(F, G, u):
    """(u1, u2): F -> G commutes with both block chains and with psi.

    The node maps are u_0 = u_1 = u1, then u1 on odd and u2 on even nodes,
    and diag(u2, u1) on V^2, the top of the chain."""
    p = F.p
    u1, u2 = u
    us = [u1] + [u1 if k % 2 else u2 for k in range(1, F.m + 2)]
    zero = xa.zeros(F.n, F.n)

    def diag(a, b):
        return np.block([[a, zero], [zero, b]])

    left = [diag(u2, u1)] + [diag(us[k - 1], us[k]) for k in range(2, F.m + 1)]
    squares = all(np.array_equal(lk @ F.omega(k) % p, G.omega(k) @ diag(us[k], us[k + 1]) % p)
                  for k, lk in enumerate(left, start=1))
    return squares and np.array_equal(us[0] @ F.psi % p, G.psi @ left[0] % p)


print("=" * 72)
print("A sheaf object and its leg maps")
print("=" * 72)
F = SheafObject(2, 1, 2, [[[1]], [[0]]])
print("m=2, n=1 over F_2 with A = (1, 0):")
for k in (1, 2, 3):
    print(f"  phi_{k} = {F.phi(k).ravel().tolist()}")
print(f"  psi = {F.psi.ravel().tolist()}")
invariants = F.check_invariants()
print(f"  psi . phi_1 = id and complementarity: {invariants}")
assert invariants
try:
    SheafObject(2, 1, 2, [[[1]], [[1]]])
except ValueError as e:
    print(f"  A = (1, 1) is rejected: {e}")

print()
print("=" * 72)
print("Ext groups and extensions")
print("=" * 72)
rng = random.Random(1)
r0, r1 = random_rep(2, 2, 3, rng), random_rep(2, 2, 3, rng)
Fo, Go = functor_obj(r0), functor_obj(r1)
e0 = ext0(Fo, Go)
E1 = ext1(Fo, Go)
print(f"dim Ext^0 = {len(e0)}, dim Ext^1 = {E1.dim}")
for u in e0:
    assert is_chain_morphism(Fo, Go, u)
print("every Ext^0 basis element is a genuine commuting chain morphism")

w = [xa.rand_matrix(rng, 2, 2, 3) for _ in range(2)]
mid = extension_from_class(w, Fo, Go)
exact = check_extension_exact(w, Fo, Go)
print(f"a random class gives a rank-{mid.n} middle object; componentwise")
print(f"short exactness and microsupport checks: {exact}")
assert exact

print()
print("=" * 72)
print("The transpose functor is an equivalence on the nose")
print("=" * 72)
reps = enumerate_reps(2, 1, 2)
print("objects hit at desk scale:",
      sorted(tuple(int(a[0, 0]) for a in functor_obj(r).A) for r in reps))
C = cohomology_closed(r0, r1)
print(f"dim H^0 = {C.dims[0]} = dim Ext^0 = {len(e0)}; "
      f"dim H^1 = {C.dims[1]} = dim Ext^1 = {E1.dim}")
assert (C.dims[0], C.dims[1]) == (len(e0), E1.dim)

r2 = random_rep(2, 2, 3, rng)
C12 = cohomology_closed(r1, r2)
h12 = C12.h0_basis()
if h12 and C.h0_basis():
    a, b = h12[0], C.h0_basis()[0]
    lhs = functor_h0(mu2_closed(a, b, 3), 3)
    rhs = compose00(functor_h0(a, 3), functor_h0(b, 3), 3)
    preserved = all(np.array_equal(x, y) for x, y in zip(lhs, rhs))
    print("functor preserves degree-(0,0) composition:", preserved)
    assert preserved
if C.h0_basis():
    b = C.h0_basis()[0]
    E02 = ext1(functor_obj(r0), functor_obj(r2))
    x = H1Class(tuple(xa.rand_matrix(rng, 2, 2, 3) for _ in range(2)))
    lhs = functor_h1(mu2_closed(x, b, 3), 3)
    preserved = E02.same(lhs, compose01(functor_h1(x, 3), functor_h0(b, 3), 3))
    print("functor preserves degree-(1,0) composition as Ext^1 classes:", preserved)
    assert preserved
