"""Closed-form computations for the (2,m) torus link representation category.

These are the explicit formulas: the determinant identity relating P_m and
Q_m, the five-case formula for mu_1, the reduced two-term complex computing
H^0/H^1, and the class-level composition formulas

    mu2((u1',u2'), (u1,u2))   = -(u1 u1', u2 u2')
    mu2((u1',u2'), (w_j))     = -(w_1 u2', w_2 u1', w_3 u2', ...)
    mu2((w_j'),   (u1,u2))    = -(u1 w_1', u2 w_2', u1 w_3', ...)

Everything here is an independent oracle for the dualized-copy machinery in
ainfty; the two routes never share code beyond basic matrix arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactalg as xa
from .ainfty import HomElement, Representation
from .freedga import pq_matrix


def sylvester_check(mats, p: int) -> bool:
    """det(P_m(A)) == (-1)^{mn} det(Q_m(A)); a theorem, exposed as an oracle."""
    mats = list(mats)
    m = len(mats)
    n = mats[0].shape[0] if mats else 1
    lhs = xa.det(pq_matrix("P", mats, p), p)
    rhs = (pow(-1, m * n, p) * xa.det(pq_matrix("Q", mats, p), p)) % p
    return lhs == rhs


def mu1_closed(rho: Representation, rho2: Representation, x: HomElement) -> HomElement:
    """The closed-form differential on Hom(rho, rho2)."""
    n, p, m = rho.n, rho.p, rho.m
    A, B = rho.A, rho2.A
    out: dict[str, np.ndarray] = {}

    def add(base, mat):
        out[base] = (out.get(base, 0) + mat) % p

    if x.degree == 2:
        return HomElement(n, p, 3, {})
    if x.degree == 1:
        for j in range(1, m + 1):
            w = x.coeffs.get(f"a{j}")
            if w is None:
                continue
            left = pq_matrix("P", A[:j - 1], p, n)
            right = pq_matrix("P", B[j:], p, n)
            add("b1", left @ w @ right % p)
            qleft = pq_matrix("Q", A[j:], p, n)
            qright = pq_matrix("Q", B[:j - 1], p, n)
            add("b2", (-qleft @ w @ qright) % p)
        v1 = x.coeffs.get("x1")
        if v1 is not None:
            add("b1", (-v1 @ rho2.T1_inv) % p)
        v2 = x.coeffs.get("x2")
        if v2 is not None:
            add("b2", rho.T2 @ v2 % p)
        return HomElement(n, p, 2, out)

    # degree 0
    u1 = x.coeffs.get("y1")
    u2 = x.coeffs.get("y2")
    odd = m % 2 == 1
    if u1 is not None:
        for j in range(1, m + 1):
            if j % 2 == 1:
                add(f"a{j}", u1 @ B[j - 1] % p)
            else:
                add(f"a{j}", (-A[j - 1] @ u1) % p)
        add("x1", (-u1) % p)
        if odd:
            add("x2", rho.T2_inv @ u1 @ rho2.T2 % p)
        else:
            add("x1", rho.T1_inv @ u1 @ rho2.T1 % p)
    if u2 is not None:
        for j in range(1, m + 1):
            if j % 2 == 1:
                add(f"a{j}", (-A[j - 1] @ u2) % p)
            else:
                add(f"a{j}", u2 @ B[j - 1] % p)
        add("x2", (-u2) % p)
        if odd:
            add("x1", rho.T1_inv @ u2 @ rho2.T1 % p)
        else:
            add("x2", rho.T2_inv @ u2 @ rho2.T2 % p)
    return HomElement(n, p, 1, out)


# ---------------------------------------------------------------------------
# Cohomology via the reduced two-term complex

@dataclass
class H0Class:
    u1: np.ndarray
    u2: np.ndarray


@dataclass
class H1Class:
    w: tuple


def reduced_complex_matrix(rho: Representation, rho2: Representation) -> np.ndarray:
    """(u1, u2) -> (u1 A'_1 - A_1 u2, u2 A'_2 - A_2 u1, ...), vectorized.

    Row block j is u_src A'_j - A_j u_other, with src = 1 for j odd and 2
    for j even.  Both Kronecker stacks are built with one call each, and
    placed with strided slices over the odd and the even j.
    """
    n, p, m = rho.n, rho.p, rho.m
    n2 = n * n
    ident = xa.eye(n)
    right = xa.kron(ident, rho2.A.transpose(0, 2, 1), p)  # u -> u A'_j
    left = (-xa.kron(rho.A, ident, p)) % p                 # u -> -A_j u
    mat = xa.zeros(m * n2, 2 * n2)
    blocks = mat.reshape(m, n2, 2, n2)  # [j - 1, row, u1 or u2, entry of u]
    blocks[0::2, :, 0], blocks[1::2, :, 1] = right[0::2], right[1::2]
    blocks[0::2, :, 1], blocks[1::2, :, 0] = left[0::2], left[1::2]
    return mat


class TorusHomClosed:
    """H^0/H^1/H^2 of Hom(rho, rho2) from the reduced complex, with
    canonical coset representatives for degree-1 classes."""

    def __init__(self, rho: Representation, rho2: Representation):
        if (rho.m, rho.n, rho.p) != (rho2.m, rho2.n, rho2.p):
            raise ValueError("mismatched objects")
        self.rho, self.rho2 = rho, rho2
        self.n, self.p, self.m = rho.n, rho.p, rho.m
        self.matrix = reduced_complex_matrix(rho, rho2)
        self.map = xa.LinearMap(self.matrix, self.p)
        self.dims = {0: self.map.nullity, 1: self.map.corank, 2: 0}

    def h0_basis(self) -> list[H0Class]:
        n, n2 = self.n, self.n * self.n
        return [H0Class(col[:n2].reshape(n, n) % self.p, col[n2:].reshape(n, n) % self.p)
                for col in self.map.kernel.T]

    def h1_reduce(self, w) -> np.ndarray:
        return self.map.reduce(np.concatenate([np.ravel(wj) for wj in w]))

    def h1_class(self, w) -> H1Class:
        v = self.h1_reduce(w)
        n, n2 = self.n, self.n * self.n
        return H1Class(tuple(v[j * n2:(j + 1) * n2].reshape(n, n) for j in range(self.m)))

    def cocycle_from_w(self, w) -> HomElement:
        """The unique mu_1-cocycle with the given a-part: its x-parts cancel
        the b-parts that mu_1 gives the a-part."""
        n, p = self.n, self.p
        coeffs = {f"a{j}": np.mod(np.array(wj, dtype=np.int64), p) for j, wj in enumerate(w, 1)}
        b = mu1_closed(self.rho, self.rho2, HomElement(n, p, 1, coeffs))
        coeffs["x1"] = b.coeff("b1") @ self.rho2.T1 % p      # solves x1 (T1')^{-1} = b1
        coeffs["x2"] = -self.rho.T2_inv @ b.coeff("b2") % p  # solves T2 x2 = -b2
        return HomElement(n, p, 1, coeffs)

    def h0_to_element(self, cls: H0Class) -> HomElement:
        return HomElement(self.n, self.p, 0, {"y1": cls.u1, "y2": cls.u2})


def cohomology_closed(rho: Representation, rho2: Representation) -> TorusHomClosed:
    return TorusHomClosed(rho, rho2)


def mu2_closed(x, y, p: int):
    """Class-level composition; x in Hom(rho',rho''), y in Hom(rho,rho')."""
    if isinstance(x, H0Class) and isinstance(y, H0Class):
        return H0Class((-y.u1 @ x.u1) % p, (-y.u2 @ x.u2) % p)
    if isinstance(x, H0Class) and isinstance(y, H1Class):
        return H1Class(tuple(
            (-(wj @ (x.u2 if j % 2 == 1 else x.u1))) % p
            for j, wj in enumerate(y.w, start=1)))
    if isinstance(x, H1Class) and isinstance(y, H0Class):
        return H1Class(tuple(
            (-((y.u1 if j % 2 == 1 else y.u2) @ wj)) % p
            for j, wj in enumerate(x.w, start=1)))
    raise ValueError("composition lands in degree 2, which vanishes")
