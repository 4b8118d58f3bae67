"""Microlocal-rank-n sheaves on the rainbow-closure front, and the functor
from the representation side.

A sheaf object is coordinatized by a tuple (A_1..A_m) with P_m(A) invertible;
the final k arrows of the 2x2 block chain [[0,1],[1,A_j]] give
phi_k (+) phi_{k+1}, so the legs phi_0..phi_{m+1} : V -> V^2 come in one pass
from phi_{k+1} = phi_{k-1} + phi_k A_k, and psi : V^2 -> V is (0 1).  Ext^0
(chain morphisms) and Ext^1 (extensions in the normalized Omega-block form)
are the kernel and cokernel of one map, `_ext_map`, and the compositions
follow the pullback/pushforward formulas.
The equivalence functor transposes tuples, sends an H^0 class (u1,u2) to
-(u2^T, u1^T) and an H^1 class to the entrywise transpose.
"""

from __future__ import annotations

import functools

import numpy as np

from . import exactalg as xa
from .ainfty import Representation
from .freedga import pq_matrix
from .torusrep import H0Class, H1Class


class SheafObject:
    """A microlocal rank-n sheaf on the (2,m) torus link front.

    The tuple is held as one read-only int64 array A of shape (m, n, n), so
    A[j - 1] is A_j and the Ext map reads the stack as is.
    """

    def __init__(self, m: int, n: int, p: int, mats):
        if m < 1 or n < 1:
            raise ValueError(f"{'m' if m < 1 else 'n'} must be at least 1")
        self.m, self.n, self.p = m, n, xa.check_field(p)
        mats = [np.asarray(a, dtype=np.int64) for a in mats]
        if len(mats) != m or any(a.shape != (n, n) for a in mats):
            raise ValueError("need m matrices of size n x n")
        self.A = np.mod(np.array(mats, dtype=np.int64).reshape(m, n, n), p)
        self.A.flags.writeable = False
        if xa.det(pq_matrix("P", self.A, p, n), p) == 0:
            raise ValueError("P_m(A) singular: crossing condition fails")

    def key(self):
        return tuple(bytes(a.astype(np.int64)) for a in self.A)

    def __repr__(self):
        return f"SheafObject(m={self.m}, n={self.n}, p={self.p}, A={[a.tolist() for a in self.A]})"

    def omega(self, j: int) -> np.ndarray:
        """The 2x2 block [[0, 1], [1, A_j]]."""
        n, p = self.n, self.p
        return np.block([[xa.zeros(n, n), xa.eye(n)], [xa.eye(n), self.A[j - 1]]]) % p

    @functools.cached_property
    def legs(self) -> np.ndarray:
        """phi_0..phi_{m+1}, read-only, shape (m + 2, 2n, n): the block columns
        of omega(1) ... omega(k) are phi_k, phi_{k+1}, so phi_0 = (1; 0),
        phi_1 = (0; 1) and omega(k) gives phi_{k+1} = phi_{k-1} + phi_k A_k."""
        n, p = self.n, self.p
        legs = np.zeros((self.m + 2, 2 * n, n), dtype=np.int64)
        legs[0, :n] = legs[1, n:] = xa.eye(n)
        for k in range(1, self.m + 1):
            legs[k + 1] = (legs[k - 1] + legs[k] @ self.A[k - 1]) % p
        legs.flags.writeable = False
        return legs

    @property
    def psi(self) -> np.ndarray:
        return np.hstack([xa.zeros(self.n, self.n), xa.eye(self.n)])

    def phi(self, k: int) -> np.ndarray:
        return self.legs[k]

    def check_invariants(self) -> bool:
        n, p = self.n, self.p
        if not np.array_equal((self.psi @ self.phi(1)) % p, xa.eye(n)):
            return False
        if xa.det((self.psi @ self.phi(self.m + 1)) % p, p) == 0:
            return False
        for i in range(1, self.m + 1):
            juxt = np.hstack([self.phi(i), self.phi(i + 1)])
            if xa.rank(juxt, p) != 2 * n:
                return False
        return True


# ---------------------------------------------------------------------------
# The Ext map, and Ext^0

def _ext_map(F: SheafObject, G: SheafObject) -> np.ndarray:
    """The map (u1, u2) -> (u_hit A_k - A'_k u_other)_k on row-major vecs,
    with A from F, A' from G, and u_hit = u1 for k odd, u2 for k even.

    Ext^0(F, G) is its kernel and Ext^1(F, G) its cokernel.  Both Kronecker
    stacks are built with one call each, and placed with strided slices over
    the odd and the even k.
    """
    if (F.m, F.n, F.p) != (G.m, G.n, G.p):
        raise ValueError("mismatched objects")
    n, p, m = F.n, F.p, F.m
    n2 = n * n
    ident = xa.eye(n)
    hit = xa.kron(ident, F.A.transpose(0, 2, 1), p)  # u -> u A_k
    other = (-xa.kron(G.A, ident, p)) % p            # u -> -A'_k u
    mat = xa.zeros(m * n2, 2 * n2)
    blocks = mat.reshape(m, n2, 2, n2)  # [k - 1, row, u1 or u2, entry of u]
    blocks[0::2, :, 0], blocks[1::2, :, 1] = hit[0::2], hit[1::2]
    blocks[0::2, :, 1], blocks[1::2, :, 0] = other[0::2], other[1::2]
    return mat


@functools.lru_cache(maxsize=1)
def _ext(F: SheafObject, G: SheafObject) -> xa.LinearMap:
    """The pair's Ext map, eliminated once for all Ext functions (keyed on
    object identity: SheafObject defines no __eq__)."""
    return xa.LinearMap(_ext_map(F, G), F.p)


def ext0(F: SheafObject, G: SheafObject) -> list[tuple[np.ndarray, np.ndarray]]:
    """Basis of Ext^0(F, G) as pairs (u1, u2)."""
    n = F.n
    n2 = n * n
    return [(col[:n2].reshape(n, n) % F.p, col[n2:].reshape(n, n) % F.p)
            for col in _ext(F, G).kernel.T]


def ext0_dim(F, G) -> int:
    """dim Ext^0(F, G) = 2n^2 - rank of the Ext map."""
    return _ext(F, G).nullity


def compose00(u2_, u1_, p: int):
    """(u' o u) for u: F -> G, u': G -> H, componentwise products."""
    return ((u2_[0] @ u1_[0]) % p, (u2_[1] @ u1_[1]) % p)


# ---------------------------------------------------------------------------
# Ext^1

class Ext1Space:
    """(End V)^m modulo the image of `_ext_map`, with canonical coset reps."""

    def __init__(self, F: SheafObject, G: SheafObject):
        self.map = _ext(F, G)
        self.n, self.m = F.n, F.m
        self.dim = self.map.corank

    def reduce(self, w) -> np.ndarray:
        return self.map.reduce(np.concatenate([np.ravel(wj) for wj in w]))

    def same(self, w, w2) -> bool:
        return np.array_equal(self.reduce(w), self.reduce(w2))

    def basis(self):
        n, n2 = self.n, self.n * self.n
        return [tuple(row[j * n2:(j + 1) * n2].reshape(n, n) for j in range(self.m))
                for row in self.map.classes(xa.eye(self.m * n2))]


def ext1(F: SheafObject, G: SheafObject) -> Ext1Space:
    return Ext1Space(F, G)


def ext1_dim(F, G) -> int:
    """dim Ext^1(F, G) = mn^2 - rank of the Ext map."""
    return _ext(F, G).corank


def extension_from_class(w, F: SheafObject, G: SheafObject):
    """Middle object of the extension 0 -> G -> E -> F -> 0 with class w:
    the rank-2n sheaf object with block tuple [[A'_j, w_j], [0, A_j]].  Its
    projection-normal form is `psi` and its 4-block chain maps `omega(j)`.
    """
    n, p, m = F.n, F.p, F.m
    if len(w) != m:
        raise ValueError("class needs m components")
    return SheafObject(m, 2 * n, p, [
        np.block([[G.A[j], np.mod(np.array(w[j], dtype=np.int64), p)],
                  [xa.zeros(n, n), F.A[j]]]) % p
        for j in range(m)
    ])


def extension_inclusion(n: int, p: int):
    """G -> middle component maps: V -> V^2 is (1;0), V^2 -> V^4 in blocks."""
    inc_v = np.vstack([xa.eye(n), xa.zeros(n, n)])
    inc_v2 = np.block([
        [xa.eye(n), xa.zeros(n, n)],
        [xa.zeros(n, n), xa.zeros(n, n)],
        [xa.zeros(n, n), xa.eye(n)],
        [xa.zeros(n, n), xa.zeros(n, n)],
    ]) % p
    return inc_v, inc_v2


def extension_projection(n: int, p: int):
    """middle -> F component maps: V^2 -> V is (0 1), V^4 -> V^2 in blocks."""
    proj_v = np.hstack([xa.zeros(n, n), xa.eye(n)])
    proj_v2 = np.block([
        [xa.zeros(n, n), xa.eye(n), xa.zeros(n, n), xa.zeros(n, n)],
        [xa.zeros(n, n), xa.zeros(n, n), xa.zeros(n, n), xa.eye(n)],
    ]) % p
    return proj_v, proj_v2


def check_extension_exact(w, F: SheafObject, G: SheafObject) -> bool:
    """Componentwise short exactness and chain compatibility of the middle."""
    n, p, m = F.n, F.p, F.m
    mid = extension_from_class(w, F, G)
    inc_v, inc_v2 = extension_inclusion(n, p)
    proj_v, proj_v2 = extension_projection(n, p)
    # componentwise short exact: proj o inc = 0 with the right ranks
    if ((proj_v @ inc_v) % p).any() or ((proj_v2 @ inc_v2) % p).any():
        return False
    if xa.rank(inc_v, p) != n or xa.rank(proj_v, p) != n:
        return False
    if xa.rank(inc_v2, p) != 2 * n or xa.rank(proj_v2, p) != 2 * n:
        return False
    # inclusion and projection are chain maps against the Omega chains
    for j in range(1, m + 1):
        if not np.array_equal((mid.omega(j) @ inc_v2) % p, (inc_v2 @ G.omega(j)) % p):
            return False
        if not np.array_equal((proj_v2 @ mid.omega(j)) % p, (F.omega(j) @ proj_v2) % p):
            return False
    if not np.array_equal((mid.psi @ inc_v2) % p, (inc_v @ G.psi) % p):
        return False
    if not np.array_equal((proj_v @ mid.psi) % p, (F.psi @ proj_v2) % p):
        return False
    return mid.check_invariants()


# ---------------------------------------------------------------------------
# Compositions with Ext^1

def compose01(wprime, u, p: int):
    """e' o u: pullback of the extension e' = (w'_j) along u = (u1, u2)."""
    u1, u2 = u
    return tuple((wj @ (u2 if j % 2 == 1 else u1)) % p
                 for j, wj in enumerate(wprime, start=1))


def compose10(uprime, w, p: int):
    """u' o e: pushforward of e = (w_j) along u' = (u'_1, u'_2)."""
    u1, u2 = uprime
    return tuple(((u1 if j % 2 == 1 else u2) @ wj) % p
                 for j, wj in enumerate(w, start=1))


# ---------------------------------------------------------------------------
# The equivalence functor

def functor_obj(rho: Representation) -> SheafObject:
    """Objects: entrywise transpose of the defining tuple."""
    return SheafObject(rho.m, rho.n, rho.p, rho.A.transpose(0, 2, 1))


def functor_h0(cls: H0Class, p: int):
    """H^0 class (u1, u2) -> Ext^0 element -(u2^T, u1^T)."""
    return ((-cls.u2.T) % p, (-cls.u1.T) % p)


def functor_h1(cls: H1Class, p: int):
    """H^1 class (w_j) -> Ext^1 class (w_j^T)."""
    return tuple(w.T % p for w in cls.w)
