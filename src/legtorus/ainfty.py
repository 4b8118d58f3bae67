"""The representation category engine for the (2,m) torus link DGA.

Objects are matrix tuples (A_1..A_m) with P_m(A) invertible; T_1 and T_2 are
forced.  Morphism spaces are free Mat_n-modules on the dual generators
b^, a^, x^, y^ (written here by base name), and the operations mu_k come from
dualizing the pure-augmentation twist of the (k+1)-copy differential with the
sign rule

    sigma = k(k-1)/2 + sum_{p<q} d_p d_q + d_2 + d_4 + ...

where d_s is the (dual) degree of the s-th argument and arguments are listed
Hom(rho_{k-1},rho_k) x ... x Hom(rho_0,rho_1).

`mu_k`, `mu1` and `mu2` read the (1, k+1) entries of the symbolic
(k+1)-copy differential.  `freedga.staircase_words` keeps the words there
that run up the staircase and splits each, once per copy, into its chain
letters and one run of diagonal letters per copy; `TwistedCopy.top_diff`
turns each word into its one twisted term by multiplying every run out in
its copy's representation (`_expand_twist`).
The mu_1 matrix behind HomCohomology (`mu1_matrix`) builds no copy DGA: it
evaluates the 2-copy differential on 2x2 block upper-triangular matrices
blockwise.  Their diagonal blocks are r0's and r1's own values, so only the
(1,2) corners are computed, one per unit coefficient.  In degree 1 the
continuant's deletion expansion gives them in closed form: the corner of
P_m at a_j is P(A_1..A_{j-1}) Z_j P(B_{j+1}..B_m), and Q_m's is the same
expansion over the reversed, negated letters.  Each factor depends on one
object only.  The copy route is that matrix's test oracle.

A `Representation` holds its tuple as one read-only int64 array of shape
(m, n, n), and the continuant stacks of its two roles in a Hom space
(`source_stacks`, `target_stacks`), built on first use and read-only.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from . import exactalg as xa
from .freedga import (FreePoly, lambda_copy_dga, lambda_dga, link_grading,
                      pq_matrix, staircase_words)


class BudgetExceeded(RuntimeError):
    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


def dual_degree(base: str) -> int:
    if base.startswith("b"):
        return 2
    if base.startswith(("a", "x")):
        return 1
    if base.startswith("y"):
        return 0
    raise KeyError(base)


class Representation:
    """An n-dimensional representation of the (2,m) torus link DGA.

    The tuple is held as one read-only int64 array A of shape (m, n, n), so
    A[j - 1] is the matrix of a_j and every Hom route reads the stack as is.
    The continuant stacks `mu1_matrix` reads (`source_stacks` when the object
    is the source of a Hom space, `target_stacks` when it is the target) are
    built on first use and kept, read-only, on the object.
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
        pm = pq_matrix("P", self.A, p)
        pm_inv = xa.inverse(pm, p)
        if pm_inv is None:
            raise ValueError("P_m(A) is singular: tuple does not define a representation")
        self.T1 = (-pm_inv) % p
        self.T1_inv = (-pm) % p
        self.T2 = (-pq_matrix("Q", self.A, p)) % p
        self.T2_inv = xa.inverse(self.T2, p)  # invertible by the determinant identity

    @functools.cached_property
    def source_stacks(self) -> np.ndarray:
        """Layer (0, j-1) is P(A_1..A_{j-1}), layer (1, j-1) is P(-A_m..-A_{j+1}).

        Shape (2, m, n, n), read-only: the left factors of the degree-1
        corners of mu_1 on a Hom space with this object as its source.
        """
        stacks = np.stack([_continuants(self.A, self.p, left=False),
                           _continuants(-self.A[::-1], self.p, left=False)[::-1]])
        stacks.flags.writeable = False
        return stacks

    @functools.cached_property
    def target_stacks(self) -> np.ndarray:
        """Layer (0, j-1) is P(B_{j+1}..B_m), layer (1, j-1) is P(-B_{j-1}..-B_1),
        with B this object's tuple.

        Shape (2, m, n, n), read-only: the right factors of the degree-1
        corners of mu_1 on a Hom space with this object as its target.
        """
        stacks = np.stack([_continuants(self.A[::-1], self.p, left=True)[::-1],
                           _continuants(-self.A, self.p, left=True)])
        stacks.flags.writeable = False
        return stacks

    def key(self):
        return tuple(bytes(a.astype(np.int64)) for a in self.A)

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and (self.m, self.n, self.p) == (other.m, other.n, other.p)
                and all(np.array_equal(a, b) for a, b in zip(self.A, other.A)))

    def __repr__(self):
        return f"Representation(m={self.m}, n={self.n}, p={self.p}, A={[a.tolist() for a in self.A]})"

    def value(self, name: str, exp: int = 1) -> np.ndarray:
        """Matrix of a generator; nonzero-degree generators map to 0."""
        if name.startswith("a"):
            if exp != 1:
                raise ValueError("chords are not invertible")
            return self.A[int(name[1:]) - 1]
        if name == "t1":
            return self.T1 if exp == 1 else self.T1_inv
        if name == "t2":
            return self.T2 if exp == 1 else self.T2_inv
        if name.startswith(("b", "x", "y")):
            return xa.zeros(self.n, self.n)
        raise KeyError(name)

    def eval_poly(self, f: FreePoly) -> np.ndarray:
        """Evaluate a word polynomial, an algebra map on Lambda_m's generators."""
        return _eval_matrix_poly(f, self.value, self.n, self.p)

    def conjugate(self, minv, mmat) -> "Representation":
        return Representation(self.m, self.n, self.p, (minv @ self.A @ mmat) % self.p)


def _continuants(letters: np.ndarray, p: int, left: bool) -> np.ndarray:
    """Layer k is the continuant of letters[:k], k = 0..len - 1.

    Each new letter multiplies on the right, P_k = P_{k-1} L_k + P_{k-2}, or
    on the left, P_k = L_k P_{k-1} + P_{k-2}, which builds the continuant of
    the reversed word (L_k, ..., L_1).
    """
    m, n = len(letters), letters.shape[-1]
    out = np.empty((m, n, n), dtype=np.int64)
    out[0], prev = xa.eye(n), xa.zeros(n, n)
    for k in range(1, m):
        a = letters[k - 1]
        out[k] = ((a @ out[k - 1] if left else out[k - 1] @ a) + prev) % p
        prev = out[k - 1]
    return out


def check_representation(rho: Representation) -> bool:
    dga = lambda_dga(rho.m, rho.p)
    return all(not rho.eval_poly(df).any() for df in dga.diff.values())


def enumerate_reps(m: int, n: int, p: int, budget: int = 2_000_000):
    """All tuples with P_m(A) invertible, in lexicographic entry order."""
    total = p ** (n * n * m)
    if total > budget:
        raise BudgetExceeded(f"enumeration needs {total} tuples (budget {budget})",
                             required=total)
    out = []
    for flat in itertools.product(range(p), repeat=n * n * m):
        mats = [np.array(flat[i * n * n:(i + 1) * n * n], dtype=np.int64).reshape(n, n)
                for i in range(m)]
        if xa.det(pq_matrix("P", mats, p), p) != 0:
            out.append(Representation(m, n, p, mats))
    return out


def random_rep(m: int, n: int, p: int, rng) -> Representation:
    while True:
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        if xa.det(pq_matrix("P", mats, p), p) != 0:
            return Representation(m, n, p, mats)


# ---------------------------------------------------------------------------
# Hom elements

@dataclass
class HomElement:
    """Element of Hom(rho, rho'): matrix coefficients on dual generators."""

    n: int
    p: int
    degree: int
    coeffs: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for base, mat in self.coeffs.items():
            if dual_degree(base) != self.degree:
                raise ValueError(f"{base} has dual degree {dual_degree(base)}, element has {self.degree}")
            mat = np.mod(np.array(mat, dtype=np.int64), self.p)
            if mat.any():
                clean[base] = mat
        self.coeffs = clean

    def coeff(self, base: str) -> np.ndarray:
        return self.coeffs.get(base, xa.zeros(self.n, self.n))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if (self.n, self.p, self.degree) != (other.n, other.p, other.degree):
            raise ValueError("mismatched Hom elements: different n, p or degree")
        out = dict(self.coeffs)
        for b, mat in other.coeffs.items():
            out[b] = (out.get(b, 0) + mat) % self.p
        return HomElement(self.n, self.p, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k: int):
        return HomElement(self.n, self.p, self.degree,
                          {b: (mat * k) % self.p for b, mat in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, HomElement)
                and (self.n, self.p, self.degree) == (other.n, other.p, other.degree)
                and set(self.coeffs) == set(other.coeffs)
                and all(np.array_equal(self.coeffs[b], other.coeffs[b]) for b in self.coeffs))


def hom_basis_order(m: int, degree: int) -> list[str]:
    if degree == 0:
        return ["y1", "y2"]
    if degree == 1:
        return [f"a{j}" for j in range(1, m + 1)] + ["x1", "x2"]
    if degree == 2:
        return ["b1", "b2"]
    return []


def unit(rho: Representation) -> HomElement:
    """The unit -y1^ - y2^ of Hom(rho, rho)."""
    mi = (-xa.eye(rho.n)) % rho.p
    return HomElement(rho.n, rho.p, 0, {"y1": mi, "y2": mi})


# ---------------------------------------------------------------------------
# Twisting by (noncommutative) augmentations

def _eval_matrix_poly(f: FreePoly, eps, n: int, p: int) -> np.ndarray:
    out = xa.zeros(n, n)
    for w, c in f.terms.items():
        acc = xa.eye(n)
        for name, exp in w:
            acc = (acc @ eps(name, exp)) % p
        out = (out + c * acc) % p
    return out


def _expand_twist(words, rhos, n: int, p: int):
    """The staircase term of phi_eps(w) for each split staircase word w.

    phi_eps sends a diagonal chord c^{ii} to c^{ii} + eps(c^{ii}), an
    invertible t^i to eps(t^i), and an off-diagonal letter (c^{ij}, i != j,
    or a Morse x/y) to itself, as its eps is 0; copy l + 1 carries rhos[l].
    A term that keeps some c^{ii} as a letter is not a staircase term, so a
    word has exactly one: its diagonal letters become their eps values and
    its chain letters stay.  For a word (coeff, runs, bases) from
    `staircase_words`, coefficient l is the product of rhos[l].value over
    runs[l] (times coeff for l = 0).  Returns (coeffs, bases) per term, the
    coefficients interleaved left to right around the chain letters; a term
    with a zero coefficient is dropped.
    """
    ident = xa.eye(n)
    terms = []
    for c, runs, bases in words:
        coeffs = []
        for rho, run in zip(rhos, runs):
            acc = ident if coeffs else c * ident
            for name, exp in run:
                acc = (acc @ rho.value(name, exp)) % p
            coeffs.append(acc)
        if all(cf.any() for cf in coeffs):
            terms.append((coeffs, bases))
    return terms


class TwistedCopy:
    """Pure-augmentation twist of the K-copy by rhos (copy l + 1 carries
    rhos[l]), one generator at a time; the copy from `lambda_copy_dga` keys
    the cached split of its staircase words."""

    def __init__(self, rhos):
        r0 = rhos[0]
        for r in rhos:
            if (r.m, r.n, r.p) != (r0.m, r0.n, r0.p):
                raise ValueError("mismatched representations")
        self.m, self.n, self.p = r0.m, r0.n, r0.p
        self.rhos = rhos
        self.K = len(rhos)
        self.dga = lambda_copy_dga(self.m, self.p, self.K)

    def top_diff(self, base: str):
        """Staircase terms of d_eps(base^{1,K}) as (coeffs, bases).

        A staircase term has the letters z^{12}, ..., z^{K-1,K} and nothing
        else, so only words whose off-diagonal letters are that chain can
        contribute.  `staircase_words` picks them from this copy's (1, K)
        entry, split into chain letters and one run of diagonal letters per
        copy, once per (copy, base); `_expand_twist` multiplies the runs out
        in the representations.  Only rows of source copy 1 are built.
        """
        words = staircase_words(self.dga, self.K, base)
        return _expand_twist(words, self.rhos, self.n, self.p)


def mu_k(rhos, args) -> HomElement:
    """mu_k: Hom(rho_{k-1},rho_k) x ... x Hom(rho_0,rho_1) -> Hom(rho_0,rho_k)."""
    k = len(args)
    if len(rhos) != k + 1:
        raise ValueError("need k+1 representations for mu_k")
    tw = TwistedCopy(tuple(rhos))
    n, p = tw.n, tw.p
    for a in args:
        if (a.n, a.p) != (n, p):
            raise ValueError("mismatched Hom element")
    degs = [a.degree for a in args]
    sigma = k * (k - 1) // 2
    for s in range(k):
        for t in range(s + 1, k):
            sigma += degs[s] * degs[t]
    sigma += sum(degs[s] for s in range(1, k, 2))  # slots 2, 4, ... (1-indexed)
    sign = (-1) ** sigma
    out_deg = sum(degs) + 2 - k
    coeffs: dict[str, np.ndarray] = {}
    for w in hom_basis_order(tw.m, out_deg):
        acc = xa.zeros(n, n)
        for cs, bases in tw.top_diff(w):
            # letters are left-to-right z^{1,2} .. z^{k,k+1}; slot s counts
            # from the right, so left-to-right position t pairs with args[k-1-t]
            val = cs[0]
            for t, base in enumerate(bases):
                a = args[k - 1 - t].coeffs.get(base)
                if a is None:
                    break
                val = (val @ a @ cs[t + 1]) % p
            else:
                acc = (acc + val) % p
        if acc.any():
            coeffs[w] = (sign * acc) % p
    return HomElement(n, p, out_deg, coeffs)


def mu1(r0: Representation, r1: Representation, x: HomElement) -> HomElement:
    return mu_k((r0, r1), [x])


def mu2(r0, r1, r2, x1: HomElement, x2: HomElement) -> HomElement:
    """mu_2(x1, x2) with x1 in Hom(r1,r2) and x2 in Hom(r0,r1)."""
    return mu_k((r0, r1, r2), [x1, x2])


# ---------------------------------------------------------------------------
# Cohomology of Hom(rho, rho') with respect to mu_1

def _vec(x: HomElement, order: list[str]) -> np.ndarray:
    return np.concatenate([x.coeff(b).reshape(-1) for b in order]) if order else np.zeros(0, dtype=np.int64)


def _unvec(v: np.ndarray, order: list[str], n: int, p: int, degree: int) -> HomElement:
    coeffs = {}
    for i, b in enumerate(order):
        coeffs[b] = v[i * n * n:(i + 1) * n * n].reshape(n, n)
    return HomElement(n, p, degree, coeffs)


def mu1_matrix(r0, r1, degree: int) -> np.ndarray:
    """Matrix of mu_1 from degree to degree+1 in the canonical dual basis.

    mu_1(z^) is the (1,2) corner of the 2-copy differential evaluated on
    2x2 block upper-triangular matrices: copy 1 carries r0, copy 2 carries
    r1, and the off-diagonal generator z^{12} carries the argument's
    coefficient Z_z (0 on the other bases).  Two corner-only factors multiply
    to zero, so the corner is linear in the argument, and column s*n^2 + k is
    its value at the k-th unit coefficient of source s (row-major, as `_vec`
    flattens).  Only corners are computed: the diagonal blocks are r0's and
    r1's own values, A_j and B_j for a_j, T_l and T'_l in Delta_l.

    Degree 0 (sources y1, y2): d(a_j) = Y_r a_j - a_j Y_c and
    d(x_l) = Delta_l^-1 Y_r Delta_l X_l - X_l Y_c, with X_l = 1 and
    Y_l = [[0, Z_yl], [0, 0]], have the corners Z_yr B_j - A_j Z_yc and
    T_l^-1 Z_yr T'_l - Z_yc, where (r, c) come from `link_grading`.

    Degree 1 (sources a_1..a_m, x1, x2): d(b1) = X1^-1 Delta1^-1 + P_m and
    d(b2) = Delta2 X2 + Q_m, as the terms Y_r B + B Y_c have no source.  With
    X_l = [[1, Z_xl], [0, 1]] the first terms have the corners -Z_x1 T'_1^-1
    and T_2 Z_x2.  On the chords M_j = [[A_j, Z_j], [0, B_j]], P_m(M) is the
    top-left block of the transfer product T_1 ... T_m with
    T_j = [[M_j, 1], [1, 0]], and the top-left block of any run T_i ... T_k
    is P(M_i..M_k).  The corner is linear in the Z_j, so it is the sum over j
    of the corner of that product with T_j replaced by [[E_j, 0], [0, 0]],
    E_j = [[0, Z_j], [0, 0]], and every other M_i by diag(A_i, B_i).  That
    middle factor reads only the top-left blocks of the runs on either side,
    copy 1's P(A_1..A_{j-1}) on its left and copy 2's P(B_{j+1}..B_m) on its
    right, which gives the deletion expansion

        corner of P_m = sum_j P(A_1..A_{j-1}) Z_j P(B_{j+1}..B_m).

    Q_m is P over the reversed, negated letters, P(-M_m, ..., -M_1) (as
    `pq_matrix` computes it from the right), so its corner is

        corner of Q_m = -sum_j P(-A_m..-A_{j+1}) Z_j P(-B_{j-1}..-B_1).

    The left factors belong to r0 alone and the right factors to r1 alone:
    they are `r0.source_stacks` (pre) and `r1.target_stacks` (suf), built
    once per object, and a pair pays one batched product over both
    families, (pre @ units % p) @ suf.  Every product is reduced mod p
    before it is accumulated again.
    """
    if (r0.m, r0.n, r0.p) != (r1.m, r1.n, r1.p):
        raise ValueError("mismatched representations")
    m, n, p = r0.m, r0.n, r0.p
    nn = n * n
    src, dst = hom_basis_order(m, degree), hom_basis_order(m, degree + 1)
    units = np.eye(nn, dtype=np.int64).reshape(nn, n, n)
    # corners[d, s, k]: the corner of d(dst[d]) at the k-th unit coefficient of src[s]
    corners = np.zeros((len(dst), len(src), nn, n, n), dtype=np.int64)
    if degree == 0:
        # chords: a_j has (r, c) = (1, 2) for odd j and (2, 1) for even j
        zb, az = units @ r1.A[:, None], r0.A[:, None] @ units
        corners[0:m:2, 0], corners[0:m:2, 1] = zb[0::2], -az[0::2]
        corners[1:m:2, 1], corners[1:m:2, 0] = zb[1::2], -az[1::2]
        lg = link_grading(m)
        for d, t in ((m, "t1"), (m + 1, "t2")):
            r, c = lg[t]
            corners[d, r - 1] += (r0.value(t, -1) @ units % p) @ r1.value(t)
            corners[d, c - 1] -= units
    elif degree == 1:
        pre, suf = r0.source_stacks[:, :, None], r1.target_stacks[:, :, None]
        corners[:, :m] = (pre @ units % p) @ suf
        corners[1, :m] *= -1
        corners[0, m] = -(units @ r1.T1_inv)
        corners[1, m + 1] = r0.T2 @ units
    mat = corners.transpose(0, 3, 4, 1, 2).reshape(len(dst) * nn, len(src) * nn)
    mat %= p
    return mat


class HomCohomology:
    """H^d = ker maps[d] / im maps[d-1] of Hom(rho, rho') under mu_1, d = 0, 1, 2,
    with canonical echelon coset representatives; maps[-1] and maps[2] are zero."""

    def __init__(self, r0: Representation, r1: Representation):
        self.n, self.p, self.m = r0.n, r0.p, r0.m
        self.orders = {d: hom_basis_order(self.m, d) for d in (0, 1, 2)}
        size = {d: len(self.orders[d]) * self.n * self.n for d in (0, 1, 2)}
        mats = {-1: xa.zeros(size[0], 0), 0: mu1_matrix(r0, r1, 0),
                1: mu1_matrix(r0, r1, 1), 2: xa.zeros(0, size[2])}
        self.maps = {d: xa.LinearMap(a, self.p) for d, a in mats.items()}
        self.dims = {d: self.maps[d].nullity - self.maps[d - 1].rank for d in (0, 1, 2)}

    def is_cocycle(self, x: HomElement) -> bool:
        v = _vec(x, self.orders[x.degree])
        return not ((self.maps[x.degree].a @ v) % self.p).any()

    def class_vector(self, x: HomElement) -> np.ndarray:
        """Canonical coset representative of a cocycle."""
        if not self.is_cocycle(x):
            raise ValueError("not a cocycle")
        return self.maps[x.degree - 1].reduce(_vec(x, self.orders[x.degree]))

    def same_class(self, x: HomElement, y: HomElement) -> bool:
        return x.degree == y.degree and np.array_equal(self.class_vector(x), self.class_vector(y))

    def basis(self, d: int) -> list[HomElement]:
        """Canonical cocycle representatives forming a basis of H^d."""
        rows = self.maps[d - 1].classes(self.maps[d].kernel.T)
        return [_unvec(row, self.orders[d], self.n, self.p, d) for row in rows]


def hom_cohomology(r0: Representation, r1: Representation):
    return HomCohomology(r0, r1)


# ---------------------------------------------------------------------------
# Isomorphism in the cohomology category

def is_isomorphic(r1: Representation, r2: Representation, budget: int = 200_000,
                  rng=None):
    """Witness (u_1, u_2) with rho_2(z) = u_{r(z)}^-1 rho_1(z) u_{c(z)}, or None.

    An isomorphism is an invertible degree-0 cocycle: its coefficients on
    y1, y2 lie in ker mu_1 of Hom(r1, r2), whose chord rows are
    u_r rho_2(a_j) - rho_1(a_j) u_c and whose t-rows are T_l^-1 times
    u_r rho_2(t_l) - rho_1(t_l) u_c.  Kernel elements are filtered for
    invertibility: exhaustively when p^dim fits the budget, by seeded
    sampling otherwise (in which case absence is not certified and
    BudgetExceeded is raised instead).  As det(c u) = c^n det(u), the
    exhaustive search tries each line once, at its first nonzero entry 1.
    """
    if (r1.m, r1.n, r1.p) != (r2.m, r2.n, r2.p):
        raise ValueError("representations live in different categories")
    n, p = r1.n, r1.p
    ker = xa.LinearMap(mu1_matrix(r1, r2, 0), p).kernel
    d = ker.shape[1]
    exhaustive = p ** d <= budget
    if exhaustive:
        combos = ((0,) * i + (1,) + rest for i in reversed(range(d))
                  for rest in itertools.product(range(p), repeat=d - 1 - i))
    else:
        rng = rng or random.Random(0)
        combos = ([rng.randrange(p) for _ in range(d)] for _ in range(budget))
    for combo in combos:
        u1, u2 = (ker @ np.array(combo, dtype=np.int64) % p).reshape(2, n, n)
        if xa.det(u1, p) and xa.det(u2, p):
            return u1, u2
    if exhaustive:
        return None
    raise BudgetExceeded(f"intertwiner space has {p}^{d} elements; sampling found no witness",
                         required=p ** d)
