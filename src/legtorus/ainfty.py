"""The representation category engine for the (2,m) torus link DGA.

Objects are matrix tuples (A_1..A_m) with P_m(A) invertible; T_1 and T_2 are
forced.  Morphism spaces are free Mat_n-modules on the dual generators
b^, a^, x^, y^ (written here by base name), and the operations mu_k come from
dualizing the pure-augmentation twist of the (k+1)-copy differential with the
sign rule

    sigma = k(k-1)/2 + sum_{p<q} d_p d_q + d_2 + d_4 + ...

where d_s is the (dual) degree of the s-th argument and arguments are listed
Hom(rho_{k-1},rho_k) x ... x Hom(rho_0,rho_1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import exactalg as xa
from .freedga import (DGA, FreePoly, lambda_copy_dga, lambda_dga, link_grading,
                      pq_matrix)


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
    """An n-dimensional representation of the (2,m) torus link DGA."""

    def __init__(self, m: int, n: int, p: int, mats):
        self.m, self.n, self.p = m, n, xa.check_field(p)
        self.A = tuple(np.mod(np.array(a, dtype=np.int64), p) for a in mats)
        if len(self.A) != m or any(a.shape != (n, n) for a in self.A):
            raise ValueError("need m matrices of size n x n")
        pm = pq_matrix("P", self.A, p)
        pm_inv = xa.inverse(pm, p)
        if pm_inv is None:
            raise ValueError("P_m(A) is singular: tuple does not define a representation")
        self.T1 = (-pm_inv) % p
        self.T1_inv = (-pm) % p
        self.T2 = (-pq_matrix("Q", self.A, p)) % p
        self.T2_inv = xa.inverse(self.T2, p)  # invertible by the determinant identity

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
        return Representation(self.m, self.n, self.p,
                              [(minv @ a @ mmat) % self.p for a in self.A])


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
        return (isinstance(other, HomElement) and self.degree == other.degree
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

def twist_diff(dga: DGA, eps) -> dict[str, list]:
    """Twisted differential of a DGA by a matrix augmentation.

    eps(name, exp) must return the augmentation matrix for every generator
    (invertible generators included).  Result: for each non-invertible
    generator, a list of terms (coeffs, letters) with len(coeffs) ==
    len(letters) + 1 and matrix coefficients interleaved left to right.
    Raises if eps fails eps(d(g)) = 0 for some generator.
    """
    n = eps(next(iter(dga.gens)), 1).shape[0]
    p = dga.p
    for name, f in dga.diff.items():
        val = _eval_matrix_poly(f, eps, n, p)
        if val.any():
            raise ValueError(f"not an augmentation: eps(d({name})) != 0")
    return {name: _expand_twist(dga, dga.diff[name], eps, n, p)
            for name, g in dga.gens.items() if not g.invertible}


def _eval_matrix_poly(f: FreePoly, eps, n: int, p: int) -> np.ndarray:
    out = xa.zeros(n, n)
    for w, c in f.terms.items():
        acc = xa.eye(n)
        for name, exp in w:
            acc = (acc @ eps(name, exp)) % p
        out = (out + c * acc) % p
    return out


def _expand_twist(dga: DGA, f: FreePoly, eps, n: int, p: int):
    """phi_eps applied to f: letters become (letter + eps) for chords and
    eps values for invertible generators; returns interleaved matrix terms.

    Scalar terms must cancel (the twisted differential is augmented), so they
    are summed and checked rather than returned.
    """
    ident = xa.eye(n)
    terms = []
    constant = xa.zeros(n, n)
    for w, c in f.terms.items():
        partial = [([(c % p) * ident % p], [])]
        for name, exp in w:
            g = dga.gens[name]
            if g.invertible:
                val = eps(name, exp)
                for cs, _ in partial:
                    cs[-1] = (cs[-1] @ val) % p
            else:
                const = eps(name, exp)
                new = []
                for cs, ls in partial:
                    new.append((cs + [ident.copy()], ls + [name]))
                    if const.any():
                        cs2 = list(cs)
                        cs2[-1] = (cs2[-1] @ const) % p
                        new.append((cs2, list(ls)))
                partial = new
        for cs, ls in partial:
            if not ls:
                constant = (constant + cs[0]) % p
            elif all(m_.any() for m_ in cs):
                terms.append((cs, ls))
    if constant.any():
        raise AssertionError("twisted differential has a constant term")
    return terms


class PureAugmentation:
    """eps for the K-copy of Lambda_m given representations (rho_0..rho_{K-1});
    copy i carries rho_{i-1}, off-diagonal chords and Morse generators go to 0."""

    def __init__(self, copydga: DGA, rhos):
        self.info = copydga.copy_info
        self.rhos = rhos
        self.n = rhos[0].n
        self.p = rhos[0].p

    def __call__(self, name, exp=1):
        kind = self.info[name]
        if kind[0] == "t":
            _, base, _, i = kind
            return self.rhos[i - 1].value(base, exp)
        if kind[0] == "chord":
            _, base, i, j = kind
            if i == j:
                return self.rhos[i - 1].value(base, exp)
            return xa.zeros(self.n, self.n)
        return xa.zeros(self.n, self.n)  # Morse x/y generators


class TwistedCopy:
    """Pure-augmentation twist of the (k+1)-copy, computed lazily per generator."""

    def __init__(self, rhos):
        r0 = rhos[0]
        for r in rhos:
            if (r.m, r.n, r.p) != (r0.m, r0.n, r0.p):
                raise ValueError("mismatched representations")
        self.m, self.n, self.p = r0.m, r0.n, r0.p
        self.K = len(rhos)
        self.dga = lambda_copy_dga(self.m, self.p, self.K)
        self.eps = PureAugmentation(self.dga, rhos)
        self._cache: dict[str, list] = {}

    def top_diff(self, base: str):
        """Twisted differential of base^{1,K} (or the 2-copy chord for K=2)."""
        name = f"{base}^1{self.K}"
        if name not in self._cache:
            self._cache[name] = _expand_twist(self.dga, self.dga.diff[name],
                                              self.eps, self.n, self.p)
        return self._cache[name]

    def staircase(self, base: str):
        """Terms of d_eps(base^{1,K}) whose letters descend one copy at a time."""
        out = []
        k = self.K - 1
        for coeffs, letters in self.top_diff(base):
            if len(letters) != k:
                continue
            levels = [self.dga.copy_info[l] for l in letters]
            ok = True
            for t, lv in enumerate(levels):
                if (lv[2], lv[3]) != (t + 1, t + 2):
                    ok = False
                    break
            if ok:
                bases = [lv[1] if lv[0] == "chord" else f"{lv[0]}{lv[1]}" for lv in levels]
                out.append((coeffs, bases))
        return out


def base_generators(m: int) -> list[str]:
    return [f"b{j}" for j in (1, 2)] + [f"a{j}" for j in range(1, m + 1)] + \
        ["x1", "x2", "y1", "y2"]


def mu_k(rhos, args) -> HomElement:
    """mu_k: Hom(rho_{k-1},rho_k) x ... x Hom(rho_0,rho_1) -> Hom(rho_0,rho_k)."""
    k = len(args)
    if len(rhos) != k + 1:
        raise ValueError("need k+1 representations for mu_k")
    tw = TwistedCopy(tuple(rhos))
    return mu_k_twisted(tw, args)


def mu_k_twisted(tw: TwistedCopy, args) -> HomElement:
    k = tw.K - 1
    if len(args) != k:
        raise ValueError("argument count does not match the copy")
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
    for w in base_generators(tw.m):
        if dual_degree(w) != out_deg:
            continue
        acc = xa.zeros(n, n)
        for cs, bases in tw.staircase(w):
            # letters are left-to-right z^{1,2} .. z^{k,k+1}; slot s counts
            # from the right, so left-to-right position t pairs with args[k-1-t]
            val = cs[0]
            dead = False
            for t, base in enumerate(bases):
                a = args[k - 1 - t].coeffs.get(base)
                if a is None:
                    dead = True
                    break
                val = (val @ a @ cs[t + 1]) % p
            if not dead:
                acc = (acc + val) % p
        if acc.any():
            coeffs[w] = (sign * acc) % p
    return HomElement(n, p, out_deg, coeffs)


def check_twisted_d_squared(rhos) -> bool:
    """Symbolic check that the pure-augmentation twist squares to zero.

    Matrix-coefficient terms cannot be added slotwise, so sums are expanded
    in the basis of elementary-matrix index words: a term
    (C_r, l_r, ..., l_1, C_0) contributes C_r[a_r, b_r] ... C_0[a_0, b_0] on
    the key (letters, (a_r, b_r, ..., a_0, b_0)).
    """
    tw = TwistedCopy(tuple(rhos))
    dga, eps, n, p = tw.dga, tw.eps, tw.n, tw.p
    diffs = {name: _expand_twist(dga, dga.diff[name], eps, n, p)
             for name, g in dga.gens.items() if not g.invertible}

    def indexed(terms, acc, scale=1):
        for coeffs, letters in terms:
            idx_choices = [np.argwhere(c % p).tolist() for c in coeffs]
            if any(not ch for ch in idx_choices):
                continue
            for combo in itertools.product(*idx_choices):
                val = scale
                for c, (a, b) in zip(coeffs, combo):
                    val = val * int(c[a, b]) % p
                key = (tuple(letters), tuple(x for ab in combo for x in ab))
                acc[key] = (acc.get(key, 0) + val) % p

    for name, terms in diffs.items():
        acc: dict = {}
        for coeffs, letters in terms:
            sign = 1
            for i, letter in enumerate(letters):
                inner = diffs[letter]
                spliced = []
                for ics, ils in inner:
                    new_coeffs = list(coeffs[:i]) + [coeffs[i] @ ics[0] % p] \
                        + list(ics[1:-1]) + [ics[-1] @ coeffs[i + 1] % p] \
                        + list(coeffs[i + 2:])
                    new_letters = list(letters[:i]) + list(ils) + list(letters[i + 1:])
                    spliced.append((new_coeffs, new_letters))
                indexed(spliced, acc, scale=sign)
                sign *= (-1) ** dga.gens[letter].degree
        if any(v % p for v in acc.values()):
            return False
    return True


def mu1(r0: Representation, r1: Representation, x: HomElement) -> HomElement:
    return mu_k((r0, r1), [x])


def mu2(r0, r1, r2, x1: HomElement, x2: HomElement) -> HomElement:
    """mu_2(x1, x2) with x1 in Hom(r1,r2) and x2 in Hom(r0,r1)."""
    return mu_k((r0, r1, r2), [x1, x2])


# ---------------------------------------------------------------------------
# Cohomology of Hom(rho, rho') with respect to mu_1

def _vec(x: HomElement, order: list[str]) -> np.ndarray:
    n = x.n
    return np.concatenate([x.coeff(b).reshape(-1) for b in order]) if order else np.zeros(0, dtype=np.int64)


def _unvec(v: np.ndarray, order: list[str], n: int, p: int, degree: int) -> HomElement:
    coeffs = {}
    for i, b in enumerate(order):
        coeffs[b] = v[i * n * n:(i + 1) * n * n].reshape(n, n)
    return HomElement(n, p, degree, coeffs)


def mu1_matrix(r0, r1, degree: int) -> np.ndarray:
    """Matrix of mu_1 from degree to degree+1 in the canonical dual basis."""
    tw = TwistedCopy((r0, r1))
    n, p, m = r0.n, r0.p, r0.m
    src = hom_basis_order(m, degree)
    dst = hom_basis_order(m, degree + 1)
    mat = xa.zeros(len(dst) * n * n, len(src) * n * n)
    for w in dst:
        wi = dst.index(w) * n * n
        for cs, bases in tw.staircase(w):
            z = bases[0]
            if z not in src:
                continue
            zi = src.index(z) * n * n
            block = xa.kron(cs[0], cs[1].T, p)
            mat[wi:wi + n * n, zi:zi + n * n] = (mat[wi:wi + n * n, zi:zi + n * n] + block) % p
    return mat


class HomCohomology:
    """H^* of Hom(rho, rho') with canonical echelon coset representatives."""

    def __init__(self, r0: Representation, r1: Representation):
        self.r0, self.r1 = r0, r1
        self.n, self.p, self.m = r0.n, r0.p, r0.m
        n2 = self.n * self.n
        self.orders = {d: hom_basis_order(self.m, d) for d in (0, 1, 2)}
        self.mats = {0: mu1_matrix(r0, r1, 0), 1: mu1_matrix(r0, r1, 1)}
        dims = {d: len(self.orders[d]) * n2 for d in (0, 1, 2)}
        rank0, k0 = xa.rank_kernel(self.mats[0], self.p)
        rank1, k1 = xa.rank_kernel(self.mats[1], self.p)
        self.kernels = {0: k0, 1: k1, 2: xa.eye(dims[2])}
        self.images = {1: self.mats[0], 2: self.mats[1]}
        # image row-space data for coset reduction in each degree
        self.red = {}
        for d in (1, 2):
            basis, piv = xa.row_space(self.images[d].T, self.p)
            self.red[d] = (basis, piv)
        self.dims = {0: k0.shape[1], 1: k1.shape[1] - rank0, 2: dims[2] - rank1}

    def is_cocycle(self, x: HomElement) -> bool:
        if x.degree == 2:
            return True
        v = _vec(x, self.orders[x.degree])
        return not ((self.mats[x.degree] @ v) % self.p).any()

    def class_vector(self, x: HomElement) -> np.ndarray:
        """Canonical coset representative of a cocycle."""
        if not self.is_cocycle(x):
            raise ValueError("not a cocycle")
        v = _vec(x, self.orders[x.degree])
        if x.degree == 0:
            return v
        basis, piv = self.red[x.degree]
        return xa.coset_reduce(v, basis, piv, self.p)

    def same_class(self, x: HomElement, y: HomElement) -> bool:
        return x.degree == y.degree and np.array_equal(self.class_vector(x), self.class_vector(y))

    def basis(self, d: int) -> list[HomElement]:
        """Canonical cocycle representatives forming a basis of H^d.

        Coset reduction is linear, so the row space of the reduced kernel
        vectors consists of canonical representatives again.
        """
        if self.kernels[d].shape[1] == 0:
            return []
        reduced = np.vstack([
            self.class_vector(_unvec(col % self.p, self.orders[d], self.n, self.p, d))
            for col in self.kernels[d].T
        ])
        rows, _ = xa.row_space(reduced, self.p)
        return [_unvec(row, self.orders[d], self.n, self.p, d) for row in rows]


def hom_cohomology(r0: Representation, r1: Representation):
    return HomCohomology(r0, r1)


# ---------------------------------------------------------------------------
# Isomorphism in the cohomology category

def is_isomorphic(r1: Representation, r2: Representation, budget: int = 200_000,
                  rng=None):
    """Witness (u_1, u_2) with rho_2(z) = u_{r(z)}^-1 rho_1(z) u_{c(z)}, or None.

    Solves the linear intertwining system u_{r(z)} rho_2(z) = rho_1(z) u_{c(z)}
    and filters kernel elements for invertibility: exhaustively when p^dim fits
    the budget, by seeded sampling otherwise (in which case absence is not
    certified and BudgetExceeded is raised instead).
    """
    if (r1.m, r1.n, r1.p) != (r2.m, r2.n, r2.p):
        raise ValueError("representations live in different categories")
    m, n, p = r1.m, r1.n, r1.p
    n2 = n * n
    lg = link_grading(m)
    rows = []
    gens = [f"a{j}" for j in range(1, m + 1)] + ["t1", "t2"]
    for z in gens:
        r, c = lg[z]
        row = xa.zeros(n2, 2 * n2)
        # u_r rho2(z) - rho1(z) u_c = 0
        row[:, (r - 1) * n2:r * n2] = xa.kron(xa.eye(n), r2.value(z).T, p)
        row[:, (c - 1) * n2:c * n2] = (row[:, (c - 1) * n2:c * n2]
                                       - xa.kron(r1.value(z), xa.eye(n), p)) % p
        rows.append(row)
    sys = np.vstack(rows) % p
    _, ker = xa.rank_kernel(sys, p)
    d = ker.shape[1]

    def decode(vec):
        u1 = vec[:n2].reshape(n, n)
        u2 = vec[n2:].reshape(n, n)
        return u1, u2

    if p ** d <= budget:
        for combo in itertools.product(range(p), repeat=d):
            if not any(combo):
                continue
            vec = (ker @ np.array(combo, dtype=np.int64)) % p
            u1, u2 = decode(vec)
            if xa.det(u1, p) and xa.det(u2, p):
                return u1, u2
        return None
    import random as _random
    rng = rng or _random.Random(0)
    for _ in range(budget):
        combo = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        vec = (ker @ combo) % p
        u1, u2 = decode(vec)
        if xa.det(u1, p) and xa.det(u2, p):
            return u1, u2
    raise BudgetExceeded(f"intertwiner space has {p}^{d} elements; sampling found no witness",
                         required=p ** d)
