"""Named property suites over the whole library, at a configurable scale.

Each check returns (ok, detail).  The CLI `verify` subcommand runs them all
and reports one line per check; the test suite reuses them.  A deliberately
corrupted composition sign can be injected to prove the A-infinity relation
checks have teeth.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from . import exactalg as xa
from .ainfty import (HomElement, hom_basis_order, hom_cohomology,
                     is_isomorphic, mu1, mu2, mu_k, random_rep, unit)
from .cech import CechComplex, EyeSheaf, build_tiling, eye_tiling, graph_game
from .freedga import build_lambda_dga, lambda_copy_dga
from .sheafcat import (Ext1Space, compose00, compose01, compose10, ext0_dim,
                       ext1_dim, functor_h0, functor_h1, functor_obj)
from .torusrep import (H1Class, cohomology_closed, mu1_closed, mu2_closed,
                       sylvester_check)


def rng_for(seed: int, label: str) -> random.Random:
    """A splittable, platform-independent child generator."""
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def rand_homog(m, n, p, deg, rng) -> HomElement:
    return HomElement(n, p, deg,
                      {b: xa.rand_matrix(rng, n, n, p) for b in hom_basis_order(m, deg)})


# ---------------------------------------------------------------------------

def check_d_squared(cfg, rng):
    ms = range(1, cfg["max_m"] + 1)
    ps = cfg["primes"]
    for m in ms:
        for p in ps:
            if not build_lambda_dga(m, p).check_d_squared():
                return False, f"d^2 != 0 for m={m}, p={p}"
            for k in (2, 3):
                if not lambda_copy_dga(m, p, k).check_d_squared():
                    return False, f"d^2 != 0 for {k}-copy, m={m}, p={p}"
    return True, "d^2 = 0 on all generators"


def check_sylvester(cfg, rng):
    samples = cfg["samples"]
    count = 0
    for _ in range(samples):
        m = rng.randrange(1, cfg["max_m"] + 1)
        n = rng.randrange(1, cfg["max_n"] + 1)
        p = rng.choice(cfg["primes"])
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        if not sylvester_check(mats, p):
            return False, f"determinant identity fails: m={m}, n={n}, p={p}"
        count += 1
    return True, f"{count} random tuples"


def check_mu1_oracle(cfg, rng):
    samples = cfg["samples"]
    for _ in range(samples):
        m = rng.randrange(1, cfg["max_m"] + 1)
        n = rng.randrange(1, cfg["max_n"] + 1)
        p = rng.choice(cfg["primes"])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        deg = rng.choice([0, 1, 2])
        x = rand_homog(m, n, p, deg, rng)
        if mu1(r0, r1, x) != mu1_closed(r0, r1, x):
            return False, f"mu1 mismatch at m={m}, n={n}, p={p}, deg={deg}"
    return True, f"{samples} random elements"


def check_mu2_oracle(cfg, rng, corrupt_sign=False):
    samples = cfg["samples"]
    for _ in range(samples):
        m = rng.randrange(1, cfg["max_m"] + 1)
        n = rng.randrange(1, cfg["max_n"] + 1)
        p = rng.choice(cfg["primes"])
        r0, r1, r2 = (random_rep(m, n, p, rng) for _ in range(3))
        C01 = cohomology_closed(r0, r1)
        C12 = cohomology_closed(r1, r2)
        h01, h12 = C01.h0_basis(), C12.h0_basis()
        sign = -1 if corrupt_sign else 1
        if h01 and h12:
            a, b = rng.choice(h12), rng.choice(h01)
            mech = mu2(r0, r1, r2, C12.h0_to_element(a), C01.h0_to_element(b)).scale(sign)
            closed = mu2_closed(a, b, p)
            if not (np.array_equal(mech.coeff("y1"), closed.u1)
                    and np.array_equal(mech.coeff("y2"), closed.u2)):
                return False, f"mu2 (0,0) mismatch at m={m}, n={n}, p={p}"
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        if h12:
            a = rng.choice(h12)
            mech = mu2(r0, r1, r2, C12.h0_to_element(a), C01.cocycle_from_w(w)).scale(sign)
            closed = mu2_closed(a, H1Class(tuple(w)), p)
            got = [mech.coeff(f"a{j}") for j in range(1, m + 1)]
            if not all(np.array_equal(x_, y_) for x_, y_ in zip(got, closed.w)):
                return False, f"mu2 (0,1) mismatch at m={m}, n={n}, p={p}"
        if h01:
            b = rng.choice(h01)
            mech = mu2(r0, r1, r2, C12.cocycle_from_w(w), C01.h0_to_element(b)).scale(sign)
            closed = mu2_closed(H1Class(tuple(w)), b, p)
            got = [mech.coeff(f"a{j}") for j in range(1, m + 1)]
            if not all(np.array_equal(x_, y_) for x_, y_ in zip(got, closed.w)):
                return False, f"mu2 (1,0) mismatch at m={m}, n={n}, p={p}"
    return True, f"{samples} random class pairs"


RELATION_DRAWS = 10  # draws per sample of `check_a_infinity` before it gives up


def check_a_infinity(cfg, rng, corrupt_sign=False):
    """Arity 1-3 relations implied by d^2 = 0 under the sign rule.

    Each triple's degrees are a permutation of (0, 1, 1): mu_3 is nonzero
    only on three degree-1 arguments, which mu_1 of the degree-0 one gives.
    A triple whose relations have no nonzero term holds them whatever the
    signs are, so it checks nothing: it is drawn again, and the suite fails
    when RELATION_DRAWS draws in a row have no nonzero term.
    """
    samples = cfg["samples"]

    def mu2_(ra, rb, rc, xx, yy):
        out = mu2(ra, rb, rc, xx, yy)
        if corrupt_sign:
            out = out.scale((-1) ** (xx.degree * yy.degree))
        return out

    for _ in range(samples):
        for _ in range(RELATION_DRAWS):
            m = rng.randrange(1, cfg["max_m"] + 1)
            n = rng.randrange(1, cfg["max_n"] + 1)
            p = rng.choice(tuple(q for q in cfg["primes"] if q != 2) or (3,))
            rs = tuple(random_rep(m, n, p, rng) for _ in range(4))
            r0, r1, r2, r3 = rs
            d1, d2, d3 = rng.sample((0, 1, 1), 3)
            x1, x2, x3 = (rand_homog(m, n, p, d, rng) for d in (d1, d2, d3))
            if not mu1(r0, r1, mu1(r0, r1, x3)).is_zero():
                return False, "arity-1 relation (mu1 . mu1 = 0) fails"
            terms2 = [mu1(r1, r3, mu2_(r1, r2, r3, x1, x2)),
                      mu2_(r1, r2, r3, mu1(r2, r3, x1), x2).scale(-1),
                      mu2_(r1, r2, r3, x1, mu1(r1, r2, x2)).scale(-(-1) ** d1)]
            if not sum(terms2[1:], terms2[0]).is_zero():
                return False, f"arity-2 relation violated at m={m}, n={n}, p={p}, degs=({d1},{d2})"
            terms3 = [mu2_(r0, r1, r3, mu2_(r1, r2, r3, x1, x2), x3),
                      mu2_(r0, r2, r3, x1, mu2_(r0, r1, r2, x2, x3)).scale(-1),
                      mu1(r0, r3, mu_k(rs, [x1, x2, x3])),
                      mu_k(rs, [mu1(r2, r3, x1), x2, x3]),
                      mu_k(rs, [x1, mu1(r1, r2, x2), x3]).scale((-1) ** d1),
                      mu_k(rs, [x1, x2, mu1(r0, r1, x3)]).scale((-1) ** (d1 + d2))]
            if not sum(terms3[1:], terms3[0]).is_zero():
                return False, (f"arity-3 relation violated at m={m}, n={n}, p={p}, "
                               f"degs=({d1},{d2},{d3})")
            if any(not t.is_zero() for t in terms2 + terms3):
                break
        else:
            return False, f"no sampled relation had a nonzero term in {RELATION_DRAWS} draws"
    return True, f"{samples} random homogeneous triples"


def check_units(cfg, rng):
    samples = cfg["samples"]
    for _ in range(samples):
        m = rng.randrange(1, cfg["max_m"] + 1)
        n = rng.randrange(1, cfg["max_n"] + 1)
        p = rng.choice(cfg["primes"])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        if not mu1(r0, r0, unit(r0)).is_zero():
            return False, "mu1 of the unit is nonzero"
        H = hom_cohomology(r0, r1)
        for d in (0, 1):
            for f in H.basis(d):
                left = mu2(r0, r1, r1, unit(r1), f)
                right = mu2(r0, r0, r1, f, unit(r0))
                if not (H.same_class(left, f) and H.same_class(right, f)):
                    return False, f"unit law fails at m={m}, n={n}, p={p}, deg={d}"
    return True, f"{samples} objects, all classes"


def check_conjugation_iso(cfg, rng):
    samples = cfg["samples"]
    for _ in range(samples):
        m = rng.randrange(1, cfg["max_m"] + 1)
        n = rng.randrange(1, cfg["max_n"] + 1)
        p = rng.choice(cfg["primes"])
        r0 = random_rep(m, n, p, rng)
        while True:
            mat = xa.rand_matrix(rng, n, n, p)
            if xa.det(mat, p):
                break
        r2 = r0.conjugate(xa.inverse(mat, p), mat)
        if is_isomorphic(r0, r2, budget=200_000, rng=rng) is None:
            return False, f"no witness for a conjugate pair at m={m}, n={n}, p={p}"
    return True, f"{samples} conjugate pairs"


def check_equivalence(cfg, rng):
    """dim H^i = dim Ext^i, Cech-certified Ext^2 = 0, functorial compositions."""
    pairs = []
    for m in range(1, cfg["max_m"] + 1):
        for p in cfg["primes"]:
            r0 = random_rep(m, cfg["max_n"], p, rng)
            r1 = random_rep(m, cfg["max_n"], p, rng)
            pairs.append((m, p, build_tiling(m), r0, r1))
    for m, p, T, r0, r1 in pairs:
        H = hom_cohomology(r0, r1)
        F, G = functor_obj(r0), functor_obj(r1)
        cx = CechComplex(T, F, G)
        dims = cx.cohomology_dims()
        if (H.dims[0], H.dims[1]) != (ext0_dim(F, G), ext1_dim(F, G)):
            return False, f"H vs Ext dims differ at m={m}, p={p}"
        if dims != (H.dims[0], H.dims[1], 0):
            return False, f"Cech dims differ at m={m}, p={p}: {dims} vs {H.dims}"
        ok, cert = cx.h2_certificate()
        if not ok:
            return False, f"Ext^2 certificate fails at m={m}, p={p}: {cert}"
    return True, f"{len(pairs)} sampled pairs"


def check_functoriality(cfg, rng):
    samples = cfg["samples"]
    for _ in range(samples):
        m = rng.randrange(1, cfg["max_m"] + 1)
        n = rng.randrange(1, cfg["max_n"] + 1)
        p = rng.choice(cfg["primes"])
        reps = [random_rep(m, n, p, rng) for _ in range(3)]
        r0, r1, r2 = reps
        C01, C12 = cohomology_closed(r0, r1), cohomology_closed(r1, r2)
        E02 = Ext1Space(functor_obj(r0), functor_obj(r2))
        h01, h12 = C01.h0_basis(), C12.h0_basis()
        if h01 and h12:
            a, b = rng.choice(h12), rng.choice(h01)
            lhs = functor_h0(mu2_closed(a, b, p), p)
            rhs = compose00(functor_h0(a, p), functor_h0(b, p), p)
            if not all(np.array_equal(x_, y_) for x_, y_ in zip(lhs, rhs)):
                return False, f"(0,0) composition not preserved at m={m}, n={n}, p={p}"
        w = H1Class(tuple(xa.rand_matrix(rng, n, n, p) for _ in range(m)))
        if h12:
            a = rng.choice(h12)
            lhs = functor_h1(mu2_closed(a, w, p), p)
            rhs = compose10(functor_h0(a, p), functor_h1(w, p), p)
            if not E02.same(lhs, rhs):
                return False, f"(0,1) composition not preserved at m={m}, n={n}, p={p}"
        if h01:
            b = rng.choice(h01)
            lhs = functor_h1(mu2_closed(w, b, p), p)
            rhs = compose01(functor_h1(w, p), functor_h0(b, p), p)
            if not E02.same(lhs, rhs):
                return False, f"(1,0) composition not preserved at m={m}, n={n}, p={p}"
    return True, f"{samples} random triples"


def check_graph_game(cfg, rng):
    for m in range(1, cfg["max_m"] + 1):
        p = cfg["primes"][0]
        T = build_tiling(m)
        F = functor_obj(random_rep(m, 1, p, rng))
        G = functor_obj(random_rep(m, 1, p, rng))
        cx = CechComplex(T, F, G)
        res = graph_game(cx)
        if not res["success"]:
            return False, f"game stuck at m={m}: {res.get('stuck')}"
        rank_d1 = cx.eliminated_rank_d1()
        if rank_d1 != cx.c2_dim:
            return False, (f"game succeeded but d1 not surjective at m={m}: "
                           f"rank {rank_d1} < dim C^2 = {cx.c2_dim}")
    return True, "leaf/Y reduction removes every red node"


def check_eye_unknot(cfg, rng):
    p = cfg["primes"][-1]
    T = eye_tiling(1)
    for r in (1, 2):
        for s in (1, 2):
            dims = CechComplex(T, EyeSheaf(r, p), EyeSheaf(s, p)).cohomology_dims()
            if dims != (r * s, 0, 0):
                return False, f"eye dims {dims} != ({r * s}, 0, 0)"
    return True, "Hom cohomology is k^{rs} in degree 0"


ALL_CHECKS = [
    ("freedga.d_squared", check_d_squared),
    ("torusrep.sylvester", check_sylvester),
    ("oracle.mu1", check_mu1_oracle),
    ("oracle.mu2", check_mu2_oracle),
    ("ainfty.relations", check_a_infinity),
    ("ainfty.units", check_units),
    ("ainfty.conjugation_iso", check_conjugation_iso),
    ("equivalence.dims", check_equivalence),
    ("equivalence.functor", check_functoriality),
    ("cech.graph_game", check_graph_game),
    ("cech.eye_unknot", check_eye_unknot),
]


def run_suites(cfg: dict, seed: int, corrupt_sign: bool = False):
    """Run every named suite; returns (all_ok, list of result dicts)."""
    if cfg["samples"] < 1:
        raise ValueError("samples must be at least 1: with none every suite passes vacuously")
    results = []
    all_ok = True
    for name, fn in ALL_CHECKS:
        rng = rng_for(seed, name)
        kwargs = {}
        if corrupt_sign and name in ("oracle.mu2", "ainfty.relations"):
            kwargs["corrupt_sign"] = True
        ok, detail = fn(cfg, rng, **kwargs)
        results.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            all_ok = False
    return all_ok, results
