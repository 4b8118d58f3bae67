"""Named property suites over the whole library, at a configurable scale.

Each check returns (ok, detail).  The CLI `verify` subcommand runs them all
and reports one line per check; the test suite reuses them.  A deliberately
corrupted composition sign can be injected to prove the A-infinity relation
checks have teeth.

The sampling suites draw each case's (m, n, p) through `_cases`, and the two
composition suites (`check_mu2_oracle`, `check_functoriality`) their objects
and class pairs through `_class_pairs`, so each suite keeps only its own
comparisons and failure strings.  The helpers draw when the suite asks for
its next case, between the suite's own draws, so a seed and a suite name
fix every case.
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


def _cases(cfg, rng):
    """(m, n, p) for each of the configured samples, drawn in this order when
    the suite asks for the next: m and n up to the configured bounds, p among
    the configured primes."""
    for _ in range(cfg["samples"]):
        yield (rng.randrange(1, cfg["max_m"] + 1), rng.randrange(1, cfg["max_n"] + 1),
               rng.choice(cfg["primes"]))


def _class_pairs(cfg, rng):
    """Per case: (m, n, p), three objects (r0, r1, r2), the closed-form
    cohomology of Hom(r0, r1) and of Hom(r1, r2), and the class pairs (x, y)
    to compose, x of Hom(r1, r2) and y of Hom(r0, r1), keyed by their
    degrees.  The (0,0) pair needs H^0 classes on both sides, (0,1) on the
    left and (1,0) on the right; their one H^1 class is drawn between."""
    for m, n, p in _cases(cfg, rng):
        reps = [random_rep(m, n, p, rng) for _ in range(3)]
        C01, C12 = cohomology_closed(reps[0], reps[1]), cohomology_closed(reps[1], reps[2])
        h01, h12 = C01.h0_basis(), C12.h0_basis()
        pairs = {}
        if h01 and h12:
            pairs[0, 0] = rng.choice(h12), rng.choice(h01)
        w = H1Class(tuple(xa.rand_matrix(rng, n, n, p) for _ in range(m)))
        if h12:
            pairs[0, 1] = rng.choice(h12), w
        if h01:
            pairs[1, 0] = w, rng.choice(h01)
        yield (m, n, p), reps, (C01, C12), pairs


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
    for m, n, p in _cases(cfg, rng):
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        if not sylvester_check(mats, p):
            return False, f"determinant identity fails: m={m}, n={n}, p={p}"
    return True, f"{cfg['samples']} random tuples"


def check_mu1_oracle(cfg, rng):
    for m, n, p in _cases(cfg, rng):
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        deg = rng.choice([0, 1, 2])
        x = rand_homog(m, n, p, deg, rng)
        if mu1(r0, r1, x) != mu1_closed(r0, r1, x):
            return False, f"mu1 mismatch at m={m}, n={n}, p={p}, deg={deg}"
    return True, f"{cfg['samples']} random elements"


def check_mu2_oracle(cfg, rng, corrupt_sign=False):
    for (m, n, p), r, (C01, C12), pairs in _class_pairs(cfg, rng):
        for (dx, dy), (x, y) in pairs.items():
            lift = [C.h0_to_element(z) if d == 0 else C.cocycle_from_w(z.w)
                    for C, z, d in ((C12, x, dx), (C01, y, dy))]
            mech = mu2(*r, *lift).scale(-1 if corrupt_sign else 1)
            closed = mu2_closed(x, y, p)
            bases, want = ((("y1", "y2"), (closed.u1, closed.u2)) if dx == dy == 0 else
                           ([f"a{j}" for j in range(1, m + 1)], closed.w))
            if not all(np.array_equal(mech.coeff(b), v) for b, v in zip(bases, want)):
                return False, f"mu2 ({dx},{dy}) mismatch at m={m}, n={n}, p={p}"
    return True, f"{cfg['samples']} random class pairs"


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
    for m, n, p in _cases(cfg, rng):
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
    return True, f"{cfg['samples']} objects, all classes"


def check_conjugation_iso(cfg, rng):
    for m, n, p in _cases(cfg, rng):
        r0 = random_rep(m, n, p, rng)
        while True:
            mat = xa.rand_matrix(rng, n, n, p)
            if xa.det(mat, p):
                break
        r2 = r0.conjugate(xa.inverse(mat, p), mat)
        if is_isomorphic(r0, r2, budget=200_000, rng=rng) is None:
            return False, f"no witness for a conjugate pair at m={m}, n={n}, p={p}"
    return True, f"{cfg['samples']} conjugate pairs"


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
    functor_h = (functor_h0, functor_h1)
    # sheafcat's composition names list their arguments' degrees right to left
    compose = {(0, 0): compose00, (0, 1): compose10, (1, 0): compose01}
    for (m, n, p), (r0, _, r2), _, pairs in _class_pairs(cfg, rng):
        E02 = Ext1Space(functor_obj(r0), functor_obj(r2))
        for (dx, dy), (x, y) in pairs.items():
            lhs = functor_h[dx + dy](mu2_closed(x, y, p), p)
            rhs = compose[dx, dy](functor_h[dx](x, p), functor_h[dy](y, p), p)
            if not (E02.same(lhs, rhs) if dx + dy else
                    all(np.array_equal(x_, y_) for x_, y_ in zip(lhs, rhs))):
                return False, f"({dx},{dy}) composition not preserved at m={m}, n={n}, p={p}"
    return True, f"{cfg['samples']} random triples"


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
