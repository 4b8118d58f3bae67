"""The three workloads: seeded inputs, and one batch of items with verdicts.

Inputs are plain integer tuples drawn from the benchmark's own RNG; the
library sees only those.  Tuples with a singular P_m are rejected here, with
the benchmark's own continuant and determinant, so a disagreement with the
library's `Representation` check surfaces as a failed item.

A batch is what one CLI run does: every call goes through the public API of
`exactalg`, `freedga`, `ainfty`, `torusrep`, `sheafcat` and `cech`, looked up
on the module at call time so that the tracer's wrappers see it.  Items run
closed-loop: one caller, the next item after the previous verdict.
"""

from __future__ import annotations

import random
import time

clock = time.perf_counter

# Sizes: m crossings, n = representation dimension, p = field, plus the
# batch size.  p is odd on every workload, so that a sign error cannot cancel.
SIZES = {
    "cech-certify": {"m": 4, "n": 2, "p": 3, "pairs": 3},
    "ainfty-relations": {"m": 6, "n": 2, "p": 3, "triples": 1},
    "hom-ext-sweep": {"m": 3, "n": 2, "p": 3, "objects": 24},
}
# Smoke-test sizes: the same code paths in well under a second.
TINY = {
    "cech-certify": {"m": 2, "n": 1, "p": 3, "pairs": 2},
    "ainfty-relations": {"m": 3, "n": 1, "p": 3, "triples": 2},
    "hom-ext-sweep": {"m": 2, "n": 2, "p": 3, "objects": 4},
}


# Dual generators of Hom in degrees 0 and 1.
DUAL_BASES = {0: lambda m: ["y1", "y2"],
              1: lambda m: [f"a{j}" for j in range(1, m + 1)] + ["x1", "x2"]}
# Degrees of (x1, x2, x3) on ainfty-relations.  With all three in degree 1
# every term of the arity-2 and arity-3 relations lands in degree 3, where Hom
# is zero, so the relations would hold whatever mu_2 and mu_3 computed.  With
# (1, 0, 1) both relations live in degree 2, the b1/b2 coefficients whose
# twisted differential expands P_m/Q_m word by word.
TRIPLE_DEGREES = (1, 0, 1)


def batch_rng(workload: str, seed: int, batch: int) -> random.Random:
    """Batch `batch` of a run with seed `seed`; str seeds hash with SHA-512."""
    return random.Random(f"perfbench:{workload}:{seed}:{batch}")


def _det_mod(a, p):
    a = [[x % p for x in row] for row in a]
    n, det = len(a), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def _matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _continuant(mats, n, p):
    """P_m(A_1..A_m): P_0 = I, P_1 = A_1, P_k = P_{k-1} A_k + P_{k-2}."""
    prev = [[int(i == j) for j in range(n)] for i in range(n)]
    cur = mats[0]
    for a in mats[1:]:
        nxt = _matmul(cur, a, p)
        prev, cur = cur, [[(x + y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(nxt, prev)]
    return cur


def rand_tuple(rng, m, n, p):
    """A tuple (A_1..A_m) of n x n matrices over F_p with P_m invertible."""
    while True:
        mats = [[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(m)]
        if _det_mod(_continuant(mats, n, p), p):
            return mats


def make_inputs(workload: str, size: dict, rng) -> dict:
    m, n, p = size["m"], size["n"], size["p"]
    if workload == "cech-certify":
        return {"pairs": [(rand_tuple(rng, m, n, p), rand_tuple(rng, m, n, p))
                          for _ in range(size["pairs"])]}
    if workload == "ainfty-relations":
        triples = []
        for _ in range(size["triples"]):
            reps = [rand_tuple(rng, m, n, p) for _ in range(4)]
            args = [(d, {b: [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                         for b in DUAL_BASES[d](m)})
                    for d in TRIPLE_DEGREES]
            triples.append((reps, args))
        return {"triples": triples}
    if workload == "hom-ext-sweep":
        seen, objects = set(), []
        while len(objects) < size["objects"]:
            t = rand_tuple(rng, m, n, p)
            key = repr(t)
            if key not in seen:
                seen.add(key)
                objects.append(t)
        return {"objects": objects}
    raise ValueError(f"unknown workload {workload!r}")


def requested(workload: str, size: dict) -> int:
    """Items one batch asks for."""
    if workload == "cech-certify":
        return size["pairs"]
    if workload == "ainfty-relations":
        return size["triples"]
    return size["objects"] ** 2


# ---------------------------------------------------------------------------
# Batches.  Each yields (verdict, seconds) per item; `span(name, item)` opens a
# trace span (a no-op when tracing is off), `corrupt` swaps in a wrong oracle.

def run_cech_certify(lib, size, inputs, span, corrupt):
    ainfty, sheafcat, cech = lib["ainfty"], lib["sheafcat"], lib["cech"]
    m, n, p = size["m"], size["n"], size["p"]
    with span("prepare"):
        T = cech.build_tiling(m)
    for k, (ta, tb) in enumerate(inputs["pairs"]):
        t0 = clock()
        with span("item", k):
            ra, rb = ainfty.Representation(m, n, p, ta), ainfty.Representation(m, n, p, tb)
            F, G = sheafcat.functor_obj(ra), sheafcat.functor_obj(rb)
            cx = cech.CechComplex(T, F, G)
            dims = cx.cohomology_dims()
            surjective, _ = cx.h2_certificate()
            e0, e1 = sheafcat.ext0_dim(F, G), sheafcat.ext1_dim(F, G)
            if corrupt:
                e1 += 1
            H = ainfty.hom_cohomology(ra, rb)
            h = (H.dims[0], H.dims[1], H.dims[2])
            ok = bool(surjective) and tuple(dims) == (e0, e1, 0) == h
        yield ok, clock() - t0


def run_ainfty_relations(lib, size, inputs, span, corrupt):
    ainfty, torusrep = lib["ainfty"], lib["torusrep"]
    m, n, p = size["m"], size["n"], size["p"]

    def mu2(ra, rb, rc, x, y):
        out = ainfty.mu2(ra, rb, rc, x, y)
        if corrupt:
            out = out.scale((-1) ** (x.degree * y.degree))
        return out

    for k, (tuples, args) in enumerate(inputs["triples"]):
        t0 = clock()
        with span("item", k):
            rs = tuple(ainfty.Representation(m, n, p, t) for t in tuples)
            r0, r1, r2, r3 = rs
            x1, x2, x3 = (ainfty.HomElement(n, p, d, c) for d, c in args)
            d1, d2 = x1.degree, x2.degree
            mu1 = ainfty.mu1
            m1x1, m1x2, m1x3 = mu1(r2, r3, x1), mu1(r1, r2, x2), mu1(r0, r1, x3)
            closed = (m1x1 == torusrep.mu1_closed(r2, r3, x1)
                      and m1x2 == torusrep.mu1_closed(r1, r2, x2)
                      and m1x3 == torusrep.mu1_closed(r0, r1, x3))
            arity1 = mu1(r0, r1, m1x3).is_zero()
            lhs = mu1(r1, r3, mu2(r1, r2, r3, x1, x2))
            rhs = mu2(r1, r2, r3, m1x1, x2) + mu2(r1, r2, r3, x1, m1x2).scale((-1) ** d1)
            arity2 = (lhs - rhs).is_zero()
            assoc = mu2(r0, r1, r3, mu2(r1, r2, r3, x1, x2), x3) \
                - mu2(r0, r2, r3, x1, mu2(r0, r1, r2, x2, x3))
            corr = mu1(r0, r3, ainfty.mu_k(rs, [x1, x2, x3])) \
                + ainfty.mu_k(rs, [m1x1, x2, x3]) \
                + ainfty.mu_k(rs, [x1, m1x2, x3]).scale((-1) ** d1) \
                + ainfty.mu_k(rs, [x1, x2, m1x3]).scale((-1) ** (d1 + d2))
            arity3 = (assoc + corr).is_zero()
            ok = closed and arity1 and arity2 and arity3
        yield ok, clock() - t0


def run_hom_ext_sweep(lib, size, inputs, span, corrupt):
    ainfty, torusrep, sheafcat = lib["ainfty"], lib["torusrep"], lib["sheafcat"]
    m, n, p = size["m"], size["n"], size["p"]
    with span("prepare"):
        reps = [ainfty.Representation(m, n, p, t) for t in inputs["objects"]]
        objs = [sheafcat.functor_obj(r) for r in reps]
    k = 0
    for i, (ri, fi) in enumerate(zip(reps, objs)):
        for j, (rj, fj) in enumerate(zip(reps, objs)):
            t0 = clock()
            with span("item", k):
                H = ainfty.hom_cohomology(ri, rj)
                C = torusrep.cohomology_closed(ri, rj)
                e0, e1 = sheafcat.ext0_dim(fi, fj), sheafcat.ext1_dim(fi, fj)
                if corrupt:
                    e1 += 1
                h = (H.dims[0], H.dims[1], H.dims[2])
                ok = h == (C.dims[0], C.dims[1], C.dims[2]) and (e0, e1) == h[:2]
            yield ok, clock() - t0
            k += 1


RUNNERS = {
    "cech-certify": run_cech_certify,
    "ainfty-relations": run_ainfty_relations,
    "hom-ext-sweep": run_hom_ext_sweep,
}
