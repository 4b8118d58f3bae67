"""Acceptance criteria, one test per criterion, all exact (no tolerances).

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  Every expected value is either forced by a small brute-force
oracle inside the test or is an exact identity.
"""

import random
import time

import numpy as np

from legtorus import exactalg as xa
from legtorus.ainfty import (HomElement, enumerate_reps, hom_basis_order,
                             hom_cohomology, is_isomorphic, mu1, mu2, mu_k,
                             random_rep, unit)
from legtorus.cech import (CechComplex, EyeSheaf, build_tiling, eye_tiling,
                           graph_game)
from legtorus.freedga import build_lambda_dga, kcopy_dga
from legtorus.sheafcat import (Ext1Space, compose00, compose01, compose10,
                               ext0_dim, ext1_dim, functor_h0, functor_h1,
                               functor_obj)
from legtorus.torusrep import (H0Class, H1Class, cohomology_closed,
                               mu1_closed, mu2_closed, sylvester_check)
from legtorus.verify import rng_for


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def rand_homog(m, n, p, deg, rng):
    return HomElement(n, p, deg,
                      {b: xa.rand_matrix(rng, n, n, p) for b in hom_basis_order(m, deg)})


def test_criterion_1_d_squared():
    t0 = time.time()
    for m in (1, 2, 3, 4):
        for p in (2, 3, 5):
            assert build_lambda_dga(m, p).check_d_squared(), (m, p)
            for k in (2, 3):
                assert kcopy_dga(build_lambda_dga(m, p), k).check_d_squared(), (m, p, k)
    dt = time.time() - t0
    report(1, dt < 10, f"d^2 = 0 for the link DGA and its 2-/3-copies, "
                       f"m in 1..4, p in (2,3,5), {dt:.1f}s")


def test_criterion_2_sylvester():
    rng = rng_for(2026, "acceptance.sylvester")
    count = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4, 5, 6):
            for _ in range(60):
                mats = [xa.rand_matrix(rng, n, n, 5) for _ in range(m)]
                assert sylvester_check(mats, 5), (n, m)
                count += 1
    report(2, count >= 1000, f"det P_m = (-1)^mn det Q_m on {count} random tuples over F_5")


def test_criterion_3_oracle_equivalence():
    rng = rng_for(2026, "acceptance.oracle")
    pairs = triples = 0
    for _ in range(100):
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        x = rand_homog(m, n, p, rng.choice([0, 1, 2]), rng)
        assert mu1(r0, r1, x) == mu1_closed(r0, r1, x), (m, n, p)
        pairs += 1
    for _ in range(100):
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1, r2 = (random_rep(m, n, p, rng) for _ in range(3))
        C01, C12 = cohomology_closed(r0, r1), cohomology_closed(r1, r2)
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        h01, h12 = C01.h0_basis(), C12.h0_basis()
        if h01 and h12:
            a, b = rng.choice(h12), rng.choice(h01)
            mech = mu2(r0, r1, r2, C12.h0_to_element(a), C01.h0_to_element(b))
            closed = mu2_closed(a, b, p)
            assert np.array_equal(mech.coeff("y1"), closed.u1)
            assert np.array_equal(mech.coeff("y2"), closed.u2)
        if h12:
            a = rng.choice(h12)
            mech = mu2(r0, r1, r2, C12.h0_to_element(a), C01.cocycle_from_w(w))
            closed = mu2_closed(a, H1Class(tuple(w)), p)
            assert all(np.array_equal(mech.coeff(f"a{j}"), closed.w[j - 1])
                       for j in range(1, m + 1))
        if h01:
            b = rng.choice(h01)
            mech = mu2(r0, r1, r2, C12.cocycle_from_w(w), C01.h0_to_element(b))
            closed = mu2_closed(H1Class(tuple(w)), b, p)
            assert all(np.array_equal(mech.coeff(f"a{j}"), closed.w[j - 1])
                       for j in range(1, m + 1))
        triples += 1
    report(3, pairs >= 100 and triples >= 100,
           f"closed-form mu1/mu2 == copy-dualization on {pairs} pairs, {triples} triples")


def test_criterion_4_a_infinity_relations():
    rng = rng_for(2026, "acceptance.ainfty")
    checked = 0
    for _ in range(20):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([3, 5])
        rs = tuple(random_rep(m, n, p, rng) for _ in range(4))
        r0, r1, r2, r3 = rs
        d1, d2, d3 = (rng.choice([0, 1, 2]) for _ in range(3))
        x1, x2, x3 = (rand_homog(m, n, p, d, rng) for d in (d1, d2, d3))
        assert mu1(r0, r1, mu1(r0, r1, x3)).is_zero()
        lhs = mu1(r1, r3, mu2(r1, r2, r3, x1, x2))
        rhs = mu2(r1, r2, r3, mu1(r2, r3, x1), x2) \
            + mu2(r1, r2, r3, x1, mu1(r1, r2, x2)).scale((-1) ** d1)
        assert (lhs - rhs).is_zero(), (m, n, p, d1, d2)
        assoc = mu2(r0, r1, r3, mu2(r1, r2, r3, x1, x2), x3) \
            - mu2(r0, r2, r3, x1, mu2(r0, r1, r2, x2, x3))
        corr = mu1(r0, r3, mu_k(rs, [x1, x2, x3])) \
            + mu_k(rs, [mu1(r2, r3, x1), x2, x3]) \
            + mu_k(rs, [x1, mu1(r1, r2, x2), x3]).scale((-1) ** d1) \
            + mu_k(rs, [x1, x2, mu1(r0, r1, x3)]).scale((-1) ** (d1 + d2))
        assert (assoc + corr).is_zero(), (m, n, p, d1, d2, d3)
        checked += 1
    report(4, checked == 20, f"A-infinity relations at arities 1-3 on {checked} random triples")


def test_criterion_5_unit_laws():
    rng = rng_for(2026, "acceptance.units")
    classes = 0
    for _ in range(12):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        assert mu1(r0, r0, unit(r0)).is_zero()
        H = hom_cohomology(r0, r1)
        for d in (0, 1):
            for f in H.basis(d):
                assert H.same_class(mu2(r0, r1, r1, unit(r1), f), f)
                assert H.same_class(mu2(r0, r0, r1, f, unit(r0)), f)
                classes += 1
    report(5, True, f"mu1(e) = 0 and [mu2(e,f)] = [f] = [mu2(f,e)] on {classes} classes")


def test_criterion_6_equivalence_desk_scale():
    t0 = time.time()
    rng = rng_for(2026, "acceptance.equiv")
    # full enumeration: n=1, m=2, F_2
    reps = enumerate_reps(2, 1, 2)
    assert len(reps) == 3
    T2 = build_tiling(2)
    objs = [functor_obj(r) for r in reps]
    checked_pairs = 0
    for r0 in reps:
        for r1 in reps:
            H = hom_cohomology(r0, r1)
            F, G = functor_obj(r0), functor_obj(r1)
            cx = CechComplex(T2, F, G)
            assert (H.dims[0], H.dims[1], H.dims[2]) == \
                (ext0_dim(F, G), ext1_dim(F, G), 0)
            assert cx.cohomology_dims() == (H.dims[0], H.dims[1], 0)
            assert cx.h2_certificate()[0]
            checked_pairs += 1
    assert checked_pairs == 9
    # sampled pairs: n=2, m <= 3, F_2 and F_3
    sampled = 0
    for m in (1, 2, 3):
        T = build_tiling(m)
        for p in (2, 3):
            r0, r1 = random_rep(m, 2, p, rng), random_rep(m, 2, p, rng)
            H = hom_cohomology(r0, r1)
            F, G = functor_obj(r0), functor_obj(r1)
            cx = CechComplex(T, F, G)
            assert (H.dims[0], H.dims[1], H.dims[2]) == \
                (ext0_dim(F, G), ext1_dim(F, G), 0), (m, p)
            assert cx.cohomology_dims() == (H.dims[0], H.dims[1], 0), (m, p)
            assert cx.h2_certificate()[0], (m, p)
            sampled += 1
    # the functor preserves identities and all composable compositions
    ident = H0Class((-xa.eye(2)) % 3, (-xa.eye(2)) % 3)
    iu = functor_h0(ident, 3)
    assert np.array_equal(iu[0], xa.eye(2)) and np.array_equal(iu[1], xa.eye(2))
    comps = 0
    for _ in range(10):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3])
        r0, r1, r2 = (random_rep(m, n, p, rng) for _ in range(3))
        C01, C12 = cohomology_closed(r0, r1), cohomology_closed(r1, r2)
        E02 = Ext1Space(functor_obj(r0), functor_obj(r2))
        h01, h12 = C01.h0_basis(), C12.h0_basis()
        w = H1Class(tuple(xa.rand_matrix(rng, n, n, p) for _ in range(m)))
        if h01 and h12:
            a, b = rng.choice(h12), rng.choice(h01)
            lhs = functor_h0(mu2_closed(a, b, p), p)
            rhs = compose00(functor_h0(a, p), functor_h0(b, p), p)
            assert all(np.array_equal(x_, y_) for x_, y_ in zip(lhs, rhs))
        if h12:
            a = rng.choice(h12)
            assert E02.same(functor_h1(mu2_closed(a, w, p), p),
                            compose10(functor_h0(a, p), functor_h1(w, p), p))
        if h01:
            b = rng.choice(h01)
            assert E02.same(functor_h1(mu2_closed(w, b, p), p),
                            compose01(functor_h1(w, p), functor_h0(b, p), p))
        comps += 1
    dt = time.time() - t0
    report(6, dt < 120,
           f"dims H = dims Ext with certified Ext^2 = 0 on 9 enumerated + "
           f"{sampled} sampled pairs; functor preserves units and {comps} "
           f"composition triples; {dt:.1f}s")


def test_criterion_7_cech_oracle():
    rng = rng_for(2026, "acceptance.cech")
    tested = 0
    for (m, n, p) in [(1, 1, 2), (2, 1, 2), (2, 2, 3), (3, 1, 3), (3, 2, 2)]:
        T = build_tiling(m)
        F, G = functor_obj(random_rep(m, n, p, rng)), functor_obj(random_rep(m, n, p, rng))
        cx = CechComplex(T, F, G)
        dims = cx.cohomology_dims()
        assert dims == (ext0_dim(F, G), ext1_dim(F, G), 0), (m, n, p)
        ok, cert = cx.h2_certificate()
        assert ok, cert
        tested += 1
    report(7, True, f"Cech dims equal (Ext^0, Ext^1, 0) with d^1 surjective on {tested} pairs")


def test_criterion_8_graph_game():
    rng = rng_for(2026, "acceptance.game")
    for m in (1, 2, 3, 4):
        T = build_tiling(m)
        F = functor_obj(random_rep(m, 1, 2, rng))
        G = functor_obj(random_rep(m, 1, 2, rng))
        cx = CechComplex(T, F, G)
        res = graph_game(cx)
        assert res["success"], (m, res)
        ok, _ = cx.h2_certificate()
        assert ok, m
    report(8, True, "leaf/Y reduction empties every red node for m in 1..4 "
                    "and rank-level surjectivity holds on the same instances")


def test_criterion_9_eye_unknot():
    T = eye_tiling(1)
    for r in (1, 2):
        for s in (1, 2):
            dims = CechComplex(T, EyeSheaf(r, 2), EyeSheaf(s, 2)).cohomology_dims()
            assert dims == (r * s, 0, 0), (r, s, dims)
    report(9, True, "eye-front Hom cohomology is k^(r s) in degree 0 for r, s <= 2")


def test_criterion_10_conjugation_isomorphism():
    rng = rng_for(2026, "acceptance.conj")
    found = 0
    for _ in range(100):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0 = random_rep(m, n, p, rng)
        while True:
            mat = xa.rand_matrix(rng, n, n, p)
            if xa.det(mat, p):
                break
        r2 = r0.conjugate(xa.inverse(mat, p), mat)
        witness = is_isomorphic(r0, r2, budget=300_000, rng=rng)
        assert witness is not None, (m, n, p)
        found += 1
    report(10, found == 100, f"isomorphism witness found for {found}/100 conjugate pairs")
