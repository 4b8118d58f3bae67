import random

import numpy as np
import pytest

from legtorus import exactalg as xa
from legtorus.ainfty import (HomElement, Representation, hom_basis_order,
                             hom_cohomology, mu1, mu2, random_rep)
from legtorus.freedga import pq_matrix
from legtorus.torusrep import (H0Class, H1Class, cohomology_closed, mu1_closed,
                               mu2_closed, sylvester_check)


def rand_homog(m, n, p, deg, rng):
    return HomElement(n, p, deg,
                      {b: xa.rand_matrix(rng, n, n, p) for b in hom_basis_order(m, deg)})


# -- Sylvester-type determinant identity ---------------------------------------

def test_sylvester_m1_scalar_forced():
    for a in range(5):
        assert sylvester_check([np.array([[a]])], 5)


def test_sylvester_m2_is_classical():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        a1, a2 = (xa.rand_matrix(rng, n, n, 7) for _ in range(2))
        d1 = xa.det((xa.eye(n) + a1 @ a2) % 7, 7)
        d2 = xa.det((xa.eye(n) + a2 @ a1) % 7, 7)
        assert d1 == d2
        assert sylvester_check([a1, a2], 7)


def test_sylvester_random_sweep():
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 4)
        assert sylvester_check([xa.rand_matrix(rng, n, n, 5) for _ in range(m)], 5)


# -- closed-form mu_1 -----------------------------------------------------------

def test_mu1_closed_examples():
    rng = random.Random(3)
    m, n, p = 3, 2, 5
    r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
    z = xa.rand_matrix(rng, n, n, p)
    assert mu1_closed(r0, r1, HomElement(n, p, 2, {"b1": z})).is_zero()
    assert mu1_closed(r0, r1, HomElement(n, p, 2, {"b2": z})).is_zero()
    v = xa.rand_matrix(rng, n, n, p)
    out = mu1_closed(r0, r1, HomElement(n, p, 1, {"x2": v}))
    assert set(out.coeffs) <= {"b2"}
    assert np.array_equal(out.coeff("b2"), (r0.T2 @ v) % p)
    out1 = mu1_closed(r0, r1, HomElement(n, p, 1, {"x1": v}))
    assert np.array_equal(out1.coeff("b1"), (-v @ r1.T1_inv) % p)


def test_mu1_closed_squares_to_zero():
    rng = random.Random(4)
    for _ in range(30):
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        x = rand_homog(m, n, p, rng.choice([0, 1]), rng)
        assert mu1_closed(r0, r1, mu1_closed(r0, r1, x)).is_zero()


# -- reduced complex cohomology -------------------------------------------------

def test_cohomology_closed_zero_pair():
    r = Representation(2, 1, 2, [np.array([[0]]), np.array([[0]])])
    C = cohomology_closed(r, r)
    assert C.dims == {0: 2, 1: 2, 2: 0}


def test_reduced_rank_nullity():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        C = cohomology_closed(r0, r1)
        assert C.dims[0] - C.dims[1] == (2 - m) * n * n
        assert C.dims[2] == 0


def test_closed_matches_machinery_dims():
    rng = random.Random(6)
    for _ in range(25):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        C = cohomology_closed(r0, r1)
        H = hom_cohomology(r0, r1)
        assert (C.dims[0], C.dims[1], C.dims[2]) == (H.dims[0], H.dims[1], H.dims[2])


def test_kernel_elements_extend_to_genuine_cocycles():
    # the t-conditions are superfluous: every reduced-complex kernel element
    # is already a full mu_1-cocycle
    rng = random.Random(7)
    for _ in range(20):
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        C = cohomology_closed(r0, r1)
        for cls in C.h0_basis():
            el = C.h0_to_element(cls)
            assert mu1_closed(r0, r1, el).is_zero()
            assert mu1(r0, r1, el).is_zero()


def test_degree_one_cocycles_determined_by_a_part():
    rng = random.Random(8)
    for _ in range(20):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        C = cohomology_closed(r0, r1)
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        coc = C.cocycle_from_w(w)
        assert mu1_closed(r0, r1, coc).is_zero()
        assert mu1(r0, r1, coc).is_zero()


# -- intertwining ---------------------------------------------------------------

def pq_intertwine_check(A, Aprime, u1, u2, p: int) -> bool:
    """Intertwining identities for P_m and Q_m under the H^0 hypotheses.

    Raises if the hypotheses u1 A'_j = A_j u2 (j odd), A_j u1 = u2 A'_j
    (j even) fail; under them the identities are a theorem.
    """
    A, Aprime = list(A), list(Aprime)
    m = len(A)
    for j in range(1, m + 1):
        if j % 2 == 1:
            ok = not ((u1 @ Aprime[j - 1] - A[j - 1] @ u2) % p).any()
        else:
            ok = not ((A[j - 1] @ u1 - u2 @ Aprime[j - 1]) % p).any()
        if not ok:
            raise ValueError(f"intertwining hypothesis fails at j={j}")
    uj = u2 if m % 2 == 1 else u1
    ui = u1 if m % 2 == 1 else u2
    ok_p = not ((u1 @ pq_matrix("P", Aprime, p) - pq_matrix("P", A, p) @ uj) % p).any()
    ok_q = not ((pq_matrix("Q", A, p) @ u2 - ui @ pq_matrix("Q", Aprime, p)) % p).any()
    return ok_p and ok_q


def test_intertwine_trivial_cases():
    p, n = 5, 2
    ident = xa.eye(n)
    a = [xa.rand_matrix(random.Random(9), n, n, p)]
    assert pq_intertwine_check(a, a, ident, ident, p)


def test_intertwine_m1_forced():
    rng = random.Random(10)
    p, n = 3, 2
    a = xa.rand_matrix(rng, n, n, p)
    u1 = xa.rand_matrix(rng, n, n, p)
    u2 = xa.rand_matrix(rng, n, n, p)
    aprime = xa.inverse(u1, p)
    if aprime is None:
        u1 = xa.eye(n)
    # choose A' := u1^{-1} A u2 so the hypothesis holds by construction
    while xa.det(u1, p) == 0:
        u1 = xa.rand_matrix(rng, n, n, p)
    aprime = (xa.inverse(u1, p) @ a @ u2) % p
    assert pq_intertwine_check([a], [aprime], u1, u2, p)


def test_intertwine_from_h0_kernel():
    rng = random.Random(11)
    hits = 0
    while hits < 12:
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        C = cohomology_closed(r0, r1)
        for cls in C.h0_basis():
            assert pq_intertwine_check(r0.A, r1.A, cls.u1, cls.u2, p)
            hits += 1


def test_intertwine_reports_precondition_violation():
    p, n = 5, 1
    with pytest.raises(ValueError):
        pq_intertwine_check([np.array([[1]])], [np.array([[2]])],
                            np.array([[1]]), np.array([[1]]), p)


# -- closed mu_2 ------------------------------------------------------------------

def test_mu2_closed_formulas():
    rng = random.Random(12)
    p, n, m = 5, 2, 3
    u = H0Class(xa.rand_matrix(rng, n, n, p), xa.rand_matrix(rng, n, n, p))
    uprime = H0Class(xa.rand_matrix(rng, n, n, p), xa.rand_matrix(rng, n, n, p))
    out = mu2_closed(uprime, u, p)
    assert np.array_equal(out.u1, (-u.u1 @ uprime.u1) % p)
    assert np.array_equal(out.u2, (-u.u2 @ uprime.u2) % p)
    w = H1Class(tuple(xa.rand_matrix(rng, n, n, p) for _ in range(m)))
    o2 = mu2_closed(uprime, w, p)
    assert np.array_equal(o2.w[0], (-w.w[0] @ uprime.u2) % p)
    assert np.array_equal(o2.w[1], (-w.w[1] @ uprime.u1) % p)
    assert np.array_equal(o2.w[2], (-w.w[2] @ uprime.u2) % p)
    o3 = mu2_closed(w, u, p)
    assert np.array_equal(o3.w[0], (-u.u1 @ w.w[0]) % p)
    assert np.array_equal(o3.w[1], (-u.u2 @ w.w[1]) % p)
    assert np.array_equal(o3.w[2], (-u.u1 @ w.w[2]) % p)
    with pytest.raises(ValueError):
        mu2_closed(w, w, p)


def test_mu2_unit_is_identity_on_h0():
    p, n = 7, 2
    e = H0Class((-xa.eye(n)) % p, (-xa.eye(n)) % p)
    rng = random.Random(13)
    f = H0Class(xa.rand_matrix(rng, n, n, p), xa.rand_matrix(rng, n, n, p))
    out = mu2_closed(e, f, p)
    assert np.array_equal(out.u1, f.u1) and np.array_equal(out.u2, f.u2)


def test_mu2_closed_well_defined_on_classes():
    # boundary representatives compose to boundaries
    rng = random.Random(14)
    for _ in range(15):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1, r2 = (random_rep(m, n, p, rng) for _ in range(3))
        C01 = cohomology_closed(r0, r1)
        C12 = cohomology_closed(r1, r2)
        C02 = cohomology_closed(r0, r2)
        u1, u2 = xa.rand_matrix(rng, n, n, p), xa.rand_matrix(rng, n, n, p)
        vec = (C01.matrix @ np.concatenate([u1.reshape(-1), u2.reshape(-1)])) % p
        bdry_w = [vec[j * n * n:(j + 1) * n * n].reshape(n, n) for j in range(m)]
        assert not C01.h1_reduce(bdry_w).any()
        for cls in C12.h0_basis():
            out = mu2_closed(cls, H1Class(tuple(bdry_w)), p)
            assert not C02.h1_reduce(list(out.w)).any()
        for cls in C01.h0_basis():
            vec2 = (C12.matrix @ np.concatenate([u1.reshape(-1), u2.reshape(-1)])) % p
            bw2 = [vec2[j * n * n:(j + 1) * n * n].reshape(n, n) for j in range(m)]
            out = mu2_closed(H1Class(tuple(bw2)), cls, p)
            assert not C02.h1_reduce(list(out.w)).any()


def test_mu2_closed_matches_machinery():
    rng = random.Random(15)
    for _ in range(25):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1, r2 = (random_rep(m, n, p, rng) for _ in range(3))
        C01, C12 = cohomology_closed(r0, r1), cohomology_closed(r1, r2)
        h01, h12 = C01.h0_basis(), C12.h0_basis()
        if h01 and h12:
            a, b = rng.choice(h12), rng.choice(h01)
            mech = mu2(r0, r1, r2, C12.h0_to_element(a), C01.h0_to_element(b))
            closed = mu2_closed(a, b, p)
            assert np.array_equal(mech.coeff("y1"), closed.u1)
            assert np.array_equal(mech.coeff("y2"), closed.u2)
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
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
