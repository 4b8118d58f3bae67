import itertools
import random

import numpy as np
import pytest

from legtorus import exactalg as xa
from legtorus.ainfty import BudgetExceeded, enumerate_reps, random_rep
from legtorus.freedga import pq_matrix
from legtorus.sheafcat import (Ext1Space, SheafObject, _ext_map, build_sheaf_object,
                               check_extension_exact, check_morphism,
                               compose00, compose01, compose10,
                               ext0, ext0_dim, ext1,
                               ext1_dim, extension_from_class, functor_h0,
                               functor_h1, functor_obj, morphism_data)
from legtorus.torusrep import (H0Class, H1Class, cohomology_closed,
                               mu2_closed)


def enumerate_sheaf_objects(m: int, n: int, p: int, budget: int = 2_000_000):
    """All sheaf objects with P_m(A) invertible, built directly on the sheaf
    side: the reference the functor's image is compared against."""
    total = p ** (n * n * m)
    if total > budget:
        raise BudgetExceeded(f"enumeration needs {total} tuples (budget {budget})",
                             required=total)
    out = []
    for flat in itertools.product(range(p), repeat=n * n * m):
        mats = [np.array(flat[i * n * n:(i + 1) * n * n], dtype=np.int64).reshape(n, n)
                for i in range(m)]
        if xa.det(pq_matrix("P", mats, p, n), p) != 0:
            out.append(SheafObject(m, n, p, mats))
    return out


def rand_object(m, n, p, rng):
    while True:
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        if xa.det(pq_matrix("P", mats, p, n), p) != 0:
            return SheafObject(m, n, p, mats)


# -- objects --------------------------------------------------------------------

def test_singular_tuple_rejected():
    with pytest.raises(ValueError):
        build_sheaf_object([np.array([[1]]), np.array([[1]])], 2)


def test_phi_psi_normal_form_example():
    # m=2, n=1, A=(1,0) over F_2: phi2 = (1;1), phi3 = (P_1(a2); P_2) = (0;1)
    F = build_sheaf_object([np.array([[1]]), np.array([[0]])], 2)
    assert F.phi(1).ravel().tolist() == [0, 1]
    assert F.phi(2).ravel().tolist() == [1, 1]
    assert F.phi(3).ravel().tolist() == [0, 1]
    assert F.psi.ravel().tolist() == [0, 1]
    assert F.check_invariants()


def mutated_legs(F, left=False, drop_prev=False):
    """The leg recurrence with a fault: `left` puts A_k on the left of each
    n x n block of phi_k, `drop_prev` drops the phi_{k-1} term."""
    n, p = F.n, F.p
    legs = [np.vstack([xa.eye(n), xa.zeros(n, n)]), np.vstack([xa.zeros(n, n), xa.eye(n)])]
    for k in range(1, F.m + 1):
        a, cur = F.A[k - 1], legs[k]
        step = (a @ cur.reshape(2, n, n)).reshape(2 * n, n) if left else cur @ a
        legs.append(((0 if drop_prev else legs[k - 1]) + step) % p)
    return legs


def test_phi_from_chain_composition():
    """phi_0..phi_{m+1} are the block columns of omega(1) ... omega(k) for
    m <= 8, n <= 3; both faulty recurrences differ from them somewhere."""
    rng = random.Random(1)
    faults = {"left": 0, "drop_prev": 0}
    for m, n, p in itertools.product(range(1, 9), (1, 2, 3), (2, 3, 5)):
        F = rand_object(m, n, p, rng)
        acc, chain = xa.eye(2 * n), []
        for k in range(m + 1):
            if k:
                acc = (acc @ F.omega(k)) % p
            chain.append(acc[:, :n])  # phi_k, and acc[:, n:] is phi_{k+1}
        chain.append(acc[:, n:])
        assert all(np.array_equal(F.phi(k), leg) for k, leg in enumerate(chain))
        assert F.legs.shape == (m + 2, 2 * n, n)
        for fault in faults:
            faults[fault] += not all(np.array_equal(a, b) for a, b
                                     in zip(mutated_legs(F, **{fault: True}), chain))
        # psi . phi_{m+1} = P_m(A)
        assert np.array_equal((F.psi @ F.phi(m + 1)) % p, pq_matrix("P", F.A, p, n))
    assert all(faults.values()), faults


def test_invariants_on_enumerated_objects():
    for F in enumerate_sheaf_objects(2, 1, 3):
        assert F.check_invariants()


def test_enumeration_matches_representation_side():
    reps = enumerate_reps(2, 1, 2)
    objs = enumerate_sheaf_objects(2, 1, 2)
    # the transpose functor is a bijection on objects at this scale
    transposed = sorted(tuple(int(a.T[0, 0]) for a in r.A) for r in reps)
    direct = sorted(tuple(int(a[0, 0]) for a in F.A) for F in objs)
    assert transposed == direct and len(objs) == 3


def test_enumeration_budget_refusal():
    # refusing is a BudgetExceeded, as on the representation side
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_sheaf_objects(3, 2, 5, budget=10)
    assert exc.value.required == 5 ** 12


# -- Ext^0 ------------------------------------------------------------------------

def test_ext0_contains_identity():
    rng = random.Random(2)
    for _ in range(10):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3])
        F = rand_object(m, n, p, rng)
        basis = ext0(F, F)
        stacked = np.column_stack([np.concatenate([u1.reshape(-1), u2.reshape(-1)])
                                   for u1, u2 in basis])
        target = np.concatenate([xa.eye(n).reshape(-1), xa.eye(n).reshape(-1)])
        assert xa.solve(stacked, target.reshape(-1, 1), p) is not None


def test_ext0_zero_pair_dims():
    F = build_sheaf_object([np.array([[0]]), np.array([[0]])], 2)
    assert ext0_dim(F, F) == 2
    assert ext1_dim(F, F) == 2


def test_morphism_data_commutes():
    rng = random.Random(3)
    for _ in range(15):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3, 5])
        F, G = rand_object(m, n, p, rng), rand_object(m, n, p, rng)
        for u in ext0(F, G):
            us, v = morphism_data(F, G, u)
            assert us[0] is us[1]
            assert check_morphism(F, G, u)


def test_ext_dims_match_hom_dims():
    rng = random.Random(4)
    for _ in range(20):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        C = cohomology_closed(r0, r1)
        F, G = functor_obj(r0), functor_obj(r1)
        assert ext0_dim(F, G) == C.dims[0]
        assert ext1_dim(F, G) == C.dims[1]


def test_mismatched_objects_rejected():
    rng = random.Random(5)
    F = rand_object(2, 1, 3, rng)
    for G in (rand_object(2, 2, 3, rng), rand_object(3, 1, 3, rng), rand_object(2, 1, 5, rng)):
        for fn in (ext0, ext0_dim, ext1, ext1_dim):
            with pytest.raises(ValueError, match="mismatched objects"):
                fn(F, G)


def test_ext0_and_ext1_share_one_map():
    # Ext^0 is the kernel and Ext^1 the cokernel of one map
    # (End V)^2 -> (End V)^m, so dim Ext^0 - dim Ext^1 = (2 - m) n^2
    rng = random.Random(6)
    for _ in range(30):
        m, n, p = rng.choice([1, 2, 3, 4]), rng.choice([1, 2]), rng.choice([2, 3, 5])
        F, G = rand_object(m, n, p, rng), rand_object(m, n, p, rng)
        assert ext0_dim(F, G) - ext1_dim(F, G) == (2 - m) * n * n, (m, n, p)
        # the dims from one rank agree with the kernel basis and the
        # cokernel's coset space
        assert ext0_dim(F, G) == len(ext0(F, G))
        assert ext1_dim(F, G) == ext1(F, G).dim == len(ext1(F, G).basis())



def test_ext_pair_cache_follows_the_pair():
    # the pair's eliminated map is cached by object identity: each pair in
    # turn, and an equal but distinct copy, must give freshly computed dims
    rng = random.Random(8)
    F, G = rand_object(3, 2, 3, rng), rand_object(3, 2, 3, rng)
    F2 = SheafObject(F.m, F.n, F.p, F.A)
    for X, Y in ((F, G), (G, F), (F, G), (F, F), (F2, G), (F2, F), (G, G)):
        rk = xa.rank(_ext_map(X, Y), X.p)
        assert (ext0_dim(X, Y), ext1_dim(X, Y)) == (2 * 4 - rk, 3 * 4 - rk)
        assert ext1(X, Y).dim == 3 * 4 - rk and len(ext0(X, Y)) == 2 * 4 - rk

# -- Ext^1 and extensions ----------------------------------------------------------

def test_split_extension_is_zero_class():
    rng = random.Random(5)
    m, n, p = 2, 2, 3
    F, G = rand_object(m, n, p, rng), rand_object(m, n, p, rng)
    E = ext1(F, G)
    zero = [xa.zeros(n, n)] * m
    assert not E.reduce(zero).any()
    u1, u2 = xa.rand_matrix(rng, n, n, p), xa.rand_matrix(rng, n, n, p)
    bdry = [(u1 @ F.A[0] - G.A[0] @ u2) % p, (u2 @ F.A[1] - G.A[1] @ u1) % p]
    assert not E.reduce(bdry).any()


def test_extension_middle_object():
    rng = random.Random(6)
    for _ in range(12):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3, 5])
        F, G = rand_object(m, n, p, rng), rand_object(m, n, p, rng)
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        mid = extension_from_class(w, F, G)
        assert mid.n == 2 * n
        assert mid.check_invariants()
        assert check_extension_exact(w, F, G)
        # zero class gives the block-diagonal (split) middle
        mid0 = extension_from_class([xa.zeros(n, n)] * m, F, G)
        assert all(not mid0.A[j][:n, n:].any() for j in range(m))


def test_ext1_basis_spans_quotient():
    rng = random.Random(7)
    m, n, p = 3, 2, 2
    F, G = rand_object(m, n, p, rng), rand_object(m, n, p, rng)
    E = ext1(F, G)
    basis = E.basis()
    assert len(basis) == E.dim
    stacked = [np.concatenate([wj.reshape(-1) for wj in b]) for b in basis]
    assert xa.rank(np.vstack(stacked) if stacked else xa.zeros(0, m * n * n), p) == E.dim


# -- compositions -----------------------------------------------------------------

def test_compose00_unit_and_associativity():
    rng = random.Random(8)
    m, n, p = 2, 2, 5
    objs = [rand_object(m, n, p, rng) for _ in range(4)]
    ident = (xa.eye(n), xa.eye(n))
    for _ in range(10):
        es = [ext0(objs[i], objs[i + 1]) for i in range(3)]
        if not all(es):
            continue
        u, v, w = (rng.choice(e) for e in es)
        assert all(np.array_equal(a, b) for a, b in zip(compose00(ident, u, p), u))
        lhs = compose00(w, compose00(v, u, p), p)
        rhs = compose00(compose00(w, v, p), u, p)
        assert all(np.array_equal(a, b) for a, b in zip(lhs, rhs))


def pullback_check(wprime, u, F: SheafObject, G: SheafObject, H: SheafObject) -> bool:
    """Oracle for compose01: the pullback diagram with U_i = diag(1, u_i) and
    W = diag(1, u2, 1, u1) must commute against the normalized Omega chains.

    Here e' = (w'_j) is an extension of G by H and u = (u1, u2): F -> G; the
    pullback u*e' is the extension of F by H with data (w'_j u_{j+1}).
    """
    n, p, m = F.n, F.p, F.m
    u1, u2 = u
    w_pull = compose01(wprime, u, p)
    mid_orig = extension_from_class(wprime, G, H)
    mid_pull = extension_from_class(w_pull, F, H)
    big_w = np.block([
        [xa.eye(n), xa.zeros(n, n), xa.zeros(n, n), xa.zeros(n, n)],
        [xa.zeros(n, n), u2, xa.zeros(n, n), xa.zeros(n, n)],
        [xa.zeros(n, n), xa.zeros(n, n), xa.eye(n), xa.zeros(n, n)],
        [xa.zeros(n, n), xa.zeros(n, n), xa.zeros(n, n), u1],
    ]) % p

    def u_block(k):
        uk = u1 if k % 2 == 1 else u2
        return np.block([[xa.eye(n), xa.zeros(n, n)], [xa.zeros(n, n), uk]]) % p

    def node_map(k):
        # vertical map at chain node k: W at the head, diag(U_k, U_{k+1}) beyond
        if k == 0:
            return big_w
        z = np.zeros((2 * n, 2 * n), dtype=np.int64)
        return np.block([[u_block(k), z], [z, u_block(k + 1)]]) % p

    for k in range(1, m + 1):
        lhs = (node_map(k - 1) @ mid_pull.omega(k)) % p
        rhs = (mid_orig.omega(k) @ node_map(k)) % p
        if not np.array_equal(lhs, rhs):
            return False
    return True


def test_compose01_identity_and_pullback_oracle():
    rng = random.Random(9)
    for _ in range(12):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3, 5])
        F, G, H = (rand_object(m, n, p, rng) for _ in range(3))
        wprime = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        ident = (xa.eye(n), xa.eye(n))
        unchanged = compose01(wprime, ident, p)
        assert all(np.array_equal(a, b) for a, b in zip(unchanged, wprime))
        e01 = ext0(F, G)
        if e01:
            u = rng.choice(e01)
            assert pullback_check(wprime, u, F, G, H)


def test_compose_well_defined_and_mixed_associative():
    rng = random.Random(10)
    for _ in range(10):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([3, 5])
        F, G, H = (rand_object(m, n, p, rng) for _ in range(3))
        E_FH = ext1(F, H)
        # boundary classes compose to boundary classes
        u1, u2 = xa.rand_matrix(rng, n, n, p), xa.rand_matrix(rng, n, n, p)
        bdry = []
        for j in range(1, m + 1):
            hit, other = (u1, u2) if j % 2 == 1 else (u2, u1)
            bdry.append((hit @ G.A[j - 1] - H.A[j - 1] @ other) % p)
        e0_fg = ext0(F, G)
        if e0_fg:
            u = rng.choice(e0_fg)
            pulled = compose01(bdry, u, p)
            assert not E_FH.reduce(pulled).any()
        # mixed associativity u'' . (e' . u) = (u'' . e') . u
        e0_hh = ext0(H, H)
        wprime = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        if e0_fg and e0_hh:
            u = rng.choice(e0_fg)
            upp = rng.choice(e0_hh)
            lhs = compose10(upp, compose01(wprime, u, p), p)
            rhs = compose01(compose10(upp, wprime, p), u, p)
            assert all(np.array_equal(a, b) for a, b in zip(lhs, rhs))


# -- the functor --------------------------------------------------------------------

def test_functor_preserves_identities():
    p, n = 5, 2
    ident_cls = H0Class((-xa.eye(n)) % p, (-xa.eye(n)) % p)
    u = functor_h0(ident_cls, p)
    assert np.array_equal(u[0], xa.eye(n)) and np.array_equal(u[1], xa.eye(n))


def test_transpose_pq_identity():
    rng = random.Random(11)
    for _ in range(20):
        m, n, p = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3]), rng.choice([2, 3, 5])
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        lhs = pq_matrix("P", mats, p, n).T % p
        mid = pq_matrix("P", [a.T for a in reversed(mats)], p, n)
        rhs = (pow(-1, m, p) * pq_matrix("Q", [a.T for a in mats], p, n)) % p
        assert np.array_equal(lhs, mid)
        assert np.array_equal(mid, rhs)


def test_functor_objects_surjective_at_desk_scale():
    reps = enumerate_reps(2, 1, 2)
    images = sorted(functor_obj(r).key() for r in reps)
    objs = sorted(F.key() for F in enumerate_sheaf_objects(2, 1, 2))
    assert images == objs


def test_functoriality_all_composable_cases():
    rng = random.Random(12)
    for _ in range(25):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3, 5])
        reps = [random_rep(m, n, p, rng) for _ in range(3)]
        r0, r1, r2 = reps
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
            lhs = functor_h1(mu2_closed(a, w, p), p)
            rhs = compose10(functor_h0(a, p), functor_h1(w, p), p)
            assert E02.same(lhs, rhs)
        if h01:
            b = rng.choice(h01)
            lhs = functor_h1(mu2_closed(w, b, p), p)
            rhs = compose01(functor_h1(w, p), functor_h0(b, p), p)
            assert E02.same(lhs, rhs)
