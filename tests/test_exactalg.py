import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legtorus import exactalg as xa


def brute_rank(m, p):
    """Independent oracle: rank by enumerating row spans (tiny matrices only)."""
    rows = [tuple(r % p) for r in m]
    span = {tuple([0] * m.shape[1])}
    rank = 0
    for r in rows:
        if r in span:
            continue
        rank += 1
        span = {tuple((a + k * b) % p for a, b in zip(s, r)) for s in span for k in range(p)}
    return rank


def dense_rref(m, p):
    """Reference: the dense elimination `xa.rref` used before the sparse-row kernel."""
    a = np.mod(np.array(m, dtype=np.int64), p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # first nonzero entry in column c at or below row r
        sub = a[r:, c]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def dense_det(m, p):
    """Reference: the dense elimination `xa.det` used before it went through the shared loop."""
    if m.shape[0] != m.shape[1]:
        raise ValueError("determinant requires a square matrix")
    a = np.mod(np.array(m, dtype=np.int64), p)
    n = a.shape[0]
    d = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if len(nz) == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            a[[c, i]] = a[[i, c]]
            d = (-d) % p
        piv = int(a[c, c])
        d = (d * piv) % p
        inv = pow(piv, -1, p)
        for rr in range(c + 1, n):
            f = (int(a[rr, c]) * inv) % p
            if f:
                a[rr] = (a[rr] - f * a[c]) % p
    return d


def sparse_random(seed, rows, cols, p, density):
    """Nonzero mod p with probability `density`; entries lie in [-p, 2p), so they also need reducing."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    vals = rng.integers(1, p, size=(rows, cols)) + p * rng.integers(-1, 2, size=(rows, cols))
    return np.where(mask, vals, 0)


def assert_matches_dense(m, p):
    r, pivots = xa.rref(m, p)
    ref, ref_pivots = dense_rref(m, p)
    assert r.dtype == np.int64
    assert r.shape == ref.shape
    assert pivots == ref_pivots
    assert np.array_equal(r, ref)
    assert r.size == 0 or (r.min() >= 0 and r.max() < p)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([2, 3, 5, 7, 32749]), st.floats(0.0, 1.0))
@example(1, 0, 5, 3, 0.5)
@example(2, 5, 0, 3, 0.5)
@example(3, 1, 7, 5, 0.5)
@example(4, 7, 1, 7, 0.5)
@example(5, 6, 6, 2, 1.0)
@example(6, 6, 6, 32749, 0.0)
def test_rref_matches_dense_reference(seed, rows, cols, p, density):
    assert_matches_dense(sparse_random(seed, rows, cols, p, density), p)


def test_rref_matches_dense_reference_on_d1_shape():
    # the shape and sparsity of a Cech d1 matrix (m=4, n=2)
    assert_matches_dense(sparse_random(2024, 400, 700, 3, 0.005), 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7),
       st.sampled_from([2, 3, 5, 7, 32749]), st.floats(0.0, 1.0))
@example(1, 0, 3, 0.5)
@example(2, 1, 5, 1.0)
@example(3, 6, 2, 1.0)
@example(4, 7, 32749, 1.0)
@example(5, 5, 7, 0.0)
def test_det_matches_dense_reference(seed, n, p, density):
    m = sparse_random(seed, n, n, p, density)
    d = xa.det(m, p)
    assert type(d) is int
    assert d == dense_det(m, p)


def test_det_permutation_sign():
    # a permutation matrix has det = its sign; the elimination sees leads at
    # columns (2, 0, 1), a 3-cycle with two inversions, and (1, 0), one
    assert xa.det(xa.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 5), 5) == 1
    assert xa.det(xa.mat([[0, 3], [2, 0]], 7), 7) == (-6) % 7


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 4), st.sampled_from([2, 3, 5, 7, 32749]))
@example(1, 0, 3, 2, 2, 3)
@example(2, 2, 0, 2, 2, 3)
@example(3, 2, 2, 0, 3, 5)
@example(4, 2, 2, 3, 0, 5)
@example(5, 4, 4, 4, 4, 32749)
def test_kron_matches_numpy(seed, ra, ca, rb, cb, p):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(ra, ca))
    b = rng.integers(0, p, size=(rb, cb))
    k = xa.kron(a, b, p)
    assert k.dtype == np.int64 and k.shape == (ra * rb, ca * cb)
    assert np.array_equal(k, np.kron(a, b) % p)


def test_rank_kernel_identity_f2():
    rk, ker = xa.rank_kernel(xa.eye(3), 2)
    assert rk == 3 and ker.shape == (3, 0)


def test_rank_kernel_zero_f5():
    rk, ker = xa.rank_kernel(xa.zeros(2, 3), 5)
    assert rk == 0 and ker.shape == (3, 3)


def test_rank_kernel_dependent_rows_f5():
    # [[1,2],[2,4]] over F_5: row 2 = 2 * row 1, so rank 1, kernel dim 1;
    # reduced kernel basis is (-2, 1) = (3, 1)
    m = xa.mat([[1, 2], [2, 4]], 5)
    rk, ker = xa.rank_kernel(m, 5)
    assert rk == 1 and ker.shape[1] == 1
    assert ker[:, 0].tolist() == [3, 1]
    assert not ((m @ ker) % 5).any()


def test_det_examples():
    assert xa.det(xa.eye(4), 7) == 1
    assert xa.det(xa.mat([[1, 2], [2, 4]], 5), 5) == 0
    # cofactor expansion: 1*4 - 2*3 = -2 = 5 mod 7
    assert xa.det(xa.mat([[1, 2], [3, 4]], 7), 7) == 5


def test_inverse_examples():
    assert np.array_equal(xa.inverse(xa.eye(3), 3), xa.eye(3))
    assert xa.inverse(xa.zeros(2, 2), 2) is None
    m = xa.mat([[0, 1], [1, 1]], 2)
    inv = xa.inverse(m, 2)
    assert np.array_equal((m @ inv) % 2, xa.eye(2))
    assert np.array_equal((inv @ m) % 2, xa.eye(2))
    assert inv.tolist() == [[1, 1], [1, 0]]


def test_solve_examples():
    b = xa.mat([[1, 2], [0, 1]], 3)
    assert np.array_equal(xa.solve(xa.eye(2), b, 3), b)
    assert xa.solve(xa.zeros(2, 2), xa.mat([[1, 0], [0, 0]], 3), 3) is None
    a = xa.mat([[1, 1], [0, 1]], 3)
    x = xa.solve(a, xa.eye(2), 3)
    # back-substitution by hand gives [[1, 2], [0, 1]]
    assert x.tolist() == [[1, 2], [0, 1]]
    assert np.array_equal((a @ x) % 3, xa.eye(2))


def test_field_validation():
    with pytest.raises(ValueError):
        xa.check_field(4)
    with pytest.raises(ValueError):
        xa.check_field(1 << 16)
    assert xa.check_field(2) == 2
    assert xa.check_field(32749) == 32749


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        xa.det(xa.zeros(2, 3), 5)
    with pytest.raises(ValueError):
        xa.inverse(xa.zeros(2, 3), 5)
    with pytest.raises(ValueError):
        xa.solve(xa.zeros(2, 2), xa.zeros(3, 1), 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.lists(st.integers(0, 4), min_size=6, max_size=6))
def test_rank_nullity_and_brute_force_f5(seedrow, entries):
    m = np.array(entries + [seedrow] * 0, dtype=np.int64).reshape(2, 3) % 5
    rk, ker = xa.rank_kernel(m, 5)
    assert rk + ker.shape[1] == 3
    assert rk == brute_rank(m, 5)
    assert not ((m @ ker) % 5).any()


def test_random_properties():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        a = xa.rand_matrix(rng, n, n, p)
        b = xa.rand_matrix(rng, n, n, p)
        assert xa.det((a @ b) % p, p) == (xa.det(a, p) * xa.det(b, p)) % p
        inv = xa.inverse(a, p)
        assert (inv is not None) == (xa.det(a, p) != 0)
        if inv is not None:
            assert np.array_equal((a @ inv) % p, xa.eye(n))
            assert np.array_equal((inv @ a) % p, xa.eye(n))
        rect = xa.rand_matrix(rng, n, n + 1, p)
        rk, ker = xa.rank_kernel(rect, p)
        assert rk + ker.shape[1] == n + 1
        if ker.shape[1]:
            assert xa.rank(ker, p) == ker.shape[1]


def test_kernel_basis_column_echelon_order():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([2, 3])
        m = xa.rand_matrix(rng, 2, 4, p)
        r, pivots = xa.rref(m, p)
        _, ker = xa.rank_kernel(m, p)
        free = [c for c in range(4) if c not in pivots]
        # one basis vector per free column, ascending, with a unit there and
        # zeros at the other free columns: the reduced echelon normal form
        assert ker.shape[1] == len(free)
        for i, fc in enumerate(free):
            for j, fc2 in enumerate(free):
                assert ker[fc2, i] == (1 if i == j else 0)


def test_coset_reduce_canonical():
    rng = random.Random(9)
    p = 5
    gens = xa.rand_matrix(rng, 3, 6, p)
    basis, piv = xa.row_space(gens, p)
    v = xa.rand_matrix(rng, 1, 6, p)[0]
    r1 = xa.coset_reduce(v, basis, piv, p)
    shift = (v + gens.T @ np.array([1, 2, 3])) % p
    r2 = xa.coset_reduce(shift, basis, piv, p)
    assert np.array_equal(r1, r2)
    for row, pc in enumerate(piv):
        assert r1[pc] == 0


def test_left_inverse():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        a = xa.rand_matrix(rng, 5, 2, p)
        if xa.rank(a, p) < 2:
            continue
        li = xa.left_inverse(a, p)
        assert np.array_equal((li @ a) % p, xa.eye(2))
