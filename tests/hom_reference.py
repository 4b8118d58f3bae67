"""Reference: how `ainfty.mu1_matrix`, `torusrep.reduced_complex_matrix` and
`sheafcat._ext_map` assembled their matrices before the pair-independent
blocks were built once per (m, n, degree) and the Kronecker blocks in one
stacked call, kept here unchanged as test oracles (the only edit: the 2-D
`kron` they called is `kron2d` below).  Each builds every block per pair and
reads the tuples one matrix at a time."""

from __future__ import annotations

import numpy as np

from legtorus import exactalg as xa
from legtorus.ainfty import hom_basis_order
from legtorus.freedga import link_grading, pq_matrix


def kron2d(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The 2-D Kronecker product mod p that `exactalg.kron` was before it broadcast."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :] % p).reshape(ra * rb, ca * cb)


def mu1_matrix(r0, r1, degree: int) -> np.ndarray:
    """Matrix of mu_1 from degree to degree+1 in the canonical dual basis.

    mu_1(z^) is the (1,2) corner of the 2-copy differential evaluated on
    2x2 block upper-triangular matrices: copy 1 carries r0, copy 2 carries
    r1, and the off-diagonal generator z^{12} carries the argument's
    coefficient.  Two corner-only factors multiply to zero, so the corner is
    linear in the argument, and one batched evaluation over the stack of
    unit coefficients (one per source entry, row-major as `_vec` flattens)
    gives every column at once.  The (r, c) of each generator come from
    `link_grading`; the terms Y_r B + B Y_c of d(b) have no source in
    degree 0 or 1.
    """
    if (r0.m, r0.n, r0.p) != (r1.m, r1.n, r1.p):
        raise ValueError("mismatched representations")
    m, n, p = r0.m, r0.n, r0.p
    src = hom_basis_order(m, degree)
    dst = hom_basis_order(m, degree + 1)
    nn, N = n * n, len(src) * n * n
    units = np.eye(N, dtype=np.int64).reshape(N, len(src), n, n)
    zero, ident = xa.zeros(n, n), xa.eye(n)

    def block(top, corner, bottom):
        out = np.zeros((N, 2 * n, 2 * n), dtype=np.int64)
        out[:, :n, :n], out[:, :n, n:], out[:, n:, n:] = top, corner, bottom
        return out

    def z(base):
        return units[:, src.index(base)] if base in src else zero

    def mul(*mats):
        acc = mats[0]
        for b in mats[1:]:
            acc = (acc @ b) % p
        return acc

    lg = link_grading(m)
    chords = [block(a, z(f"a{j}"), b) for j, (a, b) in enumerate(zip(r0.A, r1.A), start=1)]
    Y = {l: block(zero, z(f"y{l}"), zero) for l in (1, 2)}
    X = {l: block(ident, z(f"x{l}"), ident) for l in (1, 2)}

    def delta(l, exp=1):
        return block(r0.value(f"t{l}", exp), zero, r1.value(f"t{l}", exp))

    def diff(w):
        if w == "b1":  # X1^-1 Delta1^-1 + P_m, with X^-1 = 2 - X as X - 1 squares to 0
            return mul(block(ident, -z("x1"), ident), delta(1, -1)) + pq_matrix("P", chords, p, 2 * n)
        if w == "b2":
            return mul(delta(2), X[2]) + pq_matrix("Q", chords, p, 2 * n)
        if w.startswith("a"):
            r, c = lg[w]
            a = chords[int(w[1:]) - 1]
            return mul(Y[r], a) - mul(a, Y[c])
        l = int(w[1:])
        if w.startswith("x"):
            r, c = lg[f"t{l}"]
            return mul(delta(l, -1), Y[r], delta(l), X[l]) - mul(X[l], Y[c])
        return mul(Y[l], Y[l])

    mat = xa.zeros(len(dst) * nn, N)
    for i, w in enumerate(dst):
        mat[i * nn:(i + 1) * nn] = (diff(w)[:, :n, n:] % p).reshape(N, nn).T
    return mat


def reduced_complex_matrix(rho: Representation, rho2: Representation) -> np.ndarray:
    """(u1, u2) -> (u1 A'_1 - A_1 u2, u2 A'_2 - A_2 u1, ...), vectorized."""
    n, p, m = rho.n, rho.p, rho.m
    n2 = n * n
    ident = xa.eye(n)
    mat = xa.zeros(m * n2, 2 * n2)
    for j in range(1, m + 1):
        row = (j - 1) * n2
        src, other = (0, 1) if j % 2 == 1 else (1, 0)
        # u_src A'_j - A_j u_other
        mat[row:row + n2, src * n2:(src + 1) * n2] = kron2d(ident, rho2.A[j - 1].T, p)
        blk = mat[row:row + n2, other * n2:(other + 1) * n2]
        mat[row:row + n2, other * n2:(other + 1) * n2] = (blk - kron2d(rho.A[j - 1], ident, p)) % p
    return mat


def _ext_map(F: SheafObject, G: SheafObject) -> np.ndarray:
    """The map (u1, u2) -> (u_hit A_k - A'_k u_other)_k on row-major vecs,
    with A from F, A' from G, and u_hit = u1 for k odd, u2 for k even.

    Ext^0(F, G) is its kernel and Ext^1(F, G) its cokernel.
    """
    if (F.m, F.n, F.p) != (G.m, G.n, G.p):
        raise ValueError("mismatched objects")
    n, p, m = F.n, F.p, F.m
    n2 = n * n
    ident = xa.eye(n)
    mat = xa.zeros(m * n2, 2 * n2)
    for k in range(1, m + 1):
        row = (k - 1) * n2
        hit, other = (0, 1) if k % 2 == 1 else (1, 0)
        mat[row:row + n2, hit * n2:(hit + 1) * n2] = kron2d(ident, F.A[k - 1].T, p)
        blk = mat[row:row + n2, other * n2:(other + 1) * n2]
        mat[row:row + n2, other * n2:(other + 1) * n2] = (blk - kron2d(G.A[k - 1], ident, p)) % p
    return mat
