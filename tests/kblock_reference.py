"""Reference: mu_k by K-block evaluation, with no copy DGA and no twist.

mu_k(args) on Hom(rho_{k-1}, rho_k) x ... x Hom(rho_0, rho_1) is read off
the (k+1)-copy differential.  Instead of expanding that differential
symbolically and twisting its staircase words, evaluate the K-copy matrix
formulas (K = k+1) on K x K block upper-bidiagonal matrices with n x n
blocks:

- the diagonal block i of a base generator is rho_i's value there: A_j for
  the chord a_j, 0 for b_l and y_l, the identity for x_l, and T_l in the
  diagonal matrix Delta_l;
- the superdiagonal block (t, t+1) is args[k-1-t]'s coefficient on that
  base (0 when it has none).

An off-diagonal letter z^{ij} with j > i + 1 evaluates to 0, so the (1, K)
corner of d(W) sums exactly the staircase words z^{12} ... z^{k,k+1}, each
with its diagonal letters replaced by their augmentation values; that corner
times (-1)^sigma is mu_k's coefficient on the base w.  The formulas are
those of the K-copy (`freedga.kcopy_dga`):

    d(B_1) = X_1^-1 Delta_1^-1 + P_m(A) + Y_r B_1 + B_1 Y_c
    d(B_2) = Delta_2 X_2 + Q_m(A) + Y_r B_2 + B_2 Y_c
    d(A_j) = Y_r A_j - A_j Y_c
    d(X_l) = Delta_l^-1 Y_r Delta_l X_l - X_l Y_c
    d(Y_l) = Y_l^2

with (r, c) the link grading of each generator (of t_l for X_l), and
X_l^-1 the exact block inverse of the unipotent X_l.  Each product is reduced
mod p before the next one.  This is a test oracle for `ainfty.mu_k`; nothing
under `src/` imports it.
"""

from __future__ import annotations

import numpy as np

from legtorus.ainfty import HomElement, hom_basis_order
from legtorus.freedga import link_grading


def sigma(degs) -> int:
    """k(k-1)/2 + sum_{s<t} d_s d_t + d_2 + d_4 + ..., as in `ainfty.mu_k`."""
    k = len(degs)
    out = k * (k - 1) // 2
    out += sum(degs[s] * degs[t] for s in range(k) for t in range(s + 1, k))
    return out + sum(degs[s] for s in range(1, k, 2))


def _continuant(mats, sign, p, n):
    """P(M_1..M_m) for sign = 1; Q_m, the same over the reversed letters
    with each product negated, for sign = -1."""
    prev, cur = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    for a in (mats if sign == 1 else mats[::-1]):
        prev, cur = cur, (sign * (cur @ a % p) + prev) % p
    return cur


def corners(rhos, args, b_terms: bool = True) -> dict[str, np.ndarray]:
    """The (1, K) corner of d(W) for every base generator w, unsigned.
    b_terms=False drops d(B_l)'s Y_r B_l + B_l Y_c (a mutation control)."""
    k, K = len(args), len(rhos)
    r0 = rhos[0]
    m, n, p = r0.m, r0.n, r0.p
    N = K * n
    lg = link_grading(m)

    def block(diag, base=None):
        # diag(i) on the diagonal; the arguments' coefficients on `base` above it
        out = np.zeros((N, N), dtype=np.int64)
        for i in range(K):
            out[i * n:(i + 1) * n, i * n:(i + 1) * n] = diag(i)
        for t in range(k if base else 0):
            out[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n] = args[k - 1 - t].coeff(base)
        return out % p

    def mul(*mats):
        out = mats[0]
        for b in mats[1:]:
            out = out @ b % p
        return out

    zero, one = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    A = [block(lambda i, j=j: rhos[i].A[j - 1], f"a{j}") for j in range(1, m + 1)]
    B = {l: block(lambda i: zero, f"b{l}") for l in (1, 2)}
    X = {l: block(lambda i: one, f"x{l}") for l in (1, 2)}
    Y = {l: block(lambda i: zero, f"y{l}") for l in (1, 2)}
    delta = {(l, e): block(lambda i, l=l, e=e: rhos[i].value(f"t{l}", e))
             for l in (1, 2) for e in (1, -1)}
    # X = 1 + U with U nilpotent: X^-1 = sum_{e < K} (-U)^e, exactly
    x_inv = {}
    for l in (1, 2):
        u, power, x_inv[l] = (X[l] - np.eye(N, dtype=np.int64)) % p, np.eye(N, dtype=np.int64), 0
        for e in range(K):
            x_inv[l] = (x_inv[l] + (-1) ** e * power) % p
            power = mul(power, u)

    d = {}
    for l, top, sign in ((1, mul(x_inv[1], delta[1, -1]), 1), (2, mul(delta[2, 1], X[2]), -1)):
        r, c = lg[f"b{l}"]
        d[f"b{l}"] = (top + _continuant(A, sign, p, N)) % p
        if b_terms:
            d[f"b{l}"] = (d[f"b{l}"] + mul(Y[r], B[l]) + mul(B[l], Y[c])) % p
    for j in range(1, m + 1):
        r, c = lg[f"a{j}"]
        d[f"a{j}"] = (mul(Y[r], A[j - 1]) - mul(A[j - 1], Y[c])) % p
    for l in (1, 2):
        r, c = lg[f"t{l}"]
        d[f"x{l}"] = (mul(delta[l, -1], Y[r], delta[l, 1], X[l]) - mul(X[l], Y[c])) % p
        d[f"y{l}"] = mul(Y[l], Y[l])
    return {w: v[:n, (K - 1) * n:] for w, v in d.items()}


def mu_k(rhos, args, b_terms: bool = True, signed: bool = True) -> HomElement:
    """mu_k(args) by K-block evaluation.  b_terms=False and signed=False are
    mutation controls: they drop d(B_l)'s Y B + B Y terms and (-1)^sigma."""
    k = len(args)
    if len(rhos) != k + 1:
        raise ValueError("need k+1 representations for mu_k")
    n, p = rhos[0].n, rhos[0].p
    degs = [a.degree for a in args]
    sign = (-1) ** sigma(degs) if signed else 1
    out_deg = sum(degs) + 2 - k
    values = corners(rhos, args, b_terms)
    coeffs = {w: sign * values[w] % p for w in hom_basis_order(rhos[0].m, out_deg)}
    return HomElement(n, p, out_deg, coeffs)
