"""Exact F_p linear algebra on numpy int64 matrices.

Matrices are numpy int64 arrays whose entries are residues in [0, p).  All
arithmetic is integer arithmetic reduced mod p; no floating point is used
anywhere.  Every elimination goes through `rref`, a sparse-row kernel that
works on Python ints, so no accumulation can overflow.  A matrix has exactly
one reduced row echelon form, so every basis derived from it is canonical
whatever order the kernel eliminates in: row spaces come out as RREF rows
and kernels in reduced column echelon order.

Supported moduli: p = 2 and odd primes below 2**15.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 15


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_field(p: int) -> int:
    """Validate a modulus: 2 or an odd prime < 2**15."""
    if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
        raise ValueError(f"modulus {p!r} is not prime")
    p = int(p)
    if p != 2 and (p % 2 == 0 or p >= MAX_PRIME):
        raise ValueError(f"modulus {p} out of supported range")
    return p


def mat(rows, p: int) -> np.ndarray:
    """Build a matrix from nested lists, reducing entries mod p."""
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def kron(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.kron(a, b) % p


def rand_matrix(rng, r: int, c: int, p: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(c)] for _ in range(r)],
                    dtype=np.int64)


def _sub_multiple(dst: dict, src: dict, f: int, p: int) -> None:
    """dst -= f * src on sparse rows, dropping entries that become zero."""
    for c, v in src.items():
        x = (dst.get(c, 0) - f * v) % p
        if x:
            dst[c] = x
        else:
            # f, v are nonzero residues mod a prime, so x == 0 only if c was in dst
            del dst[c]


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form. Returns (R, pivot column list).

    Each row is read as {col: residue}, reduced against the pivot rows found
    so far and normalised; its pivot column is then cleared out of the
    earlier pivot rows, so every pivot row stays fully reduced.
    """
    a = np.mod(np.asarray(m, dtype=np.int64), p)
    rows, cols = a.shape
    sparse = [{} for _ in range(rows)]
    nz_rows, nz_cols = np.nonzero(a)
    for i, c, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        sparse[i][c] = v
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in sparse:
        if len(pivot_rows) == cols:
            break  # every column has a pivot: the remaining rows reduce to zero
        # pivot rows vanish at every other pivot column, so the hits are fixed
        for c in [c for c in row if c in pivot_rows]:
            _sub_multiple(row, pivot_rows[c], row[c], p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        if inv != 1:
            row = {c: v * inv % p for c, v in row.items()}
        for prow in pivot_rows.values():
            f = prow.get(lead)
            if f:
                _sub_multiple(prow, row, f, p)
        pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    flat, vals = [], []
    for i, c in enumerate(pivots):
        prow = pivot_rows[c]
        flat += [i * cols + k for k in prow]
        vals += prow.values()
    r = np.zeros((rows, cols), dtype=np.int64)
    r.ravel()[flat] = vals
    return r, pivots


def rank(m: np.ndarray, p: int) -> int:
    if m.size == 0:
        return 0
    return len(rref(m, p)[1])


def rank_kernel(m: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Rank and a kernel basis (columns, reduced column echelon order)."""
    rows, cols = m.shape
    r, pivots = rref(m, p) if m.size else (m.reshape(0, cols), [])
    rk = len(pivots)
    free = [c for c in range(cols) if c not in pivots]
    k = zeros(cols, len(free))
    for idx, fc in enumerate(free):
        k[fc, idx] = 1
        for row, pc in enumerate(pivots):
            k[pc, idx] = (-int(r[row, fc])) % p
    return rk, k


def det(m: np.ndarray, p: int) -> int:
    """Determinant mod p (fraction-free row elimination)."""
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


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """Solve A X = B exactly; None iff inconsistent. Free variables are 0."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch in solve")
    cols = a.shape[1]
    aug = np.hstack([a, b]) % p
    r, pivots = rref(aug, p)
    if any(pc >= cols for pc in pivots):
        return None
    x = zeros(cols, b.shape[1])
    for row, pc in enumerate(pivots):
        x[pc] = r[row, cols:]
    return x


def inverse(m: np.ndarray, p: int):
    """Inverse matrix, or None when singular."""
    if m.shape[0] != m.shape[1]:
        raise ValueError("inverse requires a square matrix")
    # A X = I is consistent exactly when the square A is invertible
    return solve(m, eye(m.shape[0]), p)


def row_space(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Canonical (RREF) basis of the row space: (basis rows, pivot cols)."""
    if m.size == 0:
        return m.reshape(0, m.shape[1] if m.ndim == 2 else 0), []
    r, pivots = rref(m, p)
    return r[: len(pivots)], pivots


def coset_reduce(v: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Canonical representative of v modulo the row space of `basis` (RREF)."""
    w = np.mod(np.array(v, dtype=np.int64), p)
    for row, pc in enumerate(pivots):
        c = int(w[pc])
        if c:
            w = (w - c * basis[row]) % p
    return w


def left_inverse(basis_cols: np.ndarray, p: int) -> np.ndarray:
    """L with L @ basis = I for a full-column-rank basis matrix."""
    d, k = basis_cols.shape
    _, pivots = rref(basis_cols.T, p)
    # pivot columns of the transpose are the coordinate rows that determine x
    sq = basis_cols[pivots, :]
    inv = inverse(sq, p)
    if inv is None:
        raise ValueError("basis columns are dependent")
    li = zeros(k, d)
    li[:, pivots] = inv
    return li
