"""Exact F_p linear algebra on numpy int64 matrices.

Matrices are numpy int64 arrays whose entries are residues in [0, p).  All
arithmetic is integer arithmetic reduced mod p; no floating point is used
anywhere.  Eliminations run on sparse {col: residue} rows of Python ints, so
no accumulation can overflow.

There is one elimination loop, the forward pass `_forward`.  `rank_rows` and
`rank` count its pivot rows and `det` reads its leads; `rref` adds one
back-substitution, run from the last pivot column down.  A matrix has
exactly one reduced row echelon form, so every basis derived from it is
canonical whatever order the rows are eliminated in: row spaces come out as
RREF rows and kernels in reduced column echelon order.

`LinearMap` is the kernel/cokernel type behind H^*, the closed form and Ext.
Its forward pass gives rank, nullity and corank; the kernel is
back-substituted from the kept pivot rows when first read, and the image
basis for coset representatives is built only when a class is first reduced.
`kernel_rows` gives the same kernel, with its free columns, straight from
sparse rows, for callers that write their systems row by row.

Supported moduli: p = 2 and odd primes below 2**15.
"""

from __future__ import annotations

import functools
import heapq

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
    """Kronecker product mod p of the last two axes, broadcast over the
    leading ones: a stack of m pairs gives the m products in one call.
    np.kron's int64 products, without its overhead."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :] % p
    return out.reshape(*out.shape[:-4], ra * rb, ca * cb)


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


def sparse_rows(m: np.ndarray, p: int) -> list[dict[int, int]]:
    """The rows of m as {col: residue} dicts, dropping zeros."""
    if not np.size(m):
        return [{} for _ in range(np.shape(m)[0])]  # distinct: callers consume rows
    a = np.mod(np.asarray(m, dtype=np.int64), p)
    rows = [{} for _ in range(a.shape[0])]
    nz_rows, nz_cols = np.nonzero(a)
    for i, c, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows[i][c] = v
    return rows


def _forward(rows, p: int, cols: int | None = None):
    """The one elimination loop, a forward pass: (pivot_rows, leads).

    Each {col: residue} row is reduced against the pivot rows found so far,
    in increasing order of pivot column, and what is left, normalised,
    becomes the pivot row of its lead column.  A pivot row keeps entries at
    later pivot columns, so a subtraction can fill in a pivot column the row
    did not hit before, and that column joins the queue.  Pivot rows have
    their lead at the smallest column, so the queue only grows upward and
    each pivot is applied at most once per row; a reduced row vanishes at
    every earlier lead column.  pivot_rows maps pivot column -> row; leads
    lists (lead column, lead value before normalising) for each row, in
    order, that did not reduce to zero.  The pass stops once all `cols`
    columns have a pivot.  The rows are consumed.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    leads = []
    for row in rows:
        if len(pivot_rows) == cols:
            break  # every column has a pivot: the remaining rows reduce to zero
        hits = [c for c in row if c in pivot_rows]
        heapq.heapify(hits)
        while hits:
            c = heapq.heappop(hits)
            f = row.get(c)
            if not f:
                continue
            for k, v in pivot_rows[c].items():
                old = row.get(k)
                x = ((old or 0) - f * v) % p
                if not x:
                    del row[k]  # f, v are nonzero mod a prime, so k was in row
                    continue
                row[k] = x
                if old is None and k in pivot_rows:
                    heapq.heappush(hits, k)
        if row:
            lead = min(row)
            leads.append((lead, row[lead]))
            inv = pow(row[lead], -1, p)
            pivot_rows[lead] = {c: v * inv % p for c, v in row.items()} if inv != 1 else row
    return pivot_rows, leads


def _back_substitute(pivot_rows: dict[int, dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Turn the forward pass's pivot rows into RREF rows, in place.

    Rows are reduced from the last pivot column down.  Every pivot row below
    is then already reduced and vanishes at every other pivot column, so a
    subtraction fills in no pivot column and each row's hits are fixed once
    read.
    """
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        for c in [c for c in row if c != lead and c in pivot_rows]:
            _sub_multiple(row, pivot_rows[c], row[c], p)
    return pivot_rows


def rank_rows(rows, p: int) -> int:
    """Rank of the matrix with the given {col: residue} rows, by one forward
    pass with no back-substitution and no dense R.  The rows are consumed."""
    return len(_forward(rows, p)[0])


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, by the forward pass and one back-substitution.
    Returns (R, pivot column list)."""
    rows, cols = np.shape(m)
    pivot_rows = _back_substitute(_forward(sparse_rows(m, p), p, cols)[0], p)
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
    return len(_forward(sparse_rows(m, p), p, np.shape(m)[1])[0])


def _kernel(pivot_rows: dict[int, dict[int, int]], cols: int, p: int):
    """(kernel basis, free columns) from a forward pass's pivot rows, which
    are back-substituted in place.  Column i of the basis is the unit at
    free[i] minus the RREF rows' entries at free[i], one at each pivot row;
    an RREF row's entries other than its lead lie at later free columns, so
    free[i] is column i's last nonzero row (reduced column echelon order)."""
    pivot_rows = _back_substitute(pivot_rows, p)
    free = [c for c in range(cols) if c not in pivot_rows]
    n = len(free)
    index = {c: i for i, c in enumerate(free)}
    flat, vals = [c * n + i for i, c in enumerate(free)], [1] * n
    for c, row in pivot_rows.items():
        flat += [c * n + index[j] for j in row if j != c]
        vals += [p - v for j, v in row.items() if j != c]
    k = zeros(cols, n)
    k.ravel()[flat] = vals
    return k, free


def kernel_rows(rows, cols: int, p: int) -> tuple[np.ndarray, list[int]]:
    """(kernel basis, free columns) of the matrix with `cols` columns and the
    given {col: residue} rows, by one forward pass in the order given and no
    dense system.  The basis is `LinearMap(a, p).kernel` of that matrix a,
    whatever the row order.  The rows are consumed."""
    return _kernel(_forward(rows, p, cols)[0], cols, p)


def rank_kernel(m: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Rank and a kernel basis (columns, reduced column echelon order)."""
    f = LinearMap(m, p)
    return f.rank, f.kernel


def det(m: np.ndarray, p: int) -> int:
    """Determinant mod p.  Each reduced row is its original row minus earlier
    rows and vanishes at every earlier lead column, so det is the product of
    the lead values times the sign of the permutation sending each row to its
    lead column (0 if a row vanishes)."""
    if m.shape[0] != m.shape[1]:
        raise ValueError("determinant requires a square matrix")
    _, leads = _forward(sparse_rows(m, p), p, m.shape[1])
    if len(leads) < m.shape[0]:
        return 0
    d = 1
    for _, v in leads:
        d = d * v % p
    lead_cols = [c for c, _ in leads]
    inversions = sum(a > b for i, a in enumerate(lead_cols) for b in lead_cols[i + 1:])
    return (-d) % p if inversions % 2 else d


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


class LinearMap:
    """The F_p map v -> a v, eliminated once.

    One forward pass of `a` gives rank, nullity and corank; its pivot rows
    stay sparse and are back-substituted when `kernel` is first read.  The
    canonical (RREF) basis of the image is built on the first `reduce` or
    `classes`, so a caller that reads only dimensions pays one forward pass
    and builds no dense matrix.
    """

    def __init__(self, a: np.ndarray, p: int):
        self.a, self.p = a, p
        rows, cols = a.shape
        self._pivot_rows, _ = _forward(sparse_rows(a, p), p, cols)
        self.rank = len(self._pivot_rows)
        self.nullity, self.corank = cols - self.rank, rows - self.rank

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """Kernel basis as columns, one per free column, in reduced column echelon order."""
        return _kernel(self._pivot_rows, self.a.shape[1], self.p)[0]

    @functools.cached_property
    def _image(self) -> tuple[np.ndarray, list[int]]:
        return row_space(self.a.T, self.p)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v (of each row, for a matrix) modulo the
        image: RREF image rows vanish at each other's pivots, so one product
        (at most `rank` terms below p^2 each) clears every pivot entry."""
        basis, pivots = self._image
        w = np.mod(np.asarray(v, dtype=np.int64), self.p)
        return (w - w[..., pivots] @ basis) % self.p

    def classes(self, vectors: np.ndarray) -> np.ndarray:
        """Canonical (RREF) basis rows of span(rows of `vectors`) modulo the image.

        Reduction is linear, so these rows are canonical representatives again.
        """
        return row_space(self.reduce(vectors), self.p)[0]


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
