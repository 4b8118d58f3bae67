"""Reference: the sparse-row Gauss-Jordan loop that `exactalg.rref`, `det` and
`LinearMap` ran before the forward pass became the one elimination loop, kept
here unchanged as a test oracle for RREF, pivots, ranks and kernels."""

import numpy as np

from legtorus.exactalg import sparse_rows


def _sub_multiple(dst: dict, src: dict, f: int, p: int) -> None:
    """dst -= f * src on sparse rows, dropping entries that become zero."""
    for c, v in src.items():
        x = (dst.get(c, 0) - f * v) % p
        if x:
            dst[c] = x
        else:
            # f, v are nonzero residues mod a prime, so x == 0 only if c was in dst
            del dst[c]


def _eliminate(m: np.ndarray, p: int):
    """The Gauss-Jordan loop behind `rref` and `det`: (pivot_rows, leads).

    Each row is read as {col: residue}, reduced against the pivot rows found
    so far and normalised; its pivot column is then cleared out of the
    earlier pivot rows, so every pivot row stays fully reduced.  pivot_rows
    maps pivot column -> row; leads lists (lead column, lead value before
    normalising) for each row, in order, that did not reduce to zero.
    """
    cols = np.shape(m)[1]
    pivot_rows: dict[int, dict[int, int]] = {}
    leads = []
    for row in sparse_rows(m, p):
        if len(pivot_rows) == cols:
            break  # every column has a pivot: the remaining rows reduce to zero
        # pivot rows vanish at every other pivot column, so the hits are fixed
        for c in [c for c in row if c in pivot_rows]:
            _sub_multiple(row, pivot_rows[c], row[c], p)
        if not row:
            continue
        lead = min(row)
        leads.append((lead, row[lead]))
        inv = pow(row[lead], -1, p)
        if inv != 1:
            row = {c: v * inv % p for c, v in row.items()}
        for prow in pivot_rows.values():
            f = prow.get(lead)
            if f:
                _sub_multiple(prow, row, f, p)
        pivot_rows[lead] = row
    return pivot_rows, leads


def gauss_jordan_rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form. Returns (R, pivot column list)."""
    rows, cols = np.shape(m)
    pivot_rows, _ = _eliminate(m, p)
    pivots = sorted(pivot_rows)
    flat, vals = [], []
    for i, c in enumerate(pivots):
        prow = pivot_rows[c]
        flat += [i * cols + k for k in prow]
        vals += prow.values()
    r = np.zeros((rows, cols), dtype=np.int64)
    r.ravel()[flat] = vals
    return r, pivots
