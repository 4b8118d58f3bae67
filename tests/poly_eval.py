"""Word polynomials evaluated on matrices, for tests.

A representation sends each generator of Lambda_m to its matrix
(`Representation.value`), and a tuple is one exactly when every differential
of the link DGA evaluates to 0 on it.
"""

from legtorus import exactalg as xa
from legtorus.freedga import FreePoly, lambda_dga


def eval_matrix_poly(f: FreePoly, eps, n: int, p: int):
    """Sum over the words of f of the product of eps(name, exp), mod p."""
    out = xa.zeros(n, n)
    for w, c in f.terms.items():
        acc = xa.eye(n)
        for name, exp in w:
            acc = (acc @ eps(name, exp)) % p
        out = (out + c * acc) % p
    return out


def eval_poly(rho, f: FreePoly):
    """f evaluated on rho, an algebra map on Lambda_m's generators."""
    return eval_matrix_poly(f, rho.value, rho.n, rho.p)


def check_representation(rho) -> bool:
    dga = lambda_dga(rho.m, rho.p)
    return all(not eval_poly(rho, df).any() for df in dga.diff.values())
