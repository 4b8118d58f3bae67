"""Reference: the twist and mu_k one staircase word at a time.

`expand_twist` and `mu_k` are the per-word loops that `ainfty._expand_twist`
and `ainfty.mu_k` replace with batched products over stacked arrays.  They
read the split words of `freedga.staircase_words` (not its index arrays) and
each letter's value through `Representation.value` (not the letter stack),
so the batched path is checked against an independent expansion of the same
words.  `as_terms` stacks a list of (coeffs, bases) terms into the
`TwistTerms` that `TwistedCopy.top_diff` returns.  This is a test oracle;
nothing under `src/` imports it.
"""

import numpy as np

from legtorus import exactalg as xa
from legtorus.ainfty import HomElement, TwistedCopy, TwistTerms, hom_basis_order
from legtorus.freedga import staircase_words


def expand_twist(words, rhos, n: int, p: int):
    """The staircase term of phi_eps(w) for each split staircase word w.

    For a word (coeff, runs, bases) from `staircase_words`, coefficient l is
    the product of rhos[l].value over runs[l] (times coeff for l = 0).
    Returns (coeffs, bases) per term, the coefficients interleaved left to
    right around the chain letters; a term with a zero coefficient is
    dropped.
    """
    ident = xa.eye(n)
    terms = []
    for c, runs, bases in words:
        coeffs = []
        for rho, run in zip(rhos, runs):
            acc = ident if coeffs else c * ident
            for name, exp in run:
                acc = (acc @ rho.value(name, exp)) % p
            coeffs.append(acc)
        if all(cf.any() for cf in coeffs):
            terms.append((coeffs, bases))
    return terms


def top_diff(tw: TwistedCopy, base: str):
    """`TwistedCopy.top_diff` as a list of (coeffs, bases), word by word."""
    return expand_twist(staircase_words(tw.dga, tw.K, base), tw.rhos, tw.n, tw.p)


def as_terms(pairs, K: int, n: int) -> TwistTerms:
    """A list of (coeffs, bases) terms, K coefficients each, as TwistTerms."""
    names = tuple(dict.fromkeys(b for _, bases in pairs for b in bases))
    coeffs = np.array([np.stack(cs) for cs, _ in pairs], dtype=np.int64)
    ids = np.array([[names.index(b) for b in bases] for _, bases in pairs], dtype=np.int64)
    return TwistTerms(coeffs.reshape(len(pairs), K, n, n), ids.reshape(len(pairs), K - 1), names)


def mu_k(rhos, args) -> HomElement:
    """mu_k with one matrix product chain per staircase term."""
    k = len(args)
    if len(rhos) != k + 1:
        raise ValueError("need k+1 representations for mu_k")
    tw = TwistedCopy(tuple(rhos))
    n, p = tw.n, tw.p
    for a in args:
        if (a.n, a.p) != (n, p):
            raise ValueError("mismatched Hom element")
    degs = [a.degree for a in args]
    sigma = k * (k - 1) // 2
    for s in range(k):
        for t in range(s + 1, k):
            sigma += degs[s] * degs[t]
    sigma += sum(degs[s] for s in range(1, k, 2))  # slots 2, 4, ... (1-indexed)
    sign = (-1) ** sigma
    out_deg = sum(degs) + 2 - k
    coeffs: dict[str, np.ndarray] = {}
    for w in hom_basis_order(tw.m, out_deg):
        acc = xa.zeros(n, n)
        for cs, bases in top_diff(tw, w):
            # letters are left-to-right z^{1,2} .. z^{k,k+1}; slot s counts
            # from the right, so left-to-right position t pairs with args[k-1-t]
            val = cs[0]
            for t, base in enumerate(bases):
                a = args[k - 1 - t].coeffs.get(base)
                if a is None:
                    break
                val = (val @ a @ cs[t + 1]) % p
            else:
                acc = (acc + val) % p
        if acc.any():
            coeffs[w] = (sign * acc) % p
    return HomElement(n, p, out_deg, coeffs)
