"""The batched twist and mu_k against the word-by-word loops of
`tests/twist_reference.py`."""

import random

import numpy as np
import pytest

import twist_reference as ref
from legtorus import exactalg as xa
from legtorus.ainfty import (HomElement, Representation, TwistedCopy, hom_basis_order, mu_k,
                             random_rep)
from legtorus.freedga import pq_matrix, staircase_arrays

PRIMES = (2, 3, 5, 7, 32749)


def all_bases(m):
    return [b for d in (2, 1, 0) for b in hom_basis_order(m, d)]


def rep_with_zero_chord(m, n, p, rng):
    """A representation whose chord a_j is 0 for one random j (m > 1)."""
    j = rng.randrange(m)
    while True:
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        mats[j] = xa.zeros(n, n)
        if xa.det(pq_matrix("P", mats, p), p):
            return Representation(m, n, p, mats)


def partial_homog(m, n, p, deg, rng):
    """A Hom element of degree deg on a random subset of its bases."""
    bases = [b for b in hom_basis_order(m, deg) if rng.random() < 0.6]
    return HomElement(n, p, deg, {b: xa.rand_matrix(rng, n, n, p) for b in bases})


def draw_degrees(k, rng):
    """Argument degrees in 0..2, mostly 1, whose mu_k lands in degree 0..2."""
    while True:
        degs = [rng.choice((0, 1, 1, 1, 2)) for _ in range(k)]
        if 0 <= sum(degs) + 2 - k <= 2:
            return degs


def same_terms(got, want):
    """TwistTerms against a reference list: same count, bases and coefficients."""
    return len(got) == len(want) and all(
        bg == bw and len(cg) == len(cw) and all(np.array_equal(x, y) for x, y in zip(cg, cw))
        for (cg, bg), (cw, bw) in zip(got, want))


def check_case(rhos, args):
    tw = TwistedCopy(tuple(rhos))
    for base in all_bases(tw.m):
        got, want = tw.top_diff(base), ref.top_diff(tw, base)
        assert same_terms(got, want), base
    out = mu_k(rhos, args)
    assert out == ref.mu_k(rhos, args)
    return out


def test_batched_twist_matches_the_word_loops():
    """240 seeded cases: K = 2..4, m <= 6, n <= 3, p in {2, 3, 5, 7, 32749};
    every fourth with a zero chord, arguments on random subsets of their
    bases.  Every base's terms (count, bases and coefficients) and mu_k's
    output must equal the per-word loops'."""
    rng = random.Random(32)
    nonzero = dropped = 0
    for case in range(240):
        K, m = rng.randint(2, 4), rng.randint(1, 6)
        n, p = rng.randint(1, 3), rng.choice(PRIMES)
        if case % 4 == 0 and m > 1:
            rhos = [rep_with_zero_chord(m, n, p, rng) for _ in range(K)]
        else:
            rhos = [random_rep(m, n, p, rng) for _ in range(K)]
        args = [partial_homog(m, n, p, d, rng) for d in draw_degrees(K - 1, rng)]
        out = check_case(rhos, args)
        nonzero += not out.is_zero()
        tw = TwistedCopy(tuple(rhos))
        dropped += any(len(tw.top_diff(b)) < len(staircase_arrays(tw.dga, K, b).coeffs)
                       for b in all_bases(m))
    # the cases must exercise both the sum and the every-copy-nonzero mask
    assert nonzero > 100 and dropped > 40, (nonzero, dropped)


@pytest.mark.parametrize("K", [2, 3, 4])
def test_large_prime_keeps_int64_residues(K):
    """n = 4 at p = 32749, where a product chain left unreduced would
    overflow int64: the terms and mu_k stay residues in [0, p) and equal
    the reference's."""
    rng = random.Random(40 + K)
    m, n, p = 5, 4, 32749
    rhos = [random_rep(m, n, p, rng) for _ in range(K)]
    args = [partial_homog(m, n, p, 1, rng) for _ in range(K - 1)]
    out = check_case(rhos, args)
    assert not out.is_zero()
    for c in out.coeffs.values():
        assert c.dtype == np.int64 and c.min() >= 0 and c.max() < p
    terms = TwistedCopy(tuple(rhos)).top_diff("b1")
    assert terms.coeffs.dtype == np.int64
    assert terms.coeffs.min() >= 0 and terms.coeffs.max() < p
