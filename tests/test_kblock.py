"""The K-block evaluator of `tests/kblock_reference.py` against `ainfty.mu_k`,
which twists the symbolic (k+1)-copy DGA."""

import itertools
import random
from pathlib import Path

import kblock_reference as kb
from legtorus import exactalg as xa
from legtorus.ainfty import HomElement, hom_basis_order, mu_k, random_rep

SRC = Path(__file__).resolve().parents[1] / "src"


def rand_homog(m, n, p, deg, rng):
    return HomElement(n, p, deg,
                      {b: xa.rand_matrix(rng, n, n, p) for b in hom_basis_order(m, deg)})


def draw_degrees(k, rng):
    """Argument degrees in 0..2 whose mu_k lands in a degree Hom has (0..2)."""
    while True:
        degs = [rng.randint(0, 2) for _ in range(k)]
        if 0 <= sum(degs) + 2 - k <= 2:
            return degs


def test_kblock_matches_mu_k_up_to_arity_3():
    """200 random cases, k <= 3, m <= 5, n <= 3, p in {2, 3, 5, 7}.  Both
    mutation controls must disagree with mu_k somewhere: dropping d(b)'s
    Y B + B Y terms, and dropping the sign (-1)^sigma."""
    rng = random.Random(41)
    nonzero = caught_b = caught_sign = 0
    for _ in range(200):
        k, m, n, p = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 3), rng.choice([2, 3, 5, 7])
        rhos = [random_rep(m, n, p, rng) for _ in range(k + 1)]
        degs = draw_degrees(k, rng)
        args = [rand_homog(m, n, p, d, rng) for d in degs]
        want = mu_k(rhos, args)
        assert kb.mu_k(rhos, args) == want, (k, m, n, p, degs)
        nonzero += not want.is_zero()
        caught_b += kb.mu_k(rhos, args, b_terms=False) != want
        caught_sign += kb.mu_k(rhos, args, signed=False) != want
    assert nonzero >= 100, nonzero
    assert caught_b and caught_sign, (caught_b, caught_sign)


def test_kblock_matches_mu_4():
    """mu_4 on the copy route is usable at m <= 2.  Degrees (1, 1, 1, 1) reach
    b1 through the x-letters of X_1^-1; the permutations of (0, 1, 1, 1) land
    in degree 1."""
    rng = random.Random(42)
    nonzero = 0
    degrees = [(1, 1, 1, 1), *sorted(set(itertools.permutations((0, 1, 1, 1))))]
    for m, p, degs in itertools.product((1, 2), (2, 3, 5, 7), degrees):
        n = rng.randint(1, 2)
        rhos = [random_rep(m, n, p, rng) for _ in range(5)]
        args = [rand_homog(m, n, p, d, rng) for d in degs]
        want = mu_k(rhos, args)
        assert kb.mu_k(rhos, args) == want, (m, n, p, degs)
        nonzero += not want.is_zero()
    assert nonzero, "every mu_4 case was zero"


def test_src_does_not_import_the_oracle():
    for path in SRC.rglob("*.py"):
        assert "kblock_reference" not in path.read_text(), path
