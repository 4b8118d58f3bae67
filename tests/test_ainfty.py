import itertools
import random
import time

import numpy as np
import pytest

from legtorus import ainfty, freedga
from legtorus import exactalg as xa
from legtorus.ainfty import (BudgetExceeded, HomElement, Representation,
                             TwistedCopy, enumerate_reps, hom_basis_order,
                             hom_cohomology, is_isomorphic, mu1, mu1_matrix,
                             mu2, mu_k, random_rep, unit)
from legtorus.freedga import (DGA, FreePoly, build_lambda_dga, kcopy_dga,
                              lambda_copy_dga, lambda_dga, link_grading,
                              pq_matrix, staircase_words)
from legtorus.torusrep import cohomology_closed, mu1_closed
from poly_eval import check_representation, eval_matrix_poly, eval_poly
from twist_reference import as_terms


def all_bases(m):
    """Every base generator, b1 b2, a1..am x1 x2, then y1 y2."""
    return [b for d in (2, 1, 0) for b in hom_basis_order(m, d)]


def rand_homog(m, n, p, deg, rng):
    return HomElement(n, p, deg,
                      {b: xa.rand_matrix(rng, n, n, p) for b in hom_basis_order(m, deg)})


# -- representations ---------------------------------------------------------

def test_eval_poly_unit_and_db1():
    r = Representation(2, 1, 2, [np.array([[0]]), np.array([[0]])])
    from legtorus.freedga import FreePoly
    assert eval_poly(r, FreePoly.one(2)).tolist() == [[1]]
    dga = build_lambda_dga(2, 2)
    # T1 = -P_2(0,0)^{-1} = 1 over F_2, so eval(d b1) = 1 + 1 + 0 = 0
    assert r.T1.tolist() == [[1]]
    assert not eval_poly(r, dga.diff["b1"]).any()
    assert not eval_poly(r, dga.diff["b2"]).any()


def test_eval_matches_matrix_recurrence():
    from legtorus.freedga import pq_polynomial
    rng = random.Random(4)
    for _ in range(20):
        m, n, p = rng.choice([1, 2, 3]), rng.choice([1, 2]), 3
        r = random_rep(m, n, p, rng)
        poly = pq_polynomial(m, "P", p)
        assert np.array_equal(eval_poly(r, poly), pq_matrix("P", r.A, p, n))


def test_representation_annihilates_differential():
    rng = random.Random(5)
    for _ in range(15):
        r = random_rep(rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3, 5]), rng)
        assert check_representation(r)


def test_singular_tuple_rejected():
    # P_1 = a_1 = 0 is not invertible
    with pytest.raises(ValueError):
        Representation(1, 1, 2, [np.array([[0]])])


# -- enumeration -------------------------------------------------------------

def brute_objects_m2_n1(p):
    """Oracle: brute force over all pairs checking 1 + a1 a2 invertible."""
    return sorted((a1, a2) for a1 in range(p) for a2 in range(p)
                  if (1 + a1 * a2) % p != 0)


def test_enumerate_m2_n1_f2():
    got = [(int(r.A[0][0, 0]), int(r.A[1][0, 0])) for r in enumerate_reps(2, 1, 2)]
    assert got == brute_objects_m2_n1(2) == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_m1_n1_f3():
    got = [int(r.A[0][0, 0]) for r in enumerate_reps(1, 1, 3)]
    assert got == [1, 2]


def test_enumerate_budget_refusal():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_reps(3, 2, 5, budget=100)
    assert exc.value.required == 5 ** 12


# -- twisting ----------------------------------------------------------------
#
# The library twists only staircase words, each into its one staircase term.
# The helpers below are the full twist it replaced: every diagonal chord is
# expanded into both "letter" and "eps", so they serve as references for the
# twisted differential of a whole DGA and for d_eps^2 = 0.

class PureAugmentation:
    """eps for the K-copy of Lambda_m given representations (rho_0..rho_{K-1});
    copy i carries rho_{i-1}, off-diagonal chords and Morse generators go to 0.
    It reads each letter's copy from copy_info itself, not from the library's
    split (`staircase_words`), so the branching twist below stays independent."""

    def __init__(self, copydga: DGA, rhos):
        self.info = copydga.copy_info
        self.rhos = rhos
        self.n = rhos[0].n

    def __call__(self, name, exp=1):
        kind = self.info[name]
        if kind[0] == "t":
            _, base, _, i = kind
            return self.rhos[i - 1].value(base, exp)
        if kind[0] == "chord":
            _, base, i, j = kind
            if i == j:
                return self.rhos[i - 1].value(base, exp)
        return xa.zeros(self.n, self.n)  # off-diagonal chords, Morse x/y


def twist_diff(dga: DGA, eps) -> dict[str, list]:
    """Twisted differential of a DGA by a matrix augmentation.

    eps(name, exp) must return the augmentation matrix for every generator
    (invertible generators included).  Result: for each non-invertible
    generator, a list of terms (coeffs, letters) with len(coeffs) ==
    len(letters) + 1 and matrix coefficients interleaved left to right.
    Raises if eps fails eps(d(g)) = 0 for some generator.
    """
    n = eps(next(iter(dga.gens)), 1).shape[0]
    p = dga.p
    for name, f in dga.diff.items():
        val = eval_matrix_poly(f, eps, n, p)
        if val.any():
            raise ValueError(f"not an augmentation: eps(d({name})) != 0")
    return {name: branching_expand_twist(dga, dga.diff[name], eps, n, p)
            for name, g in dga.gens.items() if not g.invertible}


def branching_expand_twist(dga: DGA, f: FreePoly, eps, n: int, p: int):
    """phi_eps applied to f: letters become (letter + eps) for chords and
    eps values for invertible generators; returns interleaved matrix terms.

    Scalar terms must cancel (the twisted differential is augmented), so they
    are summed and checked rather than returned.
    """
    ident = xa.eye(n)
    terms = []
    constant = xa.zeros(n, n)
    for w, c in f.terms.items():
        partial = [([(c % p) * ident % p], [])]
        for name, exp in w:
            g = dga.gens[name]
            if g.invertible:
                val = eps(name, exp)
                for cs, _ in partial:
                    cs[-1] = (cs[-1] @ val) % p
            else:
                const = eps(name, exp)
                new = []
                for cs, ls in partial:
                    new.append((cs + [ident.copy()], ls + [name]))
                    if const.any():
                        cs2 = list(cs)
                        cs2[-1] = (cs2[-1] @ const) % p
                        new.append((cs2, list(ls)))
                partial = new
        for cs, ls in partial:
            if not ls:
                constant = (constant + cs[0]) % p
            elif all(m_.any() for m_ in cs):
                terms.append((cs, ls))
    if constant.any():
        raise AssertionError("twisted differential has a constant term")
    return terms


def check_twisted_d_squared(rhos) -> bool:
    """Symbolic check that the pure-augmentation twist squares to zero.

    Matrix-coefficient terms cannot be added slotwise, so sums are expanded
    in the basis of elementary-matrix index words: a term
    (C_r, l_r, ..., l_1, C_0) contributes C_r[a_r, b_r] ... C_0[a_0, b_0] on
    the key (letters, (a_r, b_r, ..., a_0, b_0)).
    """
    tw = TwistedCopy(tuple(rhos))
    dga, n, p = tw.dga, tw.n, tw.p
    eps = PureAugmentation(dga, tw.rhos)
    diffs = {name: branching_expand_twist(dga, dga.diff[name], eps, n, p)
             for name, g in dga.gens.items() if not g.invertible}

    def indexed(terms, acc, scale=1):
        for coeffs, letters in terms:
            idx_choices = [np.argwhere(c % p).tolist() for c in coeffs]
            if any(not ch for ch in idx_choices):
                continue
            for combo in itertools.product(*idx_choices):
                val = scale
                for c, (a, b) in zip(coeffs, combo):
                    val = val * int(c[a, b]) % p
                key = (tuple(letters), tuple(x for ab in combo for x in ab))
                acc[key] = (acc.get(key, 0) + val) % p

    for name, terms in diffs.items():
        acc: dict = {}
        for coeffs, letters in terms:
            sign = 1
            for i, letter in enumerate(letters):
                inner = diffs[letter]
                spliced = []
                for ics, ils in inner:
                    new_coeffs = list(coeffs[:i]) + [coeffs[i] @ ics[0] % p] \
                        + list(ics[1:-1]) + [ics[-1] @ coeffs[i + 1] % p] \
                        + list(coeffs[i + 2:])
                    new_letters = list(letters[:i]) + list(ils) + list(letters[i + 1:])
                    spliced.append((new_coeffs, new_letters))
                indexed(spliced, acc, scale=sign)
                sign *= (-1) ** dga.gens[letter].degree
        if any(v % p for v in acc.values()):
            return False
    return True


def test_twist_of_base_dga():
    # with the zero augmentation on chords, d_eps(b1) = a1 a2 over F_2
    dga = build_lambda_dga(2, 2)
    r = Representation(2, 1, 2, [np.array([[0]]), np.array([[0]])])
    terms = twist_diff(dga, lambda name, exp=1: r.value(name, exp))
    b1 = terms["b1"]
    assert len(b1) == 1
    coeffs, letters = b1[0]
    assert letters == ["a1", "a2"]
    assert all(c.tolist() == [[1]] for c in coeffs)


def test_twist_rejects_non_augmentation():
    # over F_2 with a = (1, 1): P_2(1,1) = 0, so eps(d b1) = eps(t1^-1) != 0
    dga = build_lambda_dga(2, 2)

    def bad(name, exp=1):
        if name.startswith(("a", "t")):
            return np.array([[1]])
        return np.array([[0]])

    with pytest.raises(ValueError, match="b1"):
        twist_diff(dga, bad)


def test_twisted_differential_squares_to_zero():
    # d_eps^2 = 0 transported through mu1 . mu1 = 0 on random elements
    rng = random.Random(6)
    for _ in range(20):
        m, n = rng.choice([1, 2, 3]), rng.choice([1, 2])
        p = rng.choice([3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        x = rand_homog(m, n, p, rng.choice([0, 1]), rng)
        assert mu1(r0, r1, mu1(r0, r1, x)).is_zero()


def test_twisted_d_squared_symbolic():
    rng = random.Random(17)
    for p in (3, 5):
        for m in (1, 2):
            n = rng.choice([1, 2])
            rhos = tuple(random_rep(m, n, p, rng) for _ in range(2))
            assert check_twisted_d_squared(rhos)
    # and on a 3-copy with three different objects
    rhos = tuple(random_rep(2, 1, 3, rng) for _ in range(3))
    assert check_twisted_d_squared(rhos)


# -- the twist restricted to staircase words ----------------------------------

def reference_staircase(self, base):
    """TwistedCopy.top_diff by the full twist: expand every word of
    d(base^{1,K}) through the branching expander, then keep the terms whose
    letters descend one copy at a time."""
    out = []
    k = self.K - 1
    full = branching_expand_twist(self.dga, self.dga.diff[f"{base}^1{self.K}"],
                                  PureAugmentation(self.dga, self.rhos), self.n, self.p)
    for coeffs, letters in full:
        if len(letters) != k:
            continue
        levels = [self.dga.copy_info[l] for l in letters]
        ok = True
        for t, lv in enumerate(levels):
            if (lv[2], lv[3]) != (t + 1, t + 2):
                ok = False
                break
        if ok:
            bases = tuple(lv[1] if lv[0] == "chord" else f"{lv[0]}{lv[1]}" for lv in levels)
            out.append((coeffs, bases))
    return out


def same_terms(got, want):
    return len(got) == len(want) and all(
        bg == bw and len(cg) == len(cw) and all(np.array_equal(x, y) for x, y in zip(cg, cw))
        for (cg, bg), (cw, bw) in zip(got, want))


def check_against_full_twist(rhos, rng):
    K, (m, n, p) = len(rhos), (rhos[0].m, rhos[0].n, rhos[0].p)
    tw = TwistedCopy(rhos)
    for base in all_bases(m):
        assert same_terms(tw.top_diff(base), reference_staircase(tw, base)), base
    # degree-1 arguments put mu_2 and mu_3 in degree 2 (b1, b2), where the
    # P_m/Q_m words are twisted; mu_1 gets a degree-0 or degree-1 argument
    degs = [rng.choice([0, 1])] if K == 2 else [1] * (K - 1)
    args = [rand_homog(m, n, p, d, rng) for d in degs]
    fast = mu_k(rhos, args)
    fast_mats = [mu1_matrix(*rhos, d) for d in (0, 1)] if K == 2 else []
    with pytest.MonkeyPatch.context() as mp:
        # mu_k reads stacked terms, so the reference's list is stacked too
        mp.setattr(TwistedCopy, "top_diff",
                   lambda tw, base: as_terms(reference_staircase(tw, base), tw.K, tw.n))
        assert mu_k(rhos, args) == fast
        # mu1_matrix reads no top_diff; the copy route is its reference
        for d, mat in enumerate(fast_mats):
            assert np.array_equal(reference_mu1_matrix(*rhos, d), mat)


@pytest.mark.parametrize("K, m, n, p", [
    (2, 1, 1, 2), (2, 2, 2, 3), (2, 5, 2, 5), (2, 4, 1, 7),
    (3, 5, 1, 2), (3, 4, 2, 3), (3, 2, 1, 5), (3, 3, 2, 7),
    (4, 3, 2, 2), (4, 5, 1, 3), (4, 4, 1, 5), (4, 1, 2, 7),
])
def test_restricted_twist_matches_full_staircase(K, m, n, p):
    rng = random.Random(1000 * K + 10 * m + p)
    check_against_full_twist(tuple(random_rep(m, n, p, rng) for _ in range(K)), rng)


def rep_with_zero_chord(m, n, p, j, rng):
    while True:
        mats = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        mats[j] = xa.zeros(n, n)
        if xa.det(pq_matrix("P", mats, p), p):
            return Representation(m, n, p, mats)


def test_restricted_twist_with_a_zero_chord():
    # eps(a2^{ii}) = 0: the full twist never forms the eps branch of a2^{ii},
    # the one-pass twist forms it and must drop it for its zero coefficient
    rng = random.Random(40)
    for K in (2, 3, 4):
        check_against_full_twist(tuple(rep_with_zero_chord(3, 2, 3, 1, rng)
                                       for _ in range(K)), rng)


def chain_words(copy, f, k):
    """Reference filter: the words whose letters, with the diagonal ones
    (c^{ii} and t^i) deleted, are z^{12}, ..., z^{k-1,k}."""
    chain = [(t, t + 1) for t in range(1, k)]
    kept = {}
    for w, c in f.terms.items():
        kinds = [copy.copy_info[name] for name, _ in w]
        off = [kd[2:] for kd in kinds if kd[0] != "t" and kd[2] != kd[3]]
        if off == chain:
            kept[w] = c
    return kept


def unsplit(runs, bases):
    """The word a (runs, bases) split stands for: the letters of runs[l]
    on copy l + 1, then chain letter l + 1 from copy l + 1 to l + 2."""
    word = []
    for l, run in enumerate(runs, start=1):
        word += [(f"{name}^{l}" if name.startswith("t") else f"{name}^{l}{l}", exp)
                 for name, exp in run]
        if l <= len(bases):
            word.append((f"{bases[l - 1]}^{l}{l + 1}", 1))
    return tuple(word)


def position_stair(mat, info):
    """Mutation control for `freedga._stair`: keeps the entries (i, i) and
    (i, i + 1) whole and drops every other entry, by position alone.  That
    loses the two-step words of X^-1 Delta^-1, such as x^12 x^23 t^3,-1 at
    (1, 3), and the Y C and C Y words that reach copy 3."""
    return {(i, j): dict(f) for (i, j), f in mat.items() if j - i in (0, 1)}


def test_staircase_words_are_the_chain_words():
    """`staircase_words` builds only the staircase part of d(base^{1k}); the
    reference reads the whole `copy.diff` row and keeps its chain words.
    Every base, p in {2, 3, 5}, k <= 4, m <= 7 (m <= 6 at k = 4): 591 cases.
    Fresh copies, split by the uncached `staircase_words`, so that no full
    row stays in a cache.  The position-only filter must disagree
    somewhere."""
    cases = caught = 0
    for p, k in itertools.product((2, 3, 5), (2, 3, 4)):
        for m in range(1, 7 if k == 4 else 8):
            copy = kcopy_dga(lambda_dga(m, p), k)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(freedga, "_stair", position_stair)
                mutant = kcopy_dga(lambda_dga(m, p), k)
                mutant_words = {base: staircase_words(mutant, k, base) for base in all_bases(m)}
            for base in all_bases(m):
                f = copy.diff[f"{base}^1{k}"]
                want = chain_words(copy, f, k)
                split = staircase_words(copy, k, base)
                kept = {unsplit(runs, bases): c for c, runs, bases in split}
                assert len(kept) == len(split), (p, k, m, base)
                assert kept == want, (p, k, m, base)
                assert all(f.terms[w] == c for w, c in kept.items())
                cases += 1
                caught += {unsplit(runs, bases): c
                           for c, runs, bases in mutant_words[base]} != want
    assert cases == 591
    assert caught, "the position-only filter agreed everywhere"


def test_staircase_part_reads_levels():
    # words need not come from the 3-copy differential: diagonal letters off
    # their level and skipped or reversed steps must all be rejected
    copy = lambda_copy_dga(2, 3, 3)
    kept = {  # word: (coeff, runs, bases)
        ("a1^12", "a2^23"): (1, ((), (), ()), ("a1", "a2")),
        ("a1^11", "a1^12", "a2^22", "a2^23", "a1^33"):
            (2, ((("a1", 1),), (("a2", 1),), (("a1", 1),)), ("a1", "a2")),
        ("t1^1", "y1^12", "t2^2", "x2^23", "t1^3"):
            (1, ((("t1", 1),), (("t2", 1),), (("t1", 1),)), ("y1", "x2")),
        ("t2^1", "a1^11", "b2^12", "t1^2", "t1^2", "a2^23"):
            (2, ((("t2", -1), ("a1", 1)), (("t1", 1), ("t1", 1)), ()), ("b2", "a2")),
    }
    rejected = [
        ("a1^22", "a1^12", "a2^23"),
        ("a1^12", "a1^33", "a2^23"),
        ("t1^2", "a1^12", "a2^23"),
        ("a1^12", "a2^23", "t1^2"),
        ("a1^13",),
        ("a1^13", "a2^23"),
        ("a1^12", "a2^21"),
        ("a1^12",),
        ("a1^12", "a2^23", "a1^23"),
        ("a1^21", "a1^12", "a2^23"),
        ("a2^23", "a1^12"),
    ]

    def word(names):
        # the fourth kept word starts with t2^1 inverted
        return tuple((name, -1 if (i, name) == (0, "t2^1") else 1)
                     for i, name in enumerate(names))

    terms = {word(w): c for w, (c, _, _) in kept.items()}
    terms.update((word(w), 1) for w in rejected)
    # a DGA whose d(a1^13) is these words, without the homogeneity check
    # they would fail
    probe = DGA(3, list(copy.gens.values()), {}, copy_info=copy.copy_info)
    probe.diff = {"a1^13": FreePoly(3, terms)}
    got = {unsplit(runs, bases): (c, runs, bases)
           for c, runs, bases in staircase_words(probe, 3, "a1")}
    assert got == {word(w): split for w, split in kept.items()}


# -- the mu_1 matrix by 2x2 block evaluation ----------------------------------

def reference_mu1_matrix(r0, r1, degree: int) -> np.ndarray:
    """mu1_matrix by the copy route: one kron block per staircase term."""
    tw = TwistedCopy((r0, r1))
    n, p, m = r0.n, r0.p, r0.m
    src = hom_basis_order(m, degree)
    dst = hom_basis_order(m, degree + 1)
    mat = xa.zeros(len(dst) * n * n, len(src) * n * n)
    for w in dst:
        wi = dst.index(w) * n * n
        for cs, bases in tw.top_diff(w):
            z = bases[0]
            if z not in src:
                continue
            zi = src.index(z) * n * n
            block = xa.kron(cs[0], cs[1].T, p)
            mat[wi:wi + n * n, zi:zi + n * n] = (mat[wi:wi + n * n, zi:zi + n * n] + block) % p
    return mat


def test_mu1_matrix_matches_copy_route():
    rng = random.Random(19)
    for case in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 3)
        p = rng.choice([2, 3, 5, 7, 32749])
        if case % 4 == 0 and m > 1:  # P_1 = a_1 must stay invertible
            j = rng.randrange(m)
            r0, r1 = (rep_with_zero_chord(m, n, p, j, rng) for _ in range(2))
        else:
            r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        for d in (-1, 0, 1, 2):
            got, want = mu1_matrix(r0, r1, d), reference_mu1_matrix(r0, r1, d)
            assert got.dtype == want.dtype and got.shape == want.shape, (case, d)
            assert np.array_equal(got, want), (case, m, n, p, d)
        assert mu1_matrix(r0, r1, 2).shape == (0, 2 * n * n)
        assert mu1_matrix(r0, r1, -1).shape == (2 * n * n, 0)


@pytest.mark.parametrize("m", [12, 24, 48])
def test_hom_cohomology_builds_no_copy_dga(m):
    rng = random.Random(20 + m)
    r0, r1 = random_rep(m, 3, 3, rng), random_rep(m, 3, 3, rng)
    closed = cohomology_closed(r0, r1).dims
    with pytest.MonkeyPatch.context() as mp:
        def refuse(*args, **kwargs):
            raise AssertionError("HomCohomology reached the copy route")
        mp.setattr(ainfty, "lambda_copy_dga", refuse)
        mp.setattr(TwistedCopy, "top_diff", refuse)
        mp.setattr(xa, "kron", refuse)
        start = time.perf_counter()
        H = hom_cohomology(r0, r1)
        elapsed = time.perf_counter() - start
    assert H.dims == closed
    assert elapsed < 1.0, elapsed


def test_mismatched_objects_rejected():
    rng = random.Random(21)
    r = random_rep(2, 2, 3, rng)
    for other in (random_rep(3, 2, 3, rng), random_rep(2, 1, 3, rng),
                  random_rep(2, 2, 5, rng)):
        for a, b in ((r, other), (other, r)):
            with pytest.raises(ValueError, match="mismatched"):
                hom_cohomology(a, b)
            for d in (0, 1):
                with pytest.raises(ValueError, match="mismatched"):
                    mu1_matrix(a, b, d)


# -- mu_k --------------------------------------------------------------------

def test_mu2_on_y_generators():
    rng = random.Random(7)
    m, n, p = 2, 2, 5
    r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
    u = xa.rand_matrix(rng, n, n, p)
    uprime = xa.rand_matrix(rng, n, n, p)
    f = HomElement(n, p, 0, {"y1": u})          # Hom(r0, r1)
    g = HomElement(n, p, 0, {"y1": uprime})     # Hom(r1, r0)
    out = mu2(r0, r1, r0, g, f)
    assert set(out.coeffs) == {"y1"}
    assert np.array_equal(out.coeff("y1"), (-u @ uprime) % p)
    g2 = HomElement(n, p, 0, {"y2": uprime})
    assert mu2(r0, r1, r0, g2, f).is_zero()


def test_mu1_matches_closed_form():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.choice([1, 2, 3, 4])
        n = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        x = rand_homog(m, n, p, rng.choice([0, 1, 2]), rng)
        assert mu1(r0, r1, x) == mu1_closed(r0, r1, x)


def test_mu_k_validates_arguments():
    rng = random.Random(9)
    r0 = random_rep(2, 1, 3, rng)
    r1 = random_rep(2, 1, 3, rng)
    x = rand_homog(2, 1, 3, 1, rng)
    with pytest.raises(ValueError):
        mu_k((r0, r1), [x, x])
    bad = random_rep(2, 2, 3, rng)
    with pytest.raises(ValueError):
        mu_k((r0, bad), [x])
    with pytest.raises(ValueError):
        HomElement(1, 3, 0, {"a1": np.array([[1]])})


def test_hom_elements_of_different_n_or_p_differ():
    assert HomElement(1, 2, 0, {}) != HomElement(2, 3, 0, {})
    assert HomElement(1, 2, 0, {}) != HomElement(2, 2, 0, {})
    assert HomElement(1, 2, 1, {"a1": [[1]]}) != HomElement(1, 3, 1, {"a1": [[1]]})
    assert HomElement(1, 3, 1, {"a1": [[1]]}) == HomElement(1, 3, 1, {"a1": [[4]]})
    one, two = HomElement(1, 3, 1, {"a1": [[1]]}), HomElement(2, 3, 1, {"a1": np.eye(2)})
    for x, y in ((one, two), (two, one), (one, HomElement(1, 5, 1, {"a1": [[1]]}))):
        with pytest.raises(ValueError, match="mismatched"):
            x + y
        with pytest.raises(ValueError, match="mismatched"):
            x - y
    assert (one + one).coeffs["a1"].tolist() == [[2]]


def test_hom_elements_of_different_degree_do_not_add():
    """Either order, and subtraction, refuse elements of different degree;
    none of them returns an element of either degree."""
    a = HomElement(1, 3, 0, {"y1": [[1]]})
    z = HomElement(1, 3, 1, {})
    for x, y in ((a, z), (z, a)):
        with pytest.raises(ValueError, match="mismatched Hom elements"):
            x + y
        with pytest.raises(ValueError, match="mismatched Hom elements"):
            x - y


def test_mu0_vanishes():
    # the 1-copy twist keeps the all-diagonal words of d(b^{11}); their eps
    # values sum to rho(d b) = 0
    rng = random.Random(18)
    for _ in range(20):
        m, n, p = rng.choice([1, 2, 3, 4]), rng.choice([1, 2]), rng.choice([2, 3, 5])
        out = mu_k((random_rep(m, n, p, rng),), [])
        assert out.degree == 2 and out.is_zero()


def test_mu3_lands_in_bounded_degrees():
    rng = random.Random(10)
    m, n, p = 2, 1, 3
    rs = tuple(random_rep(m, n, p, rng) for _ in range(4))
    args = [rand_homog(m, n, p, 2, rng) for _ in range(3)]
    out = mu_k(rs, args)
    assert out.degree == 2 + 2 + 2 + 2 - 3
    assert out.is_zero()  # degree 5 has no generators


# -- units and cohomology ------------------------------------------------------

def test_unit_shape_and_closed():
    rng = random.Random(11)
    for _ in range(10):
        r = random_rep(rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([2, 3, 5]), rng)
        e = unit(r)
        assert set(e.coeffs) == {"y1", "y2"}
        assert np.array_equal(e.coeff("y1"), (-xa.eye(r.n)) % r.p)
        assert mu1(r, r, e).is_zero()


def test_unit_acts_as_identity_on_cohomology():
    rng = random.Random(12)
    for _ in range(8):
        m, n = rng.choice([1, 2, 3]), rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        H = hom_cohomology(r0, r1)
        for d in (0, 1):
            for f in H.basis(d):
                assert H.same_class(mu2(r0, r1, r1, unit(r1), f), f)
                assert H.same_class(mu2(r0, r0, r1, f, unit(r0)), f)


def test_h2_vanishes_and_euler_characteristic():
    rng = random.Random(13)
    for _ in range(15):
        m, n = rng.choice([1, 2, 3, 4]), rng.choice([1, 2])
        p = rng.choice([2, 3])
        r0, r1 = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        H = hom_cohomology(r0, r1)
        assert H.dims[2] == 0
        assert H.dims[0] - H.dims[1] == (2 - m) * n * n


def test_hom_cohomology_self_pair_example():
    r = Representation(2, 1, 2, [np.array([[0]]), np.array([[0]])])
    H = hom_cohomology(r, r)
    assert (H.dims[0], H.dims[1], H.dims[2]) == (2, 2, 0)


def test_basis_classes_are_canonical_and_independent():
    rng = random.Random(14)
    r0 = random_rep(2, 2, 3, rng)
    r1 = random_rep(2, 2, 3, rng)
    H = hom_cohomology(r0, r1)
    for d in (0, 1):
        basis = H.basis(d)
        assert len(basis) == H.dims[d]
        for x in basis:
            assert H.is_cocycle(x)
            assert np.array_equal(H.class_vector(x),
                                  np.concatenate([x.coeff(b).reshape(-1)
                                                  for b in H.orders[d]]))


# -- isomorphism criterion -----------------------------------------------------

def test_self_isomorphic_with_identity():
    rng = random.Random(15)
    r = random_rep(2, 2, 3, rng)
    w = is_isomorphic(r, r)
    assert w is not None
    u1, u2 = w
    assert xa.det(u1, 3) and xa.det(u2, 3)


def test_conjugation_gives_isomorphism():
    rng = random.Random(16)
    lg_cache = {}
    for _ in range(20):
        m, n = rng.choice([1, 2, 3]), rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        r = random_rep(m, n, p, rng)
        while True:
            mat = xa.rand_matrix(rng, n, n, p)
            if xa.det(mat, p):
                break
        r2 = r.conjugate(xa.inverse(mat, p), mat)
        w = is_isomorphic(r, r2, rng=rng)
        assert w is not None
        u1, u2 = w
        lg = lg_cache.setdefault(m, link_grading(m))
        us = {1: u1, 2: u2}
        for z in [f"a{j}" for j in range(1, m + 1)] + ["t1", "t2"]:
            rr, cc = lg[z]
            lhs = (xa.inverse(us[rr], p) @ r.value(z) @ us[cc]) % p
            assert np.array_equal(lhs, r2.value(z))


def test_zero_one_vs_one_zero_not_isomorphic():
    reps = enumerate_reps(2, 1, 2)
    by_tuple = {(int(r.A[0][0, 0]), int(r.A[1][0, 0])): r for r in reps}
    assert is_isomorphic(by_tuple[(0, 1)], by_tuple[(1, 0)]) is None
    assert is_isomorphic(by_tuple[(0, 1)], by_tuple[(0, 1)]) is not None


def test_mu3_builds_no_copy_row():
    """The twist reads only the staircase parts of the (1, K) entries, so
    mu_3 into degree 2 builds the staircase entries b1^14 and b2^14 of its
    4-copy, once each, and no row of `copy.diff`.  Every entry a copy builds
    passes DGA.check_homogeneous, which counts them; a chord row would be
    four entries, b1^11 .. b1^14."""
    checked = []
    real = freedga.DGA.check_homogeneous

    def record(dga, name, f):
        checked.append((dga, name))
        real(dga, name, f)

    m, n, p = 6, 2, 3
    rng = random.Random(27)
    rhos = tuple(random_rep(m, n, p, rng) for _ in range(4))
    args = [rand_homog(m, n, p, 1, rng) for _ in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freedga.DGA, "check_homogeneous", record)
        # a fresh copy, built while the count is on, and dropped afterwards
        freedga.lambda_copy_dga.cache_clear()
        freedga.staircase_arrays.cache_clear()
        try:
            out = mu_k(rhos, args)
            assert mu_k(rhos, args) == out  # the second call builds nothing
            copy = freedga.lambda_copy_dga(m, p, 4)
        finally:
            freedga.lambda_copy_dga.cache_clear()
            freedga.staircase_arrays.cache_clear()
    assert out.degree == 2
    assert sorted(name for dga, name in checked if dga is copy) == ["b1^14", "b2^14"]


# -- isomorphism witnesses against the intertwining system ---------------------

def reference_intertwiners(r1, r2, swap_t=False, transpose=True):
    """Kernel of the intertwining system u_r rho2(z) = rho1(z) u_c, one
    block row per z in a_1..a_m, t1, t2, over the columns u1 then u2, each
    row-major.  `swap_t` swaps (r, c) on the t-rows and `transpose=False`
    drops the transpose of rho2(z): both are mutation controls."""
    m, n, p = r1.m, r1.n, r1.p
    n2 = n * n
    lg = link_grading(m)
    rows = []
    for z in [f"a{j}" for j in range(1, m + 1)] + ["t1", "t2"]:
        r, c = lg[z][::-1] if swap_t and z.startswith("t") else lg[z]
        b = r2.value(z)
        row = xa.zeros(n2, 2 * n2)
        row[:, (r - 1) * n2:r * n2] = xa.kron(xa.eye(n), b.T if transpose else b, p)
        row[:, (c - 1) * n2:c * n2] = (row[:, (c - 1) * n2:c * n2]
                                       - xa.kron(r1.value(z), xa.eye(n), p)) % p
        rows.append(row)
    return xa.rank_kernel(np.vstack(rows) % p, p)[1]


def reference_is_isomorphic(r1, r2, budget, rng):
    """The search over the intertwining system's kernel: exhaustive, skipping
    the zero combination, when its 1 + p + ... + p^(dim-1) lines fit the
    budget, else `budget` seeded draws.  Returns the witness, None, or the
    BudgetExceeded it raises."""
    n, p = r1.n, r1.p
    n2 = n * n
    ker = reference_intertwiners(r1, r2)
    d = ker.shape[1]
    lines = sum(p ** i for i in range(d))

    def decode(vec):
        return vec[:n2].reshape(n, n), vec[n2:].reshape(n, n)

    if lines <= budget:
        for combo in itertools.product(range(p), repeat=d):
            if not any(combo):
                continue
            u1, u2 = decode((ker @ np.array(combo, dtype=np.int64)) % p)
            if xa.det(u1, p) and xa.det(u2, p):
                return u1, u2
        return None
    for _ in range(budget):
        combo = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        u1, u2 = decode((ker @ combo) % p)
        if xa.det(u1, p) and xa.det(u2, p):
            return u1, u2
    return BudgetExceeded(f"intertwiner space has {lines} lines ({p}^{d} elements, "
                          f"budget {budget}); sampling found no witness", required=lines)


def iso_pairs(count, seed, primes):
    """(r1, r2) at m <= 6, n <= 3: conjugate pairs and random pairs, alternately."""
    rng = random.Random(seed)
    for i in range(count):
        m, n, p = rng.randint(1, 6), rng.randint(1, 3), rng.choice(primes)
        r1 = random_rep(m, n, p, rng)
        if i % 2:
            yield r1, random_rep(m, n, p, rng)
            continue
        while True:
            g = xa.rand_matrix(rng, n, n, p)
            if xa.det(g, p):
                break
        yield r1, r1.conjugate(xa.inverse(g, p), g)


def test_witness_kernel_is_the_intertwining_kernel():
    """ker mu_1^0 and the intertwining system's kernel are the same canonical
    basis, bit for bit, and both mutation controls change it somewhere."""
    nonzero = swapped = untransposed = 0
    for r1, r2 in iso_pairs(600, 29, (2, 3, 5, 7, 32749)):
        ker = xa.LinearMap(mu1_matrix(r1, r2, 0), r1.p).kernel
        assert np.array_equal(ker, reference_intertwiners(r1, r2))
        nonzero += ker.shape[1] > 0
        swapped += not np.array_equal(ker, reference_intertwiners(r1, r2, swap_t=True))
        untransposed += not np.array_equal(ker, reference_intertwiners(r1, r2, transpose=False))
    assert nonzero >= 200
    assert swapped and untransposed, (swapped, untransposed)


def summand_pairs(count, seed, primes):
    """(s + c1, s + c2) at m <= 6, n = 2 or 3, block diagonal: a shared
    summand s and two random complements.  ker mu_1^0 holds the maps that
    factor through s, and none of them is invertible unless c1 and c2 are
    isomorphic."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n, p = rng.randint(1, 6), rng.randint(2, 3), rng.choice(primes)
        k = rng.randint(1, n - 1)
        s, c1, c2 = (random_rep(m, size, p, rng) for size in (k, n - k, n - k))
        pair = []
        for c in (c1, c2):
            mats = np.zeros((m, n, n), dtype=np.int64)
            mats[:, :k, :k], mats[:, k:, k:] = s.A, c.A
            pair.append(Representation(m, n, p, mats))
        yield tuple(pair)


def test_is_isomorphic_matches_the_intertwining_search(monkeypatch):
    """Same witness, None, or BudgetExceeded (message and `required`) as the
    search over the intertwining system, and the same draws from the rng, at
    budgets that take the exhaustive and the sampled paths.  The reference
    tries every nonzero combination and `is_isomorphic` one per line, so an
    exhaustive None makes p - 1 times fewer det calls."""
    calls, det = [0], xa.det

    def counting_det(a, p):
        calls[0] += 1
        return det(a, p)

    def counted(search):
        before = calls[0]
        try:
            out = search()
        except BudgetExceeded as e:
            out = e
        return out, calls[0] - before

    monkeypatch.setattr(xa, "det", counting_det)
    ends = {"witness": 0, "none": 0, "refused": 0, "sampled": 0, "fewer": 0, "fewer_32749": 0}
    cases = [*iso_pairs(300, 30, (2, 3, 5, 7)), *iso_pairs(60, 31, (32749,)),
             *summand_pairs(24, 32, (3, 5, 32749))]
    for k, (r1, r2) in enumerate(cases):
        budget, p = (5, 50, 200_000)[k % 3], r1.p
        rng, ref_rng = random.Random(k), random.Random(k)
        want, want_dets = counted(lambda: reference_is_isomorphic(r1, r2, budget, ref_rng))
        got, got_dets = counted(lambda: is_isomorphic(r1, r2, budget=budget, rng=rng))
        if isinstance(want, BudgetExceeded):
            assert isinstance(got, BudgetExceeded)
            assert (str(got), got.required) == (str(want), want.required)
            ends["refused"] += 1
        elif want is None:
            assert got is None
            assert want_dets == (p - 1) * got_dets, (k, p, want_dets, got_dets)
            ends["none"] += 1
            ends["fewer"] += p > 2 and got_dets > 0
            ends["fewer_32749"] += p == 32749 and got_dets > 0
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), k
            ends["witness"] += 1
        ends["sampled"] += rng.getstate() != random.Random(k).getstate()
        assert rng.getstate() == ref_rng.getstate()
    assert all(ends.values()), ends


def singular_kernel_pair():
    """(s + s, s + c) at m = 2, n = 2, p = 32749 with s = (1, 1) and
    c = (1, 2): ker mu_1^0 is 2-dimensional, the maps that factor through s,
    and holds no invertible element."""
    s, c = np.array([[[1]], [[1]]]), np.array([[[1]], [[2]]])

    def block(a, b):
        mats = np.zeros((2, 2, 2), dtype=np.int64)
        mats[:, :1, :1], mats[:, 1:, 1:] = a, b
        return Representation(2, 2, 32749, mats)

    return block(s, s), block(s, c)


def test_is_isomorphic_certifies_a_large_singular_kernel():
    """Its 32750 lines fit the default budget of 200,000, so the search tries
    each once and certifies None, drawing nothing from the rng.  (Gated on
    the 32749^2 vectors, it sampled 200,000 draws and raised.)"""
    r1, r2 = singular_kernel_pair()
    assert xa.LinearMap(mu1_matrix(r1, r2, 0), 32749).kernel.shape[1] == 2
    rng = random.Random(3)
    assert is_isomorphic(r1, r2, rng=rng) is None
    assert rng.getstate() == random.Random(3).getstate()


def test_is_isomorphic_over_budget_samples_the_same_stream():
    """Below its 32750 lines the budget is exceeded: `budget` draws of one
    randrange(p) per kernel dimension, then BudgetExceeded with the line
    count as `required`."""
    r1, r2 = singular_kernel_pair()
    rng, want = random.Random(4), random.Random(4)
    with pytest.raises(BudgetExceeded) as exc:
        is_isomorphic(r1, r2, budget=1000, rng=rng)
    assert exc.value.required == 32750
    assert "32750 lines" in str(exc.value)
    for _ in range(1000 * 2):
        want.randrange(32749)
    assert rng.getstate() == want.getstate()
