import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legtorus import exactalg as xa
from legtorus.freedga import (DGA, FreePoly, Generator, Word, build_lambda_dga,
                              kcopy_dga, link_grading, poly_str,
                              pq_matrix, pq_polynomial)

import freedga_reference as ref


def gen(p, name, exp=1):
    return FreePoly.gen(p, name, exp)


def reduce_letters(letters) -> Word:
    """Cancel adjacent g g^-1 pairs (stack pass; confluent for unit exponents).

    The reference for `freedga._join`, which cancels only at the junction of
    two reduced words."""
    out: list[tuple[str, int]] = []
    for name, exp in letters:
        if exp not in (1, -1):
            raise ValueError("letters carry exponent +1 or -1")
        if out and out[-1][0] == name and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((name, exp))
    return tuple(out)


def test_poly_mul_unit_and_reduction():
    p = 5
    one = FreePoly.one(p)
    f = gen(p, "a1") + gen(p, "a2").scale(3)
    assert one * f == f
    t = gen(p, "t1")
    tinv = gen(p, "t1", -1)
    assert t * tinv == one
    assert tinv * t == one


def test_poly_mul_distributes():
    # (a1 + a3) * a2 = a1 a2 + a3 a2 over F_2
    p = 2
    f = gen(p, "a1") + gen(p, "a3")
    g = gen(p, "a2")
    prod = f * g
    assert prod.terms == {(("a1", 1), ("a2", 1)): 1, (("a3", 1), ("a2", 1)): 1}


def test_word_reduction_confluent():
    rng = random.Random(1)
    p = 3
    letters = [("t1", 1), ("t1", -1), ("a1", 1), ("t2", 1), ("t2", -1)]
    for _ in range(50):
        word = [rng.choice(letters) for _ in range(rng.randrange(1, 7))]
        polys = [FreePoly(p, {(l,): 1}) for l in word]
        # multiply in two association orders
        left = FreePoly.one(p)
        for f in polys:
            left = left * f
        right = FreePoly.one(p)
        for f in reversed(polys):
            right = f * right
        assert left == right
        assert set(left.terms) == {reduce_letters(word)}


def test_pq_base_cases_and_values():
    p = 7
    assert pq_polynomial(0, "P", p) == FreePoly.one(p)
    assert pq_polynomial(0, "Q", p) == FreePoly.one(p)
    assert poly_str(pq_polynomial(2, "P", p)) == "1 + a1 a2"
    assert poly_str(pq_polynomial(2, "Q", p)) == "1 + a2 a1"
    assert poly_str(pq_polynomial(3, "P", p)) == "a1 + a3 + a1 a2 a3"
    q3 = pq_polynomial(3, "Q", p)
    # Q_3 = -a_1 - a_3 - a_3 a_2 a_1
    assert q3.terms == {(("a1", 1),): 6, (("a3", 1),): 6,
                        (("a3", 1), ("a2", 1), ("a1", 1)): 6}


def test_q_alternative_recurrence():
    # Q_m = -a_m Q_{m-1}(a_1..a_{m-1}) + Q_{m-2}(a_1..a_{m-2})
    p = 5
    for m in range(2, 7):
        lhs = pq_polynomial(m, "Q", p)
        rhs = (-FreePoly.gen(p, f"a{m}")) * pq_polynomial(m - 1, "Q", p) \
            + pq_polynomial(m - 2, "Q", p)
        assert lhs == rhs


def recursive_pq(letters, kind, p) -> FreePoly:
    """P or Q of the letters by the two-sided recursion `pq_polynomial`
    used before it became one pass (about Fibonacci(m) calls)."""
    if len(letters) == 0:
        return FreePoly.one(p)
    if len(letters) == 1:
        return FreePoly.gen(p, letters[0], coeff=1 if kind == "P" else -1)
    if kind == "P":
        return recursive_pq(letters[:-1], "P", p) * FreePoly.gen(p, letters[-1]) \
            + recursive_pq(letters[:-2], "P", p)
    return (-recursive_pq(letters[1:], "Q", p)) * FreePoly.gen(p, letters[0]) \
        + recursive_pq(letters[2:], "Q", p)


def mutated_pq(m, kind, p, letter_left=False, flip=True) -> FreePoly:
    """The one pass of `pq_polynomial` with a fault: `letter_left` multiplies
    each new letter on the left, `flip=False` drops Q's sign flip."""
    sign = -1 if kind == "Q" and flip else 1
    prev, cur = FreePoly.zero(p), FreePoly.one(p)
    for j in (range(1, m + 1) if kind == "P" else range(m, 0, -1)):
        a = FreePoly.gen(p, f"a{j}", coeff=sign)
        prev, cur = cur, (a * cur if letter_left else cur * a) + prev
    return cur


def test_one_pass_pq_matches_the_recursion():
    """P_m and Q_m equal the recursive oracle's for m <= 16; both faults,
    P's letter on the left and Q without its sign flip, differ somewhere."""
    faults = {"letter_left": 0, "no_flip": 0}
    for p in (2, 3, 5, 32749):
        for m in range(17):
            letters = tuple(f"a{j}" for j in range(1, m + 1))
            for kind in ("P", "Q"):
                want = recursive_pq(letters, kind, p)
                assert pq_polynomial(m, kind, p) == want, (p, m, kind)
                if kind == "P":
                    faults["letter_left"] += mutated_pq(m, kind, p, letter_left=True) != want
                else:
                    faults["no_flip"] += mutated_pq(m, kind, p, flip=False) != want
    assert all(faults.values()), faults


def test_pq_matrix_matches_polynomial_eval():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for m in range(0, 9):
            for n in (1, 2, 3):
                mats = {f"a{j}": xa.rand_matrix(rng, n, n, p) for j in range(1, m + 1)}
                for kind in ("P", "Q"):
                    poly = pq_polynomial(m, kind, p)
                    val = xa.zeros(n, n)
                    for w, c in poly.terms.items():
                        acc = xa.eye(n)
                        for name, _ in w:
                            acc = acc @ mats[name] % p
                        val = (val + c * acc) % p
                    direct = pq_matrix(kind, [mats[f"a{j}"] for j in range(1, m + 1)], p, n)
                    assert np.array_equal(val, direct), (p, m, n, kind)


def continuant_block(mats, p):
    # [[A_1, 1], [1, 0]] ... [[A_m, 1], [1, 0]] has P_m(A_1..A_m) top left
    n = mats[0].shape[0]
    acc = xa.eye(2 * n)
    for a in mats:
        acc = acc @ np.block([[a, xa.eye(n)], [xa.eye(n), xa.zeros(n, n)]]) % p
    return acc[:n, :n]


def test_pq_matrix_at_m30_is_fast_and_matches_block_products():
    rng = random.Random(30)
    p, n = 5, 3
    mats = [xa.rand_matrix(rng, n, n, p) for _ in range(30)]
    t0 = time.perf_counter()
    pm, qm = pq_matrix("P", mats, p), pq_matrix("Q", mats, p)
    assert time.perf_counter() - t0 < 0.25
    assert np.array_equal(pm, continuant_block(mats, p))
    # Q_m(A_1..A_m) = (-1)^m P_m(A_m..A_1): Q's words are P's, read backwards
    assert np.array_equal(qm, (-1) ** 30 * continuant_block(mats[::-1], p) % p)


def test_letters_carry_unit_exponents():
    with pytest.raises(ValueError):
        FreePoly.gen(3, "t1", exp=2)


LETTERS = [("a1", 1), ("a2", 1), ("b1", 1), ("t1", 1), ("t1", -1), ("t2", 1), ("t2", -1)]
reduced_words = st.lists(st.sampled_from(LETTERS), max_size=6).map(reduce_letters)


def inverse(word):
    return tuple((name, -exp) for name, exp in reversed(word))


@st.composite
def word_pairs(draw):
    """(w1, w2) where w2 may start by undoing a run of w1's trailing t letters."""
    w1 = draw(reduced_words)
    tail = 0
    while tail < len(w1) and w1[-1 - tail][0].startswith("t"):
        tail += 1
    r = draw(st.integers(0, tail))
    w2 = reduce_letters(inverse(w1[len(w1) - r:]) + draw(reduced_words))
    return w1, w2


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(word_pairs(), st.integers(1, 6), st.integers(1, 6)),
                min_size=1, max_size=5),
       st.sampled_from([2, 3, 7]))
@example([(((("a1", 1), ("t1", 1), ("t2", -1)), (("t2", 1), ("t1", -1), ("a2", 1))), 1, 1)], 3)
@example([(((("t1", 1),), (("t1", -1),)), 2, 3)], 7)
def test_poly_mul_matches_full_reduction(pairs, p):
    f = FreePoly(p, {w1: c1 for (w1, _), c1, _ in pairs})
    g = FreePoly(p, {w2: c2 for (_, w2), _, c2 in pairs})
    want = {}
    for w1, c1 in f.terms.items():
        for w2, c2 in g.terms.items():
            w = reduce_letters(w1 + w2)
            want[w] = (want.get(w, 0) + c1 * c2) % p
    assert (f * g).terms == {w: c for w, c in want.items() if c}


def test_lambda_dga_shape():
    for m in (1, 2, 3):
        dga = build_lambda_dga(m, 5)
        names = list(dga.gens)
        assert names[:2] == ["b1", "b2"]
        assert all(dga.gens[f"a{j}"].degree == 0 for j in range(1, m + 1))
        assert dga.gens["t1"].invertible and dga.gens["t2"].invertible
        for j in range(1, m + 1):
            assert dga.diff[f"a{j}"].is_zero()
        assert dga.diff["t1"].is_zero() and dga.diff["t2"].is_zero()
    d2 = build_lambda_dga(2, 2)
    assert poly_str(d2.diff["b1"]) == "t1^-1 + 1 + a1 a2"
    assert poly_str(d2.diff["b2"]) == "t2 + 1 + a2 a1"
    d3 = build_lambda_dga(3, 7)
    # d(b2) = t2 - a1 - a3 - a3 a2 a1
    want = FreePoly.gen(7, "t2") + pq_polynomial(3, "Q", 7)
    assert d3.diff["b2"] == want


def test_lambda_dga_rejects_m0():
    with pytest.raises(ValueError):
        build_lambda_dga(0, 2)


def test_link_grading_parities():
    lg2 = link_grading(2)
    assert lg2["t1"] == (1, 1) and lg2["t2"] == (2, 2)
    assert lg2["b1"] == (1, 1) and lg2["b2"] == (2, 2)
    lg3 = link_grading(3)
    assert lg3["t1"] == (2, 1) and lg3["t2"] == (1, 2)
    assert lg3["b1"] == (1, 2) and lg3["b2"] == (1, 2)
    for m in (2, 3):
        lg = link_grading(m)
        assert lg["a1"] == (1, 2) and lg["a2"] == (2, 1)


def test_d_squared_lambda():
    for m in range(1, 5):
        for p in (2, 3, 5):
            assert build_lambda_dga(m, p).check_d_squared()


def test_d_squared_detects_corruption():
    dga = build_lambda_dga(2, 3)
    broken = DGA(dga.p, list(dga.gens.values()),
                 {**dga.diff, "b1": pq_polynomial(2, "P", 3)})  # t1^-1 dropped
    assert broken.check_d_squared()  # degree-0 letters still die...
    # ...so corrupt a copy differential instead, where d^2 has teeth
    copy = kcopy_dga(dga, 2)
    bad_diff = dict(copy.diff)
    bad_diff["x1^12"] = copy.diff["x2^12"]
    broken_copy = DGA(copy.p, list(copy.gens.values()), bad_diff,
                      copy_info=copy.copy_info)
    assert not broken_copy.check_d_squared()


def test_apply_diff_leibniz_degree_one():
    # d(b1 b2) = (db1) b2 - b1 (db2) since |b1| = 1
    p = 5
    dga = build_lambda_dga(2, p)
    prod = gen(p, "b1") * gen(p, "b2")
    got = dga.apply_diff(prod)
    want = dga.diff["b1"] * gen(p, "b2") - gen(p, "b1") * dga.diff["b2"]
    assert got == want
    assert dga.apply_diff(FreePoly.one(p)).is_zero()


def test_apply_diff_rejects_inhomogeneous():
    dga = build_lambda_dga(2, 5)
    with pytest.raises(ValueError):
        dga.apply_diff(gen(5, "b1") + gen(5, "a1"))


def test_apply_diff_rejects_the_inverse_of_a_noninvertible_letter():
    dga = build_lambda_dga(1, 3)
    for f in (gen(3, "b1", -1), gen(3, "t1") * gen(3, "a1", -1)):
        with pytest.raises(ValueError, match="not invertible"):
            dga.apply_diff(f)
    assert dga.apply_diff(gen(3, "t1", -1)).is_zero()


def test_diff_in_concrete_dga():
    # in the m=2 link DGA over F_2: d(b1 a1) = (t1^-1 + 1 + a1 a2) a1
    p = 2
    dga = build_lambda_dga(2, p)
    got = dga.apply_diff(gen(p, "b1") * gen(p, "a1"))
    want = dga.diff["b1"] * gen(p, "a1")
    assert got == want


def test_kcopy_generators_and_degrees():
    dga = build_lambda_dga(2, 3)
    copy = kcopy_dga(dga, 3)
    assert copy.gens["a1^12"].degree == 0
    assert copy.gens["b2^31"].degree == 1
    assert copy.gens["x1^13"].degree == 0
    assert copy.gens["y2^23"].degree == -1
    assert copy.gens["t1^2"].invertible


def test_kcopy_y_and_chord_differentials():
    copy = kcopy_dga(build_lambda_dga(2, 5), 3)
    p = 5
    # d(y1^13) = y1^12 y1^23
    assert copy.diff["y1^13"] == gen(p, "y1^12") * gen(p, "y1^23")
    # d(a1^12) = y_{r}^{12} a1^{22} - a1^{11} y_c^{12} + y_r^{13} a1^{32}
    lg = link_grading(2)
    r, c = lg["a1"]
    want = gen(p, f"y{r}^12") * gen(p, "a1^22") \
        + gen(p, f"y{r}^13") * gen(p, "a1^32") \
        - gen(p, "a1^11") * gen(p, f"y{c}^12")
    assert copy.diff["a1^12"] == want
    # d(x1^12) = (t1^1)^-1 y_{r(t1)}^{12} t1^2 - y1^12
    rt = lg["t1"][0]
    want_x = gen(p, "t1^1", -1) * gen(p, f"y{rt}^12") * gen(p, "t1^2") - gen(p, "y1^12")
    assert copy.diff["x1^12"] == want_x


def test_kcopy_one_copy_is_base():
    dga = build_lambda_dga(2, 3)
    copy = kcopy_dga(dga, 1)
    # the 1-copy differential is the original with renamed generators
    for name in ("b1", "b2", "a1", "a2"):
        got = copy.diff[f"{name}^11"]
        want_terms = {}
        for w, cf in dga.diff[name].terms.items():
            nw = tuple((f"{n}^11" if not dga.gens[n].invertible else f"{n}^1", e)
                       for n, e in w)
            want_terms[nw] = cf
        assert got.terms == want_terms


def test_kcopy_d_squared():
    for m in (1, 2, 3):
        for k in (2, 3):
            for p in (2, 3):
                assert kcopy_dga(build_lambda_dga(m, p), k).check_d_squared(), (m, k, p)


def test_kcopy_takes_1_to_10_copies():
    dga = build_lambda_dga(1, 2)
    for k in (0, 11):
        with pytest.raises(ValueError, match="between 1 and 10"):
            kcopy_dga(dga, k)
    copy = kcopy_dga(dga, 10)  # generator names stay distinct up to k = 10
    assert len(copy.gens) == 3 * 100 + 2 * 10 + 2 * 45 * 2


def test_kcopy_b_entry_contains_t_inverse_term():
    # (1,2) entry of X^-1 Delta^-1 is -x1^{12} (t1^2)^{-1}
    copy = kcopy_dga(build_lambda_dga(2, 5), 2)
    f = copy.diff["b1^12"]
    word = (("x1^12", 1), ("t1^2", -1))
    assert f.terms.get(word) == 5 - 1


def test_differentials_homogeneous():
    for m in (1, 3):
        copy = kcopy_dga(build_lambda_dga(m, 3), 3)
        for name, f in copy.diff.items():
            if not f.is_zero():
                assert copy.poly_degree(f) == copy.gens[name].degree - 1


def test_json_roundtrip_fields():
    dga = build_lambda_dga(2, 2)
    doc = dga.to_json()
    assert doc["p"] == 2
    names = [g["name"] for g in doc["generators"]]
    assert names == ["b1", "b2", "a1", "a2", "t1", "t2"]
    assert doc["differentials"]["b1"]["string"] == "t1^-1 + 1 + a1 a2"


def poly(p, terms):
    """FreePoly from {space-separated letters: coeff}, with ^-1 for inverses."""
    out = {}
    for text, c in terms.items():
        out[tuple((tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)
                  for tok in text.split())] = c
    return FreePoly(p, out)


def twisted_dga(p):
    """A DGA whose differentials put invertible letters inside longer words,
    which the link DGA never does: there t is a one-letter word."""
    gens = [Generator("b1", 1, r=1, c=2), Generator("e1", 2, r=2, c=2),
            Generator("a1", 0, r=2, c=1), Generator("a2", 0),
            Generator("t1", 0, invertible=True), Generator("t2", 0, invertible=True, r=2, c=2)]
    diff = {g.name: FreePoly.zero(p) for g in gens}
    diff["b1"] = poly(p, {"t1 a1 t1^-1": 1, "t1^-1 a2 t1": 2, "t1 t1": 1, "t1^-1 t1^-1": 1,
                          "t1 t2^-1 a1": 1, "a2 t2 a1 t1^-1": 4, "": 1})
    diff["e1"] = poly(p, {"b1 t1": 1, "t1^-1 b1 a1": 2, "a2 t2^-1 b1 t2": 1})
    return DGA(p, gens, diff)


def assert_same_copy(got: DGA, want: DGA):
    assert list(got.gens.values()) == list(want.gens.values())
    assert list(got.diff) == list(want.diff)
    assert got.copy_info == want.copy_info
    for name, f in want.diff.items():
        assert got.diff[name].terms == f.terms, name
        assert all(0 < c < got.p for c in got.diff[name].terms.values()), name


@pytest.mark.parametrize("m, p", [(m, p) for m in (1, 2, 3, 4) for p in (2, 3, 5, 7)]
                         + [(5, 3), (6, 3)])
def test_kcopy_matches_reference(m, p):
    """The sparse, in-place copy construction against the dense reference of
    tests/freedga_reference.py: the same generators, the same order of
    differentials, the same copy_info and the same terms for every entry."""
    base = build_lambda_dga(m, p)
    for k in (1, 2, 3, 4):
        assert_same_copy(kcopy_dga(base, k), ref.kcopy_dga(base, k))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kcopy_with_invertibles_inside_words_matches_reference(p):
    base = twisted_dga(p)
    for k in (1, 2, 3, 4):
        copy = kcopy_dga(base, k)
        assert_same_copy(copy, ref.kcopy_dga(base, k))
    # Phi(t1 t1) at (1, 2) is t^1 t^1 x^12 + t^1 x^12 t^2, the X^-1 Delta^-1
    # image of t1^-1 t1^-1 at (1, 2) starts -x^12 (t^2)^-1 (t^2)^-1
    b = copy.diff["b1^12"].terms
    assert b[(("t1^1", 1), ("t1^1", 1), ("x1^12", 1))] == 1
    assert b[(("t1^1", 1), ("x1^12", 1), ("t1^2", 1))] == 1
    assert b[(("x1^12", 1), ("t1^2", -1), ("t1^2", -1))] == p - 1


def random_homogeneous(dga: DGA, rng: random.Random, degree: int, terms: int) -> FreePoly:
    """Up to `terms` random reduced words of the given degree, random coefficients."""
    letters = [(n, 1) for n in dga.gens] + [(n, -1) for n, g in dga.gens.items() if g.invertible]
    out = {}
    for _ in range(50 * terms):
        w = reduce_letters(rng.choice(letters) for _ in range(rng.randrange(5)))
        if dga.word_degree(w) == degree:
            out[w] = rng.randrange(1, dga.p)
            if len(out) == terms:
                break
    return FreePoly(dga.p, out)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_diff_matches_reference(k):
    """The in-place Leibniz rule against the reference, which adds each term
    into a fresh copy of its output, on random homogeneous polynomials."""
    rng = random.Random(k)
    for m, p in ((2, 3), (3, 5), (3, 2)):
        base = build_lambda_dga(m, p)
        dga = base if k == 1 else kcopy_dga(base, k)
        checked = 0
        for _ in range(40):
            f = random_homogeneous(dga, rng, rng.choice([-1, 0, 1, 2]), rng.randrange(1, 6))
            got = dga.apply_diff(f)
            assert got.terms == ref.apply_diff(dga, f).terms
            assert all(0 < c < p for c in got.terms.values())
            checked += not got.is_zero()
        assert checked >= 10  # the comparison is not vacuous
    for g in dga.diff.values():
        assert dga.apply_diff(g) == ref.apply_diff(dga, g)


def test_init_rejects_one_word_of_the_wrong_degree():
    """DGA(...) checks every word of every differential: one wrong word, in
    the base link DGA or spliced into a 3-copy, is enough to refuse it."""
    p = 3
    base = build_lambda_dga(3, p)
    gens = list(base.gens.values())
    DGA(p, gens, base.diff)
    # degree 1 and 2 words in degree-0 differentials, a degree-0 word in a degree -1 one
    for name, extra in (("b1", "a1 b2"), ("b2", "b1 t1 b2"), ("a1", "a2")):
        bad = base.diff[name] + poly(p, {extra: 1})
        with pytest.raises(ValueError, match=re.escape(f"differential of {name} is not homogeneous")):
            DGA(p, gens, {**base.diff, name: bad})

    copy = kcopy_dga(base, 3)
    gens = list(copy.gens.values())
    DGA(p, gens, copy.diff, copy_info=copy.copy_info)
    for name in ("b1^12", "b2^23", "b1^31"):
        terms = dict(copy.diff[name].terms)
        w = max((w for w in terms if len(w) > 2), key=lambda w: (len(w), w))
        c = terms.pop(w)
        spliced = w[:2] + (("y1^12", 1),) + w[2:]  # degree -1 in a degree-0 differential
        with pytest.raises(ValueError, match=re.escape(f"differential of {name} is not homogeneous")):
            DGA(p, gens, {**copy.diff, name: FreePoly(p, {**terms, spliced: c})},
                copy_info=copy.copy_info)
    # a word of degree-0 letters in a differential of degree -1
    bad = copy.diff["a1^12"] + poly(p, {"a1^11 a2^12": 1})
    with pytest.raises(ValueError, match=re.escape("differential of a1^12 is not homogeneous")):
        DGA(p, gens, {**copy.diff, "a1^12": bad}, copy_info=copy.copy_info)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kcopy_entries_read_in_random_order_match_reference(p):
    """Rows of a copy differential are built when first read: entries read
    in a seeded random order, from a fresh copy each time, equal the
    reference's, whichever row a read happens to build."""
    for base in [build_lambda_dga(m, p) for m in (1, 2, 3, 4)] + [twisted_dga(p)]:
        for k in (2, 3, 4):
            want = ref.kcopy_dga(base, k)
            for seed in (1, 2, 3):
                copy = kcopy_dga(base, k)
                names = list(want.diff)
                random.Random(seed).shuffle(names)
                for name in names:
                    got = copy.diff[name].terms
                    assert got == want.diff[name].terms, (seed, k, name)
                    assert all(0 < c < p for c in got.values()), (seed, k, name)
                assert list(copy.diff) == list(want.diff)


def test_copy_rows_are_checked_when_built():
    """A base differential spoiled after its DGA was checked still gives a
    copy, but each row that holds a wrong-degree word is refused when read,
    every time it is read; the rows of other chords are not."""
    p = 3
    base = build_lambda_dga(3, p)
    base.diff["b1"] = base.diff["b1"] + poly(p, {"a1 b2": 1})  # degree 1 in a degree-0 differential
    copy = kcopy_dga(base, 3)
    assert copy.diff["a1^12"] == kcopy_dga(build_lambda_dga(3, p), 3).diff["a1^12"]
    for name in ("b1^12", "b1^12", "b1^21"):
        # the message names the first entry of the row with a wrong word
        with pytest.raises(ValueError, match=rf"differential of b1\^{name[3]}\d is not homogeneous"):
            copy.diff[name]
    copy.diff["b2^12"]
