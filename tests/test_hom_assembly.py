"""The Hom routes' matrix assembly against the references in hom_reference.py,
also on objects that recur in several Hom spaces, the memory of the mu_1
evaluation, the broadcasting `kron`, and the read-only tuple and continuant
arrays of the objects."""

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import hom_reference as ref
from legtorus import ainfty
from legtorus import exactalg as xa
from legtorus.ainfty import Representation, mu1_matrix, random_rep
from legtorus.cli import main
from legtorus.freedga import pq_matrix
from legtorus.sheafcat import SheafObject, _ext_map, functor_obj
from legtorus.torusrep import reduced_complex_matrix
from poly_eval import check_representation

PRIMES = [2, 3, 5, 7, 32749]


def same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


# -- assembly, new against old --------------------------------------------------

def assembly_cases():
    """150 random sizes, then the ROADMAP's target sizes at every prime, then
    objects that recur: in a self pair, in both orders, in several pairs and
    beside a conjugate of themselves."""
    rng = random.Random(1601)
    for _ in range(150):
        m, n, p = rng.randint(1, 7), rng.randint(1, 3), rng.choice(PRIMES)
        yield random_rep(m, n, p, rng), random_rep(m, n, p, rng)
    for m, n, p in itertools.product((12, 24, 48), (2, 4), PRIMES):
        yield random_rep(m, n, p, rng), random_rep(m, n, p, rng)
    for m, n, p in [(1, 1, 2), (3, 2, 5), (5, 3, 7), (7, 2, 32749), (48, 4, 3)]:
        a, b, c = (random_rep(m, n, p, rng) for _ in range(3))
        conj = a.conjugate(*invertible_pair(n, p, rng))
        yield from [(a, a), (a, b), (b, a), (a, c), (c, a), (b, c),
                    (conj, a), (a, conj), (conj, conj), (a, b), (b, b)]


def invertible_pair(n, p, rng):
    while True:
        g = xa.rand_matrix(rng, n, n, p)
        ginv = xa.inverse(g, p)
        if ginv is not None:
            return ginv, g


def test_assembly_matches_the_reference_bit_for_bit():
    for case, (r0, r1) in enumerate(assembly_cases()):
        for d in (-1, 0, 1, 2):
            assert same(mu1_matrix(r0, r1, d), ref.mu1_matrix(r0, r1, d)), (case, r0.m, r0.n, r0.p, d)
        assert same(reduced_complex_matrix(r0, r1), ref.reduced_complex_matrix(r0, r1)), case
        F, G = functor_obj(r0), functor_obj(r1)
        assert same(_ext_map(F, G), ref._ext_map(F, G)), case


def test_continuant_stacks_are_built_once_and_read_only(monkeypatch):
    """Layer j-1 of the source stacks is P(A_1..A_{j-1}) and P(-A_m..-A_{j+1}),
    of the target stacks P(A_{j+1}..A_m) and P(-A_{j-1}..-A_1) (here each by
    `pq_matrix` on its own slice); building them calls no `pq_matrix`, and a
    later Hom space reads the very arrays the first one built."""
    def refuse(*args, **kwargs):
        raise AssertionError("the stacks called pq_matrix")

    rng = random.Random(1610)
    for m, n, p in [(1, 1, 3), (4, 2, 5), (6, 3, 32749), (48, 4, 3)]:
        rho, other = random_rep(m, n, p, rng), random_rep(m, n, p, rng)
        with monkeypatch.context() as mp:
            mp.setattr(ainfty, "pq_matrix", refuse)
            mu1_matrix(rho, other, 1)
            mu1_matrix(other, rho, 1)
        source, target = rho.source_stacks, rho.target_stacks
        for stacks in (source, target):
            assert stacks.shape == (2, m, n, n) and stacks.dtype == np.int64
            with pytest.raises(ValueError):
                stacks[0, 0, 0, 0] = 1
            with pytest.raises(ValueError):
                stacks[1] += 1
        mu1_matrix(rho, rho, 1)
        mu1_matrix(other, rho, 0)
        assert rho.source_stacks is source and rho.target_stacks is target
        A = rho.A
        for j in range(1, m + 1):
            want = [pq_matrix("P", A[:j - 1], p, n), pq_matrix("Q", A[j:], p, n),
                    pq_matrix("P", A[j:], p, n), pq_matrix("Q", A[:j - 1], p, n)]
            got = [source[0, j - 1], source[1, j - 1], target[0, j - 1], target[1, j - 1]]
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (m, n, p, j)


def test_mu1_matrix_peak_memory_stays_near_its_result():
    """At m=48, n=4 the degree-1 matrix is 32 x 800 (0.2 MB); its evaluation
    carries one batch of corners per continuant family, not 2n x 2n blocks
    per unit coefficient, so its traced peak stays below 8 times the
    result."""
    rng = random.Random(1602)
    r0, r1 = random_rep(48, 4, 3, rng), random_rep(48, 4, 3, rng)
    mu1_matrix(r0, r1, 1)
    tracemalloc.start()
    try:
        out = mu1_matrix(r0, r1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (32, 800)
    assert peak < 8 * out.nbytes, (peak, out.nbytes)


# -- the broadcasting kron ------------------------------------------------------

def test_kron_broadcasts_slice_by_slice():
    rng = np.random.default_rng(1603)
    for p in PRIMES:
        for ra, ca, rb, cb in [(1, 1, 1, 1), (2, 3, 3, 2), (1, 1, 3, 3), (3, 3, 1, 1), (2, 2, 2, 2)]:
            a = rng.integers(0, p, size=(4, ra, ca))
            b = rng.integers(0, p, size=(4, rb, cb))
            for x, y in ((a, b), (a, b[0]), (a[0], b)):
                got = xa.kron(x, y, p)
                assert got.dtype == np.int64 and got.shape == (4, ra * rb, ca * cb)
                for k in range(4):
                    xk = x[k] if x.ndim == 3 else x
                    yk = y[k] if y.ndim == 3 else y
                    assert np.array_equal(got[k], np.kron(xk, yk) % p)


def test_kron_of_transposed_stacks():
    """Non-contiguous inputs, as the routes pass A.transpose(0, 2, 1)."""
    rng = np.random.default_rng(1604)
    p = 7
    a = rng.integers(0, p, size=(5, 3, 3))
    at = a.transpose(0, 2, 1)
    assert not at.flags.c_contiguous
    got = xa.kron(np.eye(3, dtype=np.int64), at, p)
    for k in range(5):
        assert np.array_equal(got[k], np.kron(np.eye(3, dtype=np.int64), a[k].T) % p)
    assert np.array_equal(xa.kron(at, at, p), xa.kron(at.copy(), at.copy(), p))


def test_kron_on_2d_inputs_is_unchanged():
    rng = np.random.default_rng(1605)
    for p in PRIMES:
        for ra, ca, rb, cb in [(1, 1, 1, 1), (0, 2, 2, 2), (2, 3, 1, 4), (3, 3, 3, 3)]:
            a = rng.integers(0, p, size=(ra, ca))
            b = rng.integers(0, p, size=(rb, cb))
            for x in (a, a.T):
                assert same(xa.kron(x, b, p), ref.kron2d(x, b, p))


# -- read-only objects with the same surface ------------------------------------

def objects():
    rng = random.Random(1606)
    rho = random_rep(3, 2, 5, rng)
    return rho, functor_obj(rho)


def test_tuples_are_read_only_stacks():
    rho, F = objects()
    for obj in (rho, F):
        assert obj.A.shape == (3, 2, 2) and obj.A.dtype == np.int64
        with pytest.raises(ValueError):
            obj.A[0, 0, 0] = 1
        with pytest.raises(ValueError):
            obj.A[1] += 1
    with pytest.raises(ValueError):
        rho.value("a2")[0, 0] = 1


def test_object_surface_is_unchanged():
    mats = [[[1, 4], [0, 2]], [[3, 1], [1, 1]], [[0, 1], [1, 0]]]
    rho = Representation(3, 2, 5, mats)
    F = SheafObject(3, 2, 5, mats)
    as_arrays = [np.array(a, dtype=np.int64) for a in mats]
    old_key = tuple(bytes(a) for a in as_arrays)
    assert rho.key() == F.key() == old_key
    assert repr(rho) == f"Representation(m=3, n=2, p=5, A={mats})"
    assert repr(F) == f"SheafObject(m=3, n=2, p=5, A={mats})"
    assert rho == Representation(3, 2, 5, [np.array(a) + 5 for a in mats])
    assert rho != Representation(3, 2, 5, mats[:2] + [[[1, 1], [1, 0]]])
    assert rho != Representation(3, 2, 7, mats)
    for j, a in enumerate(as_arrays, start=1):
        assert np.array_equal(rho.value(f"a{j}"), a)
    assert type(rho.value("a1")) is np.ndarray and rho.value("a1").shape == (2, 2)


@pytest.mark.parametrize("cls", [Representation, SheafObject])
def test_wrong_count_or_shape_is_refused(cls):
    good = [[[1, 0], [0, 1]]] * 2
    shape = "need m matrices of size n x n"
    empty = np.zeros((0, 0), dtype=np.int64)
    for m, n, mats, message in [(3, 2, good, shape), (2, 2, good[:1], shape), (2, 3, good, shape),
                                (2, 2, [good[0], [[1, 0]]], shape), (1, 1, [[1, 2]], shape),
                                (1, 2, [[[[1, 0], [0, 1]]]], shape),
                                (0, 1, [], "m must be at least 1"), (-1, 1, [], "m must be at least 1"),
                                (0, 0, [], "m must be at least 1"), (1, 0, [empty], "n must be at least 1"),
                                (2, 0, [empty] * 2, "n must be at least 1")]:
        with pytest.raises(ValueError, match=message):
            cls(m, n, 3, mats)


def test_conjugate_and_functor_build_valid_objects():
    rng = random.Random(1608)
    for _ in range(20):
        m, n, p = rng.randint(1, 5), rng.randint(1, 3), rng.choice([2, 3, 5, 7])
        rho = random_rep(m, n, p, rng)
        ginv, g = invertible_pair(n, p, rng)
        conj = rho.conjugate(ginv, g)
        assert check_representation(conj)
        for a, b in zip(rho.A, conj.A):
            assert np.array_equal(b, (ginv @ a @ g) % p)
        F = functor_obj(rho)
        assert F.check_invariants()
        for a, b in zip(rho.A, F.A):
            assert np.array_equal(b, a.T)


def test_reps_json_tuples_are_unchanged(capsys):
    assert main(["reps", "--m", "1", "--n", "2", "--p", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    want = [json.dumps([[[a, b], [c, d]]]) for a, b, c, d in itertools.product((0, 1), repeat=4)
            if (a * d - b * c) % 2]
    assert [r["tuple"] for r in rows] == want
