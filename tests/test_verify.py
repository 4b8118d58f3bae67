import pytest

from legtorus import cech, verify
from legtorus.ainfty import HomElement
from legtorus.verify import (ALL_CHECKS, check_a_infinity, check_graph_game, rng_for,
                             run_suites)

SMALL = {"max_m": 2, "max_n": 1, "primes": (2, 3), "samples": 4}


def test_all_suites_pass_at_small_scale():
    ok, results = run_suites(SMALL, seed=0)
    assert ok, [r for r in results if not r["ok"]]
    assert {r["name"] for r in results} == {name for name, _ in ALL_CHECKS}


def test_corrupt_sign_is_caught():
    # n up to 2: at n = 1 the arity-2 relation sees the flipped sign only
    # through a nonzero mu2(x, mu1 y), which seed 0 does not meet in 6
    # samples (ROADMAP item 2)
    ok, results = run_suites({**SMALL, "max_n": 2, "samples": 6}, seed=0, corrupt_sign=True)
    assert not ok
    failing = {r["name"] for r in results if not r["ok"]}
    assert "ainfty.relations" in failing and "oracle.mu2" in failing
    detail = next(r["detail"] for r in results if r["name"] == "ainfty.relations")
    assert "relation violated" in detail


@pytest.mark.parametrize("max_n", [1, 2])
def test_relations_suite_catches_a_flipped_sign_on_every_seed(max_n):
    """Degrees drawn as permutations of (0, 1, 1): on seeds 0-39 a flipped
    composition sign breaks a relation every time, and the correct signs
    pass every time.  Drawn uniformly from {0, 1, 2}, the degrees let the
    flipped sign through on 20 (max_n 1) and 8 (max_n 2) of these seeds."""
    cfg = {"max_m": 2, "max_n": max_n, "primes": (2, 3, 5), "samples": 6}
    corrupt = [check_a_infinity(cfg, rng_for(s, "ainfty.relations"), corrupt_sign=True)
               for s in range(40)]
    assert sum(not ok for ok, _ in corrupt) == 40
    assert all("relation violated" in detail for _, detail in corrupt)
    correct = [check_a_infinity(cfg, rng_for(s, "ainfty.relations")) for s in range(40)]
    assert correct == [(True, "6 random homogeneous triples")] * 40


def test_relations_suite_refuses_to_pass_vacuously(monkeypatch):
    """With every argument zero each relation holds term by term, whatever
    the signs, so every draw checks nothing: the suite fails and says why."""
    monkeypatch.setattr(verify, "rand_homog", lambda m, n, p, deg, rng: HomElement(n, p, deg))
    for corrupt_sign in (False, True):
        ok, detail = check_a_infinity(SMALL, rng_for(0, "ainfty.relations"), corrupt_sign)
        assert not ok and detail == "no sampled relation had a nonzero term in 10 draws"


def test_zero_samples_is_refused():
    with pytest.raises(ValueError, match="vacuously"):
        run_suites({**SMALL, "samples": 0}, seed=0)


def test_rng_for_is_stable():
    a = rng_for(7, "x").random()
    b = rng_for(7, "x").random()
    c = rng_for(7, "y").random()
    assert a == b and a != c


def test_graph_game_suite_checks_the_game_against_the_dense_rank(monkeypatch):
    """A game that claims success on a d^1 with a zeroed row must not pass:
    the suite's oracle is the eliminated rank of d^1's blocks, not the
    certificate the game feeds."""

    class ZeroedRow(cech.CechComplex):
        def __init__(self, *args):
            super().__init__(*args)
            blocks = self.d1_blocks
            v = next(iter(blocks))[0]  # the vertex whose rows come first in d^1
            for key in [key for key in blocks if key[0] == v]:
                blocks[key] = blocks[key].copy()  # frame blocks are read-only
                blocks[key][0] = 0  # row 0 of d^1

    def lenient_game(cx):
        return {"success": True, "steps": [], "removed": 0}

    monkeypatch.setattr(verify, "CechComplex", ZeroedRow)
    monkeypatch.setattr(verify, "graph_game", lenient_game)
    monkeypatch.setattr(cech, "graph_game", lenient_game)
    ok, detail = check_graph_game(SMALL, rng_for(0, "cech.graph_game"))
    assert not ok and "not surjective" in detail


def test_sylvester_suite_draws_m_n_and_p_from_cfg(monkeypatch):
    calls = []
    real = verify.sylvester_check
    monkeypatch.setattr(verify, "sylvester_check",
                        lambda mats, p: calls.append((len(mats), mats[0].shape, p))
                        or real(mats, p))
    cfg = {**SMALL, "max_n": 2, "samples": 40}
    ok, detail = verify.check_sylvester(cfg, rng_for(0, "torusrep.sylvester"))
    assert ok and detail == "40 random tuples" and len(calls) == 40
    assert {m for m, _, _ in calls} == {1, 2}
    assert {shape for _, shape, _ in calls} == {(1, 1), (2, 2)}
    assert {p for _, _, p in calls} == {2, 3}


@pytest.mark.parametrize("name, case", [("compose00", "(0,0)"), ("compose10", "(0,1)"),
                                        ("compose01", "(1,0)")])
def test_functoriality_suite_catches_each_wrong_composition(name, case, monkeypatch):
    """Each class-pair case composes on the sheaf side with its own map: a
    negated one fails that case, and only it, on a seed that meets a
    nonzero composite there (seed 4 does for all three at p = 3)."""
    cfg = {"max_m": 3, "max_n": 2, "primes": (3,), "samples": 9}
    rng = rng_for(4, "equivalence.functor")
    assert verify.check_functoriality(cfg, rng) == (True, "9 random triples")
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda f, g, p: tuple((-x) % p for x in real(f, g, p)))
    ok, detail = verify.check_functoriality(cfg, rng_for(4, "equivalence.functor"))
    assert not ok and detail.startswith(f"{case} composition not preserved")
