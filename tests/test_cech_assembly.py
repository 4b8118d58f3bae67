"""Cech assembly through the frame against the per-pair assembly of
cech_reference.py, and the frame's sharing between complexes on one tiling."""

import itertools
import random

import numpy as np
import pytest

import cech_reference
from legtorus.ainfty import random_rep
from legtorus.cech import CechComplex, EyeSheaf, build_tiling, eye_tiling, graph_game
from legtorus.sheafcat import extension_from_class, functor_obj
from legtorus import cech
from legtorus import exactalg as xa

PRIMES = [2, 3, 5, 32749]


def assert_same_spaces(got, want):
    assert list(got) == list(want)
    for key, a in got.items():
        b = want[key]
        assert (a.keys, a.dims, a.offsets, a.total) == (b.keys, b.dims, b.offsets, b.total), key
        assert a.basis.dtype == a.free.dtype == np.int64
        assert np.array_equal(a.basis, b.basis) and np.array_equal(a.free, b.free), key


def assert_same_blocks(got, want):
    assert list(got) == list(want)
    for key, a in got.items():
        assert a.dtype == want[key].dtype == np.int64 and np.array_equal(a, want[key]), key


def assert_same_complex(cx, rcx):
    """Every space, block, dimension, rank and the game trace agree."""
    for name in ("tile_space", "edge_space", "vertex_space"):
        assert_same_spaces(getattr(cx, name), getattr(rcx, name))
    assert cx.edges == rcx.edges
    assert_same_blocks(cx.d0_blocks, rcx.d0_blocks)
    assert_same_blocks(cx.d1_blocks, rcx.d1_blocks)
    assert (cx.c0_dim, cx.c1_dim, cx.c2_dim) == (rcx.c0_dim, rcx.c1_dim, rcx.c2_dim)
    assert cx.cohomology_dims() == rcx.cohomology_dims()
    assert cx.h2_certificate() == rcx.h2_certificate()
    assert cx.game == rcx.game == graph_game(cx) == cech_reference.graph_game(cx)


def rand_obj(m, n, p, rng):
    return functor_obj(random_rep(m, n, p, rng))


def test_torus_complexes_match_the_reference():
    """m 1-4 with n 1-2 and every prime; two pairs per tiling, so the second
    complex reads the frame the first one built."""
    rng = random.Random(1701)
    checked = 0
    for m in (1, 2, 3, 4):
        for n in (1, 2):
            for p in PRIMES:
                T = build_tiling(m)
                for _ in range(2):
                    F, G = rand_obj(m, n, p, rng), rand_obj(m, n, p, rng)
                    assert_same_complex(CechComplex(T, F, G), cech_reference.CechComplex(T, F, G))
                    checked += 1
                assert len(T.frames) == 1
    assert checked == 64


@pytest.mark.parametrize("resolution", [2, 3])
def test_refined_complexes_match_the_reference(resolution):
    rng = random.Random(1702 + resolution)
    for m in (1, 2, 3):
        n, p = rng.choice([1, 2]), rng.choice(PRIMES)
        T = build_tiling(m, resolution)
        for _ in range(2):
            F, G = rand_obj(m, n, p, rng), rand_obj(m, n, p, rng)
            assert_same_complex(CechComplex(T, F, G), cech_reference.CechComplex(T, F, G))


def test_m8_matches_the_reference():
    rng = random.Random(1704)
    T = build_tiling(8)
    for p in (2, 3):
        F, G = rand_obj(8, 1, p, rng), rand_obj(8, 1, p, rng)
        assert_same_complex(CechComplex(T, F, G), cech_reference.CechComplex(T, F, G))


def test_eye_complexes_match_the_reference():
    for rho in (1, 2):
        T = eye_tiling(rho)
        for r in (1, 2):
            for s in (1, 2):
                for p in (2, 5):
                    F, G = EyeSheaf(r, p), EyeSheaf(s, p)
                    assert_same_complex(CechComplex(T, F, G), cech_reference.CechComplex(T, F, G))
        assert len(T.frames) == 8


def test_extension_middles_match_the_reference():
    """(n, 2n), (2n, n) and (2n, 2n) pairs whose middle E_w comes from a
    nonzero cocycle w."""
    rng = random.Random(1705)
    for m, n, p in [(2, 1, 3), (3, 1, 5), (2, 2, 3), (4, 1, 2)]:
        T = build_tiling(m)
        F, G = rand_obj(m, n, p, rng), rand_obj(m, n, p, rng)
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        w[0][0, 0] = 1
        mid = extension_from_class(w, F, G)
        for a, b in ((F, mid), (mid, G), (mid, mid)):
            assert_same_complex(CechComplex(T, a, b), cech_reference.CechComplex(T, a, b))
        assert len(T.frames) == 3


def test_frames_follow_the_stalk_dimensions():
    """On one tiling, (n, n) then (n, 2n) then (n, n) again: each complex
    equals one built on a fresh tiling, and the third reuses the first
    one's frame."""
    rng = random.Random(1706)
    for m, n, p in [(2, 1, 3), (3, 2, 5), (4, 1, 32749)]:
        T = build_tiling(m)
        F, G, H = (rand_obj(m, n, p, rng) for _ in range(3))
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        mid = extension_from_class(w, G, H)
        sequence = [(F, G), (F, mid), (H, F), (mid, G), (G, H)]
        frames = []
        for a, b in sequence:
            cx = CechComplex(T, a, b)
            fresh = CechComplex(build_tiling(m), a, b)
            assert_same_complex(cx, fresh)
            assert_same_complex(cx, cech_reference.CechComplex(build_tiling(m), a, b))
            frames.append(cx._frame)
        assert len(T.frames) == 3
        assert frames[0] is frames[2] is frames[4]
        assert frames[0] is not frames[1] and frames[1] is not frames[3]


def test_frame_arrays_are_shared_and_read_only():
    rng = random.Random(1707)
    T = build_tiling(3)
    a = CechComplex(T, rand_obj(3, 2, 3, rng), rand_obj(3, 2, 3, rng))
    b = CechComplex(T, rand_obj(3, 2, 3, rng), rand_obj(3, 2, 3, rng))
    frame = a._frame
    assert b._frame is frame and len(T.frames) == 1
    shared = 0
    for plan, blocks_a, blocks_b in ((frame.d0, a.d0_blocks, b.d0_blocks),
                                     (frame.d1, a.d1_blocks, b.d1_blocks)):
        for key, block, shift, _ in plan:
            assert (block is None) != (shift is None)
            assert not (shift if block is None else block).flags.writeable
            if block is not None:
                assert blocks_a[key] is blocks_b[key] is block is frame.blocks[key]
                assert frame.trusts(blocks_a, key) and frame.trusts(blocks_b, key)
                with pytest.raises(ValueError):
                    blocks_a[key][0, 0] = 1
                shared += 1
            elif key in blocks_a:
                assert blocks_a[key].flags.writeable  # built for the pair
                assert key not in frame.blocks and not frame.trusts(blocks_a, key)
    assert shared == len(frame.blocks) > 0
    for v, space in a.vertex_space.items():
        assert b.vertex_space[v] is space
        assert not space.basis.flags.writeable and not space.free.flags.writeable
        if space.total:
            with pytest.raises(ValueError):
                space.basis[0, 0] = 2
    # a constrained open shares its layout, and its kernel is read-only
    t = next(t for t, i in frame.tile_at.items() if frame.opens[i][1] is not None)
    assert a.tile_space[t].keys is b.tile_space[t].keys
    assert not a.tile_space[t].basis.flags.writeable


# -- what the frame computes once ----------------------------------------------------

def test_self_swapped_and_repeated_pairs_share_one_tiling():
    """(F, G), (F, F), (G, F), (F, G) again, a fresh pair and an (n, 2n)
    pair with an extension middle, in this order on one tiling: each equals
    the reference and a complex built on a fresh tiling."""
    rng = random.Random(1708)
    for m, n, p in [(2, 1, 3), (3, 2, 5), (4, 2, 3), (5, 1, 2)]:
        T = build_tiling(m)
        F, G, H, K = (rand_obj(m, n, p, rng) for _ in range(4))
        w = [xa.rand_matrix(rng, n, n, p) for _ in range(m)]
        w[0][0, 0] = 1
        mid = extension_from_class(w, G, H)
        for a, b in [(F, G), (F, F), (G, F), (F, G), (H, K), (F, mid)]:
            cx = CechComplex(T, a, b)
            assert_same_complex(cx, cech_reference.CechComplex(T, a, b))
            assert_same_complex(cx, CechComplex(build_tiling(m), a, b))
        assert len(T.frames) == 2


def test_game_rechecks_a_swapped_frame_block(monkeypatch):
    """A move holding a d^1 block the frame trusts needs no rank check, so a
    later complex eliminates exactly the moves holding none: 1 at m = 4,
    n = 2.  A complex whose d^1 blocks for such a move are all swapped for
    zeroed copies trusts none of them and gets stuck there, and the next
    complex on the tiling does not."""
    rng = random.Random(1709)
    T = build_tiling(4)
    frame = CechComplex(T, rand_obj(4, 2, 3, rng), rand_obj(4, 2, 3, rng))._frame
    moves = [(v, keys, rule) for v, keys, (rule, _) in frame.game[0] if frame.vertex_space[v].dim]
    untrusted = [keys for _, keys, _ in moves if not any(k in frame.blocks for k in keys)]
    assert len(untrusted) == 1 and len(moves) > 20
    ranks = []
    monkeypatch.setattr(xa, "rank", lambda a, p, rank=xa.rank: ranks.append(a) or rank(a, p))
    F, G = rand_obj(4, 2, 3, rng), rand_obj(4, 2, 3, rng)
    cx = CechComplex(T, F, G)
    trace = cx.game
    assert trace["success"] and len(ranks) == len(untrusted)
    for a, keys in zip(ranks, untrusted):
        assert np.array_equal(a, np.hstack([cx.d1_blocks[k] for k in keys]))
    monkeypatch.undo()
    trusted = [(v, keys, rule) for v, keys, rule in moves
               if any(frame.trusts(cx.d1_blocks, k) for k in keys)]
    assert len(trusted) == len(moves) - len(untrusted)
    assert {rule for _, _, rule in trusted} >= {"horizontal-iso", "isomorphism-edge",
                                                "crossing-surjective", "cusp-lemma"}
    for v, keys, rule in trusted[:: max(1, len(trusted) // 4)]:
        cx = CechComplex(T, F, G)
        for key in keys:
            cx.d1_blocks[key] = np.zeros_like(cx.d1_blocks[key])
        for game in (cx.game, graph_game(cx), cech_reference.graph_game(cx)):
            assert not game["success"]
            assert game["stuck"] == [str(v)] and game["failed_rule"] == rule
        # the move's own edges no longer reach v, but d^1 may through others
        _, cert = cx.h2_certificate()
        assert cert["certified_by"] == "rank" and cert["rank_d1"] == xa.rank(cx.d1, cx.p)
        assert CechComplex(T, F, G).game == trace


def test_tampered_moves_play_as_the_reference():
    """With one block of a two-block move swapped for a zeroed copy, or with
    every block of a move swapped, the game's trace equals the reference
    game's, which rank-checks every move: a trusted block left in place
    certifies its move alone, and a move with none left is eliminated."""
    rng = random.Random(1712)
    outcomes = set()
    for m, n, p in [(2, 2, 3), (3, 1, 5), (4, 2, 3)]:
        T = build_tiling(m)
        F, G = rand_obj(m, n, p, rng), rand_obj(m, n, p, rng)
        frame = CechComplex(T, F, G)._frame
        moves = [keys for v, keys, _ in frame.game[0] if frame.vertex_space[v].dim]
        tampers = [keys[i:i + 1] for keys in moves if len(keys) == 2 for i in (0, 1)]
        tampers += moves
        for swapped in tampers:
            cx = CechComplex(T, F, G)
            for key in swapped:
                cx.d1_blocks[key] = np.zeros_like(cx.d1_blocks[key])
            trace = graph_game(cx)
            assert trace == cech_reference.graph_game(cx), (m, swapped)
            outcomes.add((len(swapped), trace["success"]))
    # a one-block swap beside a trusted block passes, a whole move fails
    assert {(1, True), (1, False), (2, False)} <= outcomes


def test_frame_cells_are_rechecked_when_a_block_is_swapped(monkeypatch):
    """Every d^1 . d^0 cell is checked on every complex, also a cell whose
    terms all pair frame blocks, which the check once skipped on later
    complexes: a corrupted copy of a frame d^0 block that only such cells
    read, handed out by `_assemble`, fails the check."""
    rng = random.Random(1710)
    T = build_tiling(3)
    F, G = rand_obj(3, 2, 3, rng), rand_obj(3, 2, 3, rng)
    frame = CechComplex(T, F, G)._frame
    d0_keys = {key for key, *_ in frame.d0}
    terms = {}
    for (v, ek), *_ in frame.d1:
        for t in ek:
            if (ek, t) in d0_keys:
                terms.setdefault((v, t), []).append(((v, ek), (ek, t)))
    settled = {cell: ts for cell, ts in terms.items()
               if set(frame.blocks) >= set(itertools.chain(*ts))}

    cells_of = {}
    for (v, ek), *_ in frame.d1:
        for t in ek:
            cells_of.setdefault((ek, t), set()).add((v, t))
    targets = {}  # d0 key -> a row that a selection in one of its cells reads
    for ts in settled.values():
        for k1, k0 in ts:
            if cells_of[k0] <= settled.keys() and frame.blocks[k0].shape[1]:
                targets.setdefault(k0, frame.blocks[k1][0].argmax())
    assert targets
    assemble = cech._assemble
    for key, i in list(targets.items())[:: max(1, len(targets) // 5)]:
        def corrupted(plan, *args, key=key, i=i):
            blocks = assemble(plan, *args)
            if key in blocks:
                bad = blocks[key].copy()
                bad[i, 0] = (bad[i, 0] + 1) % 3
                blocks[key] = bad
            return blocks

        monkeypatch.setattr(cech, "_assemble", corrupted)
        with pytest.raises(AssertionError, match="d1 . d0 != 0"):
            CechComplex(T, F, G)
    monkeypatch.undo()
    assert_same_complex(CechComplex(T, F, G), cech_reference.CechComplex(T, F, G))


def constrained_maps(T, F, G, frame):
    """{position in frame.opens of each constrained entry: the (F, G) maps at
    its constraints}, read from `local_data`."""
    mF, mG = cech.local_data(T, F)[1], cech.local_data(T, G)[1]
    return {i: [(mF[st], mG[st]) for _, _, st in system[1]]
            for i, (_, system) in enumerate(frame.opens) if system is not None}


def test_a_later_complex_solves_the_entries_whose_maps_changed(monkeypatch):
    """On the pairs A, B, A, A on one tiling, each complex solves exactly the
    constrained frame entries whose maps differ from the previous complex's
    (all of them on the first), so the fourth solves none, and each complex
    equals the reference."""
    rng = random.Random(1711)
    T = build_tiling(4)
    A = rand_obj(4, 2, 3, rng), rand_obj(4, 2, 3, rng)
    B = rand_obj(4, 2, 3, rng), rand_obj(4, 2, 3, rng)
    solves = []
    section_kernel = cech._section_kernel
    monkeypatch.setattr(cech, "_section_kernel", lambda *a: solves.append(a) or section_kernel(*a))
    counts, last = [], None
    for F, G in (A, B, A, A):
        frame = next(iter(T.frames.values()), None)
        held = {i: space for i, (_, space) in frame.solves.items()} if frame else {}
        del solves[:]
        cx = CechComplex(T, F, G)
        frame = cx._frame
        maps = constrained_maps(T, F, G, frame)
        changed = {i for i, pairs in maps.items()
                   if last is None or not all(np.array_equal(f, f0) and np.array_equal(g, g0)
                                              for (f, g), (f0, g0) in zip(pairs, last[i]))}
        renewed = {i for i, (_, space) in frame.solves.items() if held.get(i) is not space}
        assert renewed == changed and len(solves) == len(changed)
        counts.append(len(solves))
        assert_same_complex(cx, cech_reference.CechComplex(T, F, G))
        last = maps
    assert len(T.frames) == 1
    assert counts[0] == len(maps) and 0 < counts[1] == counts[2] < counts[0] and counts[3] == 0


def test_a_long_sweep_remembers_one_solve_per_constrained_entry():
    """After 12 random pairs on one m = 4, n = 2 tiling the frame remembers
    one solve per constrained entry, as many as after the first pair, and
    each is the space that the last complex's opens of that entry hold."""
    rng = random.Random(1713)
    T = build_tiling(4)
    for k in range(12):
        cx = CechComplex(T, rand_obj(4, 2, 3, rng), rand_obj(4, 2, 3, rng))
        if k == 0:
            first = len(cx._frame.solves)
    frame, = T.frames.values()
    constrained = {i for i, (_, system) in enumerate(frame.opens) if system is not None}
    assert set(frame.solves) <= constrained and len(frame.solves) == first
    for at, spaces in ((frame.tile_at, cx.tile_space), (frame.edge_at, cx.edge_space)):
        for key, i in at.items():
            if i in constrained:
                assert spaces[key] is frame.solves[i][1]
