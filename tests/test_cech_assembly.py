"""Cech assembly through the frame against the per-pair assembly of
cech_reference.py, and the frame's sharing between complexes on one tiling."""

import random

import numpy as np
import pytest

import cech_reference
from legtorus.ainfty import random_rep
from legtorus.cech import CechComplex, EyeSheaf, build_tiling, eye_tiling, graph_game
from legtorus.sheafcat import extension_from_class, functor_obj
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
        mid, _, _ = extension_from_class(w, F, G)
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
        mid, _, _ = extension_from_class(w, G, H)
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
        for key, block, rows, shift, _ in plan:
            for arr in (block, rows, shift):
                if arr is not None:
                    assert not arr.flags.writeable
            if block is not None:
                assert blocks_a[key] is blocks_b[key] is block
                with pytest.raises(ValueError):
                    blocks_a[key][0, 0] = 1
                shared += 1
            elif key in blocks_a:
                assert blocks_a[key].flags.writeable  # built for the pair
    assert shared > 0
    for v, space in a.vertex_space.items():
        assert b.vertex_space[v] is space
        assert not space.basis.flags.writeable and not space.free.flags.writeable
        if space.total:
            with pytest.raises(ValueError):
                space.basis[0, 0] = 2
    # a constrained open shares its layout but not its kernel's arrays
    t = next(t for t, (_, sys) in frame.tiles.items() if sys is not None)
    assert a.tile_space[t].keys is b.tile_space[t].keys
    assert not a.tile_space[t].basis.flags.writeable
