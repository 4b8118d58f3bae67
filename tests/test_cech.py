import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cech_reference
from legtorus import cech
from legtorus import exactalg as xa
from legtorus.ainfty import enumerate_reps, random_rep
from legtorus.cech import (CechComplex, EyeSheaf, OpenSpace, SLANTED,
                           _block_rank, _check_functor, _sparse_product,
                           _triplets, build_tiling, eye_tiling, graph_game,
                           local_data, neighbor, vertex_edges, vertex_tiles)
from legtorus.sheafcat import ext0_dim, ext1_dim, functor_obj

from gauss_jordan import gauss_jordan_rref

ROOT = Path(__file__).resolve().parents[1]


def rand_pair(m, n, p, rng):
    return functor_obj(random_rep(m, n, p, rng)), functor_obj(random_rep(m, n, p, rng))


# -- grid combinatorics -----------------------------------------------------------

def test_neighbor_involution():
    from legtorus.cech import OPP
    for c in range(0, 4):
        for r in range(-1, 3):
            for d in ("N", "S") + SLANTED:
                nb = neighbor((c, r), d)
                assert neighbor(nb, OPP[d]) == (c, r)


def test_vertex_incidences():
    v = ("E", 2, 1)
    tiles = vertex_tiles(v)
    assert len(tiles) == 3
    edges = vertex_edges(v)
    assert sum(1 for _, hor in edges if hor) == 1
    for ek, _ in edges:
        assert set(ek) <= set(tiles)


# -- tiling structure ---------------------------------------------------------------

def test_tile_contents_m2():
    T = build_tiling(2)
    kinds = [c[0] for c in T.content.values()]
    assert kinds.count("cusp") == 4
    assert kinds.count("crossing") == 2
    assert sorted(T.regions) == ["D1", "U0", "U1", "U2"]
    assert T.regions == ("D1", "U0", "U1", "U2")


PICKLE_TILINGS = """
import pickle, sys
from legtorus.cech import build_tiling, eye_tiling
sys.stdout.buffer.write(pickle.dumps(build_tiling(3)) + b"|" + pickle.dumps(eye_tiling(1)))
"""


def test_tilings_do_not_depend_on_the_hash_seed():
    """A tiling is the same object whatever order Python's sets iterate in."""
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", PICKLE_TILINGS], capture_output=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_tiling_constraint_audit():
    # constraints are asserted during construction; they hold for every m, rho
    for m in (1, 2, 3, 4):
        for rho in (1, 2):
            T = build_tiling(m, rho)
            assert len([c for c in T.content.values() if c[0] == "crossing"]) == m
            for v in T.vertices:
                assert sum(1 for _, hor in vertex_edges(v) if hor) == 1


def test_arc_sides_and_potentials():
    T = build_tiling(3)
    assert T.arc_sides["a1"] == ("U0", "U1")
    assert T.arc_sides["a2"] == ("U1", "U2")
    assert T.arc_sides["bt0"] == ("U2", "U1")
    assert T.arc_sides["bt1"] == ("U2", "D1")
    assert T.arc_sides["bt3"] == ("U2", "U1")
    assert T.arc_sides["bl1"] == ("D1", "U0")
    assert T.arcs["a1"].potential == 1 and T.arcs["bt0"].potential == 0


def test_edge_classification():
    T = build_tiling(2)
    crossed = [i for i in T.edge_info.values() if i["arc"]]
    horizontal = [i for i in T.edge_info.values() if i.get("horizontal")]
    assert all(not i.get("horizontal") for i in crossed)
    assert len(crossed) == len(T.cuts)
    for info in crossed:
        assert info["potential"] in (0, 1)
        assert info["upper_vertex"] is not None or info["lower_vertex"] is not None


def reference_check_functor(dims, maps, p):
    """`_check_functor` as it was before maps were indexed by source: every
    ordered pair of maps, kept verbatim as the reference."""
    for (s, t), m1 in maps.items():
        for (s2, t2), m2 in maps.items():
            if s2 == t and (s, t2) in maps:
                if ((m2 @ m1 - maps[(s, t2)]) % p).any():
                    raise AssertionError(f"generizations do not commute: {s} -> {t} -> {t2}")


def test_functor_check_matches_all_pairs_reference():
    """Corrupting any composite map fails both checks on the same triangle."""
    rng = random.Random(36)
    corrupted = 0
    for m, n, p in [(1, 1, 2), (2, 2, 3), (3, 1, 5)]:
        T = build_tiling(m)
        dims, maps = local_data(T, functor_obj(random_rep(m, n, p, rng)))
        composites = {(s, t2) for (s, t) in maps for (s2, t2) in maps
                      if s2 == t and (s, t2) in maps}
        for key in sorted(composites):
            bad = dict(maps)
            bad[key] = maps[key].copy()
            bad[key].flat[0] = (bad[key].flat[0] + 1) % p
            errors = []
            for check in (_check_functor, reference_check_functor):
                with pytest.raises(AssertionError, match="do not commute") as exc:
                    check(dims, bad, p)
                errors.append(str(exc.value))
            assert errors[0] == errors[1]
            corrupted += 1
    assert corrupted > 10


def test_zero_stalks_have_dims_but_no_maps():
    rng = random.Random(37)
    cases = [(build_tiling(m), functor_obj(random_rep(m, rng.choice([1, 2]), 3, rng)))
             for m in range(1, 7)]
    cases += [(eye_tiling(rho), EyeSheaf(2, 3)) for rho in (1, 2)]
    for T, obj in cases:
        dims, maps = local_data(T, obj)
        zero = {s for s, d in dims.items() if d == 0}
        assert ("R", "U0") in zero
        assert maps and all(mat.size for mat in maps.values())
        assert not zero & {s for pair in maps for s in pair}
        # arcs a1, a2 and bt_i; the two cusp vertices x2, x3 meet four strata each
        assert len(maps) == (1 if T.kind == "eye" else 3 + 2 * (T.m + 1) + 8)


# -- Cech cohomology as an Ext oracle ------------------------------------------------

def test_full_enumeration_m2_n1_f2():
    T = build_tiling(2)
    objs = [functor_obj(r) for r in enumerate_reps(2, 1, 2)]
    assert len(objs) == 3
    for F in objs:
        for G in objs:
            dims = CechComplex(T, F, G).cohomology_dims()
            assert dims == (ext0_dim(F, G), ext1_dim(F, G), 0)


def test_self_pair_dims_match_spec_example():
    T = build_tiling(2)
    F = functor_obj(enumerate_reps(2, 1, 2)[0])  # the (0,0) tuple
    assert CechComplex(T, F, F).cohomology_dims() == (2, 2, 0)


def test_sampled_pairs_agree():
    rng = random.Random(20)
    for (m, n, p) in [(1, 2, 3), (2, 2, 2), (3, 1, 3)]:
        T = build_tiling(m)
        for _ in range(2):
            F, G = rand_pair(m, n, p, rng)
            dims = CechComplex(T, F, G).cohomology_dims()
            assert dims == (ext0_dim(F, G), ext1_dim(F, G), 0), (m, n, p)


def test_d1_after_d0_is_zero(complexes):
    rng = random.Random(21)
    T = build_tiling(2)
    F, G = rand_pair(2, 2, 3, rng)
    cx = CechComplex(T, F, G)  # d1 . d0 = 0 asserted in the constructor
    assert cx.c2_dim > 0
    for cx in [cx, *complexes]:
        assert not ((cx.d1 @ cx.d0) % cx.p).any()


def test_corrupted_d0_is_rejected(monkeypatch):
    """One changed entry of one d0 block fails the d1 . d0 check, whether the
    frame supplies the block or the pair's bases give it, and whether the d1
    block beside it is a frame selection or not."""
    rng = random.Random(28)
    T = build_tiling(2)
    F, G = rand_pair(2, 2, 3, rng)
    cx = CechComplex(T, F, G)
    frame = cx._frame
    from_frame = {key for key, block, *_ in frame.d0 if block is not None}
    # a nonzero entry of a d0 block in a row whose column of d1 is nonzero:
    # changing it changes block (v, t) of d1 . d0
    targets = {}
    for (v, ek), b1 in cx.d1_blocks.items():
        for t in ek:
            b0 = cx.d0_blocks.get((ek, t))
            for i in range(b1.shape[1]) if b0 is not None else ():
                if b1[:, i].any() and b0[i].any():
                    kind = ((ek, t) in from_frame, (v, ek) in frame.blocks)
                    targets.setdefault(kind, ((ek, t), i, np.flatnonzero(b0[i])[0]))
    assert {(True, True), (False, True), (False, False)} <= set(targets)
    assemble = cech._assemble
    for key, i, j in targets.values():
        def corrupted(plan, small_spaces, big_spaces, p, key=key, i=i, j=j):
            blocks = assemble(plan, small_spaces, big_spaces, p)
            if key in blocks:
                bad = blocks[key].copy()
                bad[i, j] = (bad[i, j] + 1) % p
                blocks[key] = bad
            return blocks

        monkeypatch.setattr(cech, "_assemble", corrupted)
        with pytest.raises(AssertionError, match="d1 . d0 != 0"):
            CechComplex(T, F, G)
    monkeypatch.undo()
    # the frame's own block: the next complex on T reads it as it is
    key, i, j = targets[True, True]
    k = next(k for k, entry in enumerate(frame.d0) if entry[0] == key)
    entry = frame.d0[k]
    bad = entry[1].copy()
    bad[i, j] = (bad[i, j] + 1) % cx.p
    frame.d0[k] = (key, bad, *entry[2:])
    try:
        with pytest.raises(AssertionError, match="d1 . d0 != 0"):
            CechComplex(T, F, G)
    finally:
        frame.d0[k] = entry
    assert CechComplex(T, F, G).cohomology_dims() == cx.cohomology_dims()


def test_corrupted_d1_is_rejected(monkeypatch):
    """One changed entry of a copy of one d1 block, handed out by
    `_assemble`, fails the d1 . d0 check, on a fresh tiling and on one whose
    frame is built, whether the block is a frame selection or built for the
    pair."""
    rng = random.Random(28)
    T = build_tiling(2)
    F, G = rand_pair(2, 2, 3, rng)
    cx = CechComplex(T, F, G)
    frame = cx._frame
    # an entry (0, c) of a d1 block whose row c of a d0 block beside it is
    # nonzero: changing it changes block (v, t) of d1 . d0
    targets = {}
    for (v, ek), b1 in cx.d1_blocks.items():
        for t in ek:
            b0 = cx.d0_blocks.get((ek, t))
            for c in range(b1.shape[1]) if b0 is not None else ():
                if b0[c].any():
                    targets.setdefault((v, ek) in frame.blocks, ((v, ek), c))
    assert set(targets) == {True, False}
    assert targets[True][0] == (("E", 1, 1), ((2, 1), (2, 2)))
    assemble = cech._assemble
    for key, c in targets.values():
        def corrupted(plan, small_spaces, big_spaces, p, key=key, c=c):
            blocks = assemble(plan, small_spaces, big_spaces, p)
            if key in blocks:
                bad = blocks[key].copy()
                bad[0, c] = (bad[0, c] + 1) % p
                blocks[key] = bad
            return blocks

        for tiling in (build_tiling(2), T):
            monkeypatch.setattr(cech, "_assemble", corrupted)
            with pytest.raises(AssertionError, match="d1 . d0 != 0"):
                CechComplex(tiling, F, G)
            monkeypatch.undo()
    assert CechComplex(T, F, G).cohomology_dims() == cx.cohomology_dims()


def test_frame_d1_blocks_are_checked_signed_selections(monkeypatch, complexes):
    """Every frame d1 block is +- distinct rows of an identity matrix; a
    frame whose d1 block is anything else (a scaled entry, a repeated row, a
    zero row) is refused as it is built, also when several d1 keys share
    the block."""
    checked = 0
    for cx in complexes:
        frame = cx._frame
        for key, block, _, sign in frame.d1:
            if block is None:
                continue
            assert frame.blocks[key] is block
            cols = block.argmax(axis=1)
            want = np.zeros_like(block)
            want[np.arange(len(cols)), cols] = sign % cx.p
            assert np.array_equal(block, want) and len(set(cols.tolist())) == len(cols)
            checked += 1
    assert checked > 0
    # over F_5, where 2 is no sign, the first frame d1 block (a restriction
    # from an edge to a vertex, whose keymap names the edge's "S" blocks)
    rng = random.Random(29)
    F, G = rand_pair(1, 2, 5, rng)
    restriction = cech._restriction
    tampers = (lambda b: b * 2 % 5, lambda b: b[[0, 0]],
               lambda b: b * (np.arange(len(b)) > 0)[:, None])
    for tamper in tampers:
        seen = []

        def tampered(big, small, keymap, *args, tamper=tamper):
            block, shift = restriction(big, small, keymap, *args)
            if block is not None and not seen and {kb[0] for _, kb in keymap} == {"S"}:
                seen.append(block)
                block = tamper(block)
            return block, shift

        monkeypatch.setattr(cech, "_restriction", tampered)
        with pytest.raises(AssertionError, match="not a signed selection"):
            CechComplex(build_tiling(1), F, G)
        monkeypatch.undo()
        assert seen and len(seen[0]) >= 2
    # the tampered block is the first frame d1 block, which many d1 keys share
    frame = CechComplex(build_tiling(1), F, G)._frame
    first = next(block for _, block, *_ in frame.d1 if block is not None)
    assert np.array_equal(first, seen[0]) and sum(b is first for _, b, *_ in frame.d1) >= 2


def test_check_h2_certificate():
    rng = random.Random(22)
    for m in (1, 2, 3):
        T = build_tiling(m)
        F, G = rand_pair(m, 1, 2, rng)
        ok, cert = CechComplex(T, F, G).h2_certificate()
        assert ok and cert["rank_d1"] == cert["dim_c2"]


def test_refinement_invariance():
    rng = random.Random(23)
    F = functor_obj(random_rep(2, 2, 3, rng))
    dims = [CechComplex(build_tiling(2, resolution=r), F, F).cohomology_dims() for r in (1, 2)]
    assert dims[0] == dims[1]
    assert dims[0][0] >= 1  # the identity is a global section


def test_objects_of_the_wrong_kind_are_refused():
    """A torus tiling takes sheaves on the torus front and the eye tiling
    takes `EyeSheaf`s, refused like objects over another field or front; an
    `EyeSheaf` takes the moduli a `SheafObject` takes, and no negative rank."""
    for rank, p in ((1, 4), (1, 65537), (-1, 3)):
        with pytest.raises(ValueError, match="not prime|out of supported range|rank -1 < 0"):
            EyeSheaf(rank, p)
    assert CechComplex(eye_tiling(1), EyeSheaf(0, 3), EyeSheaf(1, 3)).cohomology_dims() == (0, 0, 0)
    rng = random.Random(39)
    F, G = rand_pair(2, 1, 3, rng)
    with pytest.raises(ValueError, match="eye tiling needs EyeSheaf objects"):
        CechComplex(eye_tiling(1), F, G)
    with pytest.raises(ValueError, match="eye tiling needs EyeSheaf objects"):
        CechComplex(eye_tiling(1), EyeSheaf(1, 3), G)
    with pytest.raises(ValueError, match="torus tiling needs SheafObject objects"):
        CechComplex(build_tiling(2), EyeSheaf(1, 3), EyeSheaf(2, 3))
    with pytest.raises(ValueError, match="torus tiling needs SheafObject objects"):
        CechComplex(build_tiling(2), F, EyeSheaf(1, 3))
    with pytest.raises(ValueError, match="different fields"):
        CechComplex(eye_tiling(1), EyeSheaf(1, 3), EyeSheaf(1, 5))
    with pytest.raises(ValueError, match="different front"):
        CechComplex(build_tiling(3), F, G)


def test_eye_unknot_fixture():
    for r in (1, 2):
        for s in (1, 2):
            for p in (2, 5):
                dims = CechComplex(eye_tiling(1), EyeSheaf(r, p), EyeSheaf(s, p)).cohomology_dims()
                assert dims == (r * s, 0, 0)
    assert CechComplex(eye_tiling(2), EyeSheaf(2, 3), EyeSheaf(1, 3)).cohomology_dims() == (2, 0, 0)


# -- the reduction game ----------------------------------------------------------------

def test_graph_game_succeeds_and_implies_h2():
    rng = random.Random(24)
    for m in (1, 2, 3, 4):
        T = build_tiling(m)
        F, G = rand_pair(m, 1, 2, rng)
        cx = CechComplex(T, F, G)
        res = graph_game(cx)
        assert res["success"], res
        rules = {s["rule"] for s in res["steps"]}
        assert "cusp-lemma" in rules
        if m >= 1:
            assert "crossing-surjective" in rules
        ok, _ = cx.h2_certificate()
        assert ok


def test_graph_game_rank_certified_steps():
    rng = random.Random(25)
    T = build_tiling(2)
    F, G = rand_pair(2, 2, 3, rng)
    res = graph_game(CechComplex(T, F, G))
    assert res["success"]
    assert all(s.get("rank_checked") for s in res["steps"] if "removed_red" in s)


def test_graph_game_stuck_on_a_vertex_with_zero_rows():
    rng = random.Random(27)
    F, G = rand_pair(2, 2, 3, rng)
    T = build_tiling(2)
    steps = graph_game(CechComplex(T, F, G))["steps"]
    for rule in ("crossing-surjective", "cusp-lemma", "horizontal-iso"):
        step = next(s for s in steps if s["rule"] == rule)
        cx = CechComplex(T, F, G)
        v = next(v for v in T.vertices if str(v) == step["removed_red"])
        assert cx.vertex_space[v].dim > 0
        # the frame's blocks are read-only: each block is replaced, not written
        for ek, _ in vertex_edges(v):
            cx.d1_blocks[v, ek] = np.zeros_like(cx.d1_blocks[v, ek])
        # zeroed before the first rank_d1(): the game fails, so the rank is
        # the eliminated one; the dense view is built after the zeroing
        ok, cert = cx.h2_certificate()
        assert not ok and cert["certified_by"] == "rank"
        assert cx.rank_d1() == cert["rank_d1"] == xa.rank(cx.d1, cx.p) < cx.c2_dim
        for res in (cx.game, graph_game(cx)):
            assert not res["success"]
            assert res["stuck"] == [str(v)] and res["failed_rule"] == rule


def test_graph_game_eye():
    res = graph_game(CechComplex(eye_tiling(1), EyeSheaf(2, 3), EyeSheaf(1, 3)))
    assert res["success"]


# -- sections in echelon coordinates ---------------------------------------------------

def reference_project(big, small, keymap, p):
    """The restriction map as computed before sections were read in echelon
    coordinates: embed the kept blocks, then apply a left inverse of the
    small basis."""
    proj = xa.zeros(small.total, big.total)
    for ks, kb in keymap.items():
        ln = small.dims[ks]
        proj[small.offsets[ks]:small.offsets[ks] + ln,
             big.offsets[kb]:big.offsets[kb] + ln] = xa.eye(ln)
    if small.dim == 0:
        return xa.zeros(0, big.dim)
    return (xa.left_inverse(small.basis, p) @ proj @ big.basis) % p


@pytest.fixture(scope="module")
def complex_pairs():
    """(complex, reference complex of tests/cech_reference.py) on the same
    tiling and objects."""
    rng = random.Random(26)
    cases = []
    for m, n, p in [(1, 1, 2), (1, 2, 5), (2, 1, 3), (2, 2, 2), (3, 1, 5), (3, 2, 3)]:
        F, G = rand_pair(m, n, p, rng)
        cases.append((build_tiling(m), F, G))
    cases.append((eye_tiling(1), EyeSheaf(2, 3), EyeSheaf(1, 3)))
    cases.append((eye_tiling(2), EyeSheaf(2, 5), EyeSheaf(2, 5)))
    return [(CechComplex(*case), cech_reference.CechComplex(*case)) for case in cases]


@pytest.fixture(scope="module")
def complexes(complex_pairs):
    return [cx for cx, _ in complex_pairs]


def test_restriction_maps_match_left_inverse_reference(complex_pairs):
    """Every block of d^0 and d^1 is the signed restriction map that the
    left-inverse formula gives on the complex's own spaces.  Which block of
    the bigger open each block of the smaller one is (the keymap) is read
    from the reference complex's calls."""
    for cx, rcx in complex_pairs:
        keymaps, current = {}, []
        project = rcx._project

        def recording(big, small, keymap):
            keymaps[current[-1]] = keymap
            return project(big, small, keymap)

        rcx._project = recording
        try:
            for ek in rcx.edges:
                for tile in ek:
                    current.append((ek, tile))
                    rcx._tile_to_edge(tile, ek)
            for v in rcx.T.vertices:
                for ek, _ in vertex_edges(v):
                    current.append((v, ek))
                    rcx._edge_to_vertex(ek, v)
        finally:
            del rcx._project
        assert len(keymaps) == 2 * len(cx.edges) + 3 * len(cx.T.vertices)
        d0 = {(ek, t): (cx.tile_space[t], cx.edge_space[ek], 1 if t == ek[1] else -1)
              for ek in cx.edges for t in ek}
        d1 = {}
        for v in cx.T.vertices:
            t0, t1, t2 = sorted(vertex_tiles(v))
            for ek, sign in (((t1, t2), 1), ((t0, t2), -1), ((t0, t1), 1)):
                d1[v, ek] = (cx.edge_space[ek], cx.vertex_space[v], sign)
        for blocks, maps in ((cx.d0_blocks, d0), (cx.d1_blocks, d1)):
            assert set(blocks) == {key for key, (_, small, _) in maps.items() if small.dim}
            for key, block in blocks.items():
                big, small, sign = maps[key]
                want = sign * reference_project(big, small, keymaps[key], cx.p) % cx.p
                assert block.dtype == np.int64 and np.array_equal(block, want), key


def test_section_basis_is_identity_at_free_rows(complexes):
    for cx in complexes:
        spaces = [*cx.tile_space.values(), *cx.edge_space.values(), *cx.vertex_space.values()]
        assert any(0 < s.dim < s.total for s in spaces)
        for s in spaces:
            assert len(s.free) == s.dim
            assert np.array_equal(s.basis[s.free], xa.eye(s.dim))


def test_red_blue_maps_are_restriction_maps_up_to_sign(complex_pairs):
    for cx, rcx in complex_pairs:
        checked = 0
        for v in cx.T.vertices:
            r = cx._vert_off[v]
            for ek, _ in vertex_edges(v):
                c = cx._edge_off[ek]
                mat = cx.d1[r:r + cx.vertex_space[v].dim, c:c + cx.edge_space[ek].dim]
                res = rcx._edge_to_vertex(ek, v)
                assert np.array_equal(mat, res) or np.array_equal(mat, (-res) % cx.p)
                checked += mat.size
        assert checked > 0


# -- rank d^1 certified by the game -----------------------------------------------------

@pytest.fixture(scope="module")
def seeded_complexes():
    """36 seeded complexes: m 1-4, resolution 1-3, p in {2, 3, 5}."""
    rng = random.Random(30)
    cases = []
    for m in (1, 2, 3, 4):
        for rho in (1, 2, 3):
            for p in (2, 3, 5):
                F, G = rand_pair(m, rng.choice([1, 2]), p, rng)
                cases.append(CechComplex(build_tiling(m, rho), F, G))
    return cases


def test_rank_d1_matches_dense_rank(complexes, seeded_complexes):
    for cx in [*complexes, *seeded_complexes]:
        ok, cert = cx.h2_certificate()
        assert cx.rank_d1() == xa.rank(cx.d1, cx.p) == cx.c2_dim
        assert ok and cert["certified_by"] == "game" and cx.game["success"]


@pytest.fixture(scope="module")
def triplet_complexes():
    """(complex, F, G) with m 1-4, n 1-2, resolution 1-2, every prime, and
    the eye tiling; each complex is the second on its tiling, so it reads
    the blocks its frame holds."""
    rng = random.Random(37)
    cases = []
    for m in (1, 2, 3, 4):
        for rho in (1, 2):
            for p in (2, 3, 5, 32749):
                T = build_tiling(m, rho)
                n = rng.choice([1, 2])
                CechComplex(T, *rand_pair(m, n, p, rng))
                cases.append((T, *rand_pair(m, n, p, rng)))
    for rho in (1, 2):
        for r, s, p in ((1, 2, 2), (2, 2, 32749)):
            T = eye_tiling(rho)
            CechComplex(T, EyeSheaf(r, p), EyeSheaf(s, p))
            cases.append((T, EyeSheaf(r, p), EyeSheaf(s, p)))
    return [(CechComplex(*case), *case[1:]) for case in cases]


def nonzero_cells(a):
    """The nonzero entries of a dense matrix as a set of (row, col, value)."""
    i, j = np.nonzero(a)
    return set(zip(i.tolist(), j.tolist(), a[i, j].tolist()))


def triplet_cells(nz):
    rows, cols, vals = nz
    assert all(a.dtype == np.int64 for a in nz) and vals.all()
    cells = set(zip(rows.tolist(), cols.tolist(), vals.tolist()))
    assert len(cells) == len(rows)
    return cells


def test_triplets_are_the_nonzeros_of_the_dense_views(triplet_complexes):
    for cx, _, _ in triplet_complexes:
        d0 = _triplets(cx.d0_blocks, cx._edge_off, cx._tile_off)
        d1 = _triplets(cx.d1_blocks, cx._vert_off, cx._edge_off)
        assert triplet_cells(d0) == triplet_cells(cx._d0_nz) == nonzero_cells(cx.d0)
        assert triplet_cells(d1) == nonzero_cells(cx.d1) and d1[0].size
    assert triplet_cells(_triplets({}, {}, {})) == set()


def test_sparse_product_matches_the_dense_product(triplet_complexes):
    """Zero on every complex, and the cells of the dense (d1 @ d0) % p after
    d0 is corrupted in a few rows d1 reads, and on random sparse matrices
    whose products cancel in some cells."""
    rng = np.random.default_rng(38)
    for cx, _, _ in triplet_complexes:
        d1 = _triplets(cx.d1_blocks, cx._vert_off, cx._edge_off)
        assert not _sparse_product(d1, cx._d0_nz, cx.c0_dim, cx.p)[2].size
        read = np.flatnonzero(cx.d1.any(axis=0))
        bad = cx.d0.copy()
        rows = rng.choice(read, size=min(3, len(read)), replace=False)
        cols = rng.integers(cx.c0_dim, size=(len(rows), 2))
        bad[rows[:, None], cols] = (bad[rows[:, None], cols] + 1) % cx.p
        want = nonzero_cells(cx.d1 @ bad % cx.p)
        assert want and triplet_cells(
            _sparse_product(d1, _triplets({(0, 0): bad}, {0: 0}, {0: 0}), cx.c0_dim, cx.p)) == want
    cancelled = 0
    for p in (2, 3, 5, 32749):
        for k, l, n in ((1, 1, 1), (4, 3, 5), (9, 12, 7), (0, 3, 2), (3, 0, 2)):
            a = rng.integers(p, size=(k, l)) * (rng.random((k, l)) < 0.4)
            b = rng.integers(p, size=(l, n)) * (rng.random((l, n)) < 0.4)
            nz = [_triplets({(0, 0): m}, {0: 0}, {0: 0}) for m in (a, b)]
            assert triplet_cells(_sparse_product(*nz, n, p)) == nonzero_cells(a @ b % p)
            cancelled += int(((a @ b % p == 0) & (a @ b > 0)).sum())
    assert cancelled


def test_block_ranks_match_dense_rref(complexes, seeded_complexes, triplet_complexes):
    """The forward pass on lines read from the triplets, whose entries are
    residues, against the pivots of the dense views under the reference
    Gauss-Jordan loop of tests/gauss_jordan.py: `xa.rref` runs the forward
    pass itself, so it cannot be the oracle."""
    for cx in [*complexes, *seeded_complexes, *(cx for cx, _, _ in triplet_complexes)]:
        for b in [*cx.d0_blocks.values(), *cx.d1_blocks.values()]:
            assert b.dtype == np.int64 and (b.size == 0 or 0 <= b.min() <= b.max() < cx.p)
        d0_shape, d1_shape = (cx.c1_dim, cx.c0_dim), (cx.c2_dim, cx.c1_dim)
        rank_d0 = _block_rank(cx._d0_nz, d0_shape, cx.p)
        assert rank_d0 == len(gauss_jordan_rref(cx.d0, cx.p)[1])
        # the long side, one row per C^1 coordinate, as the reference eliminates
        assert rank_d0 == cech_reference._block_rank(cx.d0_blocks, cx._edge_off, cx._tile_off, cx.p)
        assert cx.cohomology_dims()[0] == cx.c0_dim - rank_d0
        d1_nz = _triplets(cx.d1_blocks, cx._vert_off, cx._edge_off)
        rank_d1 = _block_rank(d1_nz, d1_shape, cx.p)
        assert rank_d1 == cx.eliminated_rank_d1() == len(gauss_jordan_rref(cx.d1, cx.p)[1])
        # the transposed pass, which d^1's rows already are the short side of
        transposed = {(ck, rk): b.T for (rk, ck), b in cx.d1_blocks.items()}
        nz = _triplets(transposed, cx._edge_off, cx._vert_off)
        assert rank_d1 == _block_rank(nz, d1_shape[::-1], cx.p)


def settled_d0_keys(frame):
    """The frame d^0 blocks whose every d^1 . d^0 cell pairs frame blocks
    alone, each with a row that a frame d^1 selection in one of them reads:
    the check once skipped these cells on every later complex."""
    terms = {}
    for (v, ek), *_ in frame.d1:
        for t in ek:
            terms.setdefault((v, t), []).append(((v, ek), (ek, t)))
    settled = {cell: ts for cell, ts in terms.items()
               if {k for term in ts for k in term} <= frame.blocks.keys()}
    cells_of = {}
    for cell, ts in terms.items():
        for _, k0 in ts:
            cells_of.setdefault(k0, set()).add(cell)
    return {k0: frame.blocks[k1][0].argmax() for ts in settled.values() for k1, k0 in ts
            if cells_of[k0] <= settled.keys() and frame.blocks[k0].shape[1]}


def test_corrupted_copies_fail_the_product_check(monkeypatch, triplet_complexes):
    """One entry changed in a copy of a frame d^0 block whose cells once were
    skipped, of a d^0 block gathered for the pair, or of a frame d^1
    selection, handed out by `_assemble`, fails the d^1 . d^0 check on every
    complex that has such a block."""
    assemble = cech._assemble
    seen = {"settled d0": 0, "pair d0": 0, "frame d1": 0}
    for cx, F, G in triplet_complexes:
        frame = cx._frame
        targets = {}
        for k0, i in settled_d0_keys(frame).items():
            targets.setdefault("settled d0", (k0, i, 0))
        for (v, ek), b1 in cx.d1_blocks.items():
            for t in ek:
                b0 = cx.d0_blocks.get((ek, t))
                for c in range(b1.shape[1]) if b0 is not None else ():
                    if (ek, t) not in frame.blocks and b1[:, c].any() and b0.shape[1]:
                        targets.setdefault("pair d0", ((ek, t), c, 0))
                    if (v, ek) in frame.blocks and b0[c].any():
                        targets.setdefault("frame d1", ((v, ek), 0, c))
        for kind, (key, i, j) in targets.items():
            def corrupted(plan, *args, key=key, i=i, j=j):
                blocks = assemble(plan, *args)
                if key in blocks:
                    bad = blocks[key].copy()
                    bad[i, j] = (bad[i, j] + 1) % cx.p
                    blocks[key] = bad
                return blocks

            monkeypatch.setattr(cech, "_assemble", corrupted)
            with pytest.raises(AssertionError, match="d1 . d0 != 0"):
                CechComplex(cx.T, F, G)
            monkeypatch.undo()
            seen[kind] += 1
    assert seen == dict.fromkeys(seen, len(triplet_complexes))


def test_scale_pair_is_certified_without_dense_differentials():
    rng = random.Random(35)
    F, G = rand_pair(16, 4, 3, rng)
    cx = CechComplex(build_tiling(16), F, G)
    assert cx.cohomology_dims() == (ext0_dim(F, G), ext1_dim(F, G), 0)
    ok, cert = cx.h2_certificate()
    assert ok and cert["certified_by"] == "game"
    assert "d0" not in vars(cx) and "d1" not in vars(cx)


NON_LEAF_GAME = """
import json, random
from legtorus import cech, exactalg as xa
from legtorus.ainfty import random_rep
from legtorus.sheafcat import functor_obj

rng = random.Random(32)
F, G = (functor_obj(random_rep(2, 2, 3, rng)) for _ in range(2))
T = cech.build_tiling(2)
cx = cech.CechComplex(T, F, G)
steps = cech.graph_game(cx)["steps"]
k = next(i for i, s in enumerate(steps) if len(s["removed_blues"]) == 2)
blue = next(ek for ek in cx.edges if str(ek) == steps[k]["removed_blues"][0])
other = next(v for v in T.vertices if str(v) == steps[-1]["removed_red"])
edges_of = cech.vertex_edges
# a second live red on the slanted blue of step k, so that blue is not a leaf
cech.vertex_edges = lambda v: edges_of(v) + [(blue, False)] if v == other else edges_of(v)
# a fresh tiling: the game's moves on T were fixed when T's frame was built
cx = cech.CechComplex(cech.build_tiling(2), F, G)
ok, cert = cx.h2_certificate()
print(json.dumps({"debug": __debug__, "ok": ok, "cert": cert, "game": cx.game,
                  "red": steps[k]["removed_red"], "before": steps[:k],
                  "dense": xa.rank(cx.d1, 3)}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_non_leaf_gives_no_game_certificate(flags):
    """The leaf checks are part of the certificate, so `python -O` keeps them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", NON_LEAF_GAME], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["debug"] == (not flags)
    game = out["game"]
    assert not game["success"] and game["failed_rule"] == "leaf"
    assert game["stuck"] == [out["red"]] and game["steps"] == out["before"]
    assert out["cert"]["certified_by"] == "rank"
    assert out["ok"] and out["cert"]["rank_d1"] == out["dense"] == out["cert"]["dim_c2"]


# -- local sections: closed form and one elimination per constrained entry -------------

def reference_solve_sections(items, constraints, p) -> OpenSpace:
    """`_solve_sections` as it was before systems were shared: one elimination
    per open, kept verbatim as the reference."""
    offsets, dims = {}, {}
    total = 0
    fdims, gdims = {}, {}
    for key, fd, gd in items:
        offsets[key] = total
        dims[key] = fd * gd
        fdims[key], gdims[key] = fd, gd
        total += fd * gd
    rows = []
    for ks, kt, fmap, gmap in constraints:
        dfs, dgs = fdims[ks], gdims[ks]
        dft, dgt = fdims[kt], gdims[kt]
        if dgt * dfs == 0:
            continue
        row = xa.zeros(dgt * dfs, total)
        if dft * dgt:
            row[:, offsets[kt]:offsets[kt] + dft * dgt] = \
                xa.kron(np.eye(dgt, dtype=np.int64), fmap.T, p)
        if dfs * dgs:
            blk = row[:, offsets[ks]:offsets[ks] + dfs * dgs]
            row[:, offsets[ks]:offsets[ks] + dfs * dgs] = \
                (blk - xa.kron(gmap, np.eye(dfs, dtype=np.int64), p)) % p
        rows.append(row)
    sys = np.vstack(rows) if rows else xa.zeros(0, total)
    _, ker = xa.rank_kernel(sys, p)
    free = np.array([np.flatnonzero(col)[-1] for col in ker.T], dtype=np.int64)
    return OpenSpace([k for k, _, _ in items], dims, offsets, total, ker, free)


def local_systems(cx, rcx):
    """(open space of cx, its (items, constraints) as the reference complex
    rcx builds them) for every tile, edge and vertex."""
    return ([(cx.tile_space[t], rcx._tile_system(t)) for t in cx.T.tiles]
            + [(cx.edge_space[ek], rcx._edge_system(ek)) for ek in cx.edges]
            + [(cx.vertex_space[v], rcx._vertex_system(v)) for v in cx.T.vertices])


def test_constraints_have_nonzero_maps(complexes):
    """Every constraint a frame names reads two maps of nonzero size: a
    zero stalk adds none."""
    for cx in complexes:
        frame = cx._frame
        systems = [sys for _, sys in frame.opens if sys is not None]
        constraints = [st for _, cons in systems for _, _, st in cons]
        assert constraints
        for st in constraints:
            assert cx.mF[st].size and cx.mG[st].size, st


def assert_same_space(space, ref):
    assert space.keys == ref.keys and space.total == ref.total
    assert space.dims == ref.dims and space.offsets == ref.offsets
    assert space.basis.dtype == space.free.dtype == np.int64
    assert space.basis.shape == ref.basis.shape and space.free.shape == ref.free.shape
    assert space.basis.tobytes() == ref.basis.tobytes()
    assert space.free.tobytes() == ref.free.tobytes()
    assert not space.basis.flags.writeable and not space.free.flags.writeable


def zero_block_systems(p, rng):
    """Random (items, constraints) whose blocks include zero-size ones: a
    target block with no F stalk (dft . dgt = 0, dgt > 0) and a source block
    with no G stalk (dfs . dgs = 0, dfs > 0), beside random ones, and one
    constraint from a block to itself, whose two terms add on shared columns."""
    def rand_map(rows, cols):
        return xa.rand_matrix(rng, rows, cols, p).reshape(rows, cols)

    out = []
    for _ in range(12):
        dims = [(0, 2), (2, 0), *[(rng.randrange(4), rng.randrange(4)) for _ in range(3)]]
        rng.shuffle(dims)
        items = [(("B", i), fd, gd) for i, (fd, gd) in enumerate(dims)]
        s0 = next(i for i, d in enumerate(dims) if d == (2, 0))
        t0 = next(i for i, d in enumerate(dims) if d == (0, 2))
        pairs = [(s0, t0), (s0, rng.choice([i for i in range(5) if i != s0])),
                 (rng.choice([i for i in range(5) if i != t0]), t0)]
        pairs += [tuple(rng.sample(range(5), 2)) for _ in range(3)]
        pairs.append((rng.randrange(5),) * 2)  # s = t: both terms fall on one block
        constraints = [(items[s][0], items[t][0], rand_map(dims[t][0], dims[s][0]),
                        rand_map(dims[t][1], dims[s][1])) for s, t in pairs]
        out.append((items, constraints))
    return out


def test_open_spaces_match_reference_solver(complex_pairs):
    rng = random.Random(33)
    extra = [(build_tiling(4), *rand_pair(4, 2, 3, rng)),
             (build_tiling(2, 3), *rand_pair(2, 2, 2, rng)),
             (build_tiling(3, 3), *rand_pair(3, 2, 32749, rng)),
             (build_tiling(2), *rand_pair(2, 2, 32749, rng)),
             (eye_tiling(3), EyeSheaf(3, 2), EyeSheaf(2, 2)),
             (eye_tiling(3), EyeSheaf(2, 32749), EyeSheaf(3, 32749))]
    cases = [*complex_pairs, *[(CechComplex(*c), cech_reference.CechComplex(*c)) for c in extra]]
    for cx, rcx in cases:
        for space, (items, constraints) in local_systems(cx, rcx):
            assert_same_space(space, reference_solve_sections(items, constraints, cx.p))
    for p in (2, 3, 32749):
        for items, constraints in zero_block_systems(p, rng):
            pos = {k: i for i, (k, _, _) in enumerate(items)}
            blocks = [(fd, gd) for _, fd, gd in items]
            basis, free = cech._section_kernel(
                blocks, [(pos[ks], pos[kt], f, g) for ks, kt, f, g in constraints], p)
            ref = reference_solve_sections(items, constraints, p)
            assert_same_space(OpenSpace(ref.keys, ref.dims, ref.offsets, ref.total, basis, free),
                              ref)


def test_local_kernels_ignore_row_order(complex_pairs, monkeypatch):
    """Every local system gives the same (basis, free), byte for byte, from
    its constraint rows in any order: in the sparsest-first order the solver
    uses, shuffled, reversed, and with its constraints permuted."""
    systems = []
    kernel_rows = xa.kernel_rows

    def capture(rows, cols, p):
        systems.append(([dict(r) for r in rows], cols, p))
        return kernel_rows(rows, cols, p)

    rng = random.Random(35)
    for cx, _ in complex_pairs:
        frame = cx._frame
        for _, system in frame.opens:
            if system is None:
                continue
            blocks, cons = system
            maps = [(s, t, cx.mF[st], cx.mG[st]) for s, t, st in cons]
            del systems[:]
            with monkeypatch.context() as mp:
                mp.setattr(xa, "kernel_rows", capture)
                basis, free = cech._section_kernel(blocks, maps, cx.p)
            (rows, cols, p), = systems
            assert [len(r) for r in rows] == sorted(len(r) for r in rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            for order in (shuffled, rows[::-1]):
                got, got_free = xa.kernel_rows([dict(r) for r in order], cols, p)
                assert got.tobytes() == basis.tobytes() and got.shape == basis.shape
                assert np.array_equal(np.array(got_free, dtype=np.int64), free)
            permuted = maps[:]
            rng.shuffle(permuted)
            got, got_free = cech._section_kernel(blocks, permuted, cx.p)
            assert got.tobytes() == basis.tobytes() and got.shape == basis.shape
            assert got_free.tobytes() == free.tobytes()


def test_a_fresh_frame_eliminates_once_per_constrained_entry(monkeypatch):
    """The first complex on a tiling solves each constrained frame entry
    once, and every open of an entry holds that entry's one `OpenSpace`.
    Entries are told apart by their system, not by their maps: the two
    outer cusp tiles (at x1 and x4) have equal maps but entries of their own."""
    rng = random.Random(34)
    built = []
    kernel_rows = xa.kernel_rows

    def counting_kernel_rows(rows, cols, p):
        built.append(cols)
        return kernel_rows(rows, cols, p)

    monkeypatch.setattr(xa, "kernel_rows", counting_kernel_rows)
    merged = 0
    for m, n, p, rho in [(4, 2, 3, 1), (2, 2, 5, 2), (3, 1, 2, 1)]:
        T = build_tiling(m, rho)
        F, G = rand_pair(m, n, p, rng)
        del built[:]
        cx = CechComplex(T, F, G)
        frame = cx._frame
        constrained = [i for i, (_, sys) in enumerate(frame.opens) if sys is not None]
        assert 0 < len(built) == len(constrained) == len(frame.solves)
        assert sorted(frame.solves) == constrained
        spaces = [(frame.tile_at[t], space) for t, space in cx.tile_space.items()]
        spaces += [(frame.edge_at[ek], space) for ek, space in cx.edge_space.items()]
        for i, space in spaces:
            layout, system = frame.opens[i]
            if system is None:
                assert space is layout
                assert np.array_equal(space.basis, xa.eye(space.total))
            else:
                assert space is frame.solves[i][1]
        n_open = len(cx.tile_space) + len(cx.edge_space) + len(cx.vertex_space)
        assert len(constrained) < n_open // 4, (m, n, p, len(constrained), n_open)
        signatures = {repr((frame.opens[i][1][0], [(s, t, cx.mF[st].tolist(), cx.mG[st].tolist())
                                                   for s, t, st in frame.opens[i][1][1]]))
                      for i in constrained}
        merged += len(constrained) - len(signatures)
    assert merged > 0


def test_cech_route_builds_no_dense_system(monkeypatch):
    """A complex writes its local systems as sparse rows: building it and
    reading its dimensions calls no `kron` and builds no `LinearMap`."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Cech route built a dense system")

    rng = random.Random(36)
    for m, n, p, rho in [(4, 2, 3, 1), (2, 2, 32749, 3)]:
        T = build_tiling(m, rho)
        pairs = [rand_pair(m, n, p, rng) for _ in range(3)]
        with monkeypatch.context() as mp:
            mp.setattr(xa, "kron", refuse)
            mp.setattr(xa, "LinearMap", refuse)
            mp.setattr(xa, "rank_kernel", refuse)
            for F, G in pairs:
                CechComplex(T, F, G).cohomology_dims()
