import random

import numpy as np
import pytest

from legtorus import exactalg as xa
from legtorus.ainfty import enumerate_reps, random_rep
from legtorus.cech import (CechComplex, EyeSheaf, RedBlueGraph, SLANTED,
                           build_red_blue, build_tiling, eye_tiling,
                           graph_game, neighbor, vertex_edges, vertex_tiles)
from legtorus.sheafcat import ext0_dim, ext1_dim, functor_obj


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


def test_d1_after_d0_is_zero():
    rng = random.Random(21)
    T = build_tiling(2)
    F, G = rand_pair(2, 2, 3, rng)
    cx = CechComplex(T, F, G)  # d1 . d0 = 0 asserted in the constructor
    assert cx.c2_dim > 0


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
        res = graph_game(build_red_blue(cx))
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
    res = graph_game(build_red_blue(CechComplex(T, F, G)))
    assert res["success"]
    assert all(s.get("rank_checked") for s in res["steps"] if "removed_red" in s)


def test_graph_game_stuck_on_isolated_red():
    g = RedBlueGraph(blues={}, reds={"isolated": 2}, meta={})
    res = graph_game(g)
    assert not res["success"]
    assert res["stuck"] == ["isolated"]


def test_graph_game_eye():
    res = graph_game(build_red_blue(CechComplex(eye_tiling(1), EyeSheaf(2, 3), EyeSheaf(1, 3))))
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
def complexes():
    rng = random.Random(26)
    out = []
    for m, n, p in [(1, 1, 2), (1, 2, 5), (2, 1, 3), (2, 2, 2), (3, 1, 5), (3, 2, 3)]:
        F, G = rand_pair(m, n, p, rng)
        out.append(CechComplex(build_tiling(m), F, G))
    out.append(CechComplex(eye_tiling(1), EyeSheaf(2, 3), EyeSheaf(1, 3)))
    out.append(CechComplex(eye_tiling(2), EyeSheaf(2, 5), EyeSheaf(2, 5)))
    return out


def test_restriction_maps_match_left_inverse_reference(complexes):
    for cx in complexes:
        calls = []
        project = cx._project

        def recording(big, small, keymap):
            out = project(big, small, keymap)
            calls.append((big, small, keymap, out))
            return out

        cx._project = recording
        try:
            for ek in cx.edges:
                for tile in ek:
                    cx._tile_to_edge(tile, ek)
            for v in cx.T.vertices:
                for ek, _ in vertex_edges(v):
                    cx._edge_to_vertex(ek, v)
        finally:
            del cx._project
        assert len(calls) == 2 * len(cx.edges) + 3 * len(cx.T.vertices)
        for big, small, keymap, out in calls:
            assert out.dtype == np.int64
            assert np.array_equal(out, reference_project(big, small, keymap, cx.p))


def test_section_basis_is_identity_at_free_rows(complexes):
    for cx in complexes:
        spaces = [*cx.tile_space.values(), *cx.edge_space.values(), *cx.vertex_space.values()]
        assert any(0 < s.dim < s.total for s in spaces)
        for s in spaces:
            assert len(s.free) == s.dim
            assert np.array_equal(s.basis[s.free], xa.eye(s.dim))


def test_red_blue_maps_are_restriction_maps_up_to_sign(complexes):
    for cx in complexes:
        g = build_red_blue(cx)
        checked = 0
        for ek, blue in g.blues.items():
            for v, mat in blue["mats"].items():
                ref = cx._edge_to_vertex(ek, v)
                assert np.array_equal(mat, ref) or np.array_equal(mat, (-ref) % cx.p)
                checked += mat.size
        assert checked > 0
