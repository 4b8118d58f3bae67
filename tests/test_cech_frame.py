"""The tiling and the Cech frame against the per-open construction of
frame_reference.py: `build_tiling`/`eye_tiling` equal the reference's
`finalize` field by field, and a frame built from its distinct pieces equals
one built open by open, builds each distinct piece once, and keeps its
checks under `python -O`."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frame_reference
from legtorus import cech
from legtorus.ainfty import random_rep
from legtorus.cech import EyeSheaf, build_tiling, eye_tiling, local_data
from legtorus.sheafcat import functor_obj

ROOT = Path(__file__).resolve().parents[1]


def reference_tiling(monkeypatch, build, *args):
    with monkeypatch.context() as mp:
        mp.setattr(cech, "_finalize", frame_reference.finalize)
        return build(*args)


def assert_same_tiling(T, R):
    for f in dataclasses.fields(T):
        if f.name != "frames":
            assert getattr(T, f.name) == getattr(R, f.name), f.name


@pytest.mark.parametrize("m", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("resolution", [1, 3])
def test_torus_tiling_matches_the_reference(monkeypatch, m, resolution):
    assert_same_tiling(build_tiling(m, resolution),
                       reference_tiling(monkeypatch, build_tiling, m, resolution))


@pytest.mark.parametrize("resolution", [1, 2, 3])
def test_eye_tiling_matches_the_reference(monkeypatch, resolution):
    assert_same_tiling(eye_tiling(resolution),
                       reference_tiling(monkeypatch, eye_tiling, resolution))


# -- the frame -----------------------------------------------------------------------

def frame_cases():
    """(tiling, dF, dG, p): torus tilings at m 1, 2, 4, 9 with F and G of
    ranks (1, 1), (2, 2) and (1, 2) over F_2, F_3 and F_32749, and the eye
    at resolutions 1-3."""
    rng = random.Random(2501)
    cases = []
    for m in (1, 2, 4, 9):
        T = build_tiling(m)
        for p in (2, 3, 32749):
            for nf, ng in ((1, 1), (2, 2), (1, 2)):
                F, G = (functor_obj(random_rep(m, n, p, rng)) for n in (nf, ng))
                cases.append((T, local_data(T, F)[0], local_data(T, G)[0], p))
    for resolution in (1, 2, 3):
        T = eye_tiling(resolution)
        for rf, rg in ((1, 1), (2, 3)):
            p = 3
            cases.append((T, local_data(T, EyeSheaf(rf, p))[0], local_data(T, EyeSheaf(rg, p))[0], p))
    return cases


@pytest.fixture(scope="module")
def frames():
    return [(cech._Frame(*case), frame_reference.Frame(*case), case) for case in frame_cases()]


def assert_same_array(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def assert_same_layout(a, b):
    assert (a.keys, a.dims, a.offsets, a.total) == (b.keys, b.dims, b.offsets, b.total)
    assert_same_array(a.basis, b.basis)
    assert_same_array(a.free, b.free)


def assert_same_entries(got, want):
    assert list(got) == list(want)
    for key, (layout, system) in got.items():
        ref_layout, ref_system = want[key]
        assert_same_layout(layout, ref_layout)
        assert system == ref_system, key


def test_frames_match_the_per_open_reference(frames):
    """Every open's layout and system, every d^0 and d^1 plan entry (key,
    block values, shift, sign), the block snapshot and the game's moves
    equal the reference's, and every array is read-only."""
    for frame, ref, (T, *_, p) in frames:
        assert_same_entries({t: frame.opens[i] for t, i in frame.tile_at.items()}, ref.tiles)
        assert frame.edges == ref.edges
        assert_same_entries({ek: frame.opens[i] for ek, i in frame.edge_at.items()},
                            ref.edge_entries)
        assert list(frame.vertex_space) == list(ref.vertex_space)
        for v, space in frame.vertex_space.items():
            assert_same_layout(space, ref.vertex_space[v])
        assert (frame.c2_dim, frame.vert_off) == (ref.c2_dim, ref.vert_off)
        for plan, ref_plan in ((frame.d0, ref.d0), (frame.d1, ref.d1)):
            assert len(plan) == len(ref_plan)
            for (key, block, shift, sign), (rkey, rblock, rshift, rsign) in zip(plan, ref_plan):
                assert (key, sign) == (rkey, rsign)
                assert_same_array(block, rblock)
                assert_same_array(shift, rshift)
                assert block is None or frame.blocks[key] is block
        assert list(frame.blocks) == list(ref.blocks)
        assert frame.game == ref.game
        # the reference's stored selection columns, read off the blocks
        for key, (cols, sign) in ref.selections.items():
            block = frame.blocks[key]
            assert np.array_equal(block.argmax(axis=1), cols)
            assert block[np.arange(len(cols)), cols].tolist() == [sign % p] * len(cols)
    assert any(frame.blocks for frame, *_ in frames)


def distinct_pieces(case):
    """The reference frame's distinct open systems, restrictions and d^1
    selections, each restriction named by the systems of its two opens, its
    keymap and its sign."""
    opens, restrictions, selections = {}, [], set()
    open_entry, restriction = frame_reference._open_entry, frame_reference._restriction

    def spy_open(items, pairs, *args):
        out = open_entry(items, pairs, *args)
        opens[id(out[0])] = (out[0], (tuple(items), tuple(pairs)))
        return out

    def spy_restriction(big, small, keymap, sign, p):
        out = restriction(big, small, keymap, sign, p)
        restrictions.append((opens[id(big[0])][1], opens[id(small[0])][1],
                             tuple(keymap.items()), sign))
        if out[0] is not None and {kb[0] for kb in keymap.values()} == {"S"}:
            selections.add(restrictions[-1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frame_reference, "_open_entry", spy_open)
        mp.setattr(frame_reference, "_restriction", spy_restriction)
        frame_reference.Frame(*case)
    return {sig for _, sig in opens.values()}, set(restrictions), selections, len(restrictions)


@pytest.mark.parametrize("at", [0, 13, 34, -1])
def test_each_distinct_piece_is_built_once(monkeypatch, at):
    """`_open_entry`, `_restriction` and `_selection` run once per distinct
    open system, restriction and d^1 block: as many calls as the reference
    frame has distinct ones, with no call repeated."""
    case = frame_cases()[at]
    want_opens, want_restrictions, want_selections, n_blocks = distinct_pieces(case)
    opens, restrictions, selections = {}, [], []
    open_entry, restriction, selection = cech._open_entry, cech._restriction, cech._selection

    def spy_open(items, pairs, *args):
        out = open_entry(items, pairs, *args)
        opens[id(out[0])] = (out[0], (items, pairs))
        return out

    def spy_restriction(big, small, keymap, sign, p):
        restrictions.append((opens[id(big[0])][1], opens[id(small[0])][1], keymap, sign))
        return restriction(big, small, keymap, sign, p)

    monkeypatch.setattr(cech, "_open_entry", spy_open)
    monkeypatch.setattr(cech, "_restriction", spy_restriction)
    monkeypatch.setattr(cech, "_selection", lambda *a: selections.append(a) or selection(*a))
    frame = cech._Frame(*case)
    sigs = [sig for _, sig in opens.values()]
    assert len(sigs) == len(set(sigs)) and set(sigs) == want_opens
    assert len(restrictions) == len(set(restrictions)) and set(restrictions) == want_restrictions
    assert len(selections) == len(want_selections) == len({id(b) for b, *_ in selections})
    assert len(frame.d0) + len(frame.d1) == n_blocks
    # far fewer pieces than opens and blocks on a torus
    if case[0].kind == "torus":
        n_opens = len(frame.tile_at) + len(frame.edge_at) + len(frame.vertex_space)
        assert len(want_opens) < n_opens // 4 and len(want_restrictions) < n_blocks // 3


# -- the checks hold under python -O ----------------------------------------------------

CORRUPTED = """
import json, random
from legtorus import cech
from legtorus.ainfty import random_rep
from legtorus.sheafcat import functor_obj

caught = {}


def expect(name, build):
    try:
        build()
    except AssertionError as e:
        caught[name] = str(e)
    else:
        caught[name] = None


finalize = cech._finalize


def finalized_after(edit):
    def run(T, region_anchor_u1, region_anchor_u2, crossing_cols):
        return finalize(T, *edit(T, region_anchor_u1, region_anchor_u2, crossing_cols))
    return run


def built_with(edit, m=2):
    cech._finalize = finalized_after(edit)
    try:
        return cech.build_tiling(m)
    finally:
        cech._finalize = finalize


def drop_a_cut(T, *args):
    # the second edge a1 crosses, between two strand tiles
    del T.cuts[[ek for ek, arc in T.cuts.items() if arc == "a1"][1]]
    return args


def cusp_as_crossing(T, *args):
    T.content[(1, 1)] = ("crossing", 0, {})
    return args


def swap_anchors(T, u1, u2, cols):
    return u2, u1, cols


def second_crossing_first(T, u1, u2, cols):
    # the D_i and the east face still come out, but x2's west face is no U1
    return u1, u2, [cols[1], *cols[1:]]


expect("strand audit", lambda: built_with(drop_a_cut))
expect("crossing audit", lambda: built_with(cusp_as_crossing))
expect("east face", lambda: built_with(swap_anchors))
expect("first crossing", lambda: built_with(second_crossing_first, m=3))

rng = random.Random(2503)
F, G = (functor_obj(random_rep(2, 2, 3, rng)) for _ in range(2))


def frame(T):
    return cech._Frame(T, cech.local_data(T, F)[0], cech.local_data(T, G)[0], 3)


def swapped_sides():
    T = cech.build_tiling(2)
    T.arc_sides["bt1"] = T.arc_sides["bt1"][::-1]
    frame(T)


def vertex_off_its_side():
    T = cech.build_tiling(2)
    v, side = next((info[end], side) for info in T.edge_info.values() if info["arc"]
                   for end, side in (("upper_vertex", "above"), ("lower_vertex", "below"))
                   if info[end] in T.vertex_region and info[side] in ("U1", "D1"))
    # D1 and U1 have the same stalks, so only the side check can see it
    T.vertex_region[v] = {"U1": "D1", "D1": "U1"}[T.vertex_region[v]]
    frame(T)


to_edge = cech._to_edge


def short_keymap():
    cech._to_edge = lambda arc, faces: to_edge(arc, faces)[:-1]
    try:
        frame(cech.build_tiling(2))
    finally:
        cech._to_edge = to_edge


def one_block(fd, gd):
    return cech._open_entry(((("S", "only"), fd, gd),), (), {}, {}, {})


expect("tile sides", swapped_sides)
expect("vertex side", vertex_off_its_side)
expect("short keymap", short_keymap)
expect("keymap length", lambda: cech._restriction(one_block(1, 2), one_block(1, 2), (), 1, 3))
expect("block length", lambda: cech._restriction(
    one_block(1, 2), one_block(1, 1), ((("S", "only"), ("S", "only")),), 1, 3))
print(json.dumps({"debug": __debug__, "caught": caught}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_corrupted_tilings_and_keymaps_raise(flags):
    """The tiling audits, the side checks and the keymap checks raise, so
    `python -O` keeps them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", CORRUPTED], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["debug"] == (not flags)
    want = {"strand audit": "strand tile", "crossing audit": "crossing tile",
            "east face": "the east face of the last crossing is not U1",
            "first crossing": "('SW', 'hi') face of the first crossing is not U1",
            "tile sides": "arc bt1 has other sides", "vertex side": "is not",
            "short keymap": "does not name the blocks",
            "keymap length": "does not name the blocks", "block length": "has length"}
    assert set(out["caught"]) == set(want)
    for name, message in out["caught"].items():
        assert message is not None and want[name] in message, (name, message)
