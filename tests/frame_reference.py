"""Reference: how `cech` built a tiling's faces and regions, and a Cech
frame, before the frame was built from its distinct pieces and the tiling
visited each edge once, kept here unchanged as the test oracle.

`finalize` is `cech._finalize` as it was: it audits each tile's crossed
edges, computed twice per tile, and floods the faces across every edge from
both of its tiles.  `Frame` is `cech._Frame.__init__` as it was: one
`_open_entry` per open, one `_restriction` per d^0 and d^1 block, one
`_selection` per d^1 block that the frame holds, and the columns of each
stored in `selections`; its kernel store is left out, as it does not change
what a frame is.  The only edits: the geometry helpers come from
`legtorus.cech`, `_Frame` is renamed `Frame` and `_finalize` `finalize`, and
`vertex_edges` and `_game_moves` are the copies below."""

from __future__ import annotations

import itertools

import numpy as np

from legtorus import exactalg as xa
from legtorus.cech import (OPP, SLANTED, _EDGE_CYCLE, OpenSpace, TilingComplex, _frozen,
                           _offsets, edge_endpoints, edge_key, neighbor, tile_faces,
                           vertex_tiles)


def vertex_edges(v):
    """The 3 edges at a vertex as (edge_key, horizontal flag)."""
    kind, c, r = v
    t = (c, r)
    if kind == "E":
        ne, se = neighbor(t, "NE"), neighbor(t, "SE")
        return [(edge_key(t, "NE"), False), (edge_key(t, "SE"), False),
                (tuple(sorted([ne, se])), True)]
    nw, sw = neighbor(t, "NW"), neighbor(t, "SW")
    return [(edge_key(t, "NW"), False), (edge_key(t, "SW"), False),
            (tuple(sorted([nw, sw])), True)]



def finalize(T: TilingComplex, region_anchor_u1, region_anchor_u2, crossing_cols):
    """Fill tiles, faces, regions, per-open strata, edge info, vertices."""
    cmax, rmin, rmax = T.box
    T.tiles = [(c, r) for c in range(cmax + 1) for r in range(rmin, rmax + 1)]

    # strand contents for plain transit tiles, plus tile constraint audit
    transit_count: dict[tuple, list] = {}
    for arc in T.arcs.values():
        for tile, entry, exit_ in arc.transits:
            transit_count.setdefault(tile, []).append((arc.name, entry, exit_))
    for tile, recs in transit_count.items():
        if tile in T.content:
            continue
        if len(recs) != 1:
            raise AssertionError(f"tile {tile} carries several strands: {recs}")
        name, entry, exit_ = recs[0]
        if entry is None or exit_ is None:
            raise AssertionError(f"dangling strand end in {tile}")
        T.content[tile] = ("strand", name, T.arcs[name].potential, entry, exit_)

    # audit: horizontal edges never crossed; intersection counts per tile
    for (ta, tb), arc in T.cuts.items():
        if ta[0] == tb[0]:
            raise AssertionError("front crosses a horizontal edge")
    for tile in T.tiles:
        crossed = [d for d in SLANTED
                   if T.in_box(neighbor(tile, d)) and T.cuts.get(edge_key(tile, d))]
        kind = T.content.get(tile, ("empty",))[0]
        if kind == "crossing":
            assert len(crossed) == 4, tile
        elif kind == "cusp":
            assert len(crossed) == 2, tile
            assert set(crossed) in ({"NE", "SE"}, {"NW", "SW"}), tile
        elif kind == "strand":
            assert len(crossed) == 2 and set(crossed) not in ({"NE", "SE"}, {"NW", "SW"}), tile
        else:
            assert len(crossed) == 0, (tile, crossed)

    # faces and region flood fill
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for tile in T.tiles:
        crossed = {d for d in SLANTED if T.cuts.get(edge_key(tile, d)) and T.in_box(neighbor(tile, d))}
        faces = tile_faces(crossed)
        T.tile_face_lists[tile] = faces
        for fi, face in enumerate(faces):
            parent[(tile, fi)] = (tile, fi)
            for ch in face:
                T.channel_face[(tile, ch)] = fi
    for tile in T.tiles:
        for d in SLANTED + ("N", "S"):
            nb = neighbor(tile, d)
            if not T.in_box(nb):
                continue
            ek = edge_key(tile, d)
            parts = ("hi", "lo") if T.cuts.get(ek) else ("full",)
            for part in parts:
                a = T.channel_face.get((tile, (d, part)))
                b = T.channel_face.get((nb, (OPP[d], part)))
                if a is not None and b is not None:
                    union((tile, a), (nb, b))

    # canonical region names via anchors
    def face_of(tile, channel):
        return find((tile, T.channel_face[(tile, channel)]))

    names: dict = {}
    names[face_of((0, rmax), ("N", "full"))] = "U0"
    if T.kind == "torus":
        names[face_of(*region_anchor_u1)] = "U1"
        names[face_of(*region_anchor_u2)] = "U2"
        for i, xc in enumerate(crossing_cols, start=1):
            f = face_of((xc, 1), ("NE", "lo"))
            if i < T.m:
                names[f] = f"D{i}"
            else:
                assert names.get(f) == "U1", "east face of the last crossing is U1"
        assert names[face_of((crossing_cols[0], 1), ("SW", "hi"))] == "U1"
        assert names[face_of((crossing_cols[0], 1), ("N", "full"))] == "U2"
        assert names[face_of((crossing_cols[0], 1), ("S", "full"))] == "U0"
    else:
        names[face_of(*region_anchor_u2)] = "I"
    for tile in T.tiles:
        for fi in range(len(T.tile_face_lists[tile])):
            root = find((tile, fi))
            if root not in names:
                raise AssertionError(f"unidentified region at {tile} face {fi}")
            T.face_region[(tile, fi)] = names[root]
    T.regions = tuple(sorted(set(names.values())))

    # arc sides (above/below regions) from the crossed edges
    for ek, arcname in T.cuts.items():
        ta, tb = ek
        d = next(dd for dd in SLANTED if neighbor(ta, dd) == tb)
        above = T.face_region[face_of(ta, (d, "hi"))]
        below = T.face_region[face_of(ta, (d, "lo"))]
        prev = T.arc_sides.get(arcname)
        if prev is not None and prev != (above, below):
            raise AssertionError(f"arc {arcname} has inconsistent sides")
        T.arc_sides[arcname] = (above, below)
        T.edge_info[ek] = {"arc": arcname, "above": above, "below": below,
                           "potential": T.arcs[arcname].potential,
                           "upper_vertex": None, "lower_vertex": None}

    # edge info for all in-box edges + vertex list
    for tile in T.tiles:
        for d in ("N", "NE", "SE"):
            nb = neighbor(tile, d)
            if not T.in_box(nb):
                continue
            ek = edge_key(tile, d)
            if ek not in T.edge_info:
                fi = face_of(tile, (d, "full"))
                T.edge_info[ek] = {"arc": None, "region": T.face_region[fi],
                                   "horizontal": d == "N"}
            else:
                up, lo = edge_endpoints(tile, d)
                T.edge_info[ek]["upper_vertex"] = up
                T.edge_info[ek]["lower_vertex"] = lo
            T.edge_info[ek]["horizontal"] = (d == "N")

    def interior(v):
        return all(T.in_box(t) for t in vertex_tiles(v))

    seen = set()
    for tile in T.tiles:
        c, r = tile
        for v in (("E", c, r), ("W", c, r)):
            if v in seen or not interior(v):
                continue
            seen.add(v)
            T.vertices.append(v)
            # region at the corner
            if v[0] == "E":
                d = "NE"
                part = "lo" if T.cuts.get(edge_key(tile, d)) else "full"
            else:
                d = "NW"
                part = "lo" if T.cuts.get(edge_key(tile, d)) else "full"
            fi = face_of(tile, (d, part))
            T.vertex_region[v] = T.face_region[fi]

    T.tile_arcs = {tile: sorted({r[0] for r in recs})
                   for tile, recs in transit_count.items()}
    T.tile_transits = transit_count


def _tile_system(T, dF, dG, tile):
    items = []
    for fi in range(len(T.tile_face_lists[tile])):
        reg = ("R", T.face_region[(tile, fi)])
        items.append((("F", fi), dF[reg], dG[reg]))
    pairs = []
    for arcname in T.tile_arcs.get(tile, []):
        items.append((("A", arcname), dF[("A", arcname)], dG[("A", arcname)]))
    cont = T.content.get(tile)
    if cont and cont[0] in ("crossing", "cusp"):
        vname = T.vertex_strata[tile]
        items.append((("V", vname), dF[("V", vname)], dG[("V", vname)]))
    seen_pairs = set()
    for arcname, entry, exit_ in T.tile_transits.get(tile, []):
        for d in (entry, exit_):
            if d is None:
                continue
            hi = T.channel_face[(tile, (d, "hi"))]
            lo = T.channel_face[(tile, (d, "lo"))]
            above, below = T.arc_sides[arcname]
            assert T.face_region[(tile, hi)] == above and T.face_region[(tile, lo)] == below
            for face, reg in ((hi, above), (lo, below)):
                pair = (arcname, face)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                pairs.append((("A", arcname), ("F", face), ("R", reg)))
    if cont and cont[0] in ("crossing", "cusp"):
        vkey = ("V", T.vertex_strata[tile])
        for arcname in T.tile_arcs.get(tile, []):
            pairs.append((vkey, ("A", arcname), ("A", arcname)))
        for fi in range(len(T.tile_face_lists[tile])):
            pairs.append((vkey, ("F", fi), ("R", T.face_region[(tile, fi)])))
    return items, pairs


def _edge_system(T, dF, dG, ek):
    info = T.edge_info[ek]
    if info["arc"] is None:
        reg = ("R", info["region"])
        return [(("S", "only"), dF[reg], dG[reg])], []
    akey = ("A", info["arc"])
    above, below = ("R", info["above"]), ("R", info["below"])
    items = [(akey, dF[akey], dG[akey]), (("S", "above"), dF[above], dG[above]),
             (("S", "below"), dF[below], dG[below])]
    return items, [(akey, ("S", "above"), above), (akey, ("S", "below"), below)]


def _open_entry(items, pairs, dF, dG, eyes):
    """(layout, system) of an open.  A pair with dF[s] . dG[t] = 0 constrains
    nothing and is dropped, so no zero stalk is looked up.  With no pairs
    left the layout is the open's `OpenSpace`, its identity kernel shared by
    every open of its size, and system is None.  Otherwise the layout has no
    basis, and system is (blocks, [(position of s, position of kt, (s, t))]),
    from which each complex solves the kernel with its maps at (s, t)."""
    keys = [k for k, _, _ in items]
    blocks = tuple((fd, gd) for _, fd, gd in items)
    sizes = [fd * gd for fd, gd in blocks]
    offsets = dict(zip(keys, itertools.accumulate(sizes, initial=0)))
    total = sum(sizes)
    dims = dict(zip(keys, sizes))
    pairs = [(s, kt, t) for s, kt, t in pairs if dF[s] * dG[t]]
    if not pairs:
        if total not in eyes:
            eyes[total] = _frozen(xa.eye(total)), _frozen(np.arange(total, dtype=np.int64))
        return OpenSpace(keys, dims, offsets, total, *eyes[total]), None
    pos = {k: i for i, k in enumerate(keys)}
    return (OpenSpace(keys, dims, offsets, total, None, None),
            (blocks, [(pos[s], pos[kt], (s, t)) for s, kt, t in pairs]))


def _restriction(big, small, keymap, sign, p):
    """How a complex reads one restriction block from `big` to `small`, both
    (layout, system), times `sign`: block kb of a section on big is block ks
    on small, so its coordinates there are the rows small.free + shift of
    big.basis, with shift indexed by small's rows.  Returns (block, None),
    the read-only block, when neither open is constrained, and else
    (None, shift), from which `_assemble` gathers the block."""
    (bl, bsys), (sl, ssys) = big, small
    assert len(keymap) == len(sl.keys)
    shift = np.zeros(sl.total, dtype=np.int64)
    for ks, kb in keymap.items():
        ln = sl.dims[ks]
        assert ln == bl.dims[kb], (ks, kb)
        shift[sl.offsets[ks]:sl.offsets[ks] + ln] = bl.offsets[kb] - sl.offsets[ks]
    if bsys is not None or ssys is not None:
        return None, _frozen(shift)
    block = bl.basis[sl.free + shift]
    return _frozen(block if sign > 0 else (-block) % p), None


def _selection(block, sign, p):
    """The columns of a block that is `sign` times distinct rows of an
    identity matrix, so of full row rank; any other block raises."""
    cols = block.argmax(axis=1)
    want = sign % p * xa.eye(block.shape[1])[cols]
    if len(set(cols.tolist())) < len(cols) or not np.array_equal(block, want):
        raise AssertionError("a frame d1 block is not a signed selection")
    return _frozen(cols)



class Frame:
    """What a Cech complex takes from its tiling T and the stalk dimensions
    of F and G alone, and from p for the residues of negated blocks.
    tiles/edge_entries hold each open's (layout, system) (`_open_entry`),
    vertex_space every vertex's space, d0/d1 (key, block, shift, sign) for
    each block in block order (`_restriction`) and game the leaf/Y moves
    (`_game_moves`).  Its arrays are read-only.  blocks is the snapshot
    {key: block} of its own blocks.  selections holds (columns, sign) of
    each d^1 block there, checked to be +- distinct identity rows.
    """

    def __init__(self, T: TilingComplex, dF, dG, p):
        eyes = {}
        self.tiles = {t: _open_entry(*_tile_system(T, dF, dG, t), dF, dG, eyes) for t in T.tiles}
        self.edges = sorted(T.edge_info)
        self.edge_entries = {ek: _open_entry(*_edge_system(T, dF, dG, ek), dF, dG, eyes)
                             for ek in self.edges}
        self.vertex_space = {}
        for v in T.vertices:
            reg = ("R", T.vertex_region[v])
            self.vertex_space[v] = _open_entry([(("S", "only"), dF[reg], dG[reg])], [],
                                               dF, dG, eyes)[0]
        self.c2_dim = sum(s.dim for s in self.vertex_space.values())
        self.vert_off = _offsets(T.vertices, self.vertex_space)

        # d^0 on the edge between tiles ta < tb: the restriction from tb minus
        # the restriction from ta.  An edge with no sections has no blocks.
        self.d0 = []
        for ek in self.edges:
            edge = self.edge_entries[ek]
            if edge[1] is None and edge[0].total == 0:
                continue
            ta, tb = ek
            for tile, sign in ((tb, 1), (ta, -1)):
                other = ta if tile == tb else tb
                d = next(dd for dd in _EDGE_CYCLE if neighbor(tile, dd) == other)
                info = T.edge_info[ek]
                if info["arc"] is None:
                    keymap = {("S", "only"): ("F", T.channel_face[(tile, (d, "full"))])}
                else:
                    keymap = {("A", info["arc"]): ("A", info["arc"]),
                              ("S", "above"): ("F", T.channel_face[(tile, (d, "hi"))]),
                              ("S", "below"): ("F", T.channel_face[(tile, (d, "lo"))])}
                self.d0.append(((ek, tile),
                                *_restriction(self.tiles[tile], edge, keymap, sign, p), sign))

        # d^1: the alternating restrictions to each vertex from its three
        # edges.  A vertex with no sections has no blocks.
        self.d1 = []
        for v in T.vertices:
            if self.vertex_space[v].dim == 0:
                continue
            tiles = sorted(vertex_tiles(v))
            for ek, sign in (((tiles[1], tiles[2]), 1), ((tiles[0], tiles[2]), -1),
                             ((tiles[0], tiles[1]), 1)):  # each sorted like `tiles`
                info = T.edge_info[ek]
                side = "only"
                if info["arc"] is not None:
                    side = "above" if info["upper_vertex"] == v else "below"
                    assert info[side] == T.vertex_region[v], (ek, v)
                self.d1.append(((v, ek), *_restriction(
                    self.edge_entries[ek], (self.vertex_space[v], None),
                    {("S", "only"): ("S", side)}, sign, p), sign))
        self.blocks = {key: block for plan in (self.d0, self.d1)
                       for key, block, *_ in plan if block is not None}
        self.selections = {key: (_selection(block, sign, p), sign)
                           for key, block, _, sign in self.d1 if block is not None}
        self.game = _game_moves(T, self.edges, {v: s.dim for v, s in self.vertex_space.items()})


def _game_moves(T, edges, red_dim):
    """The leaf/Y game's moves on T, which depend only on T and the vertex
    dimensions: (moves, end).  Each move is (red, the d^1 blocks its rank
    check reads, (rule, removed blues)), after its leaf check passed.  end is
    None when the moves remove every red, else (stuck reds, failed rule or
    None).

    Blue nodes are the edges of the tiling and red nodes its vertices.  The
    torus/eye graphs succeed by removing the Y of each horizontal edge from
    left to right.
    """
    reds_of = {ek: [] for ek in edges}
    for v in T.vertices:
        for ek, _ in vertex_edges(v):
            reds_of[ek].append(v)
    alive_red = set(T.vertices)
    alive_blue = set(edges)
    moves = []

    def leaf(b):
        return [v for v in reds_of[b] if v in alive_red]

    horizontals = sorted((ek for ek in edges if T.edge_info[ek]["horizontal"]),
                         key=lambda ek: (ek[0][0], min(ek[0][1], ek[1][1])))
    for h in horizontals:
        # the left endpoint of the horizontal edge is the E-corner vertex
        vL = next((v for v in reds_of[h] if v[0] == "E"), None)
        vR = next((v for v in reds_of[h] if v[0] == "W"), None)
        if vL is not None and vL in alive_red:
            d0 = (vL[1], vL[2])
            ne, se = edge_key(d0, "NE"), edge_key(d0, "SE")
            if any(b not in alive_blue or leaf(b) != [vL] for b in (ne, se)):
                return moves, ([str(vL)], "leaf")
            if red_dim[vL] == 0:
                rule = "zero-stalk"
            elif T.edge_info[ne]["arc"] is None or T.edge_info[se]["arc"] is None:
                rule = "isomorphism-edge"
            else:
                cont = T.content.get(d0, ("empty",))
                rule = {"crossing": "crossing-surjective", "cusp": "cusp-lemma"}[cont[0]]
            moves.append((vL, ((vL, ne), (vL, se)), (rule, (str(ne), str(se)))))
            alive_blue -= {ne, se}
            alive_red.discard(vL)
        if vR is not None and vR in alive_red:
            if h not in alive_blue or leaf(h) != [vR]:
                return moves, ([str(vR)], "leaf")
            rule = "horizontal-iso" if red_dim[vR] else "zero-stalk"
            moves.append((vR, ((vR, h),), (rule, (str(h),))))
        alive_blue.discard(h)
        if vR is not None:
            alive_red.discard(vR)
    if alive_red:
        return moves, (sorted(str(v) for v in alive_red), None)
    return moves, None

