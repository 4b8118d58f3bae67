"""Reference: how `cech.CechComplex` assembled a complex before the parts fixed
by the tiling and the stalk dimensions were built once per tiling
(`cech._Frame`), kept here unchanged as the test oracle.  Every complex builds
every local system, section space, restriction block and game step for its
own pair, and rank d^0 is eliminated along its long side, one row per C^1
coordinate.  The only edits: `CechComplex` and `_section_solver` read the
shared pieces from `legtorus.cech`, and the game, block rank and local
kernel solver it calls are the copies below.  `_section_kernel` is the dense
Kronecker solver `legtorus.cech` used before it wrote its constraints as
sparse rows, so the reference shares no local elimination with it."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from legtorus import exactalg as xa
from legtorus.cech import (OpenSpace, TilingComplex, _dense, _frozen, _offsets,
                           edge_key, local_data, neighbor, vertex_edges, vertex_tiles)


def _section_kernel(blocks, constraints, p):
    """Kernel of the commutation constraints: (basis, free rows), read-only.

    blocks: list of (fdim, gdim), the unknown blocks lambda_i (gdim x fdim) in
    order.  constraints: list of (s, t, fmap, gmap), block positions, meaning
    lambda_t . fmap = gmap . lambda_s.
    """
    starts = list(itertools.accumulate((fd * gd for fd, gd in blocks), initial=0))
    total = starts[-1]
    rows = []
    for s, t, fmap, gmap in constraints:
        (dfs, dgs), (dft, dgt) = blocks[s], blocks[t]
        row = xa.zeros(dgt * dfs, total)
        if dft * dgt:
            row[:, starts[t]:starts[t + 1]] = xa.kron(xa.eye(dgt), fmap.T, p)
        if dfs * dgs:
            blk = row[:, starts[s]:starts[s + 1]]
            row[:, starts[s]:starts[s + 1]] = (blk - xa.kron(gmap, xa.eye(dfs), p)) % p
        rows.append(row)
    sys = np.vstack(rows) if rows else xa.zeros(0, total)
    _, ker = xa.rank_kernel(sys, p)
    free = np.where(ker != 0, np.arange(total)[:, None], -1).max(axis=0, initial=-1)
    return _frozen(ker), _frozen(free)


def _section_solver(p):
    """The section space of an open from its (items, constraints), for one complex.

    items: list of (key, fdim, gdim) unknown blocks lambda_key (gdim x fdim).
    constraints: list of (key_s, key_t, fmap, gmap) meaning
    lambda_t . fmap = gmap . lambda_s.  With no constraints the kernel is the
    identity, with no elimination.  Otherwise the system depends only on its
    positional signature, the (fdim, gdim) of each block and each constraint's
    block positions and map contents, so each distinct signature is
    eliminated once.  Bases and free rows are read-only and shared by every
    open of the same size or signature.
    """
    solved = {}

    def solve(items, constraints) -> OpenSpace:
        keys = [k for k, _, _ in items]
        blocks = [(fd, gd) for _, fd, gd in items]
        sizes = [fd * gd for fd, gd in blocks]
        offsets = dict(zip(keys, itertools.accumulate(sizes, initial=0)))
        total = sum(sizes)
        if not constraints:
            sig = total
            if sig not in solved:
                solved[sig] = _frozen(xa.eye(total)), _frozen(np.arange(total, dtype=np.int64))
        else:
            pos = {k: i for i, k in enumerate(keys)}
            cons = [(pos[ks], pos[kt], fmap, gmap) for ks, kt, fmap, gmap in constraints]
            sig = (tuple(blocks), tuple((s, t, f.shape, f.tobytes(), g.shape, g.tobytes())
                                        for s, t, f, g in cons))
            if sig not in solved:
                solved[sig] = _section_kernel(blocks, cons, p)
        return OpenSpace(keys, dict(zip(keys, sizes)), offsets, total, *solved[sig])

    return solve

class CechComplex:
    def __init__(self, T: TilingComplex, F, G):
        self.T = T
        p = F.p
        if G.p != p:
            raise ValueError("objects over different fields")
        if T.kind == "torus" and (F.m != T.m or G.m != T.m):
            raise ValueError("objects on a different front")
        self.p = p
        self.dF, self.mF = local_data(T, F)
        self.dG, self.mG = local_data(T, G)

        solve = _section_solver(p)
        self.tile_space = {t: solve(*self._tile_system(t)) for t in T.tiles}
        self.edges = sorted(T.edge_info)
        self.edge_space = {ek: solve(*self._edge_system(ek)) for ek in self.edges}
        self.vertex_space = {v: solve(*self._vertex_system(v)) for v in T.vertices}

        self.c0_dim = sum(s.dim for s in self.tile_space.values())
        self.c1_dim = sum(s.dim for s in self.edge_space.values())
        self.c2_dim = sum(s.dim for s in self.vertex_space.values())
        self._tile_off = _offsets(T.tiles, self.tile_space)
        self._edge_off = _offsets(self.edges, self.edge_space)
        self._vert_off = _offsets(T.vertices, self.vertex_space)
        self.d0_blocks = self._build_d0()
        self.d1_blocks = self._build_d1()
        # d1 . d0 = 0, block by block: block (v, t) of the product is the sum
        # over the edges e at v that contain t of d1[v, e] @ d0[e, t]
        product = {}
        for (v, ek), b1 in self.d1_blocks.items():
            for t in ek:
                b0 = self.d0_blocks.get((ek, t))
                if b0 is not None:
                    term = b1 @ b0 % p
                    product[v, t] = (product[v, t] + term) % p if (v, t) in product else term
        if any(b.any() for b in product.values()):
            raise AssertionError("d1 . d0 != 0")

    # -- local constraint systems: (items, constraints) for `_section_solver` --

    def _rdims(self, region):
        return self.dF[("R", region)], self.dG[("R", region)]

    def _constraints(self, pairs):
        """(ks, kt, F(s -> t), G(s -> t)) for each (s, kt, t): stratum s, whose
        block key is s itself, generizes to stratum t, held in block kt.  A pair
        with dF[s] . dG[t] = 0 constrains nothing and is dropped, so no zero
        stalk is looked up."""
        return [(s, kt, self.mF[s, t], self.mG[s, t])
                for s, kt, t in pairs if self.dF[s] * self.dG[t]]

    def _tile_system(self, tile):
        T = self.T
        items = []
        for fi in range(len(T.tile_face_lists[tile])):
            fd, gd = self._rdims(T.face_region[(tile, fi)])
            items.append((("F", fi), fd, gd))
        pairs = []
        for arcname in T.tile_arcs.get(tile, []):
            items.append(((("A", arcname)), self.dF[("A", arcname)], self.dG[("A", arcname)]))
        cont = T.content.get(tile)
        if cont and cont[0] in ("crossing", "cusp"):
            vname = T.vertex_strata[tile]
            items.append((("V", vname), self.dF[("V", vname)], self.dG[("V", vname)]))
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
        return items, self._constraints(pairs)

    def _edge_system(self, ek):
        T = self.T
        info = T.edge_info[ek]
        if info["arc"] is None:
            fd, gd = self._rdims(info["region"])
            return [(("S", "only"), fd, gd)], []
        arc = info["arc"]
        akey = ("A", arc)
        fa, ga = self.dF[akey], self.dG[akey]
        fu, gu = self._rdims(info["above"])
        fl, gl = self._rdims(info["below"])
        items = [(akey, fa, ga), (("S", "above"), fu, gu), (("S", "below"), fl, gl)]
        return items, self._constraints([(akey, ("S", side), ("R", info[side]))
                                         for side in ("above", "below")])

    def _vertex_system(self, v):
        fd, gd = self._rdims(self.T.vertex_region[v])
        return [(("S", "only"), fd, gd)], []

    # -- restriction maps ----------------------------------------------------

    def _project(self, big: OpenSpace, small: OpenSpace, keymap) -> np.ndarray:
        """The restriction map: block kb of a section on `big` is block ks on
        `small`, so its coordinates there are rows of big.basis."""
        assert len(keymap) == len(small.keys)
        shift = np.zeros(small.total, dtype=np.int64)
        for ks, kb in keymap.items():
            ln = small.dims[ks]
            assert ln == big.dims[kb], (ks, kb)
            shift[small.offsets[ks]:small.offsets[ks] + ln] = big.offsets[kb] - small.offsets[ks]
        return big.basis[small.free + shift[small.free]]

    def _tile_to_edge(self, tile, ek) -> np.ndarray:
        T = self.T
        other = ek[0] if ek[1] == tile else ek[1]
        d = next(dd for dd in ("N", "NE", "SE", "S", "SW", "NW")
                 if neighbor(tile, dd) == other)
        info = T.edge_info[ek]
        if info["arc"] is None:
            face = T.channel_face[(tile, (d, "full"))]
            keymap = {("S", "only"): ("F", face)}
        else:
            keymap = {
                ("A", info["arc"]): ("A", info["arc"]),
                ("S", "above"): ("F", T.channel_face[(tile, (d, "hi"))]),
                ("S", "below"): ("F", T.channel_face[(tile, (d, "lo"))]),
            }
        return self._project(self.tile_space[tile], self.edge_space[ek], keymap)

    def _edge_to_vertex(self, ek, v) -> np.ndarray:
        info = self.T.edge_info[ek]
        side = "only"
        if info["arc"] is not None:
            side = "above" if info["upper_vertex"] == v else "below"
            assert info[side] == self.T.vertex_region[v], (ek, v)
        return self._project(self.edge_space[ek], self.vertex_space[v],
                             {("S", "only"): ("S", side)})

    # -- differentials ---------------------------------------------------------

    def _build_d0(self):
        """d^0 as {(edge, tile): block}: on the edge between tiles ta < tb,
        the restriction from tb minus the restriction from ta.  An edge with
        no sections has no blocks."""
        p = self.p
        blocks = {}
        for ek in self.edges:
            if self.edge_space[ek].dim == 0:
                continue
            ta, tb = ek  # sorted: ta < tb
            blocks[ek, tb] = self._tile_to_edge(tb, ek)
            blocks[ek, ta] = (-self._tile_to_edge(ta, ek)) % p
        return blocks

    def _build_d1(self):
        """d^1 as {(vertex, edge): block}, the alternating restrictions to
        each vertex from its three edges.  A vertex with no sections has no
        blocks."""
        p = self.p
        blocks = {}
        for v in self.T.vertices:
            if self.vertex_space[v].dim == 0:
                continue
            tiles = sorted(vertex_tiles(v))
            pairs = [((tiles[1], tiles[2]), 1), ((tiles[0], tiles[2]), -1),
                     ((tiles[0], tiles[1]), 1)]
            for ek, sgn in pairs:  # three distinct edges, each sorted like `tiles`
                blocks[v, ek] = (sgn * self._edge_to_vertex(ek, v)) % p
        return blocks

    @functools.cached_property
    def d0(self) -> np.ndarray:
        """Dense d^0 (C^1 x C^0), assembled from its blocks on first read.
        Ranks and the d^1 . d^0 check never read it."""
        return _dense(self.d0_blocks, self._edge_off, self._tile_off, (self.c1_dim, self.c0_dim))

    @functools.cached_property
    def d1(self) -> np.ndarray:
        """Dense d^1 (C^2 x C^1), assembled from its blocks on first read."""
        return _dense(self.d1_blocks, self._vert_off, self._edge_off, (self.c2_dim, self.c1_dim))

    def cohomology_dims(self):
        """(dim H^0, dim H^1, dim H^2) of the Cech complex of Hom(F, G)."""
        rank_d0 = _block_rank(self.d0_blocks, self._edge_off, self._tile_off, self.p)
        rank_d1 = self.rank_d1()
        h0 = self.c0_dim - rank_d0
        h1 = (self.c1_dim - rank_d1) - rank_d0
        h2 = self.c2_dim - rank_d1
        return h0, h1, h2

    @functools.cached_property
    def game(self):
        """The trace of `graph_game(self)`, played at first use."""
        return graph_game(self)

    def rank_d1(self):
        """rank d^1, certified by the leaf/Y game when it succeeds.

        Ordered by removal, the blue columns the game removes make d^1 block
        upper-triangular (each removed blue meets no red still alive but the
        one removed with it), and every diagonal block was checked surjective,
        so a successful game means rank d^1 = dim C^2.  Only when the game
        fails is d^1 eliminated globally.
        """
        if not hasattr(self, "_rank_d1"):
            self._rank_d1 = self.c2_dim if self.game["success"] else self.eliminated_rank_d1()
        return self._rank_d1

    def eliminated_rank_d1(self) -> int:
        """rank d^1 from one forward pass on the sparse rows of its blocks,
        independent of the game."""
        return _block_rank(self.d1_blocks, self._vert_off, self._edge_off, self.p)

    def h2_certificate(self):
        """True iff d^1 is surjective; returns (flag, certificate).

        `certified_by` is "game" when the leaf/Y game's trace proves the rank
        and "rank" when it came from eliminating d^1.
        """
        rank_d1 = self.rank_d1()
        return rank_d1 == self.c2_dim, {"rank_d1": int(rank_d1),
                                        "dim_c1": int(self.c1_dim),
                                        "dim_c2": int(self.c2_dim),
                                        "certified_by": "game" if self.game["success"] else "rank"}


def _block_rank(blocks, row_off, col_off, p) -> int:
    """Rank of the block matrix {(row key, col key): block}, by `xa.rank_rows`
    on its {col: residue} rows, read straight from the blocks."""
    rows = {}
    for (rk, ck), b in blocks.items():
        i, j = np.nonzero(b)
        r0, c0 = row_off[rk], col_off[ck]
        for r, c, v in zip((i + r0).tolist(), (j + c0).tolist(), b[i, j].tolist()):
            rows.setdefault(r, {})[c] = v
    return xa.rank_rows((rows[r] for r in sorted(rows)), p)

def graph_game(cx: CechComplex):
    """Play the leaf/Y-removal game on an assembled complex; returns a trace dict.

    Blue nodes are the edges of the tiling and red nodes its vertices.  Each
    edge-to-vertex map is its block of d^1, which is +- the restriction map;
    every step tests a rank, which a sign does not change.
    The torus/eye graphs succeed by removing the Y of each horizontal edge
    from left to right.  If no rule applies the report lists what is stuck.
    """
    T, p = cx.T, cx.p
    red_dim = {v: cx.vertex_space[v].dim for v in T.vertices}
    reds_of = {ek: [] for ek in cx.edges}
    for v in T.vertices:
        for ek, _ in vertex_edges(v):
            reds_of[ek].append(v)
    alive_red = set(T.vertices)
    alive_blue = set(cx.edges)
    steps = []

    def leaf(b):
        return [v for v in reds_of[b] if v in alive_red]

    horizontals = sorted((ek for ek in cx.edges if T.edge_info[ek]["horizontal"]),
                         key=lambda ek: (ek[0][0], min(ek[0][1], ek[1][1])))
    for h in horizontals:
        # the left endpoint of the horizontal edge is the E-corner vertex
        vL = next((v for v in reds_of[h] if v[0] == "E"), None)
        vR = next((v for v in reds_of[h] if v[0] == "W"), None)
        if vL is not None and vL in alive_red:
            d0 = (vL[1], vL[2])
            ne, se = edge_key(d0, "NE"), edge_key(d0, "SE")
            if any(b not in alive_blue or leaf(b) != [vL] for b in (ne, se)):
                return {"success": False, "stuck": [str(vL)], "steps": steps,
                        "failed_rule": "leaf"}
            if red_dim[vL] == 0:
                rule = "zero-stalk"
            elif T.edge_info[ne]["arc"] is None or T.edge_info[se]["arc"] is None:
                rule = "isomorphism-edge"
            else:
                cont = T.content.get(d0, ("empty",))
                rule = {"crossing": "crossing-surjective", "cusp": "cusp-lemma"}[cont[0]]
            ok = red_dim[vL] == 0 or \
                xa.rank(np.hstack([cx.d1_blocks[vL, ne], cx.d1_blocks[vL, se]]), p) == red_dim[vL]
            if not ok:
                return {"success": False, "stuck": [str(vL)], "steps": steps,
                        "failed_rule": rule}
            steps.append({"rule": rule, "removed_blues": [str(ne), str(se)],
                          "removed_red": str(vL), "rank_checked": True})
            alive_blue -= {ne, se}
            alive_red.discard(vL)
        if vR is not None and vR in alive_red:
            if h not in alive_blue or leaf(h) != [vR]:
                return {"success": False, "stuck": [str(vR)], "steps": steps,
                        "failed_rule": "leaf"}
            ok = red_dim[vR] == 0 or xa.rank(cx.d1_blocks[vR, h], p) == red_dim[vR]
            if not ok:
                return {"success": False, "stuck": [str(vR)], "steps": steps,
                        "failed_rule": "horizontal-iso"}
            steps.append({"rule": "horizontal-iso" if red_dim[vR] else "zero-stalk",
                          "removed_blues": [str(h)], "removed_red": str(vR),
                          "rank_checked": True})
        alive_blue.discard(h)
        if vR is not None:
            alive_red.discard(vR)
    if alive_red:
        return {"success": False, "stuck": sorted(str(v) for v in alive_red),
                "steps": steps}
    return {"success": True, "steps": steps, "removed": len(steps)}

