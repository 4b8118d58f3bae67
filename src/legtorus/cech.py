"""A combinatorial hexagonal-tiling Cech complex for Hom sheaves on rainbow
fronts.

The tiling is a flat-top hexagon grid: every hexagon has two horizontal edges
(N and S) and four slanted ones, so each grid vertex meets exactly one
horizontal edge.  The front of the (2,m) torus link (or of the eye-shaped
unknot) is routed combinatorially through lanes so that every tile contains
at most one crossing or cusp, horizontal edges never meet the front, and
non-crossing tiles meet it at most twice, on consecutive edges exactly at
cusps.

Sections of Hom(F, G) over a tile/edge/vertex neighborhood are computed as
the solution space of the commutation constraints of the local stratum
quiver; the three-term complex C^0 -> C^1 -> C^2 then gives H^0/H^1 (checked
against Ext^0/Ext^1) and the surjectivity of d^1, i.e. the vanishing of H^2.
The leaf/Y-removal game replays the combinatorial surjectivity proof with a
rank certificate at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exactalg as xa
from .sheafcat import SheafObject

# ---------------------------------------------------------------------------
# Flat-top hexagon grid combinatorics

SLANTED = ("NE", "SE", "SW", "NW")
OPP = {"N": "S", "S": "N", "NE": "SW", "SW": "NE", "SE": "NW", "NW": "SE"}


def neighbor(tile, d):
    c, r = tile
    if d == "N":
        return (c, r + 1)
    if d == "S":
        return (c, r - 1)
    even = c % 2 == 0
    if d == "NE":
        return (c + 1, r if even else r + 1)
    if d == "SE":
        return (c + 1, r - 1 if even else r)
    if d == "NW":
        return (c - 1, r if even else r + 1)
    if d == "SW":
        return (c - 1, r - 1 if even else r)
    raise KeyError(d)


def edge_key(tile, d):
    return tuple(sorted([tile, neighbor(tile, d)]))


def edge_endpoints(tile, d):
    """(upper-or-right vertex, lower-or-left vertex) of an edge of `tile`."""
    c, r = tile
    if d == "NE":
        return (("W",) + neighbor(tile, "NE"), ("E", c, r))
    if d == "SE":
        return (("E", c, r), ("W",) + neighbor(tile, "SE"))
    if d == "SW":
        return (("W", c, r), ("E",) + neighbor(tile, "SW"))
    if d == "NW":
        return (("E",) + neighbor(tile, "NW"), ("W", c, r))
    if d == "N":
        return (("W",) + neighbor(tile, "NE"), ("E",) + neighbor(tile, "NW"))
    if d == "S":
        return (("W",) + neighbor(tile, "SE"), ("E",) + neighbor(tile, "SW"))
    raise KeyError(d)


def vertex_tiles(v):
    kind, c, r = v
    t = (c, r)
    if kind == "E":
        return [t, neighbor(t, "NE"), neighbor(t, "SE")]
    return [t, neighbor(t, "NW"), neighbor(t, "SW")]


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


# boundary slot cycle (clockwise); hi/lo are the halves of a slanted edge
# adjacent to its upper/lower endpoint, which is an absolute labelling shared
# with the neighboring tile
_EDGE_CYCLE = ["N", "NE", "SE", "S", "SW", "NW"]
_HALVES = {"NE": ("hi", "lo"), "SE": ("hi", "lo"), "SW": ("lo", "hi"), "NW": ("lo", "hi")}


def tile_faces(cuts):
    """Partition the boundary slots of a tile into faces given crossed edges.

    Returns a list of faces, each a list of (edge_dir, part) channels where
    part is 'full', 'hi' or 'lo'.
    """
    slots = []
    cut_after = []
    for d in _EDGE_CYCLE:
        if d in ("N", "S") or d not in cuts:
            slots.append((d, "full"))
            continue
        h1, h2 = _HALVES[d]
        slots.append((d, h1))
        cut_after.append(len(slots) - 1)  # the strand crosses between halves
        slots.append((d, h2))
    if not cut_after:
        return [slots]
    faces = []
    k = len(slots)
    starts = sorted((i + 1) % k for i in cut_after)
    for a, b in zip(starts, starts[1:] + [starts[0] + k]):
        faces.append([slots[i % k] for i in range(a, b)])
    return faces


# ---------------------------------------------------------------------------
# Front layouts

@dataclass
class Arc:
    name: str
    potential: int
    transits: list = field(default_factory=list)  # (tile, entry_dir|None, exit_dir|None)


@dataclass
class TilingComplex:
    kind: str                     # 'torus' or 'eye'
    m: int
    resolution: int
    box: tuple                    # (cmax, rmin, rmax); columns 0..cmax
    tiles: list = field(default_factory=list)
    content: dict = field(default_factory=dict)    # tile -> content record
    cuts: dict = field(default_factory=dict)       # edge_key -> arc name
    arcs: dict = field(default_factory=dict)       # name -> Arc
    vertex_strata: dict = field(default_factory=dict)  # tile -> stratum id (features)
    regions: dict = field(default_factory=dict)    # region id -> canonical name
    face_region: dict = field(default_factory=dict)  # (tile, face idx) -> region name
    tile_face_lists: dict = field(default_factory=dict)
    arc_sides: dict = field(default_factory=dict)  # arc -> (above region, below region)
    tile_strata: dict = field(default_factory=dict)
    edge_info: dict = field(default_factory=dict)  # edge -> dict
    vertices: list = field(default_factory=list)   # interior vertices
    vertex_region: dict = field(default_factory=dict)
    channel_face_local: dict = field(default_factory=dict)  # (tile, channel) -> face idx
    tile_arcs: dict = field(default_factory=dict)
    tile_transits: dict = field(default_factory=dict)

    def in_box(self, tile):
        cmax, rmin, rmax = self.box
        return 0 <= tile[0] <= cmax and rmin <= tile[1] <= rmax


def _walk(arc: Arc, cuts, path):
    """Register a strand path (list of (tile, entry, exit)) for an arc."""
    for idx, (tile, entry, exit_) in enumerate(path):
        arc.transits.append((tile, entry, exit_))
        if entry is not None and idx > 0:
            prev_tile, _, prev_exit = path[idx - 1]
            if neighbor(prev_tile, prev_exit) != tile or OPP[prev_exit] != entry:
                raise AssertionError(f"broken path for {arc.name} at {tile}")
        if exit_ is not None:
            ek = edge_key(tile, exit_)
            if ek in cuts:
                raise AssertionError(f"edge {ek} crossed twice")
            cuts[ek] = arc.name


def build_tiling(m: int, resolution: int = 1) -> TilingComplex:
    """Abstract hexagonal tiling of the rainbow closure of the 2-braid with m
    crossings; `resolution` dilates the straight tail runs."""
    if m < 1 or resolution < 1:
        raise ValueError("need m >= 1 and resolution >= 1")
    rho = resolution
    cL = 3 + 2 * rho
    xcols = [cL + 1 + 2 * i for i in range(m)]
    cR = cL + 2 * m
    crise = cR + 2 * rho - 1
    cO2 = crise + 3
    T = TilingComplex(kind="torus", m=m, resolution=rho, box=(cO2 + 1, -1, 4))

    a1 = Arc("a1", 1)
    a2 = Arc("a2", 1)
    bts = [Arc(f"bt{i}", 0) for i in range(m + 1)]
    bls = [Arc(f"bl{i}", 0) for i in range(m + 1)]
    cuts = T.cuts

    # outer top arc a1: cusp -> three rises -> lane 6 -> three descents -> cusp
    path = [((1, 1), None, "NE"), ((2, 2), "SW", "NE"), ((3, 2), "SW", "NE"),
            ((4, 3), "SW", "NE")]
    for c in range(5, crise):
        path.append(((c, 3), "SW", "SE") if c % 2 == 1 else ((c, 3), "NW", "NE"))
    path += [((crise, 3), "NW", "SE"), ((crise + 1, 2), "NW", "SE"),
             ((crise + 2, 2), "NW", "SE"), ((cO2, 1), "NW", None)]
    _walk(a1, cuts, path)

    # inner top arc a2: cusp -> rise -> lane 4 -> descent -> cusp (valley if m=1)
    if m == 1:
        path = [((cL, 1), None, "NE"), ((cL + 1, 2), "SW", "SE"), ((cR, 1), "NW", None)]
    else:
        path = [((cL, 1), None, "NE"), ((cL + 1, 2), "SW", "NE")]
        for c in range(cL + 2, xcols[-1]):
            path.append(((c, 2), "SW", "SE") if c % 2 == 1 else ((c, 2), "NW", "NE"))
        path += [((xcols[-1], 2), "NW", "SE"), ((cR, 1), "NW", None)]
    _walk(a2, cuts, path)

    # braid upper arcs bt_i
    _walk(bts[0], cuts, [((cL, 1), None, "SE"), ((xcols[0], 1), "NW", None)])
    for i in range(1, m):
        _walk(bts[i], cuts, [((xcols[i - 1], 1), None, "NE"),
                             ((xcols[i - 1] + 1, 1), "SW", "SE"),
                             ((xcols[i], 1), "NW", None)])
    _walk(bts[m], cuts, [((xcols[-1], 1), None, "NE"), ((cR, 1), "SW", None)])

    # braid lower arcs bl_i
    path = [((1, 1), None, "SE"), ((2, 1), "NW", "SE")]
    c = 3
    while c < xcols[0]:
        path.append(((c, 0), "NW", "NE") if c % 2 == 1 else ((c, 1), "SW", "SE"))
        c += 1
    path.append(((xcols[0], 1), "SW", None))
    _walk(bls[0], cuts, path)
    for i in range(1, m):
        _walk(bls[i], cuts, [((xcols[i - 1], 1), None, "SE"),
                             ((xcols[i - 1] + 1, 0), "NW", "NE"),
                             ((xcols[i], 1), "SW", None)])
    path = [((xcols[-1], 1), None, "SE")]
    c = xcols[-1] + 1
    while c < crise:
        path.append(((c, 0), "NW", "NE") if c % 2 == 1 else ((c, 1), "SW", "SE"))
        c += 1
    path += [((crise, 1), "SW", "NE"), ((crise + 1, 1), "SW", "SE"),
             ((crise + 2, 1), "NW", "NE"), ((cO2, 1), "SW", None)]
    _walk(bls[m], cuts, path)

    for arc in [a1, a2, *bts, *bls]:
        T.arcs[arc.name] = arc

    T.content[(1, 1)] = ("cusp", "left", "outer", "a1", "bl0")
    T.content[(cL, 1)] = ("cusp", "left", "inner", "a2", "bt0")
    T.content[(cR, 1)] = ("cusp", "right", "inner", "a2", f"bt{m}")
    T.content[(cO2, 1)] = ("cusp", "right", "outer", "a1", f"bl{m}")
    T.vertex_strata[(1, 1)] = "x1"
    T.vertex_strata[(cL, 1)] = "x2"
    T.vertex_strata[(cR, 1)] = "x3"
    T.vertex_strata[(cO2, 1)] = "x4"
    for i, xc in enumerate(xcols, start=1):
        T.content[(xc, 1)] = ("crossing", i,
                              {"NW": f"bt{i - 1}", "SW": f"bl{i - 1}",
                               "NE": f"bt{i}", "SE": f"bl{i}"})
        T.vertex_strata[(xc, 1)] = f"y{i}"

    _finalize(T, region_anchor_u1=((5, 3), ("S", "full")),
              region_anchor_u2=((cL + 1, 2), ("S", "full")),
              crossing_cols=xcols)
    return T


def eye_tiling(resolution: int = 1) -> TilingComplex:
    """The standard eye-shaped unknot front on the same hexagonal grid."""
    if resolution < 1:
        raise ValueError("resolution >= 1")
    rho = resolution
    W = 3 + 2 * rho
    T = TilingComplex(kind="eye", m=0, resolution=rho, box=(W + 1, -1, 4))
    top = Arc("top", 1)
    bot = Arc("bot", 0)
    path = [((1, 1), None, "NE"), ((2, 2), "SW", "NE")]
    for c in range(3, W - 1):
        path.append(((c, 2), "SW", "SE") if c % 2 == 1 else ((c, 2), "NW", "NE"))
    path += [((W - 1, 2), "NW", "SE"), ((W, 1), "NW", None)]
    _walk(top, T.cuts, path)
    path = [((1, 1), None, "SE")]
    for c in range(2, W):
        path.append(((c, 1), "NW", "NE") if c % 2 == 0 else ((c, 1), "SW", "SE"))
    path.append(((W, 1), "SW", None))
    _walk(bot, T.cuts, path)
    T.arcs["top"] = top
    T.arcs["bot"] = bot
    T.content[(1, 1)] = ("cusp", "left", "outer", "top", "bot")
    T.content[(W, 1)] = ("cusp", "right", "outer", "top", "bot")
    T.vertex_strata[(1, 1)] = "cl"
    T.vertex_strata[(W, 1)] = "cr"
    _finalize(T, region_anchor_u1=None,
              region_anchor_u2=((3, 2), ("S", "full")), crossing_cols=[])
    return T


def _finalize(T: TilingComplex, region_anchor_u1, region_anchor_u2, crossing_cols):
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

    channel_face: dict = {}
    for tile in T.tiles:
        crossed = {d for d in SLANTED if T.cuts.get(edge_key(tile, d)) and T.in_box(neighbor(tile, d))}
        faces = tile_faces(crossed)
        T.tile_face_lists[tile] = faces
        for fi, face in enumerate(faces):
            parent[(tile, fi)] = (tile, fi)
            for ch in face:
                channel_face[(tile, ch)] = (tile, fi)
    for tile in T.tiles:
        for d in SLANTED + ("N", "S"):
            nb = neighbor(tile, d)
            if not T.in_box(nb):
                continue
            ek = edge_key(tile, d)
            parts = ("hi", "lo") if T.cuts.get(ek) else ("full",)
            for part in parts:
                a = channel_face.get((tile, (d, part)))
                b = channel_face.get((nb, (OPP[d], part)))
                if a and b:
                    union(a, b)

    # canonical region names via anchors
    def face_of(tile, channel):
        return find(channel_face[(tile, channel)])

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
    T.regions = {v: v for v in set(names.values())}

    # arc sides (above/below regions) from the crossed edges
    for ek, arcname in T.cuts.items():
        ta, tb = ek
        d = next(dd for dd in SLANTED if neighbor(ta, dd) == tb)
        above = T.face_region[find(channel_face[(ta, (d, "hi"))])]
        below = T.face_region[find(channel_face[(ta, (d, "lo"))])]
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
                fi = find(channel_face[(tile, (d, "full"))])
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
            fi = find(channel_face[(tile, (d, part))])
            T.vertex_region[v] = T.face_region[fi]

    # local channel -> face index lookup, and strata met by each tile
    T.channel_face_local = {}
    for tile in T.tiles:
        for fi, face in enumerate(T.tile_face_lists[tile]):
            for ch in face:
                T.channel_face_local[(tile, ch)] = fi
    for tile in T.tiles:
        strata = set()
        for fi in range(len(T.tile_face_lists[tile])):
            strata.add(("R", T.face_region[(tile, fi)]))
        for rec in transit_count.get(tile, []):
            strata.add(("A", rec[0]))
        cont = T.content.get(tile)
        if cont and cont[0] == "crossing":
            strata |= {("A", a) for a in cont[2].values()}
            strata.add(("V", T.vertex_strata[tile]))
        if cont and cont[0] == "cusp":
            strata |= {("A", cont[3]), ("A", cont[4])}
            strata.add(("V", T.vertex_strata[tile]))
        T.tile_strata[tile] = sorted(strata)
    T.tile_arcs = {tile: sorted({r[0] for r in recs})
                   for tile, recs in transit_count.items()}
    T.tile_transits = transit_count


# ---------------------------------------------------------------------------
# Sheaf local data on a tiling

@dataclass
class EyeSheaf:
    """Microlocal rank r sheaf on the eye front (unique up to isomorphism)."""
    rank: int
    p: int


def local_data(T: TilingComplex, obj):
    """Per-stratum dimensions and generization maps for an object on T.

    Returns (dims, maps): dims maps stratum id -> dimension; maps maps pairs
    (small stratum, big stratum) -> matrix of the generization.
    """
    if T.kind == "eye":
        r = obj.rank
        dims = {("R", "U0"): 0, ("R", "I"): r,
                ("A", "top"): r, ("A", "bot"): 0,
                ("V", "cl"): 0, ("V", "cr"): 0}
        maps = {
            (("A", "top"), ("R", "I")): xa.eye(r),
            (("A", "top"), ("R", "U0")): np.zeros((0, r), dtype=np.int64),
            (("A", "bot"), ("R", "I")): np.zeros((r, 0), dtype=np.int64),
            (("A", "bot"), ("R", "U0")): np.zeros((0, 0), dtype=np.int64),
        }
        for v in ("cl", "cr"):
            for tgt, dim in ((("R", "U0"), 0), (("R", "I"), r), (("A", "top"), r), (("A", "bot"), 0)):
                maps[(("V", v), tgt)] = np.zeros((dim, 0), dtype=np.int64)
        return dims, maps

    F: SheafObject = obj
    n, p, m = F.n, F.p, T.m
    psi = F.psi
    dims = {("R", "U0"): 0, ("R", "U1"): n, ("R", "U2"): 2 * n,
            ("A", "a1"): n, ("A", "a2"): 2 * n}
    for i in range(1, m):
        dims[("R", f"D{i}")] = n
    for i in range(m + 1):
        dims[("A", f"bt{i}")] = n
        dims[("A", f"bl{i}")] = 0
    for v in ("x1", "x4"):
        dims[("V", v)] = 0
    for i in range(1, m + 1):
        dims[("V", f"y{i}")] = 0
    dims[("V", "x2")] = n
    dims[("V", "x3")] = n

    maps = {}

    def setmap(s, t, mat):
        maps[(s, t)] = np.mod(np.array(mat, dtype=np.int64), p)

    z_up = np.zeros((0, n), dtype=np.int64)
    setmap(("A", "a1"), ("R", "U1"), xa.eye(n))
    setmap(("A", "a1"), ("R", "U0"), z_up)
    setmap(("A", "a2"), ("R", "U2"), xa.eye(2 * n))
    setmap(("A", "a2"), ("R", "U1"), psi)
    pm_iso = (psi @ F.phi(m + 1)) % p
    for i in range(m + 1):
        below = "U1" if i in (0, m) else f"D{i}"
        down = xa.eye(n) if i < m else pm_iso
        setmap(("A", f"bt{i}"), ("R", below), down)
        setmap(("A", f"bt{i}"), ("R", "U2"), F.phi(i + 1))
        # zero-dimensional bottom arcs
        above_bl = "U1" if i in (0, m) else f"D{i}"
        setmap(("A", f"bl{i}"), ("R", above_bl), np.zeros((n, 0), dtype=np.int64))
        setmap(("A", f"bl{i}"), ("R", "U0"), np.zeros((0, 0), dtype=np.int64))
    # cusp vertices
    setmap(("V", "x2"), ("R", "U1"), xa.eye(n))
    setmap(("V", "x2"), ("R", "U2"), F.phi(1))
    setmap(("V", "x2"), ("A", "a2"), F.phi(1))
    setmap(("V", "x2"), ("A", "bt0"), xa.eye(n))
    setmap(("V", "x3"), ("R", "U1"), pm_iso)
    setmap(("V", "x3"), ("R", "U2"), F.phi(m + 1))
    setmap(("V", "x3"), ("A", "a2"), F.phi(m + 1))
    setmap(("V", "x3"), ("A", f"bt{m}"), xa.eye(n))
    # zero-dimensional feature vertices
    for tile, vname in T.vertex_strata.items():
        if dims[("V", vname)] == 0:
            for s in T.tile_strata[tile]:
                if s != ("V", vname):
                    setmap(("V", vname), s, np.zeros((dims[s], 0), dtype=np.int64))
    _check_functor(dims, maps, p)
    return dims, maps


def _check_functor(dims, maps, p):
    """Commutativity of all composable triangles of generization maps."""
    for (s, t), m1 in maps.items():
        for (s2, t2), m2 in maps.items():
            if s2 == t and (s, t2) in maps:
                if ((m2 @ m1 - maps[(s, t2)]) % p).any():
                    raise AssertionError(f"generizations do not commute: {s} -> {t} -> {t2}")


# ---------------------------------------------------------------------------
# Section spaces and the Cech complex
#
# Unknowns live on *components* of (open set) intersect (stratum): a tile
# neighborhood can meet the same global region in several faces (e.g. the
# east and west wedges of the only crossing when m = 1), and those carry
# independent section values.  A section basis is a kernel in reduced column
# echelon form: column i is the unit vector at row free[i] plus entries at the
# pivot rows above it, so a section's coordinates are its entries at `free`.

@dataclass
class OpenSpace:
    keys: list             # component keys, in order
    dims: dict             # key -> Hom dimension block length
    offsets: dict
    total: int
    basis: np.ndarray      # total x dim
    free: np.ndarray       # dim row indices: the last nonzero row of each basis column

    @property
    def dim(self):
        return self.basis.shape[1]


def _solve_sections(items, constraints, p) -> OpenSpace:
    """Kernel of the commutation constraints.

    items: list of (key, fdim, gdim) unknown blocks lambda_key (gdim x fdim).
    constraints: list of (key_s, key_t, fmap, gmap) meaning
    lambda_t . fmap = gmap . lambda_s.
    """
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

        self.tile_space = {t: self._tile_space(t) for t in T.tiles}
        self.edges = sorted(T.edge_info)
        self.edge_space = {ek: self._edge_space(ek) for ek in self.edges}
        self.vertex_space = {v: self._vertex_space(v) for v in T.vertices}

        self.c0_dim = sum(s.dim for s in self.tile_space.values())
        self.c1_dim = sum(s.dim for s in self.edge_space.values())
        self.c2_dim = sum(s.dim for s in self.vertex_space.values())
        self._tile_off = _offsets(T.tiles, self.tile_space)
        self._edge_off = _offsets(self.edges, self.edge_space)
        self._vert_off = _offsets(T.vertices, self.vertex_space)
        self.d0 = self._build_d0()
        self.d1 = self._build_d1()
        if ((self.d1 @ self.d0) % p).any():
            raise AssertionError("d1 . d0 != 0")

    # -- local section spaces ------------------------------------------------

    def _rdims(self, region):
        return self.dF[("R", region)], self.dG[("R", region)]

    def _tile_space(self, tile) -> OpenSpace:
        T = self.T
        items = []
        for fi in range(len(T.tile_face_lists[tile])):
            fd, gd = self._rdims(T.face_region[(tile, fi)])
            items.append((("F", fi), fd, gd))
        constraints = []
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
                hi = T.channel_face_local[(tile, (d, "hi"))]
                lo = T.channel_face_local[(tile, (d, "lo"))]
                above, below = T.arc_sides[arcname]
                assert T.face_region[(tile, hi)] == above and T.face_region[(tile, lo)] == below
                for face, reg in ((hi, above), (lo, below)):
                    pair = (arcname, face)
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    constraints.append(((("A", arcname)), ("F", face),
                                        self.mF[(("A", arcname), ("R", reg))],
                                        self.mG[(("A", arcname), ("R", reg))]))
        if cont and cont[0] in ("crossing", "cusp"):
            vname = T.vertex_strata[tile]
            vkey = ("V", vname)
            for arcname in T.tile_arcs.get(tile, []):
                constraints.append((vkey, ("A", arcname),
                                    self.mF[(vkey, ("A", arcname))],
                                    self.mG[(vkey, ("A", arcname))]))
            for fi in range(len(T.tile_face_lists[tile])):
                reg = T.face_region[(tile, fi)]
                constraints.append((vkey, ("F", fi),
                                    self.mF[(vkey, ("R", reg))],
                                    self.mG[(vkey, ("R", reg))]))
        return _solve_sections(items, constraints, self.p)

    def _edge_space(self, ek) -> OpenSpace:
        T = self.T
        info = T.edge_info[ek]
        if info["arc"] is None:
            fd, gd = self._rdims(info["region"])
            return _solve_sections([(("S", "only"), fd, gd)], [], self.p)
        arc = info["arc"]
        akey = ("A", arc)
        fa, ga = self.dF[akey], self.dG[akey]
        fu, gu = self._rdims(info["above"])
        fl, gl = self._rdims(info["below"])
        items = [(akey, fa, ga), (("S", "above"), fu, gu), (("S", "below"), fl, gl)]
        constraints = [
            (akey, ("S", "above"), self.mF[(akey, ("R", info["above"]))],
             self.mG[(akey, ("R", info["above"]))]),
            (akey, ("S", "below"), self.mF[(akey, ("R", info["below"]))],
             self.mG[(akey, ("R", info["below"]))]),
        ]
        return _solve_sections(items, constraints, self.p)

    def _vertex_space(self, v) -> OpenSpace:
        fd, gd = self._rdims(self.T.vertex_region[v])
        return _solve_sections([(("S", "only"), fd, gd)], [], self.p)

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
            face = T.channel_face_local[(tile, (d, "full"))]
            keymap = {("S", "only"): ("F", face)}
        else:
            keymap = {
                ("A", info["arc"]): ("A", info["arc"]),
                ("S", "above"): ("F", T.channel_face_local[(tile, (d, "hi"))]),
                ("S", "below"): ("F", T.channel_face_local[(tile, (d, "lo"))]),
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
        p = self.p
        d0 = xa.zeros(self.c1_dim, self.c0_dim)
        for ek in self.edges:
            ta, tb = ek  # sorted: ta < tb
            es = self.edge_space[ek]
            if es.dim == 0:
                continue
            rows = slice(self._edge_off[ek], self._edge_off[ek] + es.dim)
            ca, cb = self._tile_off[ta], self._tile_off[tb]
            d0[rows, cb:cb + self.tile_space[tb].dim] = self._tile_to_edge(tb, ek)
            d0[rows, ca:ca + self.tile_space[ta].dim] = (-self._tile_to_edge(ta, ek)) % p
        return d0

    def _build_d1(self):
        p = self.p
        d1 = xa.zeros(self.c2_dim, self.c1_dim)
        for v in self.T.vertices:
            vs = self.vertex_space[v]
            if vs.dim == 0:
                continue
            tiles = sorted(vertex_tiles(v))
            pairs = [((tiles[1], tiles[2]), 1), ((tiles[0], tiles[2]), -1),
                     ((tiles[0], tiles[1]), 1)]
            r0 = self._vert_off[v]
            for ek, sgn in pairs:  # three distinct edges, each sorted like `tiles`
                c0 = self._edge_off[ek]
                d1[r0:r0 + vs.dim, c0:c0 + self.edge_space[ek].dim] = \
                    (sgn * self._edge_to_vertex(ek, v)) % p
        return d1

    def cohomology_dims(self):
        """(dim H^0, dim H^1, dim H^2) of the Cech complex of Hom(F, G)."""
        p = self.p
        rank_d0 = xa.rank(self.d0, p)
        rank_d1 = self.rank_d1()
        h0 = self.c0_dim - rank_d0
        h1 = (self.c1_dim - rank_d1) - rank_d0
        h2 = self.c2_dim - rank_d1
        return h0, h1, h2

    def rank_d1(self):
        if not hasattr(self, "_rank_d1"):
            self._rank_d1 = xa.rank(self.d1, self.p)
        return self._rank_d1

    def h2_certificate(self):
        """True iff d^1 is surjective; returns (flag, certificate)."""
        rank_d1 = self.rank_d1()
        return rank_d1 == self.c2_dim, {"rank_d1": int(rank_d1),
                                        "dim_c1": int(self.c1_dim),
                                        "dim_c2": int(self.c2_dim)}


def _offsets(keys, spaces):
    out = {}
    acc = 0
    for k in keys:
        out[k] = acc
        acc += spaces[k].dim
    return out


# ---------------------------------------------------------------------------
# The leaf / Y-removal game

@dataclass
class RedBlueGraph:
    blues: dict          # id -> {"dim", "reds": [red ids], "mats": {red: matrix}, "horizontal": bool}
    reds: dict           # id -> dim
    meta: dict = field(default_factory=dict)


def build_red_blue(cx: CechComplex) -> RedBlueGraph:
    """The edge/vertex incidence graph of an assembled complex, with the
    edge-to-vertex blocks of d^1: each is +- the restriction map, and the
    game only tests ranks, which a sign does not change."""
    T = cx.T
    reds = {v: cx.vertex_space[v].dim for v in T.vertices}
    edge_adj: dict = {ek: [] for ek in cx.edges}
    for v in T.vertices:
        for ek, _ in vertex_edges(v):
            if ek in edge_adj:
                edge_adj[ek].append(v)
    blues = {}
    for ek in cx.edges:
        info = T.edge_info[ek]
        cols = slice(cx._edge_off[ek], cx._edge_off[ek] + cx.edge_space[ek].dim)
        blues[ek] = {"dim": cx.edge_space[ek].dim,
                     "reds": edge_adj[ek],
                     "mats": {v: cx.d1[cx._vert_off[v]:cx._vert_off[v] + reds[v], cols]
                              for v in edge_adj[ek]},
                     "horizontal": bool(info.get("horizontal")),
                     "crossed": info["arc"] is not None}
    return RedBlueGraph(blues, reds, {"tiling": T, "p": cx.p})


def graph_game(g: RedBlueGraph):
    """Play the leaf/Y-removal game; returns a trace dict.

    The torus/eye graphs succeed by removing the Y of each horizontal edge
    from left to right; every step's surjectivity claim is certified by a
    rank computation.  If no rule applies the report lists what is stuck.
    """
    T = g.meta.get("tiling")
    p = g.meta.get("p", 2)
    alive_red = set(g.reds)
    alive_blue = set(g.blues)
    steps = []

    def leaf(b):
        return [v for v in g.blues[b]["reds"] if v in alive_red]

    if T is None:
        # generic graph: only the trivial rules apply
        for v in sorted(alive_red):
            if g.reds[v] == 0:
                alive_red.discard(v)
                steps.append({"rule": "zero-stalk", "red": v})
        if alive_red:
            return {"success": False, "stuck": sorted(str(v) for v in alive_red),
                    "steps": steps}
        return {"success": True, "steps": steps}

    horizontals = sorted((ek for ek in alive_blue if g.blues[ek]["horizontal"]),
                         key=lambda ek: (ek[0][0], min(ek[0][1], ek[1][1])))
    for h in horizontals:
        # the left endpoint of the horizontal edge is the E-corner vertex
        vL = next((v for v in g.blues[h]["reds"] if v[0] == "E"), None)
        vR = next((v for v in g.blues[h]["reds"] if v[0] == "W"), None)
        if vL is not None and vL in alive_red:
            d0 = (vL[1], vL[2])
            ne, se = edge_key(d0, "NE"), edge_key(d0, "SE")
            for b in (ne, se):
                assert b in alive_blue and len(leaf(b)) <= 1, ("not a leaf", b)
            if g.reds[vL] == 0:
                rule = "zero-stalk"
            elif not g.blues[ne]["crossed"] or not g.blues[se]["crossed"]:
                rule = "isomorphism-edge"
            else:
                cont = T.content.get(d0, ("empty",))
                rule = {"crossing": "crossing-surjective", "cusp": "cusp-lemma"}[cont[0]]
            combined = np.hstack([g.blues[ne]["mats"].get(vL, xa.zeros(g.reds[vL], g.blues[ne]["dim"])),
                                  g.blues[se]["mats"].get(vL, xa.zeros(g.reds[vL], g.blues[se]["dim"]))])
            ok = xa.rank(combined, p) == g.reds[vL]
            if not ok:
                return {"success": False, "stuck": [str(vL)], "steps": steps,
                        "failed_rule": rule}
            steps.append({"rule": rule, "removed_blues": [str(ne), str(se)],
                          "removed_red": str(vL), "rank_checked": True})
            alive_blue -= {ne, se}
            alive_red.discard(vL)
        if vR is not None and vR in alive_red:
            mat = g.blues[h]["mats"][vR]
            ok = g.reds[vR] == 0 or xa.rank(mat, p) == g.reds[vR]
            if not ok:
                return {"success": False, "stuck": [str(vR)], "steps": steps,
                        "failed_rule": "horizontal-iso"}
            steps.append({"rule": "horizontal-iso" if g.reds[vR] else "zero-stalk",
                          "removed_blues": [str(h)], "removed_red": str(vR),
                          "rank_checked": True})
        alive_blue.discard(h)
        if vR is not None:
            alive_red.discard(vR)
    if alive_red:
        return {"success": False, "stuck": sorted(str(v) for v in alive_red),
                "steps": steps}
    return {"success": True, "steps": steps, "removed": len(steps)}
