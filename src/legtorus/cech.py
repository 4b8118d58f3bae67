"""A combinatorial hexagonal-tiling Cech complex for Hom sheaves on rainbow
fronts.

The tiling is a flat-top hexagon grid: every hexagon has two horizontal edges
(N and S) and four slanted ones, so each grid vertex meets exactly one
horizontal edge.  The front of the (2,m) torus link (or of the eye-shaped
unknot) is routed combinatorially through lanes so that every tile contains
at most one crossing or cusp, horizontal edges never meet the front, and
non-crossing tiles meet it at most twice, on consecutive edges exactly at
cusps.  Building a tiling visits each edge once: each tile's crossed edges
come from the cuts, tiles crossed alike share their faces, and the flood fill
that names the regions joins faces across each edge from its lower tile.

Sections of Hom(F, G) over a tile/edge/vertex neighborhood are computed as
the solution space of the commutation constraints of the local stratum
quiver.  A zero stalk (U0, the arcs bl_i and the vertices x1, x4, y_i; U0,
bot and the cusps on the eye) adds no sections and no equations: it keeps its
dimension and an empty unknown block, but has no generization maps and no
constraints.  An open with no constraints (every vertex, and every edge the
front does not cross) has the identity kernel.  The three-term complex
C^0 -> C^1 -> C^2 then gives H^0/H^1 (checked against Ext^0/Ext^1) and the
surjectivity of d^1, i.e. the vanishing of H^2.

The differentials are held as blocks, d^0 keyed (edge, tile) and d^1 keyed
(vertex, edge), each block a +- restriction map.  Each complex reads the
nonzero entries of each differential once, as flat triplets (global row,
global column, value) taken from all its blocks at once.  d^1 . d^0 = 0 is
checked exactly on every cell by one sparse product of the two triplet
lists, and ranks come from one forward elimination pass on sparse lines
grouped from the triplets, along the short side: d^0 has more rows than
columns, so its pass runs over the rows of its transpose.  The dense
`d0`/`d1` are views assembled on first read, for tests and tracing only.
The leaf/Y-removal game replays the combinatorial surjectivity proof with a
rank certificate at every step; when it succeeds it is the certificate for
rank d^1, and d^1 is eliminated globally only when it fails.

Most of a complex depends only on the tiling and the stalk dimensions of F
and G: the layout and constraint positions of every open, the identity
spaces, the restriction blocks between unconstrained opens, how the other
blocks gather rows, and the game's moves.  The first complex on a tiling
builds these as a frame (`_Frame`), which the tiling keeps for the next
complexes with the same p and dimensions.  The frame is built from its
distinct pieces: opens with the same local system share one entry, and
restrictions with the same two opens, keymap and sign one read-only block or
gather, so each is built, and each distinct d^1 block checked, once per
frame.  Local sections follow one reuse rule: each constrained entry
remembers the bytes of the maps at its constraints and the space its last
solve gave, and is solved again only when a complex brings other bytes.  So
all opens of an entry share one space, a complex solves each entry at most
once, and a frame holds at most one space per entry.  The game takes one
thing on trust: a d^1 block that is the very array of the frame's read-only
snapshot.  Each such block is +- distinct identity rows, checked as the frame
is built, so it has full row rank and certifies its game move alone; a block
swapped in is rank-checked again.  The d^1 . d^0 check trusts nothing and
reads every block.
"""

from __future__ import annotations

import functools
import itertools
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


def _edge_dir(ek):
    """The direction of the edge (ta, tb), ta < tb, seen from ta: N, NE or SE."""
    (c, r), (c2, r2) = ek
    if c2 == c:
        return "N"
    return "NE" if r2 == (r if c % 2 == 0 else r + 1) else "SE"


# the crossed edges of a cusp tile, in SLANTED order
_CUSP_SIDES = (("NE", "SE"), ("SW", "NW"))


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
    """The 3 edges at a vertex as (edge_key, horizontal flag).  A slanted
    neighbor is one column east or west, and SE/SW lies below NE/NW, which
    orders each key."""
    kind, c, r = v
    t = (c, r)
    if kind == "E":
        ne, se = neighbor(t, "NE"), neighbor(t, "SE")
        return [((t, ne), False), ((t, se), False), ((se, ne), True)]
    nw, sw = neighbor(t, "NW"), neighbor(t, "SW")
    return [((nw, t), False), ((sw, t), False), ((sw, nw), True)]


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
    regions: tuple = ()                            # region names, sorted
    face_region: dict = field(default_factory=dict)  # (tile, face idx) -> region name
    tile_face_lists: dict = field(default_factory=dict)
    arc_sides: dict = field(default_factory=dict)  # arc -> (above region, below region)
    edge_info: dict = field(default_factory=dict)  # edge -> dict
    vertices: list = field(default_factory=list)   # interior vertices
    vertex_region: dict = field(default_factory=dict)
    channel_face: dict = field(default_factory=dict)  # (tile, channel) -> face idx
    tile_arcs: dict = field(default_factory=dict)
    tile_transits: dict = field(default_factory=dict)
    # the Cech complexes' frames on this tiling, keyed by (p, stalk dimensions
    # of F, stalk dimensions of G); see `_Frame`
    frames: dict = field(default_factory=dict, repr=False, compare=False)

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

    # audit: horizontal edges never crossed; intersection counts per tile.
    # cut_at: tile -> the directions of its edges the front crosses, within the box
    cut_at: dict = {}
    for ek in T.cuts:
        ta, tb = ek
        if ta[0] == tb[0]:
            raise AssertionError("front crosses a horizontal edge")
        if T.in_box(ta) and T.in_box(tb):
            d = _edge_dir(ek)
            cut_at.setdefault(ta, set()).add(d)
            cut_at.setdefault(tb, set()).add(OPP[d])

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

    # tiles crossed on the same edges share their faces and channel map
    faces_of: dict = {}
    for tile in T.tiles:
        cut = cut_at.get(tile, ())
        crossed = tuple(d for d in SLANTED if d in cut)
        kind = T.content.get(tile, ("empty",))[0]
        if kind == "crossing":
            fits = len(crossed) == 4
        elif kind == "cusp":
            fits = crossed in _CUSP_SIDES
        elif kind == "strand":
            fits = len(crossed) == 2 and crossed not in _CUSP_SIDES
        else:
            fits = not crossed
        if not fits:
            raise AssertionError(f"{kind} tile {tile} meets the front on {crossed}")
        if crossed not in faces_of:
            faces = tile_faces(crossed)
            faces_of[crossed] = faces, {ch: fi for fi, face in enumerate(faces) for ch in face}
        faces, channels = faces_of[crossed]
        T.tile_face_lists[tile] = faces
        for fi in range(len(faces)):
            parent[(tile, fi)] = (tile, fi)
        for ch, fi in channels.items():
            T.channel_face[(tile, ch)] = fi
    # (tile, d, neighbor) for each edge in the box, once, from its lower tile
    inner = [(tile, d, nb) for tile in T.tiles for d in ("N", "NE", "SE")
             if T.in_box(nb := neighbor(tile, d))]
    for tile, d, nb in inner:
        for part in ("hi", "lo") if d in cut_at.get(tile, ()) else ("full",):
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
            elif names.get(f) != "U1":
                raise AssertionError("the east face of the last crossing is not U1")
        x1 = (crossing_cols[0], 1)
        for channel, want in ((("SW", "hi"), "U1"), (("N", "full"), "U2"), (("S", "full"), "U0")):
            if names.get(face_of(x1, channel)) != want:
                raise AssertionError(f"the {channel} face of the first crossing is not {want}")
    else:
        names[face_of(*region_anchor_u2)] = "I"
    for tile in T.tiles:
        for fi in range(len(T.tile_face_lists[tile])):
            root = find((tile, fi))
            if root not in names:
                raise AssertionError(f"unidentified region at {tile} face {fi}")
            T.face_region[(tile, fi)] = names[root]
    T.regions = tuple(sorted(set(names.values())))

    def region_at(tile, channel):
        return T.face_region[(tile, T.channel_face[(tile, channel)])]

    # arc sides (above/below regions) from the crossed edges
    for ek, arcname in T.cuts.items():
        ta, d = ek[0], _edge_dir(ek)
        above, below = region_at(ta, (d, "hi")), region_at(ta, (d, "lo"))
        prev = T.arc_sides.get(arcname)
        if prev is not None and prev != (above, below):
            raise AssertionError(f"arc {arcname} has inconsistent sides")
        T.arc_sides[arcname] = (above, below)
        T.edge_info[ek] = {"arc": arcname, "above": above, "below": below,
                           "potential": T.arcs[arcname].potential,
                           "upper_vertex": None, "lower_vertex": None}

    # edge info for all in-box edges + vertex list
    for tile, d, nb in inner:
        info = T.edge_info.get((tile, nb))
        if info is None:
            T.edge_info[(tile, nb)] = {"arc": None, "region": region_at(tile, (d, "full")),
                                       "horizontal": d == "N"}
        else:
            info["upper_vertex"], info["lower_vertex"] = edge_endpoints(tile, d)
            info["horizontal"] = d == "N"

    # each tile names its E and W corners, so every vertex comes up once
    for tile in T.tiles:
        c, r = tile
        for kind, d in (("E", "NE"), ("W", "NW")):
            v = (kind, c, r)
            if all(T.in_box(t) for t in vertex_tiles(v)):
                T.vertices.append(v)
                # region at the corner
                part = "lo" if d in cut_at.get(tile, ()) else "full"
                T.vertex_region[v] = region_at(tile, (d, part))

    T.tile_arcs = {tile: sorted({r[0] for r in recs})
                   for tile, recs in transit_count.items()}
    T.tile_transits = transit_count


# ---------------------------------------------------------------------------
# Sheaf local data on a tiling

@dataclass
class EyeSheaf:
    """Microlocal rank r sheaf on the eye front (unique up to isomorphism),
    over F_p for a modulus `xa.check_field` accepts, as a `SheafObject`'s."""
    rank: int
    p: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank {self.rank} < 0")
        self.p = xa.check_field(self.p)


def local_data(T: TilingComplex, obj):
    """Per-stratum dimensions and generization maps for an object on T.

    Returns (dims, maps): dims maps every stratum id -> dimension; maps maps
    pairs (small stratum, big stratum), both of nonzero dimension, -> matrix
    of the generization.  A zero stalk has no maps.
    """
    if T.kind == "eye":
        r = obj.rank
        dims = {("R", "U0"): 0, ("R", "I"): r,
                ("A", "top"): r, ("A", "bot"): 0,
                ("V", "cl"): 0, ("V", "cr"): 0}
        return dims, {(("A", "top"), ("R", "I")): xa.eye(r)}

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

    setmap(("A", "a1"), ("R", "U1"), xa.eye(n))
    setmap(("A", "a2"), ("R", "U2"), xa.eye(2 * n))
    setmap(("A", "a2"), ("R", "U1"), psi)
    pm_iso = (psi @ F.phi(m + 1)) % p
    for i in range(m + 1):
        below = "U1" if i in (0, m) else f"D{i}"
        down = xa.eye(n) if i < m else pm_iso
        setmap(("A", f"bt{i}"), ("R", below), down)
        setmap(("A", f"bt{i}"), ("R", "U2"), F.phi(i + 1))
    # cusp vertices
    setmap(("V", "x2"), ("R", "U1"), xa.eye(n))
    setmap(("V", "x2"), ("R", "U2"), F.phi(1))
    setmap(("V", "x2"), ("A", "a2"), F.phi(1))
    setmap(("V", "x2"), ("A", "bt0"), xa.eye(n))
    setmap(("V", "x3"), ("R", "U1"), pm_iso)
    setmap(("V", "x3"), ("R", "U2"), F.phi(m + 1))
    setmap(("V", "x3"), ("A", "a2"), F.phi(m + 1))
    setmap(("V", "x3"), ("A", f"bt{m}"), xa.eye(n))
    _check_functor(dims, maps, p)
    return dims, maps


def _check_functor(dims, maps, p):
    """Commutativity of all composable triangles of generization maps."""
    from_source = {}
    for (s, t), m in maps.items():
        from_source.setdefault(s, []).append((t, m))
    for (s, t), m1 in maps.items():
        for t2, m2 in from_source.get(t, ()):
            if (s, t2) in maps:
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

@dataclass(frozen=True)
class OpenSpace:
    keys: list             # component keys, in order
    dims: dict             # key -> Hom dimension block length
    offsets: dict
    total: int
    basis: np.ndarray      # total x dim; None in a frame's layout of a constrained open
    free: np.ndarray       # dim row indices: the last nonzero row of each basis column

    @property
    def dim(self):
        return self.basis.shape[1]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _section_kernel(blocks, constraints, p):
    """Kernel of the commutation constraints: (basis, free rows), read-only.

    blocks: list of (fdim, gdim), the unknown blocks lambda_i (gdim x fdim) in
    order.  constraints: list of (s, t, fmap, gmap), block positions, meaning
    lambda_t . fmap = gmap . lambda_s.

    Each constraint is written straight as sparse {col: residue} rows, one per
    entry (r, c) of its dgt x dfs product: F[k, c] at lambda_t[r, k] and
    -G[r, k] at lambda_s[k, c] (blocks flattened row-major), entries on the
    same column adding up.  The rows are sorted stably by length, sparsest
    first, so the short rows become pivots before the long ones are reduced,
    and eliminated by one forward pass.  The RREF is unique, so the order
    changes no basis.  A local system has at most a few hundred rows; rank
    d^0 (`_block_rank`) takes its lines in ascending line order, as sorting
    them by length costs far more than it saves.
    """
    starts = list(itertools.accumulate((fd * gd for fd, gd in blocks), initial=0))
    rows = []
    for s, t, fmap, gmap in constraints:
        (dfs, _), (dft, dgt) = blocks[s], blocks[t]
        f, g = fmap % p, gmap % p
        f_at = [[] for _ in range(dfs)]  # column c of F: (k, F[k, c])
        ks, cs = np.nonzero(f)
        for k, c, v in zip(ks.tolist(), cs.tolist(), f[ks, cs].tolist()):
            f_at[c].append((k, v))
        g_at = [[] for _ in range(dgt)]  # row r of G: (k, -G[r, k])
        rs, ks = np.nonzero(g)
        for r, k, v in zip(rs.tolist(), ks.tolist(), g[rs, ks].tolist()):
            g_at[r].append((k, p - v))
        for r in range(dgt):
            at_t = starts[t] + r * dft
            for c in range(dfs):
                row = {at_t + k: v for k, v in f_at[c]}
                for k, v in g_at[r]:
                    j = starts[s] + k * dfs + c
                    x = (row.get(j, 0) + v) % p
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
                rows.append(row)
    rows.sort(key=len)
    ker, free = xa.kernel_rows(rows, starts[-1], p)
    return _frozen(ker), _frozen(np.array(free, dtype=np.int64))


# -- local systems: (items, pairs) of an open -----------------------------------
#
# items: (key, fdim, gdim) for each unknown block lambda_key (gdim x fdim).
# pairs: (s, kt, t) for each generization of stratum s, whose block key is s
# itself, to stratum t, held in block kt; it constrains
# lambda_kt . F(s -> t) = G(s -> t) . lambda_s.

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
            if T.face_region[(tile, hi)] != above or T.face_region[(tile, lo)] != below:
                raise AssertionError(f"arc {arcname} has other sides in tile {tile}")
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
    return tuple(items), tuple(pairs)


def _edge_system(T, dF, dG, ek):
    info = T.edge_info[ek]
    if info["arc"] is None:
        reg = ("R", info["region"])
        return ((("S", "only"), dF[reg], dG[reg]),), ()
    akey = ("A", info["arc"])
    above, below = ("R", info["above"]), ("R", info["below"])
    items = ((akey, dF[akey], dG[akey]), (("S", "above"), dF[above], dG[above]),
             (("S", "below"), dF[below], dG[below]))
    return items, ((akey, ("S", "above"), above), (akey, ("S", "below"), below))


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
    (layout, system), times `sign`: keymap pairs each block ks of small with
    the block kb of big it restricts, so a section's coordinates on small are
    the rows small.free + shift of big.basis, with shift indexed by small's
    rows.  Returns (block, None), the read-only block, when neither open is
    constrained, and else (None, shift), from which `_assemble` gathers the
    block."""
    (bl, bsys), (sl, ssys) = big, small
    if len(keymap) != len(sl.keys) or {ks for ks, _ in keymap} != sl.dims.keys():
        raise AssertionError(f"keymap {keymap} does not name the blocks {sl.keys}")
    shift = np.zeros(sl.total, dtype=np.int64)
    for ks, kb in keymap:
        ln = sl.dims[ks]
        if ln != bl.dims[kb]:
            raise AssertionError(f"block {ks} has length {ln}, block {kb} {bl.dims[kb]}")
        shift[sl.offsets[ks]:sl.offsets[ks] + ln] = bl.offsets[kb] - sl.offsets[ks]
    if bsys is not None or ssys is not None:
        return None, _frozen(shift)
    block = bl.basis[sl.free + shift]
    return _frozen(block if sign > 0 else (-block) % p), None


def _selection(block, sign, p):
    """Check that a block is `sign` times distinct rows of an identity
    matrix, so of full row rank; any other block raises."""
    cols = block.argmax(axis=1)
    want = sign % p * xa.eye(block.shape[1])[cols]
    if len(set(cols.tolist())) < len(cols) or not np.array_equal(block, want):
        raise AssertionError("a frame d1 block is not a signed selection")


def _to_edge(arc, faces):
    """The keymap of a restriction from a tile to one of its edges: faces
    are the tile's faces at the edge, its "full" one when the front does not
    cross the edge, else those at its "hi" and "lo" halves."""
    if arc is None:
        return ((("S", "only"), ("F", faces[0])),)
    hi, lo = faces
    return ((("A", arc), ("A", arc)), (("S", "above"), ("F", hi)), (("S", "below"), ("F", lo)))


class _Frame:
    """What a Cech complex takes from its tiling T and the stalk dimensions
    of F and G alone, and from p for the residues of negated blocks.
    opens holds each distinct (layout, system) (`_open_entry`), and
    tile_at/edge_at the position there of each tile's and edge's entry.
    vertex_space holds every vertex's space, d0/d1 (key, block, shift, sign)
    for each block in block order (`_restriction`), and game the leaf/Y moves
    (`_game_moves`).  Its arrays are read-only.  blocks is the snapshot
    {key: block} of its own blocks; the game trusts a d^1 block only when it
    is that array (`trusts`).  Each d^1 block there is checked to be +-
    distinct identity rows.

    Opens with the same (items, pairs) share one entry, and restrictions
    with the same opens, keymap and sign one (block, shift): each distinct
    one is built, and each distinct d^1 block checked, once per frame.
    solves remembers, per position of a constrained entry, the bytes of the
    maps of its last solve and the `OpenSpace` it gave (`CechComplex._space`).
    """

    def __init__(self, T: TilingComplex, dF, dG, p):
        eyes, opens, index = {}, [], {}

        def entry(items, pairs):
            """The position in `opens` of the entry of the system (items,
            pairs), built at its first open."""
            i = index.setdefault((items, pairs), len(opens))
            if i == len(opens):
                opens.append(_open_entry(items, pairs, dF, dG, eyes))
            return i

        self.opens = opens
        self.tile_at = tile_at = {t: entry(*_tile_system(T, dF, dG, t)) for t in T.tiles}
        self.edges = sorted(T.edge_info)
        self.edge_at = edge_at = {ek: entry(*_edge_system(T, dF, dG, ek)) for ek in self.edges}
        vertex_at = {}
        for v in T.vertices:
            reg = ("R", T.vertex_region[v])
            vertex_at[v] = entry(((("S", "only"), dF[reg], dG[reg]),), ())
        self.vertex_space = {v: opens[i][0] for v, i in vertex_at.items()}
        self.c2_dim = sum(s.dim for s in self.vertex_space.values())
        self.vert_off = _offsets(T.vertices, self.vertex_space)

        # d^0 on the edge between tiles ta < tb: the restriction from tb minus
        # the restriction from ta.  An edge with no sections has no blocks.
        # One restriction per (tile entry, edge entry, the tile's faces at
        # the edge, sign): the edge entry names the arc, so these fix the keymap.
        self.d0, made = [], {}
        for ek in self.edges:
            edge = opens[edge_at[ek]]
            if edge[1] is None and edge[0].total == 0:
                continue
            ta, tb = ek
            d = _edge_dir(ek)
            arc = T.edge_info[ek]["arc"]
            parts = ("full",) if arc is None else ("hi", "lo")
            for tile, sign, dt in ((tb, 1, OPP[d]), (ta, -1, d)):  # dt: toward the other tile
                key = (tile_at[tile], edge_at[ek],
                       tuple(T.channel_face[(tile, (dt, part))] for part in parts), sign)
                if key not in made:
                    made[key] = _restriction(opens[key[0]], edge, _to_edge(arc, key[2]), sign, p)
                self.d0.append(((ek, tile), *made[key], sign))

        # d^1: the alternating restrictions to each vertex from its three
        # edges, one per (edge entry, vertex entry, side, sign), each distinct
        # block checked once.  A vertex with no sections has no blocks.
        self.d1, made = [], {}
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
                    if info[side] != T.vertex_region[v]:
                        raise AssertionError(f"vertex {v} is not {side} edge {ek}")
                key = (edge_at[ek], vertex_at[v], side, sign)
                if key not in made:
                    made[key] = _restriction(opens[key[0]], opens[key[1]],
                                             ((("S", "only"), ("S", side)),), sign, p)
                self.d1.append(((v, ek), *made[key], sign))
        for (*_, sign), (block, _) in made.items():
            if block is not None:
                _selection(block, sign, p)
        self.blocks = {key: block for plan in (self.d0, self.d1)
                       for key, block, *_ in plan if block is not None}
        self.game = _game_moves(T, self.edges, {v: s.dim for v, s in self.vertex_space.items()})
        self.solves = {}

    def trusts(self, blocks, key):
        """True when blocks[key] is the very array of the frame's snapshot."""
        return key in self.blocks and blocks.get(key) is self.blocks[key]


def _assemble(plan, small_spaces, big_spaces, p):
    """{key: block} from a frame's d0 or d1 plan: frame blocks as they are,
    and the rest gathered from this complex's bases at the rows
    small.free + shift[small.free]."""
    blocks = {}
    for key, block, shift, sign in plan:
        if block is None:
            small = small_spaces[key[0]]
            if not small.dim:
                continue
            block = big_spaces[key[1]].basis[small.free + shift[small.free]]
            if sign < 0:
                block = (-block) % p
        blocks[key] = block
    return blocks


class CechComplex:
    """The Cech complex of Hom(F, G) on the tiling T.

    Its parts fixed by T, the stalk dimensions of F and G and p come from a
    `_Frame` in `T.frames`, which the first complex with these builds.  A
    complex builds only what the maps of F and G change: the section spaces
    of the constrained frame entries whose maps differ from their last solve
    (`_space`), the blocks that read their bases, the triplets of
    both differentials with the d^1 . d^0 = 0 check on every cell, the rank
    checks of game moves that hold no frame block, and the ranks.  Its game
    trusts a frame d^1 block only while it holds the frame's very array
    (`_Frame.trusts`).  rank d^0 reads the d^0 triplets built here; the
    fallback rank d^1 reads the d^1 blocks as they are when it runs.
    """

    def __init__(self, T: TilingComplex, F, G):
        self.T = T
        kind = EyeSheaf if T.kind == "eye" else SheafObject
        if not (isinstance(F, kind) and isinstance(G, kind)):
            raise ValueError(f"a {T.kind} tiling needs {kind.__name__} objects")
        p = F.p
        if G.p != p:
            raise ValueError("objects over different fields")
        if T.kind == "torus" and (F.m != T.m or G.m != T.m):
            raise ValueError("objects on a different front")
        self.p = p
        self.dF, self.mF = local_data(T, F)
        self.dG, self.mG = local_data(T, G)
        key = (p, tuple(self.dF.items()), tuple(self.dG.items()))
        frame = T.frames.get(key)
        if frame is None:
            frame = T.frames[key] = _Frame(T, self.dF, self.dG, p)
        self._frame = frame

        spaces = [self._space(i) for i in range(len(frame.opens))]
        self.tile_space = {t: spaces[i] for t, i in frame.tile_at.items()}
        self.edges = frame.edges
        self.edge_space = {ek: spaces[i] for ek, i in frame.edge_at.items()}
        self.vertex_space = dict(frame.vertex_space)

        self.c0_dim = sum(s.dim for s in self.tile_space.values())
        self.c1_dim = sum(s.dim for s in self.edge_space.values())
        self.c2_dim = frame.c2_dim
        self._tile_off = _offsets(T.tiles, self.tile_space)
        self._edge_off = _offsets(self.edges, self.edge_space)
        self._vert_off = frame.vert_off
        self.d0_blocks = _assemble(frame.d0, self.edge_space, self.tile_space, p)
        self.d1_blocks = _assemble(frame.d1, self.vertex_space, self.edge_space, p)
        self._d0_nz = _triplets(self.d0_blocks, self._edge_off, self._tile_off)
        d1_nz = _triplets(self.d1_blocks, self._vert_off, self._edge_off)
        if _sparse_product(d1_nz, self._d0_nz, self.c0_dim, p)[2].size:
            raise AssertionError("d1 . d0 != 0")

    def _space(self, i) -> OpenSpace:
        """The section space of the frame entry `opens[i]`, which every open
        of the entry gets.  A constrained entry is solved again only when the
        bytes of its maps differ from those of its last solve, which the
        frame remembers.  A frame is keyed by p and the stalk dimensions, so
        the shape of every map is fixed per entry."""
        layout, system = self._frame.opens[i]
        if system is None:
            return layout
        blocks, cons = system
        maps = [(s, t, self.mF[st], self.mG[st]) for s, t, st in cons]
        key = b"".join(f.tobytes() + g.tobytes() for _, _, f, g in maps)
        last = self._frame.solves.get(i)
        if last is None or last[0] != key:
            space = OpenSpace(layout.keys, layout.dims, layout.offsets, layout.total,
                              *_section_kernel(blocks, maps, self.p))
            last = self._frame.solves[i] = key, space
        return last[1]

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
        rank_d0 = _block_rank(self._d0_nz, (self.c1_dim, self.c0_dim), self.p)
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
        return _block_rank(_triplets(self.d1_blocks, self._vert_off, self._edge_off),
                           (self.c2_dim, self.c1_dim), self.p)

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


def _offsets(keys, spaces):
    out = {}
    acc = 0
    for k in keys:
        out[k] = acc
        acc += spaces[k].dim
    return out


def _triplets(blocks, row_off, col_off):
    """The nonzero entries of the block matrix {(row key, col key): block}
    as (rows, cols, values), in global coordinates, in block order and
    row-major within a block.  The blocks are concatenated flat and read by
    one `flatnonzero`; each flat position finds its block among the blocks'
    start offsets, so the numpy calls do not grow with the number of
    blocks.  The entries are residues below 2^15 (`xa.MAX_PRIME`), so the
    flat copy is int16, a quarter of the blocks' bytes."""
    if not blocks:
        return (np.zeros(0, dtype=np.int64),) * 3
    flat = np.concatenate(list(blocks.values()), axis=None, dtype=np.int16, casting="unsafe")
    starts = np.array([0, *itertools.accumulate(b.size for b in blocks.values())][:-1])
    width = np.array([b.shape[1] for b in blocks.values()])
    row0 = np.array([row_off[rk] for rk, _ in blocks])
    col0 = np.array([col_off[ck] for _, ck in blocks])
    at = np.flatnonzero(flat)
    k = np.searchsorted(starts, at, side="right") - 1  # an empty block shares its start
    i, j = np.divmod(at - starts[k], width[k])
    return row0[k] + i, col0[k] + j, flat[at].astype(np.int64)


def _sparse_product(a, b, width, p):
    """The nonzero entries (rows, cols, values) of a . b mod p, for triplet
    lists a and b, b of `width` columns, in one pass of numpy calls: each
    entry (i, k) of a meets the entries of b in row k, each product is
    reduced mod p, and the products are summed per cell (i, j), grouped by
    one sort of the keys cell * p + product."""
    ar, ak, av = a
    br, bc, bv = b
    by_row = np.argsort(br, kind="stable")
    sorted_rows = br[by_row]
    lo = np.searchsorted(sorted_rows, ak)
    n = np.searchsorted(sorted_rows, ak, side="right") - lo
    ib = by_row[np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)]
    key = (np.repeat(ar, n) * width + bc[ib]) * p + np.repeat(av, n) * bv[ib] % p
    key.sort(kind="stable")  # by cell; the cells come in sorted runs
    cell, terms = np.divmod(key, p)
    heads = np.flatnonzero(np.diff(cell, prepend=-1))
    sums = np.add.reduceat(terms, heads) % p
    rows, cols = np.divmod(cell[heads][sums != 0], width)
    return rows, cols, sums[sums != 0]


def _block_rank(nz, shape, p) -> int:
    """Rank of the matrix of the given shape with nonzero entries nz, triplets
    (rows, cols, residues), by one `xa.rank_rows` forward pass along its
    short side: on its {col: residue} rows, or on the rows of its transpose,
    one per column, when it has more rows than columns (d^0).  A stable
    argsort by line index groups the entries, and the lines go in ascending
    order, each a dict in the triplets' order."""
    rows, cols, vals = nz
    line, at = (cols, rows) if shape[0] > shape[1] else (rows, cols)
    order = np.argsort(line, kind="stable")
    line = line[order]
    cuts = [0, *(np.flatnonzero(np.diff(line)) + 1).tolist(), len(line)]
    at, vals = at[order].tolist(), vals[order].tolist()
    return xa.rank_rows((dict(zip(at[s:e], vals[s:e])) for s, e in zip(cuts, cuts[1:])), p)


def _dense(blocks, row_off, col_off, shape) -> np.ndarray:
    out = xa.zeros(*shape)
    for (rk, ck), b in blocks.items():
        r0, c0 = row_off[rk], col_off[ck]
        out[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
    return out


# ---------------------------------------------------------------------------
# The leaf / Y-removal game

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


def graph_game(cx: CechComplex):
    """Play the leaf/Y-removal game on an assembled complex; returns a trace dict.

    The moves, with their leaf checks, come from the complex's frame
    (`_game_moves`).  Each move's red is then rank-checked on this complex's
    own d^1 blocks: each edge-to-vertex map is its block of d^1, which is
    +- the restriction map, and a sign does not change a rank.  A d^1 block
    the frame trusts is +- distinct identity rows, so it alone has full row
    rank and certifies its move; only a move holding no such block is
    eliminated.  A red with a zero stalk needs no check.  If no rule applies
    the report lists what is stuck.
    """
    frame = cx._frame
    moves, end = frame.game
    steps = []
    for v, keys, (rule, blues) in moves:
        dim = cx.vertex_space[v].dim
        if dim and not any(frame.trusts(cx.d1_blocks, k) for k in keys):
            if xa.rank(np.hstack([cx.d1_blocks[k] for k in keys]), cx.p) != dim:
                return {"success": False, "stuck": [str(v)], "steps": steps,
                        "failed_rule": rule}
        steps.append({"rule": rule, "removed_blues": list(blues), "removed_red": str(v),
                      "rank_checked": True})
    if end is None:
        return {"success": True, "steps": steps, "removed": len(steps)}
    stuck, rule = end
    out = {"success": False, "stuck": list(stuck), "steps": steps}
    if rule:
        out["failed_rule"] = rule
    return out
