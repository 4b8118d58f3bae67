"""Free noncommutative graded algebras with invertible generators.

A word is a reduced sequence of (generator name, exponent) letters, where
exponent -1 is only allowed on invertible generators and adjacent inverse
pairs cancel eagerly.  FreePoly is a finite F_p-linear combination of words.
A DGA assigns each generator a degree-(-1) differential extended by the
signed Leibniz rule.

The module also builds the concrete objects of interest: the continuant-style
polynomial families P_m / Q_m, the DGA of the Legendrian (2,m) torus link
with two base points, and the k-copy DGA, whose differential is built one
row at a time, when first read (`kcopy_dga`).  mu_k reads no row, only the
staircase words of each chord's (1, k) entry (`DGA.staircase`), split by
copy in `staircase_words` and held as index arrays (`staircase_arrays`).
Word matrices are sparse, {(i, j): {word: coeff}}, under one product that
adds into its output in place.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .exactalg import check_field

Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    invertible: bool = False
    r: int = 1  # link grading: component of the upper endpoint
    c: int = 1  # link grading: component of the lower endpoint

    def __post_init__(self):
        if self.invertible and self.degree != 0:
            raise ValueError("invertible generators must have degree 0")


def _join(w1: Word, w2: Word) -> Word:
    """The reduced product of reduced words: only their junction can cancel."""
    r, top = 0, min(len(w1), len(w2))
    while r < top and w1[-1 - r][0] == w2[r][0] and w1[-1 - r][1] == -w2[r][1]:
        r += 1
    return w1[:len(w1) - r] + w2[r:]


Matrix = dict[tuple[int, int], dict[Word, int]]  # sparse k x k word matrix


def _mat_mul(a: Matrix, b: Matrix, p: int, out: Matrix | None = None,
             coeff: int = 1) -> Matrix:
    """out += coeff * a b on sparse word matrices, in place; returns out.

    Only nonzero entries are stored, and each entry is one {word: coeff}
    dict that the terms of every product are added into.  An entry that
    cancels to zero stays as an empty dict.
    """
    if out is None:
        out = {}
    b_rows: dict[int, list] = {}
    for (s, j), g in b.items():
        b_rows.setdefault(s, []).append((j, tuple(g.items())))
    for (i, s), f in a.items():
        row = b_rows.get(s)
        if not row:
            continue
        # reduced words can only cancel where w2 starts with w1's last generator
        f = [(w1, c1 * coeff, w1[-1][0] if w1 else None) for w1, c1 in f.items()]
        for j, g in row:
            acc = out.setdefault((i, j), {})
            get = acc.get
            for w1, c1, last in f:
                for w2, c2 in g:
                    w = _join(w1, w2) if w2 and w2[0][0] == last else w1 + w2
                    v = (get(w, 0) + c1 * c2) % p
                    if v:
                        acc[w] = v
                    else:
                        acc.pop(w, None)
    return out


class FreePoly:
    """Finite map from reduced words to nonzero coefficients mod p."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        self.terms: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                c %= p
                if c:
                    self.terms[w] = c

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def one(cls, p):
        return cls(p, {(): 1})

    @classmethod
    def gen(cls, p, name, exp=1, coeff=1):
        if exp not in (1, -1):
            raise ValueError("letters carry exponent +1 or -1")
        return cls(p, {((name, exp),): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FreePoly) and self.p == other.p and self.terms == other.terms

    def __add__(self, other):
        out = FreePoly(self.p)
        out.terms = dict(self.terms)
        for w, c in other.terms.items():
            v = (out.terms.get(w, 0) + c) % self.p
            if v:
                out.terms[w] = v
            else:
                out.terms.pop(w, None)
        return out

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k: int) -> "FreePoly":
        k %= self.p
        out = FreePoly(self.p)
        if k:
            out.terms = {w: (c * k) % self.p for w, c in self.terms.items()}
        return out

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        out = FreePoly(self.p)
        out.terms = _mat_mul({(0, 0): self.terms}, {(0, 0): other.terms}, self.p)[0, 0]
        return out

    def __repr__(self):
        return f"FreePoly(p={self.p}, {poly_str(self)})"


def _word_sort_key(w: Word):
    # t-words first, then the constant, then chord words by (length, letters)
    has_t = any(n.startswith("t") for n, _ in w)
    return (0 if has_t and w else (1 if not w else 2), len(w), w)


def poly_str(f: FreePoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for w in sorted(f.terms, key=_word_sort_key):
        c = f.terms[w]
        letters = " ".join(n if e == 1 else f"{n}^-1" for n, e in w)
        if not w:
            parts.append(str(c))
        elif c == 1:
            parts.append(letters)
        else:
            parts.append(f"{c} {letters}")
    return " + ".join(parts)


class _RowDiff(Mapping):
    """A differential, read-only, whose rows are built when first read.

    row_of maps each generator name, in the order of the differential, to
    the function that builds its row: the {name: FreePoly} entries that are
    built together.  Each entry passes check(name, f) when its row is built.
    """

    def __init__(self, row_of: dict[str, Callable[[], dict[str, FreePoly]]],
                 check: Callable[[str, FreePoly], None]):
        self._row_of = row_of
        self._check = check
        self._built: dict[str, FreePoly] = {}

    def __getitem__(self, name: str) -> FreePoly:
        f = self._built.get(name)
        if f is None:
            row = self._row_of[name]()
            for nm, g in row.items():
                self._check(nm, g)
            self._built.update(row)
            f = row[name]
        return f

    def __contains__(self, name) -> bool:
        return name in self._row_of

    def __iter__(self):
        return iter(self._row_of)

    def __len__(self) -> int:
        return len(self._row_of)


class DGA:
    """Semi-free DGA: ordered generators plus a degree -1 differential."""

    def __init__(self, p: int, gens: list[Generator], diff: dict[str, FreePoly],
                 copy_info=None):
        self.p = check_field(p)
        self.gens: dict[str, Generator] = {}
        for g in gens:
            if g.name in self.gens:
                raise ValueError(f"duplicate generator {g.name}")
            self.gens[g.name] = g
        self.copy_info = copy_info or {}
        # a k-copy's staircase words of its chords' (1, k) entries, and the
        # ids of their diagonal letters by (base, exponent), 0 the identity
        self.staircase: Mapping[str, FreePoly] = {}
        self.letter_ids: dict[tuple[str, int], int] = {}
        self._degree = deg = {name: g.degree for name, g in self.gens.items()}
        # a word whose letters all have degree 0 has degree 0, so only the
        # words with another letter are summed
        self._flat = frozenset((n, e) for n, d in deg.items() if not d for e in (1, -1))
        self.diff = dict(diff)
        for name, f in self.diff.items():
            self.check_homogeneous(name, f)

    def check_homogeneous(self, name: str, f: FreePoly):
        """Raise ValueError unless every word of f has degree |name| - 1."""
        tgt, flat = self._degree[name] - 1, self._flat
        for w in f.terms:
            if (tgt or not flat.issuperset(w)) and self.word_degree(w) != tgt:
                raise ValueError(f"differential of {name} is not homogeneous of degree {tgt}")

    def word_degree(self, w: Word) -> int:
        return sum(self._degree[n] * e for n, e in w)

    def poly_degree(self, f: FreePoly):
        """Common degree of a homogeneous polynomial (None for 0)."""
        degs = {self.word_degree(w) for w in f.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous polynomial")
        return degs.pop() if degs else None

    def apply_diff(self, f: FreePoly) -> FreePoly:
        """Leibniz extension of the differential; input must be homogeneous.

        Each term c w_1 .. w_n gives the terms (-1)^{|w_1..w_{i-1}|} c
        w_1..w_{i-1} d(w_i) w_{i+1}..w_n, added into one dict in place.
        """
        self.poly_degree(f)
        p, diff = self.p, self.diff
        acc: dict[Word, int] = {}
        terms_of: dict[str, dict[Word, int]] = {}  # d(name).terms, looked up once
        for w, c in f.terms.items():
            sign = 1
            for i, (name, e) in enumerate(w):
                g = self.gens[name]
                if not g.invertible:
                    if e != 1:
                        raise ValueError(f"{name} is not invertible: no {name}^{e}")
                    left, right, cs = w[:i], w[i + 1:], c * sign
                    dg = terms_of.get(name)
                    if dg is None:
                        dg = terms_of[name] = diff[name].terms
                    for u, cu in dg.items():
                        v = _join(_join(left, u), right)
                        x = (acc.get(v, 0) + cs * cu) % p
                        if x:
                            acc[v] = x
                        else:
                            acc.pop(v, None)
                if g.degree % 2:
                    sign = -sign
        out = FreePoly(p)
        out.terms = acc
        return out

    def check_d_squared(self) -> bool:
        return all(self.apply_diff(f).is_zero() for f in self.diff.values())

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "generators": [
                {"name": g.name, "degree": g.degree, "invertible": g.invertible,
                 "r": g.r, "c": g.c}
                for g in self.gens.values()
            ],
            "differentials": {
                name: {
                    "string": poly_str(f),
                    "terms": [
                        {"coeff": f.terms[w], "word": [[n, e] for n, e in w]}
                        for w in sorted(f.terms, key=_word_sort_key)
                    ],
                }
                for name, f in self.diff.items()
            },
        }


# ---------------------------------------------------------------------------
# P_m / Q_m polynomial families

def pq_polynomial(m: int, kind: str, p: int) -> FreePoly:
    """P_m or Q_m in the noncommuting letters a1..am, in one pass by the
    recurrences of `pq_matrix`: P from the left, Q from the right."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if kind not in ("P", "Q"):
        raise ValueError("kind is 'P' or 'Q'")
    sign = 1 if kind == "P" else -1
    prev, cur = FreePoly.zero(p), FreePoly.one(p)
    for j in (range(1, m + 1) if kind == "P" else range(m, 0, -1)):
        prev, cur = cur, cur * FreePoly.gen(p, f"a{j}", coeff=sign) + prev
    return cur


def pq_matrix(kind: str, mats, p: int, n: int | None = None) -> np.ndarray:
    """Same recurrences evaluated on square matrices (n sizes the empty case).

    One pass, one product per matrix: P_j = P_{j-1} A_j + P_{j-2} from the
    left, and Q over ever longer suffixes, Q(A_j..) = -Q(A_{j+1}..) A_j
    + Q(A_{j+2}..), from the right.
    """
    if kind not in ("P", "Q"):
        raise ValueError("kind is 'P' or 'Q'")
    mats = list(mats)
    if n is None:
        n = mats[0].shape[0] if mats else 1
    sign = 1 if kind == "P" else -1
    prev, cur = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    for a in (mats if kind == "P" else reversed(mats)):
        prev, cur = cur, (sign * cur @ a + prev) % p
    return cur


# ---------------------------------------------------------------------------
# The (2,m) torus link DGA

def link_grading(m: int) -> dict[str, tuple[int, int]]:
    """(r, c) for every generator of the 2-base-point (2,m) torus link DGA."""
    odd = m % 2 == 1
    out = {}
    for j in (1, 2):
        out[f"b{j}"] = (1, 2) if odd else (j, j)
    for j in range(1, m + 1):
        out[f"a{j}"] = (1, 2) if j % 2 == 1 else (2, 1)
    out["t1"] = ((2 if odd else 1), 1)
    out["t2"] = ((1 if odd else 2), 2)
    return out


def build_lambda_dga(m: int, p: int) -> DGA:
    """DGA of the Legendrian (2,m) torus link, base points after each loop."""
    if m < 1:
        raise ValueError("m must be at least 1")
    lg = link_grading(m)
    gens = [Generator(f"b{j}", 1, r=lg[f"b{j}"][0], c=lg[f"b{j}"][1]) for j in (1, 2)]
    gens += [Generator(f"a{j}", 0, r=lg[f"a{j}"][0], c=lg[f"a{j}"][1]) for j in range(1, m + 1)]
    gens += [Generator(f"t{j}", 0, invertible=True, r=lg[f"t{j}"][0], c=lg[f"t{j}"][1]) for j in (1, 2)]
    diff = {g.name: FreePoly.zero(p) for g in gens}
    diff["b1"] = FreePoly.gen(p, "t1", exp=-1) + pq_polynomial(m, "P", p)
    diff["b2"] = FreePoly.gen(p, "t2") + pq_polynomial(m, "Q", p)
    return DGA(p, gens, diff)


@lru_cache(maxsize=None)
def lambda_dga(m: int, p: int) -> DGA:
    return build_lambda_dga(m, p)


# ---------------------------------------------------------------------------
# k-copy DGA

def kcopy_dga(dga: DGA, k: int) -> DGA:
    """The k-copy DGA: chords c^{ij}, invertibles t^i, Morse generators x, y.

    The differential follows the component formulas: the chord matrix C gets
    Phi(dc) + Y_r C - (-1)^{|c|} C Y_c, the Morse matrices get
    d(X) = Delta^-1 Y_r Delta X - X Y_c and d(Y) = Y^2, where Phi sends t to
    Delta X and t^-1 to X^-1 Delta^-1 (geometric series in the nilpotent
    upper part).

    The differential is built one row at a time, when one of its entries is
    first read, and the row is checked for homogeneity then.  Row i of a
    chord c is c^{i1}..c^{ik}: Phi(dc) expanded from copy i alone, plus row i
    of Y_r C and of C Y_c.  The t^i, x^{ij} and y^{ij} entries of one
    invertible form one row.

    `copy.staircase[c^{1k}]`, built and checked when first read, holds the
    words of the (1, k) entry that run up the staircase 1 -> k (`_climb`).
    Letter images are block upper triangular, and the only cancellation,
    t^i t^{i,-1}, sits on one level, so a product word runs up the staircase
    exactly when each letter's piece does.  So it is row 1 of Phi(dc) with
    each letter image cut, once, to its staircase words (`_stair`).

    Phi of a word c w is expanded letter by letter from c at (i, i), a row
    vector, so the cost tracks the terms built; each letter's image (chord
    matrix, Delta X, X^-1 Delta^-1) is built once.
    """
    if not 1 <= k <= 10:
        raise ValueError("k must be between 1 and 10: names such as b1^12 give one digit per copy")
    p = dga.p
    chords = [g for g in dga.gens.values() if not g.invertible]
    ts = [g for g in dga.gens.values() if g.invertible]
    q = len(ts)
    t_index = {g.name: l for l, g in enumerate(ts, start=1)}

    gens: list[Generator] = []
    info: dict[str, tuple] = {}
    for g in chords:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                nm = f"{g.name}^{i}{j}"
                gens.append(Generator(nm, g.degree, r=g.r, c=g.c))
                info[nm] = ("chord", g.name, i, j)
    for g in ts:
        for i in range(1, k + 1):
            nm = f"{g.name}^{i}"
            gens.append(Generator(nm, 0, invertible=True, r=g.r, c=g.c))
            info[nm] = ("t", g.name, t_index[g.name], i)
    for fam, deg in (("x", 0), ("y", -1)):
        for l in range(1, q + 1):
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    nm = f"{fam}{l}^{i}{j}"
                    tg = ts[l - 1]
                    gens.append(Generator(nm, deg, r=tg.r, c=tg.c))
                    info[nm] = (fam, l, i, j)

    def letter_mat(stem: str, upper: bool = False, rows=range(k)) -> Matrix:
        # the letter stem^{ij} at (i, j) for i in rows, above the diagonal
        # only when upper
        return {(i, j): {((f"{stem}^{i + 1}{j + 1}", 1),): 1}
                for i in rows for j in range(k) if i < j or not upper}

    def delta(l: int, exp: int) -> Matrix:
        tn = ts[l - 1].name
        return {(i, i): {((f"{tn}^{i + 1}", exp),): 1} for i in range(k)}

    identity: Matrix = {(i, i): {(): 1} for i in range(k)}

    def x_mat(l):
        return {(i, j): {((f"x{l}^{i + 1}{j + 1}", 1),): 1} if i < j else {(): 1}
                for i in range(k) for j in range(i, k)}

    def x_inv_mat(l):
        # (1 + N)^-1 = 1 - N + N^2 - ... with N strictly upper triangular
        n_mat = letter_mat(f"x{l}", upper=True)
        out = {key: dict(f) for key, f in identity.items()}
        power = identity
        for e in range(1, k):
            power = _mat_mul(power, n_mat, p)
            _mat_mul(power, identity, p, out, coeff=(-1) ** e)
        return out

    images: dict[tuple[str, int], Matrix] = {}

    def image(letter) -> Matrix:
        if letter not in images:
            name, exp = letter
            if dga.gens[name].invertible:
                l = t_index[name]
                images[letter] = _mat_mul(delta(l, 1), x_mat(l), p) if exp == 1 \
                    else _mat_mul(x_inv_mat(l), delta(l, -1), p)
            else:
                images[letter] = letter_mat(name)
        return images[letter]

    stair_images: dict[tuple[str, int], Matrix] = {}

    def stair_image(letter) -> Matrix:
        if letter not in stair_images:
            stair_images[letter] = _stair(image(letter), info)
        return stair_images[letter]

    def phi_row(f: FreePoly, i: int, out: Matrix, lift: Callable) -> Matrix:
        # row i of Phi(f), each letter's image read through lift, added into out
        for w, c in f.terms.items():
            row = {(i, i): {(): c}}
            if not w:
                _mat_mul(row, identity, p, out)
            for n, letter in enumerate(w, start=1):
                row = _mat_mul(row, lift(letter), p, out if n == len(w) else None)
        return out

    def entry(mat: Matrix, i: int, j: int) -> FreePoly:
        out = FreePoly(p)
        out.terms = mat.get((i, j)) or {}
        return out

    def y_terms(g: Generator, i: int) -> Matrix:
        # row i of Y_r C - (-1)^{|c|} C Y_c
        out = _mat_mul(letter_mat(f"y{g.r}", upper=True, rows=(i,)), letter_mat(g.name), p)
        _mat_mul(letter_mat(g.name, rows=(i,)), letter_mat(f"y{g.c}", upper=True), p, out,
                 coeff=-((-1) ** g.degree))
        return out

    def chord_row(g: Generator, i: int) -> dict[str, FreePoly]:
        dc = phi_row(dga.diff[g.name], i, y_terms(g, i), image)
        return {f"{g.name}^{i + 1}{j + 1}": entry(dc, i, j) for j in range(k)}

    def stair_entry(g: Generator) -> dict[str, FreePoly]:
        dc = phi_row(dga.diff[g.name], 0, _stair(y_terms(g, 0), info), stair_image)
        return {f"{g.name}^1{k}": entry(dc, 0, k - 1)}

    def t_rows(g: Generator) -> dict[str, FreePoly]:
        l = t_index[g.name]
        y_l, y_r, y_c = (letter_mat(f"y{e}", upper=True) for e in (l, g.r, g.c))
        dx = _mat_mul(_mat_mul(_mat_mul(delta(l, -1), y_r, p), delta(l, 1), p), x_mat(l), p)
        _mat_mul(x_mat(l), y_c, p, dx, coeff=-1)
        ysq = _mat_mul(y_l, y_l, p)
        out = {}
        for i in range(k):
            out[f"{g.name}^{i + 1}"] = FreePoly(p)
            for j in range(i + 1, k):
                out[f"x{l}^{i + 1}{j + 1}"] = entry(dx, i, j)
                out[f"y{l}^{i + 1}{j + 1}"] = entry(ysq, i, j)
        return out

    row_of: dict[str, Callable[[], dict[str, FreePoly]]] = {}
    for g in chords:
        for i in range(k):
            build = partial(chord_row, g, i)
            row_of.update((f"{g.name}^{i + 1}{j + 1}", build) for j in range(k))
    for g in ts:
        build, l = partial(t_rows, g), t_index[g.name]
        for i in range(1, k + 1):
            row_of[f"{g.name}^{i}"] = build
            for j in range(i + 1, k + 1):
                row_of[f"x{l}^{i}{j}"] = row_of[f"y{l}^{i}{j}"] = build
    copy = DGA(p, gens, {}, copy_info=info)
    copy.diff = _RowDiff(row_of, copy.check_homogeneous)  # checked row by row
    copy.staircase = _RowDiff({f"{g.name}^1{k}": partial(stair_entry, g) for g in chords},
                              copy.check_homogeneous)
    # ids from 1: the degree-0 chords, then t and t^-1 per invertible (a1..am,
    # t1, t1^-1, t2, t2^-1); every augmentation sends a degree-1 chord to 0
    letters = [(g.name, 1) for g in chords if not g.degree]
    letters += [(g.name, e) for g in ts for e in (1, -1)]
    copy.letter_ids = {x: i for i, x in enumerate(letters, start=1)}
    return copy


@lru_cache(maxsize=None)
def lambda_copy_dga(m: int, p: int, k: int) -> DGA:
    return kcopy_dga(lambda_dga(m, p), k)


def _climb(w: Word, info: dict, level: int):
    """Walk w up the staircase from copy `level`: through diagonal letters
    (c^{ii}, t^i) on the level reached, one level up at each z^{i,i+1}.
    Returns (level reached, runs, bases), None if a letter leaves the walk:
    runs[l] holds the diagonal letters after step l as (base, exponent), and
    bases the base names of the steps ("a1", "x1", "y2", ...)."""
    run, runs, bases = [], [], []
    for name, exp in w:
        kind = info[name]
        i, j = (kind[3], kind[3]) if kind[0] == "t" else kind[2:]
        if i == j == level:
            run.append((kind[1], exp))
        elif i == level and j == level + 1:
            runs.append(tuple(run))
            bases.append(kind[1] if kind[0] == "chord" else f"{kind[0]}{kind[1]}")
            level, run = j, []
        else:
            return None
    return level, (*runs, tuple(run)), tuple(bases)


def _stair(mat: Matrix, info: dict) -> Matrix:
    # the words of each entry (i, j) that climb from copy i + 1 to j + 1
    out = {}
    for (i, j), f in mat.items():
        kept = {}
        for w, c in f.items():
            walk = _climb(w, info, i + 1)
            if walk and walk[0] == j + 1:
                kept[w] = c
        if kept:
            out[i, j] = kept
    return out


def staircase_words(copy: DGA, k: int, base: str) -> tuple:
    """The words of d(base^{1k}) that climb 1 -> k (`_climb`), as (coeff,
    runs, bases).  A chord's come from `copy.staircase`, an invertible's x
    and y words from its row of `copy.diff`."""
    name = f"{base}^1{k}"
    f = (copy.staircase if name in copy.staircase else copy.diff)[name]
    words = []
    for w, c in f.terms.items():
        walk = _climb(w, copy.copy_info, 1)
        if walk and walk[0] == k:
            words.append((c, *walk[1:]))
    return tuple(words)


class StaircaseArrays(NamedTuple):
    """`staircase_words` as index arrays, one row per word: coeffs[w], the
    letter ids (`DGA.letter_ids`) of its run on copy l + 1 in runs[l][w],
    padded with 0 (the identity), and its chain bases names[bases[w, t]]."""

    coeffs: np.ndarray
    runs: tuple[np.ndarray, ...]
    bases: np.ndarray
    names: tuple[str, ...]


@lru_cache(maxsize=None)
def staircase_arrays(copy: DGA, k: int, base: str) -> StaircaseArrays:
    """`staircase_words(copy, k, base)` as read-only index arrays, cached per
    copy; a word with a letter that has no id is left out, as its term is 0."""
    ids = copy.letter_ids
    words = [w for w in staircase_words(copy, k, base)
             if all(x in ids for run in w[1] for x in run)]
    names = tuple(dict.fromkeys(b for *_, bases in words for b in bases))
    index = {b: i for i, b in enumerate(names)}
    runs = []
    for l in range(k):
        lengths = np.array([len(w[1][l]) for w in words], dtype=np.int64)
        run = np.zeros((len(words), lengths.max(initial=0)), dtype=np.int64)
        # row-major: row w's first lengths[w] cells take its run, in order
        run[np.arange(run.shape[1]) < lengths[:, None]] = [ids[x] for w in words for x in w[1][l]]
        runs.append(run)
    bases = [[index[b] for b in bases] for *_, bases in words]
    out = StaircaseArrays(np.array([w[0] for w in words], dtype=np.int64), tuple(runs),
                          np.array(bases, dtype=np.int64).reshape(len(words), k - 1), names)
    for a in (out.coeffs, *out.runs, out.bases):
        a.flags.writeable = False
    return out
