"""Reference: the k-copy construction and the Leibniz rule as `freedga` ran
them before the copy differential became sparse word-matrix products added
in place, kept here unchanged as test oracles for `kcopy_dga` and
`DGA.apply_diff`.  Matrices are dense k x k lists of `FreePoly`, Phi adds
each word's image into a fresh copy of the accumulator, and the Leibniz rule
adds each term into a fresh copy of its output.  Products are the word
product `FreePoly.__mul__` ran then (`poly_mul`), so that no code of the
sparse product is shared with what is tested."""

from legtorus.freedga import DGA, FreePoly, Generator, Word, _join


def poly_mul(f: FreePoly, g: FreePoly) -> FreePoly:
    p = f.p
    acc: dict[Word, int] = {}
    for w1, c1 in f.terms.items():
        # reduced words can only cancel where w2 starts with w1's last generator
        last = w1[-1][0] if w1 else None
        for w2, c2 in g.terms.items():
            w = _join(w1, w2) if w2 and w2[0][0] == last else w1 + w2
            v = (acc.get(w, 0) + c1 * c2) % p
            if v:
                acc[w] = v
            else:
                acc.pop(w, None)
    out = FreePoly(p)
    out.terms = acc
    return out


def apply_diff(dga: DGA, f: FreePoly) -> FreePoly:
    """Leibniz extension of dga's differential; input must be homogeneous."""
    dga.poly_degree(f)
    out = FreePoly.zero(dga.p)
    for w, c in f.terms.items():
        sign = 1
        for i, (name, exp) in enumerate(w):
            g = dga.gens[name]
            if not g.invertible:
                dg = dga.diff[name]
                if not dg.is_zero():
                    left = FreePoly(dga.p, {w[:i]: (c * sign) % dga.p})
                    right = FreePoly(dga.p, {w[i + 1:]: 1})
                    out = out + poly_mul(poly_mul(left, dg), right)
            sign *= (-1) ** g.degree
    return out


def _pm_mul(a, b, p):
    k = len(a)
    return [[_sum_polys([poly_mul(a[i][s], b[s][j]) for s in range(k)], p) for j in range(k)]
            for i in range(k)]


def _sum_polys(polys, p):
    acc: dict[Word, int] = {}
    for f in polys:
        for w, c in f.terms.items():
            v = (acc.get(w, 0) + c) % p
            if v:
                acc[w] = v
            else:
                acc.pop(w, None)
    out = FreePoly(p)
    out.terms = acc
    return out


def kcopy_dga(dga: DGA, k: int) -> DGA:
    """The k-copy DGA: chords c^{ij}, invertibles t^i, Morse generators x, y.

    The differential follows the component formulas: the chord matrix C gets
    Phi(dc) + Y_r C - (-1)^{|c|} C Y_c, the Morse matrices get
    d(X) = Delta^-1 Y_r Delta X - X Y_c and d(Y) = Y^2, where Phi sends t to
    Delta X and t^-1 to X^-1 Delta^-1 (geometric series in the nilpotent
    upper part).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
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

    one = FreePoly.one(p)
    zero = FreePoly.zero(p)

    def chord_mat(name):
        return [[FreePoly.gen(p, f"{name}^{i}{j}") for j in range(1, k + 1)]
                for i in range(1, k + 1)]

    def y_mat(l):
        return [[FreePoly.gen(p, f"y{l}^{i}{j}") if i < j else zero
                 for j in range(1, k + 1)] for i in range(1, k + 1)]

    def x_mat(l):
        return [[one if i == j else (FreePoly.gen(p, f"x{l}^{i}{j}") if i < j else zero)
                 for j in range(1, k + 1)] for i in range(1, k + 1)]

    def x_inv_mat(l):
        # (1 + N)^-1 = 1 - N + N^2 - ... with N strictly upper triangular
        n_mat = [[FreePoly.gen(p, f"x{l}^{i}{j}") if i < j else zero
                  for j in range(1, k + 1)] for i in range(1, k + 1)]
        out = [[one if i == j else zero for j in range(k)] for i in range(k)]
        power = [[one if i == j else zero for j in range(k)] for i in range(k)]
        sign = 1
        for _ in range(1, k):
            power = _pm_mul(power, n_mat, p)
            sign = -sign
            out = [[out[i][j] + power[i][j].scale(sign) for j in range(k)] for i in range(k)]
        return out

    def delta_mat(l, exp):
        tn = ts[l - 1].name
        return [[FreePoly.gen(p, f"{tn}^{i + 1}", exp=exp) if i == j else zero
                 for j in range(k)] for i in range(k)]

    def phi_word(word: Word):
        out = [[one if i == j else zero for j in range(k)] for i in range(k)]
        for name, exp in word:
            g = dga.gens[name]
            if g.invertible:
                l = t_index[name]
                m_ = _pm_mul(delta_mat(l, 1), x_mat(l), p) if exp == 1 \
                    else _pm_mul(x_inv_mat(l), delta_mat(l, -1), p)
            else:
                m_ = chord_mat(name)
            out = _pm_mul(out, m_, p)
        return out

    def phi_poly(f: FreePoly):
        out = [[zero] * k for _ in range(k)]
        for w, c in f.terms.items():
            m_ = phi_word(w)
            out = [[out[i][j] + m_[i][j].scale(c) for j in range(k)] for i in range(k)]
        return out

    diff: dict[str, FreePoly] = {}
    for g in chords:
        phi_dc = phi_poly(dga.diff[g.name])
        c_mat = chord_mat(g.name)
        yr, yc = y_mat(g.r), y_mat(g.c)
        lhs = _pm_mul(yr, c_mat, p)
        rhs = _pm_mul(c_mat, yc, p)
        sgn = -((-1) ** g.degree)
        for i in range(k):
            for j in range(k):
                diff[f"{g.name}^{i + 1}{j + 1}"] = phi_dc[i][j] + lhs[i][j] + rhs[i][j].scale(sgn)
    for g in ts:
        l = t_index[g.name]
        dx = _pm_mul(_pm_mul(_pm_mul(delta_mat(l, -1), y_mat(g.r), p), delta_mat(l, 1), p),
                     x_mat(l), p)
        dx2 = _pm_mul(x_mat(l), y_mat(g.c), p)
        ysq = _pm_mul(y_mat(l), y_mat(l), p)
        for i in range(1, k + 1):
            diff[f"{g.name}^{i}"] = zero
            for j in range(i + 1, k + 1):
                diff[f"x{l}^{i}{j}"] = dx[i - 1][j - 1] - dx2[i - 1][j - 1]
                diff[f"y{l}^{i}{j}"] = ysq[i - 1][j - 1]

    return DGA(p, gens, diff, copy_info=info)
