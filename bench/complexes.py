"""Strata complexes for the `pages` workload and their reference E2 tables.

A complex is a dict with keys n, side, strata {I: {degree: dim}}, hodge
{I: {degree: {label: dim}}}, maps {(kind, I, J, degree): matrix} and
pairings {(I, degree): matrix}; index sets are frozensets and matrices are
lists of Fraction rows, one row per target basis vector.

Reference E2 tables come from the benchmark's own assembly of the gflag and
delta pages, with ranks taken by sympy, on the plain instance at block scale
1.  Scaling multiplies E2 by the scale and a change of basis leaves it
unchanged, so every other instance is checked against those tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

fs = frozenset
DEGREE_SHIFT = {"restrict": 0, "gysin": 2, "rho": 1, "rho_dual": -1}


def koszul(components, a, b, n, scale=1):
    """Contraction by b and wedge by a (twisted by (-1)^|I|) on the exterior
    algebra without its unit; <a, b> = 0 makes the delta page a complex.
    Identity pairings are written out, so a change of basis carries them."""
    assert sum(x * y for x, y in zip(a, b)) == 0
    c = components
    strata = {fs(I): {c - r: scale}
              for r in range(1, c + 1)
              for I in itertools.combinations(range(c), r)}
    maps = {}
    for I in strata:
        r = len(I)
        for x in range(c):
            if x in I and r > 1:
                maps[("rho", I, I - {x}, c - r)] = _scalar(b[x], scale)
            elif x not in I and r < c:
                maps[("rho_dual", I, I | {x}, c - r)] = \
                    _scalar((-1) ** r * a[x], scale)
    pairings = {(I, c - len(I)): _scalar(1, scale) for I in strata}
    return {"n": n, "side": "hybrid", "strata": strata, "hodge": {},
            "maps": maps, "pairings": pairings}


def cycle(r):
    """Cycle of r rational curves: each component meets its two neighbours
    in one point (two components meet in two points)."""
    if r == 2:
        doubles = {fs([0, 1]): 2}
    else:
        doubles = {fs([i, (i + 1) % r]): 1 for i in range(r)}
    strata, hodge, maps = {}, {}, {}
    for i in range(r):
        strata[fs([i])] = {0: 1, 2: 1}
        hodge[fs([i])] = {0: {0: 1}, 2: {0: 1}}
    for I, pts in doubles.items():
        strata[I] = {0: pts}
        hodge[I] = {0: {0: pts}}
        for i in sorted(I):
            maps[("restrict", fs([i]), I, 0)] = [[Fraction(1)] for _ in range(pts)]
    return {"n": 1, "side": "degeneration", "strata": strata, "hodge": hodge,
            "maps": maps, "pairings": {}}


def _scalar(x, size):
    return [[Fraction(x) if i == j else Fraction(0) for j in range(size)]
            for i in range(size)]


def with_explicit_gysin(cx):
    """Write out the Gysin maps a degeneration leaves to default (transposes
    of the complementary restrictions), so a change of basis can carry them."""
    maps = dict(cx["maps"])
    for (kind, frm, to, deg), m in cx["maps"].items():
        if kind != "restrict":
            continue
        d_frm = cx["n"] - (len(frm) - 1)
        gdeg = 2 * d_frm - deg - 2
        maps.setdefault(("gysin", to, frm, gdeg), transpose(m))
    return dict(cx, maps=maps)


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------

def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    return [[sum(row[k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for row in a]


def inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def random_invertible(rng, size, bound=3):
    while True:
        m = [[Fraction(rng.randint(-bound, bound)) for _ in range(size)]
             for _ in range(size)]
        inv = inverse(m)
        if inv is not None:
            return m, inv


def conjugated(cx, rng):
    """Change the basis of every graded piece by a random invertible matrix;
    maps and pairings follow, so the E2 tables and every verdict stay."""
    basis = {}
    for I in sorted(cx["strata"], key=lambda s: (len(s), sorted(s))):
        for k, d in sorted(cx["strata"][I].items()):
            basis[(I, k)] = random_invertible(rng, d)
    maps = {}
    for (kind, frm, to, deg), m in cx["maps"].items():
        q_t, _ = basis[(to, deg + DEGREE_SHIFT[kind])]
        _, q_s_inv = basis[(frm, deg)]
        maps[(kind, frm, to, deg)] = mat_mul(q_t, mat_mul(m, q_s_inv))
    pairings = {}
    for (I, deg), p in cx["pairings"].items():
        n_I = cx["n"] - (len(I) - 1)
        _, q1_inv = basis[(I, deg)]
        _, q2_inv = basis[(I, 2 * n_I - deg)]
        pairings[(I, deg)] = mat_mul(transpose(q1_inv), mat_mul(p, q2_inv))
    return dict(cx, maps=maps, pairings=pairings)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _order(I):
    return (len(I), sorted(I))


def to_doc(cx):
    strata = []
    for I in sorted(cx["strata"], key=_order):
        item = {"I": sorted(I),
                "dims": {str(k): v for k, v in sorted(cx["strata"][I].items())}}
        if I in cx["hodge"]:
            item["hodge"] = {str(k): {str(a): v for a, v in sorted(dist.items())}
                             for k, dist in sorted(cx["hodge"][I].items())}
        strata.append(item)
    maps = [{"kind": kind, "from": sorted(frm), "to": sorted(to), "degree": deg,
             "matrix": [[_fmt(x) for x in row] for row in m]}
            for (kind, frm, to, deg), m in sorted(
                cx["maps"].items(),
                key=lambda kv: (kv[0][0], _order(kv[0][1]), _order(kv[0][2]),
                                kv[0][3]))]
    doc = {"n": cx["n"], "side": cx["side"], "strata": strata, "maps": maps}
    if cx["pairings"]:
        doc["pairings"] = [{"I": sorted(I), "degree": deg,
                            "matrix": [[_fmt(x) for x in row] for row in p]}
                           for (I, deg), p in sorted(
                               cx["pairings"].items(),
                               key=lambda kv: (_order(kv[0][0]), kv[0][1]))]
    return doc


def from_doc(doc):
    strata, hodge = {}, {}
    for s in doc["strata"]:
        I = fs(s["I"])
        strata[I] = {int(k): v for k, v in s["dims"].items()}
        if "hodge" in s:
            hodge[I] = {int(k): {int(a): v for a, v in dist.items()}
                        for k, dist in s["hodge"].items()}
    maps = {(m["kind"], fs(m["from"]), fs(m["to"]), m["degree"]):
            [[Fraction(x) for x in row] for row in m["matrix"]]
            for m in doc.get("maps", [])}
    pairings = {(fs(p["I"]), p["degree"]):
                [[Fraction(x) for x in row] for row in p["matrix"]]
                for p in doc.get("pairings", [])}
    return {"n": doc["n"], "side": doc["side"], "strata": strata,
            "hodge": hodge, "maps": maps, "pairings": pairings}


# ---------------------------------------------------------------------------
# reference pages
# ---------------------------------------------------------------------------

def _sign_in(larger, x):
    return -1 if sorted(larger).index(x) % 2 else 1


def _delta_valid(l, m, comps):
    top = 2 * (comps - 1)
    return (1 <= m <= comps and (m - l - 1) % 2 == 0
            and 0 <= l + m - 1 <= top and -top <= l - m + 1 <= 0)


def hybrid_page(cx, kind):
    """Blocks {(p, q): [(key, dim)]} and differential pieces
    {(p, q): [(src key, tgt key, sign, matrix)]} of the gflag or delta page."""
    comps = max(max(I) for I in cx["strata"]) + 1
    blocks, pieces = {}, {}

    def dim(I, k):
        return cx["strata"].get(I, {}).get(k, 0)

    for I in sorted(cx["strata"], key=_order):
        m = len(I)
        for deg, d in sorted(cx["strata"][I].items()):
            if not d:
                continue
            if kind == "gflag":
                blocks.setdefault((-m, deg + m), []).append(((m, I), d))
                if m > 1:
                    for x in sorted(I):
                        J = I - {x}
                        if dim(J, deg + 1):
                            pieces.setdefault((-m, deg + m), []).append(
                                ((m, I), (m - 1, J), _sign_in(I, x),
                                 cx["maps"][("rho", I, J, deg)]))
                continue
            for l in range(-comps, comps + 1):
                if not _delta_valid(l, m, comps):
                    continue
                q = deg + m - 1
                blocks.setdefault((l, q), []).append(((m, I), d))
                if _delta_valid(l + 1, m - 1, comps) and m > 1:
                    for x in sorted(I):
                        J = I - {x}
                        if dim(J, deg + 1):
                            pieces.setdefault((l, q), []).append(
                                ((m, I), (m - 1, J), _sign_in(I, x),
                                 cx["maps"][("rho", I, J, deg)]))
                if _delta_valid(l + 1, m + 1, comps):
                    for x in range(comps):
                        J = I | {x}
                        if x not in I and dim(J, deg - 1):
                            sign = (1 if l % 2 == 0 else -1) * _sign_in(J, x)
                            pieces.setdefault((l, q), []).append(
                                ((m, I), (m + 1, J), sign,
                                 cx["maps"][("rho_dual", I, J, deg)]))
    return blocks, pieces


def _assemble(blocks, pieces, pos):
    src = blocks.get(pos, [])
    tgt = blocks.get((pos[0] + 1, pos[1]), [])
    if not src or not tgt:
        return None
    s_off, t_off, off = {}, {}, 0
    for key, d in src:
        s_off[key] = off
        off += d
    cols = off
    off = 0
    for key, d in tgt:
        t_off[key] = off
        off += d
    M = [[Fraction(0)] * cols for _ in range(off)]
    for s_key, t_key, sign, mat in pieces.get(pos, []):
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                M[t_off[t_key] + i][s_off[s_key] + j] += sign * x
    return M


def reference_e2(cx, kind):
    """E2 graded dimensions {(p, q): dim} of a hybrid page, ranks by sympy."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    blocks, pieces = hybrid_page(cx, kind)
    diffs = {}
    for pos in blocks:
        m = _assemble(blocks, pieces, pos)
        if m is not None:
            diffs[pos] = DomainMatrix(
                [[QQ(x.numerator, x.denominator) for x in row] for row in m],
                (len(m), len(m[0])), QQ).to_sparse()
    for (p, q), d in diffs.items():
        nxt = diffs.get((p + 1, q))
        if nxt is not None and not (nxt * d).is_zero_matrix:
            raise AssertionError(f"reference {kind} page: d o d != 0")

    def rank(pos):
        return diffs[pos].rank() if pos in diffs else 0

    e2 = {}
    for (p, q) in blocks:
        v = (sum(d for _, d in blocks[(p, q)]) - rank((p, q))
             - rank((p - 1, q)))
        if v:
            e2[(p, q)] = v
    return e2


def cycle_weight_e2(r):
    return {(0, 0): 1, (1, 0): 1, (0, 2): r}


def cycle_monodromy_e2(r):
    return {(-1, 2): 1, (0, 0): 1, (0, 2): 1, (1, 0): 1}
