"""Exact-rational assembly of the weight, monodromy-weight, flag and
double-flag spectral-sequence first pages, their second-page graded
dimensions, and the mirror graded-dimension checks.

All data (graded dimensions of strata cohomology and the structure maps
between them) is input; the engine assembles pages with the alternating-sign
rule, verifies the differentials square to zero, and reads off kernels modulo
images.  Degeneration at the second page is assumed, as established for every
filtration handled here; an optional report lists where vanishing of the next
differential is forced for degree reasons.

The four first pages differ only in where each stratum group sits and in
which structure maps, with which sign twist, make up d1.  Each is a `PageSpec`
(WEIGHT, MONODROMY, GFLAG, DELTA): a placement rule (I, degree, components)
-> (p, q, block key) and a tuple of `MapRule`s (map kind, toward larger or
smaller index sets, target block key, twist by p).  One driver, `assemble`,
places the blocks, adds a map exactly when its target block exists, sums the
signed maps into Fraction matrices and checks d1 o d1 = 0; the `build_*_E1`
functions are single calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .linalg import (format_fraction, integral_multiple, mat_mul,
                     parse_fraction, rank, sign, transpose)


class SpectralError(ValueError):
    pass


# degree change of each structure-map kind
DEGREE_SHIFT = {"restrict": 0, "gysin": 2, "rho": 1, "rho_dual": -1}


def _sign_in(larger, x):
    """Mayer-Vietoris sign of the component omitting / inserting x: the
    0-based position of x in the sorted larger index set."""
    return sign(sorted(larger).index(x))


@dataclass
class StrataComplexData:
    """Graded dimensions per index set plus the structure-map matrices.

    Map kinds: "restrict" (degree 0, toward larger index sets), "gysin"
    (degree +2, toward smaller), "rho" (degree +1, toward smaller),
    "rho_dual" (degree -1, toward larger).  A gysin matrix that is not
    supplied defaults to the transpose of the complementary restriction
    (recorded in `defaulted_gysin`).  Matrices are stored with one row per
    target basis vector.
    """

    n: int
    side: str
    strata: dict          # frozenset -> {degree: dim}
    hodge: dict           # frozenset -> {degree: {label: dim}} (may be empty)
    maps: dict            # (kind, frozenset, frozenset, degree) -> matrix
    pairings: dict = field(default_factory=dict)  # (frozenset, degree) -> matrix
    defaulted_gysin: list = field(default_factory=list)

    @property
    def components(self):
        return max(max(I) for I in self.strata) + 1

    def index_sets(self):
        return sorted(self.strata, key=lambda s: (len(s), sorted(s)))

    def dim(self, I, k):
        return self.strata.get(frozenset(I), {}).get(k, 0)

    def stratum_dim_complex(self, I):
        """Complex dimension of the stratum: n - (|I| - 1)."""
        return self.n - (len(I) - 1)

    def matrix(self, kind, frm, to, degree):
        """Matrix of the requested map, with shape checks; None when both
        sides vanish, an error when a needed map is missing."""
        frm, to = frozenset(frm), frozenset(to)
        src = self.dim(frm, degree)
        tgt = self.dim(to, degree + DEGREE_SHIFT[kind])
        if src == 0 or tgt == 0:
            return None
        key = (kind, frm, to, degree)
        if key in self.maps:
            m = self.maps[key]
        elif kind == "gysin":
            # transpose of the complementary-degree restriction
            d_to = self.stratum_dim_complex(to)
            rdeg = 2 * d_to - degree - 2
            rkey = ("restrict", to, frm, rdeg)
            if rkey not in self.maps:
                raise SpectralError(
                    f"missing gysin {sorted(frm)}->{sorted(to)} at degree "
                    f"{degree} and no restriction to default from")
            m = transpose(self.maps[rkey])
            self.defaulted_gysin.append((sorted(frm), sorted(to), degree))
            self.maps[key] = m
        else:
            raise SpectralError(f"missing {kind} map {sorted(frm)} -> "
                                f"{sorted(to)} at degree {degree}")
        if len(m) != tgt or (m and len(m[0]) != src):
            raise SpectralError(
                f"{kind} {sorted(frm)}->{sorted(to)} at degree {degree}: "
                f"matrix is {len(m)}x{len(m[0]) if m else 0}, expected "
                f"{tgt}x{src}")
        return m

    def labels(self):
        out = set()
        for I, by_deg in self.hodge.items():
            for k, dist in by_deg.items():
                out.update(dist)
        return sorted(out)

    def fully_labelled(self):
        if not self.hodge:
            return False
        for I, dims in self.strata.items():
            for k, d in dims.items():
                if d == 0:
                    continue
                dist = self.hodge.get(I, {}).get(k)
                if dist is None or sum(dist.values()) != d:
                    return False
        return True


# ---------------------------------------------------------------------------
# Bigraded pages
# ---------------------------------------------------------------------------

@dataclass
class BigradedPage:
    """First page of a spectral sequence with differentials along rows.

    terms[(p, q)] is an ordered list of (block key, dim); diff[(p, q)] maps
    E1^{p,q} -> E1^{p+1,q}.  The second page is computed as kernel modulo
    image, on the first call to e2, and kept; degeneration there is assumed,
    so e2 carries the final graded dimensions.
    """

    name: str
    terms: dict
    diff: dict
    grading_note: str = ""
    _e2: dict = field(default=None, init=False, repr=False, compare=False)

    def term_dim(self, p, q):
        return sum(d for _, d in self.terms.get((p, q), []))

    def positions(self):
        return sorted(self.terms)

    def check_d1_squared(self):
        """Raise with the smallest witnessing position when d1 o d1 != 0.

        Each differential is scaled to an int matrix first: a nonzero scalar
        does not change whether a composite vanishes."""
        ints = {pq: integral_multiple(m) for pq, m in self.diff.items()}
        for (p, q) in self.positions():
            a = ints.get((p, q))
            b = ints.get((p + 1, q))
            if a is None or b is None or not a or not b or not a[0]:
                continue
            comp = mat_mul(b, a)
            if any(x != 0 for row in comp for x in row):
                raise SpectralError(
                    f"{self.name}: d1 o d1 != 0 at (p, q) = ({p}, {q})")

    def e2(self):
        if self._e2 is None:
            self._e2 = self._compute_e2()
        return dict(self._e2)

    def _compute_e2(self):
        ranks = {pq: rank(m) for pq, m in self.diff.items()}
        out = {}
        for (p, q) in self.positions():
            dim = self.term_dim(p, q)
            if dim == 0:
                continue
            val = dim - ranks.get((p, q), 0) - ranks.get((p - 1, q), 0)
            if val < 0:
                raise SpectralError(f"{self.name}: negative E2 dimension at "
                                    f"({p}, {q})")
            if val:
                out[(p, q)] = val
        return out

    def row_euler_consistency(self):
        """Per row, the alternating sums of E1 and E2 dimensions agree."""
        e2 = self.e2()
        rows = {}
        for (p, q) in self.positions():
            rows.setdefault(q, []).append(p)
        report = {}
        for q, ps in rows.items():
            s1 = sum(sign(p) * self.term_dim(p, q) for p in ps)
            s2 = sum(sign(p) * v for (p, qq), v in e2.items() if qq == q)
            report[q] = (s1, s2, s1 == s2)
        return report

    def check_abutment(self, dims_by_total_degree):
        """Total E2 dimension in each diagonal equals the declared abutment."""
        e2 = self.e2()
        totals = {}
        for (p, q), v in e2.items():
            totals[p + q] = totals.get(p + q, 0) + v
        mismatches = {}
        for k, d in dims_by_total_degree.items():
            if totals.get(k, 0) != d:
                mismatches[k] = (totals.get(k, 0), d)
        for k, t in totals.items():
            if k not in dims_by_total_degree and t != 0:
                mismatches[k] = (t, 0)
        return mismatches

    def d2_vanishing_report(self):
        """Positions where a second differential could live: it is confirmed
        zero for degree reasons whenever source or target vanishes."""
        e2 = self.e2()
        report = []
        for (p, q), v in sorted(e2.items()):
            tgt = e2.get((p + 2, q - 1), 0)
            report.append({"from": [p, q], "to": [p + 2, q - 1],
                           "confirmed_zero": tgt == 0 or v == 0})
        return report

    def table(self):
        e2 = self.e2()
        lines = [f"{self.name} E2 graded dimensions"
                 + (f" ({self.grading_note})" if self.grading_note else "")]
        for (p, q) in sorted(e2):
            lines.append(f"  E2[{p},{q}] = {e2[(p, q)]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Page specs and the driver
# ---------------------------------------------------------------------------

class MapRule(NamedTuple):
    """One structure-map kind in d1.  `larger`: the map inserts an index x
    (I -> I + {x}), else it omits one (I -> I - {x}).  `target(key, J)` is the
    target block key, which also fixes the target degree; `twist(p)` is the
    int sign multiplying the Mayer-Vietoris sign of x."""

    kind: str
    larger: bool
    target: Callable
    twist: Callable


@dataclass(frozen=True)
class PageSpec:
    """A first page: which side's data it reads, where the degree-deg group
    of stratum I sits (`place(I, deg, components)` yields (p, q, block key)),
    and the map rules whose signed sum is d1."""

    name: str
    side: str
    grading_note: str
    place: Callable
    maps: tuple


def _untwisted(p):
    return 1


def _weight_place(I, deg, components):
    return [(len(I) - 1, deg, I)]


def _monodromy_place(I, deg, components):
    m = len(I)
    for p in range(-m - 1, m + 2):
        two_k = m + p - 1   # m = 2k - p + 1
        if two_k % 2 or two_k < 0 or two_k // 2 < max(0, p):
            continue
        k = two_k // 2
        yield p, deg - 2 * p + 2 * k, (k, I)


def _gflag_place(I, deg, components):
    return [(-len(I), deg + len(I), ("G", I))]


def _delta_block_valid(l, m, components):
    N = components - 1
    if m < 1 or m > components or (m - l - 1) % 2:
        return False
    j2 = l + m - 1   # = 2j
    i2 = l - m + 1   # = 2i
    return 0 <= j2 <= 2 * N and -2 * N <= i2 <= 0


def _delta_place(I, deg, components):
    m = len(I)
    return [(l, deg + m - 1, (m, I)) for l in range(-components, components + 1)
            if _delta_block_valid(l, m, components)]


WEIGHT = PageSpec(
    "weight", "degeneration", "E2[p,q] = Gr^W_q H^(p+q)", _weight_place,
    (MapRule("restrict", True, lambda key, J: J, _untwisted),))

MONODROMY = PageSpec(
    "monodromy", "degeneration", "E2[p,q] = Gr^Wlim_q H^(p+q)",
    _monodromy_place,
    (MapRule("gysin", False, lambda key, J: (key[0], J), _untwisted),
     MapRule("restrict", True, lambda key, J: (key[0] + 1, J), sign)))

GFLAG = PageSpec(
    "gflag", "hybrid", "E2[-l,a] = depth-l graded piece of H^(a-l)",
    _gflag_place,
    (MapRule("rho", False, lambda key, J: ("G", J), _untwisted),))

DELTA = PageSpec(
    "delta", "hybrid", "E2[l,w] = Gr^P_w H^(w+l)", _delta_place,
    (MapRule("rho", False, lambda key, J: (key[0] - 1, J), _untwisted),
     MapRule("rho_dual", True, lambda key, J: (key[0] + 1, J), sign)))


def assemble(spec, data):
    """Build the first page described by `spec` and check d1 o d1 = 0.

    Every nonzero graded piece of every stratum is placed by the spec's rule;
    a map joins d1 exactly when its target block exists on the page."""
    if data.side != spec.side:
        raise SpectralError(f"{spec.name} page expects {spec.side}-side data")
    comps = data.components
    terms, offsets, placed = {}, {}, []
    for I in data.index_sets():
        for deg, d in data.strata[I].items():
            if d <= 0:
                continue
            for p, q, key in spec.place(I, deg, comps):
                blocks = terms.setdefault((p, q), [])
                offsets[(p, q, key)] = sum(dim for _, dim in blocks)
                blocks.append((key, d))
                placed.append((p, q, key, I, deg))
    pieces = {}
    for p, q, key, I, deg in placed:
        for kind, larger, target, twist in spec.maps:
            if larger:
                moves = [(x, I | {x}) for x in range(comps) if x not in I]
            else:
                moves = [(x, I - {x}) for x in sorted(I)]
            for x, J in moves:
                tgt = target(key, J)
                if (p + 1, q, tgt) not in offsets:
                    continue
                s = twist(p) * _sign_in(J if larger else I, x)
                if not isinstance(s, int):
                    raise TypeError(f"{spec.name}: sign {s!r} at ({p}, {q}) "
                                    "is not an int")
                pieces.setdefault((p, q), []).append(
                    (key, tgt, s, data.matrix(kind, I, J, deg)))
    diff = {}
    for (p, q), entries in pieces.items():
        M = [[Fraction(0)] * sum(d for _, d in terms[(p, q)])
             for _ in range(sum(d for _, d in terms[(p + 1, q)]))]
        for src_key, tgt_key, s, mat in entries:
            so = offsets[(p, q, src_key)]
            to = offsets[(p + 1, q, tgt_key)]
            for i, row in enumerate(mat):
                for j, x in enumerate(row):
                    M[to + i][so + j] += s * Fraction(x)
        diff[(p, q)] = M
    page = BigradedPage(spec.name, terms, diff, spec.grading_note)
    page.check_d1_squared()
    return page


def build_weight_E1(data):
    """Weight page of a simple normal crossing variety: row q holds the
    degree-q cohomology of the strata, columns by depth, differential the
    signed sum of restrictions.  E2[p, q] is the weight-q piece of
    H^{p+q} of the union."""
    return assemble(WEIGHT, data)


def build_monodromy_E1(data):
    """Monodromy-weight page of a one-parameter degeneration with normal
    crossing special fiber.  The (p, q) term collects the strata groups
    H^{q+2p-2k} over depth 2k-p+1 for k >= max(0, p); the differential is
    the signed Gysin sum plus (-1)^p times the signed restriction sum.
    E2[p, q] is the limit-weight-q piece of H^{p+q} of a nearby fiber."""
    return assemble(MONODROMY, data)


def build_G_flag_E1(data):
    """Flag page of the glued fibration over affine space: row a holds the
    relative groups H^{a-l} over depth l, the differential the signed sum of
    the connecting maps toward smaller depth."""
    return assemble(GFLAG, data)


def build_delta_E1(data):
    """Double-flag page of the glued fibration over projective space.

    The (l, n+a) term collects H^{n+a-m+1} over depths m = |l|+1, |l|+3, ...;
    the differential is the connecting sum toward smaller depth plus (-1)^l
    times the dual connecting sum toward larger depth.  E2[l, n+a] is the
    (n+a)-th perverse graded piece of H^{n+a+l}."""
    return assemble(DELTA, data)


# ---------------------------------------------------------------------------
# Hodge-label slicing
# ---------------------------------------------------------------------------

def slice_by_label(data):
    """Split the data into label-isotypic sub-data, or None when no full
    labelling is available or some matrix mixes labels.

    Basis convention: inside each graded piece the basis is ordered by
    ascending label, with sizes from the label distribution.
    """
    if not data.fully_labelled():
        return None
    labels = data.labels()

    def ranges(I, k):
        dist = data.hodge.get(frozenset(I), {}).get(k, {})
        out = {}
        off = 0
        for a in labels:
            d = dist.get(a, 0)
            out[a] = (off, off + d)
            off += d
        return out

    sliced = {}
    for a in labels:
        strata = {}
        hodge = {}
        for I, dims in data.strata.items():
            sub = {}
            for k, d in dims.items():
                da = data.hodge.get(I, {}).get(k, {}).get(a, 0)
                if da:
                    sub[k] = da
            if sub:
                strata[I] = sub
        maps = {}
        for (kind, frm, to, degree), mat in data.maps.items():
            rsrc = ranges(frm, degree)
            rtgt = ranges(to, degree + DEGREE_SHIFT[kind])
            # off-diagonal blocks must vanish for the slicing to make sense
            for aa in labels:
                for bb in labels:
                    if aa == bb:
                        continue
                    for i in range(*rtgt[aa]):
                        for j in range(*rsrc[bb]):
                            if mat[i][j] != 0:
                                return None
            lo_t, hi_t = rtgt[a]
            lo_s, hi_s = rsrc[a]
            maps[(kind, frm, to, degree)] = [row[lo_s:hi_s]
                                             for row in mat[lo_t:hi_t]]
        sliced[a] = StrataComplexData(data.n, data.side, strata, {}, maps,
                                      dict(data.pairings))
    return sliced


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_poincare_duality(data):
    """Dimension symmetry about the stratum middle degree, and compatibility
    of the dual connecting maps with the pairings (transposes conjugated by
    the pairing matrices, up to one global sign per depth)."""
    if data.side != "hybrid":
        raise SpectralError("duality check expects hybrid-side data")
    report = {"dimension_symmetry": [], "dual_maps": [], "ok": True}
    for I in data.index_sets():
        n_I = data.stratum_dim_complex(I)
        dims = data.strata[I]
        degrees = set(dims) | {2 * n_I - k for k in dims}
        for k in sorted(degrees):
            a, bdim = dims.get(k, 0), dims.get(2 * n_I - k, 0)
            ok = a == bdim
            if not ok:
                report["ok"] = False
                report["dimension_symmetry"].append(
                    {"I": sorted(I), "degree": k, "dim": a,
                     "dual_degree": 2 * n_I - k, "dual_dim": bdim, "ok": False})
    signs = {}
    for (kind, J, I, deg), m_rho in sorted(
            data.maps.items(), key=lambda kv: (sorted(kv[0][1]), kv[0][3])):
        if kind != "rho":
            continue
        n_I = data.stratum_dim_complex(I)
        c = 2 * n_I - deg - 1
        dual_key = ("rho_dual", I, J, c)
        if dual_key not in data.maps:
            continue
        m_dual = data.maps[dual_key]
        P_I = _pairing(data, I, c)
        P_J = _pairing(data, J, c - 1)
        lhs = mat_mul(P_I, m_rho)
        rhs = mat_mul(transpose(m_dual), P_J)
        verdict = _match_up_to_sign(lhs, rhs)
        level = len(I)
        entry = {"rho": [sorted(J), sorted(I), deg],
                 "rho_dual": [sorted(I), sorted(J), c]}
        if verdict is None:
            entry["ok"] = False
            report["ok"] = False
        else:
            prev = signs.get(level)
            if prev is not None and verdict != 0 and prev != 0 and prev != verdict:
                entry["ok"] = False
                entry["note"] = "sign differs within the depth level"
                report["ok"] = False
            else:
                if verdict != 0:
                    signs[level] = verdict
                entry["ok"] = True
                entry["sign"] = verdict if verdict else signs.get(level, 1)
        report["dual_maps"].append(entry)
    report["matched_signs"] = {str(k): v for k, v in signs.items()}
    return report


def _pairing(data, I, degree):
    key = (frozenset(I), degree)
    if key in data.pairings:
        return data.pairings[key]
    n_I = data.stratum_dim_complex(I)
    d1 = data.dim(I, degree)
    d2 = data.dim(I, 2 * n_I - degree)
    if d1 != d2:
        raise SpectralError(f"no pairing and asymmetric dimensions on "
                            f"{sorted(I)} at degree {degree}")
    return [[Fraction(1) if i == j else Fraction(0) for j in range(d1)]
            for i in range(d1)]


def _match_up_to_sign(lhs, rhs):
    """0 when both vanish, +1/-1 for a consistent sign, None on mismatch."""
    diff_plus = all(a == b for ra, rb in zip(lhs, rhs)
                    for a, b in zip(ra, rb))
    diff_minus = all(a == -b for ra, rb in zip(lhs, rhs)
                     for a, b in zip(ra, rb))
    if diff_plus and diff_minus:
        return 0
    if diff_plus:
        return 1
    if diff_minus:
        return -1
    return None


def check_mirror_pw(deg_data, hyb_data, mode):
    """Graded-dimension comparison between the degeneration-side page and the
    fibration-side page.

    smoothing mode: label-a piece of column l of the monodromy page against
    the double-flag second page at (l, n+a).
    central_fiber mode: label-a piece of column l of the weight page against
    the flag second page at (-(l+1), n-a+1), the dual route to the compactly
    supported grading.
    Without a full Hodge labelling the comparison runs per column only and
    says so.
    """
    if mode not in ("smoothing", "central_fiber"):
        raise SpectralError(f"unknown mode {mode!r}")
    n = hyb_data.n
    sliced = slice_by_label(deg_data)
    labelled = sliced is not None
    if mode == "smoothing":
        hyb_page = build_delta_E1(hyb_data)
        hyb_e2 = hyb_page.e2()

        def rhs(a, l):
            return hyb_e2.get((l, n + a), 0)
    else:
        hyb_page = build_G_flag_E1(hyb_data)
        hyb_e2 = hyb_page.e2()

        def rhs(a, l):
            return hyb_e2.get((-(l + 1), n - a + 1), 0)

    build = build_monodromy_E1 if mode == "smoothing" else build_weight_E1

    comps = hyb_data.components
    cells = []
    if labelled:
        for a, sub in sorted(sliced.items()):
            e2 = build(sub).e2()
            cols = {}
            for (p, q), v in e2.items():
                cols[p] = cols.get(p, 0) + v
            ls = set(cols) | {l for l in range(-comps, comps + 1) if rhs(a, l)}
            for l in sorted(ls):
                lhs = cols.get(l, 0)
                r = rhs(a, l)
                cells.append({"a": a, "l": l, "degeneration": lhs,
                              "fibration": r, "ok": lhs == r})
    else:
        e2 = build(deg_data).e2()
        cols = {}
        for (p, q), v in e2.items():
            cols[p] = cols.get(p, 0) + v
        rcols = {}
        for (l, w), v in hyb_e2.items():
            if mode == "smoothing":
                rcols[l] = rcols.get(l, 0) + v
            else:
                rcols[-l - 1] = rcols.get(-l - 1, 0) + v
        for l in sorted(set(cols) | set(rcols)):
            cells.append({"a": None, "l": l, "degeneration": cols.get(l, 0),
                          "fibration": rcols.get(l, 0),
                          "ok": cols.get(l, 0) == rcols.get(l, 0)})
    return {"mode": mode, "labelled": labelled, "cells": cells,
            "ok": all(c["ok"] for c in cells)}


# ---------------------------------------------------------------------------
# Cubical comparison
# ---------------------------------------------------------------------------

@dataclass
class CubicalData:
    """Dimensions and structure maps of a cubical diagram at a fixed label."""

    label: int
    entries: dict   # frozenset -> dim
    maps: dict      # (frozenset from, frozenset to) -> matrix

    def index_sets(self):
        return sorted(self.entries, key=lambda s: (len(s), sorted(s)))

    def validate_composition(self):
        """Supplied composites along two-step inclusions agree."""
        for I in self.index_sets():
            for K in self.index_sets():
                if not (I < K and len(K) == len(I) + 2):
                    continue
                composites = []
                for x in sorted(K - I):
                    J = frozenset(I | {x})
                    if (K, J) in self.maps and (J, I) in self.maps:
                        composites.append(mat_mul(self.maps[(J, I)],
                                                  self.maps[(K, J)]))
                for other in composites[1:]:
                    if other != composites[0]:
                        return False
        return True


def check_cubical_mirror(b_side, a_side):
    """Dimension equality per index set and rank equality per structure map."""
    if b_side.label != a_side.label:
        raise SpectralError("cubical comparison needs matching labels")
    if set(b_side.entries) != set(a_side.entries):
        raise SpectralError("cubical comparison needs matching index families")
    dims = []
    ok = True
    for I in b_side.index_sets():
        match = b_side.entries[I] == a_side.entries[I]
        ok &= match
        dims.append({"I": sorted(I), "b": b_side.entries[I],
                     "a": a_side.entries[I], "ok": match})
    ranks = []
    for key in sorted(set(b_side.maps) & set(a_side.maps),
                      key=lambda k: (sorted(k[0]), sorted(k[1]))):
        rb = rank(b_side.maps[key]) if b_side.maps[key] else 0
        ra = rank(a_side.maps[key]) if a_side.maps[key] else 0
        match = rb == ra
        ok &= match
        ranks.append({"from": sorted(key[0]), "to": sorted(key[1]),
                      "b_rank": rb, "a_rank": ra, "ok": match})
    ok &= b_side.validate_composition() and a_side.validate_composition()
    return {"dimensions": dims, "map_ranks": ranks, "ok": ok}


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def complex_from_doc(doc):
    strata = {}
    hodge = {}
    for s in doc["strata"]:
        I = frozenset(s["I"])
        strata[I] = {int(k): int(v) for k, v in s["dims"].items()}
        if "hodge" in s:
            hodge[I] = {int(k): {int(a): int(v) for a, v in dist.items()}
                        for k, dist in s["hodge"].items()}
    maps = {}
    for m in doc.get("maps", []):
        key = (m["kind"], frozenset(m["from"]), frozenset(m["to"]),
               int(m["degree"]))
        maps[key] = [[parse_fraction(x) for x in row] for row in m["matrix"]]
    pairings = {}
    for p in doc.get("pairings", []):
        pairings[(frozenset(p["I"]), int(p["degree"]))] = \
            [[parse_fraction(x) for x in row] for row in p["matrix"]]
    return StrataComplexData(int(doc["n"]), doc["side"], strata, hodge, maps,
                             pairings)


def cubical_from_doc(doc):
    entries = {frozenset(e["I"]): int(e["dim"]) for e in doc["entries"]}
    maps = {}
    for m in doc.get("maps", []):
        maps[(frozenset(m["from"]), frozenset(m["to"]))] = \
            [[parse_fraction(x) for x in row] for row in m["matrix"]]
    return CubicalData(int(doc.get("label", 0)), entries, maps)


def page_report_doc(page, abutment=None):
    e2 = page.e2()
    doc = {
        "name": page.name,
        "grading": page.grading_note,
        "e1": [{"p": p, "q": q, "dim": page.term_dim(p, q)}
               for (p, q) in page.positions() if page.term_dim(p, q)],
        "e2": [{"p": p, "q": q, "dim": v} for (p, q), v in sorted(e2.items())],
        "row_euler": [{"q": q, "e1_sum": s1, "e2_sum": s2, "ok": okq}
                      for q, (s1, s2, okq) in
                      sorted(page.row_euler_consistency().items())],
        "d2_report": page.d2_vanishing_report(),
    }
    if abutment is not None:
        doc["abutment_mismatches"] = {
            str(k): {"page": got, "declared": want}
            for k, (got, want) in page.check_abutment(abutment).items()}
    return doc
