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
places the blocks, adds a map exactly when its target block exists, writes
the signed maps into one int matrix per differential and checks d1 o d1 = 0;
the `build_*_E1` functions are single calls into it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .lattice import InputError, read_count, read_field, read_index_set, read_keys
from .linalg import identity, mat_mul, rank, sign, transpose


class SpectralError(ValueError):
    pass


# degree change of each structure-map kind
DEGREE_SHIFT = {"restrict": 0, "gysin": 2, "rho": 1, "rho_dual": -1}


def _sign_in(larger, x):
    """Mayer-Vietoris sign of the component omitting / inserting x: the
    0-based position of x in the sorted larger index set."""
    return sign(sorted(larger).index(x))


class StrataComplexData:
    """Graded dimensions per index set plus the structure-map matrices.

    Map kinds: "restrict" (degree 0, toward larger index sets), "gysin"
    (degree +2, toward smaller), "rho" (degree +1, toward smaller),
    "rho_dual" (degree -1, toward larger).  A gysin matrix that is not
    supplied defaults to the transpose of the complementary restriction
    (recorded in `defaulted_gysin`).  Matrices are stored with one row per
    target basis vector.
    """

    __slots__ = ("n", "side", "strata", "hodge", "maps", "pairings",
                 "defaulted_gysin")

    def __init__(self, n, side, strata, hodge, maps, pairings=None,
                 defaulted_gysin=None):
        self.n = n
        self.side = side
        self.strata = strata    # frozenset -> {degree: dim}
        self.hodge = hodge      # frozenset -> {degree: {label: dim}} (may be empty)
        self.maps = maps        # (kind, frozenset, frozenset, degree) -> matrix
        # (frozenset, degree) -> matrix
        self.pairings = {} if pairings is None else pairings
        self.defaulted_gysin = [] if defaulted_gysin is None else defaulted_gysin

    def __repr__(self):
        return (f"StrataComplexData(n={self.n!r}, side={self.side!r}, "
                f"strata={self.strata!r}, hodge={self.hodge!r}, "
                f"maps={self.maps!r}, pairings={self.pairings!r}, "
                f"defaulted_gysin={self.defaulted_gysin!r})")

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
        """Matrix of the requested map; None when either side vanishes, an
        error when a needed map is missing.  A supplied map has the shape
        the loader checked; a defaulted gysin's shape is checked here."""
        frm, to = frozenset(frm), frozenset(to)
        src = self.dim(frm, degree)
        tgt = self.dim(to, degree + DEGREE_SHIFT[kind])
        if src == 0 or tgt == 0:
            return None
        key = (kind, frm, to, degree)
        if key in self.maps:
            return self.maps[key]
        if kind != "gysin":
            raise SpectralError(f"missing {kind} map {sorted(frm)} -> "
                                f"{sorted(to)} at degree {degree}")
        # transpose of the complementary-degree restriction
        rkey = ("restrict", to, frm, 2 * self.stratum_dim_complex(to) - degree - 2)
        if rkey not in self.maps:
            raise SpectralError(
                f"missing gysin {sorted(frm)}->{sorted(to)} at degree "
                f"{degree} and no restriction to default from")
        m = transpose(self.maps[rkey])
        if len(m) != tgt or (m and len(m[0]) != src):
            raise SpectralError(
                f"{kind} {sorted(frm)}->{sorted(to)} at degree {degree}: "
                f"matrix is {len(m)}x{len(m[0]) if m else 0}, expected "
                f"{tgt}x{src}")
        self.defaulted_gysin.append((sorted(frm), sorted(to), degree))
        self.maps[key] = m
        return m

    def labels(self):
        out = set()
        for I, by_deg in self.hodge.items():
            for k, dist in by_deg.items():
                out.update(dist)
        return sorted(out)

    def fully_labelled(self):
        """Every nonzero graded piece has a Hodge distribution.  The loader
        has checked that each distribution counts the dimension of its
        degree, 0 where dims lacks it."""
        return bool(self.hodge) and all(
            k in self.hodge.get(I, {})
            for I, dims in self.strata.items() for k, d in dims.items() if d)


# ---------------------------------------------------------------------------
# Bigraded pages
# ---------------------------------------------------------------------------

class BigradedPage:
    """First page of a spectral sequence with differentials along rows.

    terms[(p, q)] is an ordered list of (block key, dim); diff[(p, q)] maps
    E1^{p,q} -> E1^{p+1,q}, an int matrix: the differential times one
    nonzero scalar, which changes neither whether a composite vanishes nor a
    rank.  The second page is computed as kernel modulo image, on the first
    call to e2, and kept; degeneration there is assumed, so e2 carries the
    final graded dimensions.
    """

    __slots__ = ("name", "terms", "diff", "grading_note", "_e2")

    def __init__(self, name, terms, diff, grading_note=""):
        self.name = name
        self.terms = terms
        self.diff = diff
        self.grading_note = grading_note
        self._e2 = None

    def __repr__(self):
        return (f"BigradedPage(name={self.name!r}, terms={self.terms!r}, "
                f"diff={self.diff!r}, grading_note={self.grading_note!r})")

    def term_dim(self, p, q):
        return sum(d for _, d in self.terms.get((p, q), []))

    def positions(self):
        return sorted(self.terms)

    def check_d1_squared(self):
        """Raise with the smallest witnessing position when d1 o d1 != 0."""
        for (p, q) in self.positions():
            a = self.diff.get((p, q))
            b = self.diff.get((p + 1, q))
            if not a or not b or not a[0]:
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


# ---------------------------------------------------------------------------
# Page specs and the driver
# ---------------------------------------------------------------------------

class MapRule(namedtuple("MapRule", "kind larger target twist")):
    """One structure-map kind in d1.  `larger`: the map inserts an index x
    (I -> I + {x}), else it omits one (I -> I - {x}).  `target(key, J)` is the
    target block key, which also fixes the target degree; `twist(p)` is the
    int sign multiplying the Mayer-Vietoris sign of x."""

    __slots__ = ()


class PageSpec(namedtuple("PageSpec", "name side grading_note place maps")):
    """A first page: which side's data it reads, where the degree-deg group
    of stratum I sits (`place(I, deg, components)` yields (p, q, block key)),
    and the map rules whose signed sum is d1."""

    __slots__ = ()


def _untwisted(p):
    return 1


def _weight_place(I, deg, components):
    return [(len(I) - 1, deg, I)]


def _monodromy_place(I, deg, components):
    m = len(I)
    return [(2 * k - m + 1, deg + 2 * (m - 1 - k), (k, I)) for k in range(m)]


def _gflag_place(I, deg, components):
    return [(-len(I), deg + len(I), ("G", I))]


def _delta_place(I, deg, components):
    m = len(I)
    return [(2 * k - m + 1, deg + m - 1, (m, I)) for k in range(m)]


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
    a map joins d1 exactly when its target block exists on the page.  Each
    differential is written as one int matrix, its blocks scaled by the lcm
    of their denominators (an int entry has denominator 1)."""
    comps = data.components
    terms, width, offsets, placed = {}, {}, {}, []
    for I in data.index_sets():
        for deg, d in data.strata[I].items():
            if d <= 0:
                continue
            for p, q, key in spec.place(I, deg, comps):
                offsets[(p, q, key)] = width.get((p, q), 0)
                width[(p, q)] = offsets[(p, q, key)] + d
                terms.setdefault((p, q), []).append((key, d))
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
        den = lcm(*{x.denominator for *_, mat in entries for row in mat for x in row})
        M = [[0] * width[(p, q)] for _ in range(width[(p + 1, q)])]
        for src_key, tgt_key, s, mat in entries:
            so = offsets[(p, q, src_key)]
            to = offsets[(p + 1, q, tgt_key)]
            f = s * den
            for i, row in enumerate(mat):
                target = M[to + i]
                for j, x in enumerate(row):
                    if x:
                        target[so + j] += f // x.denominator * x.numerator
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
    ascending label, with sizes from the label distribution, which the
    loader has checked against dims.  A label keeps a slice only where it
    has a stratum.
    """
    if not data.fully_labelled():
        return None

    def basis(I, k):
        """The label of each basis vector of the degree-k piece of I."""
        return [a for a, d in sorted(data.hodge.get(I, {}).get(k, {}).items())
                for _ in range(d)]

    bases = {(kind, frm, to, degree): (basis(to, degree + DEGREE_SHIFT[kind]),
                                       basis(frm, degree))
             for kind, frm, to, degree in data.maps}
    for key, (rows, cols) in bases.items():
        if any(x and a != b for row, a in zip(data.maps[key], rows)
               for x, b in zip(row, cols)):
            return None
    sliced = {}
    for a in data.labels():
        strata = {}
        for I, dims in data.strata.items():
            dists = data.hodge.get(I, {})
            sub = {k: dists[k][a] for k in dims if dists.get(k, {}).get(a)}
            if sub:
                strata[I] = sub
        maps = {key: [[x for x, b in zip(row, cols) if b == a]
                      for row, r in zip(data.maps[key], rows) if r == a]
                for key, (rows, cols) in bases.items()}
        if strata:
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
    # each rho J -> I at deg with its dual I -> J at c, found from either
    # one and both read through data.matrix, so a missing partner is an
    # error; a pair with a zero group compares nothing
    pairs = dict.fromkeys((J, I, deg) for kind, J, I, deg in data.maps if kind == "rho")
    pairs.update(dict.fromkeys((J, I, 2 * data.stratum_dim_complex(I) - c - 1)
                               for kind, I, J, c in data.maps if kind == "rho_dual"))
    for J, I, deg in sorted(pairs, key=lambda k: (sorted(k[0]), k[2])):
        c = 2 * data.stratum_dim_complex(I) - deg - 1
        m_rho = data.matrix("rho", J, I, deg)
        m_dual = data.matrix("rho_dual", I, J, c)
        if m_rho is None or m_dual is None:
            continue
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
    return identity(d1)


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
    n = hyb_data.n
    sliced = slice_by_label(deg_data)
    labelled = sliced is not None
    if mode == "smoothing":
        build, hyb_page = build_monodromy_E1, build_delta_E1(hyb_data)
    else:
        build, hyb_page = build_weight_E1, build_G_flag_E1(hyb_data)
    # (a, l) -> [degeneration, fibration]; a is None without labels, and
    # every entry of either side lands in some cell.
    table = {}
    for (p, q), v in hyb_page.e2().items():
        a, l = (q - n, p) if mode == "smoothing" else (n - q + 1, -(p + 1))
        table.setdefault((a if labelled else None, l), [0, 0])[1] += v
    for a, sub in sorted(sliced.items()) if labelled else [(None, deg_data)]:
        for (l, _), v in build(sub).e2().items():
            table.setdefault((a, l), [0, 0])[0] += v
    cells = [{"a": a, "l": l, "degeneration": d, "fibration": f, "ok": d == f}
             for (a, l), (d, f) in sorted(table.items())]
    return {"mode": mode, "labelled": labelled, "cells": cells,
            "ok": all(c["ok"] for c in cells)}


# ---------------------------------------------------------------------------
# Cubical comparison
# ---------------------------------------------------------------------------

class CubicalData(namedtuple("CubicalData", "label entries maps")):
    """Dimensions and structure maps of a cubical diagram at a fixed label:
    entries maps frozenset -> dim, maps (frozenset from, frozenset to) ->
    matrix."""

    __slots__ = ()

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

_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
_DECIMAL = re.compile(r"-?[0-9]+")
_INDEX_TYPES = frozenset((int,))
_ENTRY_TYPES = frozenset((int, str))
_STRATUM_KEYS = {"I", "dims", "hodge"}
_MAP_KEYS = {"kind", "from", "to", "degree", "matrix"}
_PAIRING_KEYS = {"I", "degree", "matrix"}


def _index_set(doc, key, path):
    """doc[key], a list of distinct ints >= 0, as a frozenset."""
    I = doc.get(key) if type(doc) is dict else None
    if type(I) is list and _INDEX_TYPES.issuperset(map(type, I)):
        s = frozenset(I)
        if len(s) == len(I) and (not I or min(I) >= 0):
            return s
    return read_index_set(read_field(doc, key, list, path=path), f"{path}.{key}")


def _graded(d, path, keys, read_value=None):
    """{int: value} of a JSON object keyed by decimal ints, each key parsed
    once per document (`keys`); the values are dimensions, or read by
    read_value.  "02" or "-0" would alias "2" or "0", so a key must be the
    int's own spelling."""
    if type(d) is not dict:
        raise InputError(path, f"expected an object keyed by ints, got {d!r}")
    out = {}
    for k, v in d.items():
        i = keys.get(k)
        if i is None:
            if not _DECIMAL.fullmatch(k):
                raise InputError(f"{path}.{k}", "key is not a decimal int")
            if str(int(k)) != k:
                raise InputError(f"{path}.{k}", f"key {k!r} must be written {str(int(k))!r}")
            i = keys[k] = int(k)
        if read_value is not None:
            v = read_value(v, f"{path}.{k}", keys)
        elif type(v) is not int or v < 0:
            read_count(v, f"{path}.{k}")
        out[i] = v
    return out


def _matrix(doc, path, vals):
    """doc["matrix"] as rows of ints, with a Fraction only for a "p/q"
    string.  An entry is an int, a "p" or a "p/q" string; a float or a bool
    is an InputError, never a binary fraction.  Each entry is parsed once per
    document (`vals`), after its type is checked, so True is never a cached 1."""
    out = []
    for i, row in enumerate(read_field(doc, "matrix", list, path=path)):
        if type(row) is not list:
            raise InputError(f"{path}.matrix[{i}]", f"expected a list, got {row!r}")
        if _ENTRY_TYPES.issuperset(map(type, row)):
            try:
                out.append([vals[x] for x in row])
                continue
            except KeyError:
                pass
        for j, x in enumerate(row):
            m = _FRACTION.fullmatch(x) if type(x) is str else None
            if type(x) is not int and m is None:
                raise InputError(f"{path}.matrix[{i}][{j}]",
                                 f"expected an int or a 'p/q' string, got {x!r}")
            vals[x] = Fraction(x) if m and m[1] else int(x)
        out.append([vals[x] for x in row])
    return out


def _check_shape(m, rows, cols, path):
    """A matrix between two nonzero declared dimensions is rows x cols; one
    whose source or target dimension is 0 has no entries."""
    if rows and cols:
        wrong = len(m) != rows or any(len(row) != cols for row in m)
    else:
        wrong = any(m)
    if wrong:
        raise InputError(f"{path}.matrix",
                         f"expected a {rows}x{cols} matrix by the declared dims")


def _read_stratum(s, where, strata, keys):
    I = _index_set(s, "I", where)
    if not I:
        raise InputError(f"{where}.I", "empty index set")
    if I in strata:
        raise InputError(f"{where}.I", f"repeats stratum {sorted(I)}")
    dims = _graded(read_field(s, "dims", dict, path=where), f"{where}.dims", keys)
    hodge = _graded(s["hodge"], f"{where}.hodge", keys, _graded) if "hodge" in s else None
    read_keys(s, where, _STRATUM_KEYS)
    for k, dist in (hodge or {}).items():
        count, dim = sum(dist.values()), dims.get(k, 0)
        if count != dim:
            raise InputError(f"{where}.hodge.{k}", f"the labels count {count}, but dims gives {dim}")
    return I, dims, hodge


def _read_map(m, where, maps, vals, strata):
    key = kind, frm, to, degree = (
        read_field(m, "kind", str, path=where), _index_set(m, "from", where),
        _index_set(m, "to", where), read_field(m, "degree", int, path=where))
    if kind not in DEGREE_SHIFT:
        raise InputError(f"{where}.kind", f"unknown map kind {kind!r}")
    if key in maps:
        raise InputError(where, "repeats the kind, from, to and degree of an earlier map")
    matrix = _matrix(m, where, vals)
    read_keys(m, where, _MAP_KEYS)
    _check_shape(matrix, strata.get(to, {}).get(degree + DEGREE_SHIFT[kind], 0),
                 strata.get(frm, {}).get(degree, 0), where)
    return key, matrix


def _read_pairing(p, where, pairings, vals):
    key = (_index_set(p, "I", where), read_field(p, "degree", int, path=where))
    if key in pairings:
        raise InputError(where, "repeats the I and degree of an earlier pairing")
    matrix = _matrix(p, where, vals)
    read_keys(p, where, _PAIRING_KEYS)
    return key, matrix


def complex_from_doc(doc):
    """The StrataComplexData of a complex document.

    Schema: n (an int >= 0), side (a string), strata (a nonempty list of
    {"I", "dims", optional "hodge"}), and optional maps (a list of {"kind",
    "from", "to", "degree", "matrix"}) and pairings (a list of {"I",
    "degree", "matrix"}).  An index set is a list of distinct ints >= 0, and
    a stratum's is nonempty and unique; dims is {degree: dim} and hodge
    {degree: {label: dim}}, keyed by ints written as `str(int(k))` writes
    them, and the label counts of a hodge degree sum to its dim, 0 where
    dims lacks the degree; a kind is a key of DEGREE_SHIFT, and no two maps
    share kind, from, to and degree, nor two pairings I and degree.  A
    matrix entry is an int, a "p" or a "p/q" string; a float or a bool is
    rejected.

    Shape: a map's matrix is dim(to, degree + shift) x dim(from, degree), a
    pairing's dim(I, degree) x dim(I, 2(n - |I| + 1) - degree); when either
    dimension is 0 the matrix has no entries.  The first fault raises an
    InputError at its path.
    """
    keys, vals, strata, hodge = {}, {}, {}, {}
    for i, s in enumerate(read_field(doc, "strata", list)):
        I, dims, h = _read_stratum(s, f"strata[{i}]", strata, keys)
        strata[I] = dims
        if h is not None:
            hodge[I] = h
    maps = {}
    for i, m in enumerate(read_field(doc, "maps", list) if "maps" in doc else []):
        key, matrix = _read_map(m, f"maps[{i}]", maps, vals, strata)
        maps[key] = matrix
    pairings = {}
    for i, p in enumerate(read_field(doc, "pairings", list) if "pairings" in doc else []):
        key, matrix = _read_pairing(p, f"pairings[{i}]", pairings, vals)
        pairings[key] = matrix
    if not strata:
        raise InputError("strata", "no strata")
    n = read_count(read_field(doc, "n", int), "n")
    for i, ((I, degree), m) in enumerate(pairings.items()):
        # pairs degree with the complementary degree of the stratum
        dims = strata.get(I, {})
        _check_shape(m, dims.get(degree, 0),
                     dims.get(2 * (n - len(I) + 1) - degree, 0), f"pairings[{i}]")
    side = read_field(doc, "side", str)
    read_keys(doc, "", {"n", "side", "strata", "maps", "pairings"})
    return StrataComplexData(n, side, strata, hodge, maps, pairings)


def cubical_from_doc(doc):
    entries, vals = {}, {}
    for i, e in enumerate(read_field(doc, "entries", list)):
        where = f"entries[{i}]"
        I = _index_set(e, "I", where)
        if I in entries:
            raise InputError(f"{where}.I", f"repeats index set {sorted(I)}")
        entries[I] = read_count(read_field(e, "dim", int, path=where), f"{where}.dim")
        read_keys(e, where, {"I", "dim"})
    maps = {}
    for i, m in enumerate(read_field(doc, "maps", list) if "maps" in doc else []):
        where = f"maps[{i}]"
        key = (_index_set(m, "from", where), _index_set(m, "to", where))
        if key in maps:
            raise InputError(where, "repeats the from and to of an earlier map")
        maps[key] = _matrix(m, where, vals)
        read_keys(m, where, {"from", "to", "matrix"})
        _check_shape(maps[key], entries.get(key[1], 0), entries.get(key[0], 0), where)
    label = read_field(doc, "label", int) if "label" in doc else 0
    read_keys(doc, "", {"label", "entries", "maps"})
    return CubicalData(label, entries, maps)


def page_report_doc(page):
    """The report that `ss <page>` prints, as a document:

    name, grading: the page's name and grading note;
    e1, e2: the nonzero terms of the first and second page, as {p, q, dim}
      in (p, q) order;
    row_euler: per row q of E1, the alternating sums over p of the E1 and
      the E2 dimensions (e1_sum, e2_sum), and whether they agree (ok);
    d2_report: per nonzero E2 term, where d2 would take it (from, to), and
      whether it vanishes for degree reasons (confirmed_zero: the target is
      zero).
    """
    e2 = page.e2()
    e1 = {(p, q): page.term_dim(p, q) for (p, q) in page.positions()}
    row_euler = []
    for q in sorted({q for _, q in e1}):
        s1 = sum(sign(p) * d for (p, qq), d in e1.items() if qq == q)
        s2 = sum(sign(p) * v for (p, qq), v in e2.items() if qq == q)
        row_euler.append({"q": q, "e1_sum": s1, "e2_sum": s2, "ok": s1 == s2})
    return {
        "name": page.name,
        "grading": page.grading_note,
        "e1": [{"p": p, "q": q, "dim": d} for (p, q), d in e1.items() if d],
        "e2": [{"p": p, "q": q, "dim": v} for (p, q), v in sorted(e2.items())],
        "row_euler": row_euler,
        "d2_report": [{"from": [p, q], "to": [p + 2, q - 1],
                       "confirmed_zero": (p + 2, q - 1) not in e2}
                      for (p, q) in sorted(e2)],
    }
