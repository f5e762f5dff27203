"""Euler-characteristic bookkeeping for normal-crossing strata on both sides
of the mirror, and the topological mirror checks.

Strata Euler numbers are input data; the only computed source is the
genus-by-interior-points helper for anticanonical curves in surfaces.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .lattice import (InputError, interior_lattice_points, is_reflexive,
                      read_count, read_field, read_index_set, read_keys, read_list)
from .linalg import mat_mul, identity, sign


class StrataError(ValueError):
    pass


class StrataEuler(namedtuple("StrataEuler", "n components side entries zero_strata",
                             defaults=(frozenset(),))):
    """Integer Euler numbers e(X_I) (or e(Y_I)) per nonempty index set.

    n: complex dimension of the smooth side; components: their number,
    N + 1; side: "degeneration" or "hybrid"; entries: frozenset(I) -> int;
    zero_strata: the index sets declared empty.
    """

    __slots__ = ()

    def e(self, I):
        I = frozenset(I)
        if I in self.entries:
            return self.entries[I]
        if I in self.zero_strata:
            return 0
        raise StrataError(f"no entry for stratum {sorted(I)}")

    def index_sets(self):
        return sorted(self.entries, key=lambda s: (len(s), sorted(s)))


def euler_snc(d):
    """Inclusion-exclusion Euler number of the normal crossing union."""
    return sum(sign(len(I) - 1) * e for I, e in d.entries.items())


def euler_smoothing(d):
    """Euler number of the smoothing, the |I|-weighted alternating sum."""
    if d.components < 2:
        raise StrataError("smoothing formula needs a genuine degeneration "
                          "(at least two components)")
    return sum(sign(len(I)) * len(I) * e for I, e in d.entries.items())


def euler_relative(d, I):
    """e(Y_I) - e(Y_I,sm), by Moebius inversion over the index sets J that
    miss I: the sum of (-1)^|J| e(Y_{I+J}), J = {} first.  For the deepest
    stratum only J = {} is left: e(Y_I,sm) = 0 by the rank-0 convention."""
    I = frozenset(I)
    rest = [i for i in range(d.components) if i not in I]
    return sum(sign(r) * d.e(I.union(J))
               for r in range(len(rest) + 1) for J in itertools.combinations(rest, r))


def euler_tilde_total(d):
    """Euler number of the glued fibration over affine space."""
    return sum(euler_relative(d, I) for I in _all_nonempty(d))


def euler_glued_total(d):
    """Euler number of the glued fibration over projective space: only the
    polydisk charts contribute, the torus-bundle overlaps have e = 0."""
    return sum(d.e(frozenset([i])) for i in range(d.components))


def _all_nonempty(d):
    for r in range(1, d.components + 1):
        for I in itertools.combinations(range(d.components), r):
            yield frozenset(I)


def check_topological_mirror(deg, hyb):
    """The four Euler numbers and both mirror identities, plus the
    per-stratum comparisons.

    The statement's second identity reads e(glued affine) against e(smoothing)
    while its proof establishes it against e(central fiber); the report
    carries both readings.
    """
    n = deg.n
    e_X = euler_smoothing(deg)
    e_Xc = euler_snc(deg)
    e_Y = euler_glued_total(hyb)
    e_Yt = euler_tilde_total(hyb)
    per_stratum = []
    for I in deg.index_sets():
        lhs = deg.e(I)
        rhs = sign(n - len(I) + 1) * euler_relative(hyb, I)
        per_stratum.append({"I": sorted(I), "lhs": lhs, "rhs": rhs,
                            "ok": lhs == rhs})
    return {
        "n": n,
        "e_X": e_X,
        "e_Xc": e_Xc,
        "e_Y": e_Y,
        "e_Y_tilde": e_Yt,
        "identity_smoothing": {"lhs": e_Y, "rhs": sign(n) * e_X,
                               "ok": e_Y == sign(n) * e_X},
        "identity_central_proof_reading": {
            "lhs": e_Yt, "rhs": sign(n) * e_Xc,
            "ok": e_Yt == sign(n) * e_Xc},
        "identity_central_statement_reading": {
            "lhs": e_Yt, "rhs": sign(n) * e_X,
            "ok": e_Yt == sign(n) * e_X},
        "per_stratum": per_stratum,
        "ok": (e_Y == sign(n) * e_X and e_Yt == sign(n) * e_Xc
               and all(s["ok"] for s in per_stratum)),
    }


def monodromy_relation_check(dim, pair_reps, diag_reps):
    """Check the gluing relation: the coordinate-loop monodromy composed with
    the diagonal-loop monodromy is the identity, for every ordered pair.
    The reps are as monodromy_from_doc reads them: dim x dim, with a
    diagonal rep for the j of every pair."""
    ident = identity(dim)
    results = []
    for (i, j), mat in sorted(pair_reps.items()):
        comp = mat_mul(mat, diag_reps[j])
        results.append({"i": i, "j": j, "ok": comp == ident})
    return {"relations": results, "ok": all(r["ok"] for r in results)}


def anticanonical_curve_euler(p):
    """Euler number of a smooth anticanonical curve of the surface of a
    rank-2 reflexive polytope: 2 - 2 * (number of interior lattice points)."""
    if p.ambient_rank != 2 or not is_reflexive(p):
        raise StrataError("curve helper needs a rank-2 reflexive polytope")
    return 2 - 2 * len(interior_lattice_points(p))


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def strata_from_doc(doc):
    entries = []
    for i, item in enumerate(read_field(doc, "entries", list)):
        where = f"entries[{i}]"
        I = read_field(item, "I", list, path=where)
        read_list(I, f"{where}.I")
        entries.append((I, f"{where}.I", read_field(item, "e", int, path=where)))
        read_keys(item, where, {"I", "e"})
    zeros = read_list(doc["zero_strata"], "zero_strata", read_list) \
        if "zero_strata" in doc else ()
    n, components = read_field(doc, "n", int), read_field(doc, "components", int)
    side = read_field(doc, "side", str)
    read_keys(doc, "", {"n", "components", "side", "entries", "zero_strata"})
    # values are checked once every field has its type, so a document of
    # another kind keeps its first error
    read_count(n, "n")
    if components < 1:
        raise InputError("components", f"expected an int >= 1, got {components}")
    by_set = {}
    for I, where, e in entries:
        I = read_index_set(I, where, components)
        if I in by_set:
            raise InputError(where, f"repeats stratum {sorted(I)}")
        by_set[I] = e
    empty = set()
    for j, Z in enumerate(zeros):
        Z = read_index_set(list(Z), f"zero_strata[{j}]", components)
        if Z in by_set or Z in empty:
            raise InputError(f"zero_strata[{j}]", f"repeats stratum {sorted(Z)} of "
                             + ("entries" if Z in by_set else "zero_strata"))
        empty.add(Z)
    return StrataEuler(n, components, side, by_set, frozenset(empty))


def monodromy_from_doc(doc):
    dim = read_count(read_field(doc, "dim", int), "dim")
    pair_reps = {}
    diag_reps = {}
    for i, rep in enumerate(read_field(doc, "reps", list)):
        where = f"reps[{i}]"
        rows = read_field(rep, "matrix", list, path=where)
        mat = [list(r) for r in read_list(rows, f"{where}.matrix", read_list)]
        if len(mat) != dim or any(len(r) != dim for r in mat):
            raise InputError(f"{where}.matrix", f"expected a {dim}x{dim} matrix by dim")
        j = read_field(rep, "j", int, path=where)
        if "i" in rep:
            reps, key = pair_reps, (read_field(rep, "i", int, path=where), j)
        else:
            reps, key = diag_reps, j
        read_keys(rep, where, {"i", "j", "matrix"})
        if key in reps:
            raise InputError(where, "repeats the indices of an earlier rep")
        reps[key] = mat
    read_keys(doc, "", {"dim", "reps"})
    for i, rep in enumerate(doc["reps"]):
        if "i" in rep and rep["j"] not in diag_reps:
            raise InputError(f"reps[{i}].j", f"no diagonal rep for j = {rep['j']}")
    return dim, pair_reps, diag_reps
