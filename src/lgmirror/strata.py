"""Euler-characteristic bookkeeping for normal-crossing strata on both sides
of the mirror, polydisk-cover combinatorics of the glued base, and the
topological mirror checks.

Strata Euler numbers are input data; the only computed source is the
genus-by-interior-points helper for anticanonical curves in surfaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .lattice import interior_lattice_points, is_reflexive
from .linalg import mat_mul, identity, sign


class StrataError(ValueError):
    pass


@dataclass
class StrataEuler:
    """Integer Euler numbers e(X_I) (or e(Y_I)) per nonempty index set."""

    n: int                 # complex dimension of the smooth side
    components: int        # number of components, N + 1
    side: str              # "degeneration" | "hybrid"
    entries: dict          # frozenset(I) -> int
    zero_strata: frozenset = frozenset()  # index sets declared empty

    def __post_init__(self):
        if self.side not in ("degeneration", "hybrid"):
            raise StrataError(f"unknown side {self.side!r}")
        for I in self.entries:
            self._check_index(I)

    def _check_index(self, I):
        if not I or not all(0 <= i < self.components for i in I):
            raise StrataError(f"malformed index set {sorted(I)}")

    def e(self, I):
        I = frozenset(I)
        self._check_index(I)
        if I in self.entries:
            return self.entries[I]
        if I in self.zero_strata:
            return 0
        raise StrataError(f"no entry for stratum {sorted(I)}")

    def index_sets(self):
        return sorted(self.entries, key=lambda s: (len(s), sorted(s)))

    def relabeled(self, perm):
        """Permute component labels (invariance oracle for the tests)."""
        remap = {frozenset(perm[i] for i in I): e for I, e in self.entries.items()}
        zeros = frozenset(frozenset(perm[i] for i in I) for I in self.zero_strata)
        return StrataEuler(self.n, self.components, self.side, remap, zeros)


def euler_snc(d):
    """Inclusion-exclusion Euler number of the normal crossing union."""
    if d.side != "degeneration":
        raise StrataError("euler_snc expects degeneration-side data")
    return sum(sign(len(I) - 1) * e for I, e in d.entries.items())


def euler_smoothing(d):
    """Euler number of the smoothing, the |I|-weighted alternating sum."""
    if d.side != "degeneration":
        raise StrataError("euler_smoothing expects degeneration-side data")
    if d.components < 2:
        raise StrataError("smoothing formula needs a genuine degeneration "
                          "(at least two components)")
    return sum(sign(len(I)) * len(I) * e for I, e in d.entries.items())


def _complement_subsets(d, I):
    rest = [i for i in range(d.components) if i not in I]
    for r in range(1, len(rest) + 1):
        for J in itertools.combinations(rest, r):
            yield frozenset(J)


def euler_generic_fiber(d, I):
    """e of the generic fiber of the induced rank-(N+1-|I|) potential.

    The deepest stratum has no potential left: the value is 0 by convention.
    """
    if d.side != "hybrid":
        raise StrataError("euler_generic_fiber expects hybrid-side data")
    I = frozenset(I)
    if len(I) == d.components:
        return 0  # rank-0 convention
    total = 0
    for J in _complement_subsets(d, I):
        total += sign(len(J) - 1) * d.e(I | J)
    return total


def euler_relative(d, I):
    """e(Y_I) - e(Y_I,sm); equals e(Y_I) for the deepest stratum."""
    return d.e(I) - euler_generic_fiber(d, I)


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


def euler_tilde_resummed(d):
    """Independent route: inclusion-exclusion over the chart cover."""
    return sum(sign(len(I) - 1) * d.e(I) for I in _all_nonempty(d))


def check_topological_mirror(deg, hyb):
    """The four Euler numbers and both mirror identities, plus the
    per-stratum comparisons.

    The statement's second identity reads e(glued affine) against e(smoothing)
    while its proof establishes it against e(central fiber); the report
    carries both readings.
    """
    if deg.components != hyb.components or deg.n != hyb.n:
        raise StrataError("shape mismatch between the two sides")
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


@dataclass(frozen=True)
class ChartIntersection:
    index_set: tuple
    torus_rank: int
    disk_rank: int


def chart_intersections(N):
    """Intersections of the polydisk cover of projective N-space: an l-fold
    overlap is a torus of rank l-1 times a polydisk of rank N+1-l."""
    out = []
    for r in range(1, N + 2):
        for I in itertools.combinations(range(N + 1), r):
            out.append(ChartIntersection(I, r - 1, N + 1 - r))
    return out


def monodromy_relation_check(dim, pair_reps, diag_reps):
    """Check the gluing relation: the coordinate-loop monodromy composed with
    the diagonal-loop monodromy is the identity, for every ordered pair."""
    ident = identity(dim)
    results = []
    for (i, j), mat in sorted(pair_reps.items()):
        if j not in diag_reps:
            raise StrataError(f"no diagonal representation for index {j}")
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise StrataError(f"representation ({i},{j}) has wrong dimension")
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
    entries = {}
    for item in doc["entries"]:
        entries[frozenset(item["I"])] = int(item["e"])
    zeros = frozenset(frozenset(z) for z in doc.get("zero_strata", []))
    return StrataEuler(doc["n"], doc["components"], doc["side"], entries, zeros)


def strata_to_doc(d):
    return {
        "n": d.n,
        "components": d.components,
        "side": d.side,
        "entries": [{"I": sorted(I), "e": e}
                    for I, e in sorted(d.entries.items(),
                                       key=lambda kv: (len(kv[0]), sorted(kv[0])))],
    }


def monodromy_from_doc(doc):
    dim = doc["dim"]
    pair_reps = {}
    diag_reps = {}
    for rep in doc["reps"]:
        mat = [[int(x) for x in row] for row in rep["matrix"]]
        if "i" in rep:
            pair_reps[(rep["i"], rep["j"])] = mat
        else:
            diag_reps[rep["j"]] = mat
    return dim, pair_reps, diag_reps
