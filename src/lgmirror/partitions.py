"""Semi-stable partitions of a polytope and their derived data: validation,
dual complex, concave piecewise-linear function, lifted polyhedron, central
frame with the distinguished primitive vectors, and the fibration fans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fans import Cone, Fan, FanError, face_fan, refine_with_boundary_rays
from .lattice import (
    LatticeError,
    LatticePolytope,
    convex_hull,
    face_lattice,
    boundary_lattice_points,
    intersect,
    is_reflexive,
    lattice_points,
    normalized_volume,
    polyhedron_generators,
    polytope_from_doc,
    saturated_direction_basis,
    vertex_is_smooth,
)
from .linalg import (
    dot,
    integral_multiple,
    primitive,
    rank as mat_rank,
    snf_with_transforms,
    solve,
)


class PartitionError(ValueError):
    pass


@dataclass
class SemistablePartition:
    host: LatticePolytope
    pieces: tuple

    @staticmethod
    def from_polytopes(host, pieces):
        return SemistablePartition(host, tuple(pieces))

    def piece_count(self):
        return len(self.pieces)


@dataclass
class ValidationReport:
    tiling_ok: bool
    tiling_message: str
    simplicial_ok: bool
    clause_violations: dict  # clause id -> list of violation dicts
    valid: bool

    def to_doc(self):
        return {
            "valid": self.valid,
            "tiling": {"ok": self.tiling_ok, "message": self.tiling_message},
            "simplicial": self.simplicial_ok,
            "clauses": [
                {"id": cid, "violations": viols}
                for cid, viols in self.clause_violations.items()
            ],
        }


def check_tiling(part):
    """Pieces are full-dimensional, sit inside the host, meet in common faces,
    and their normalized volumes add up to the host volume."""
    host, pieces = part.host, part.pieces
    if not pieces:
        return False, "no pieces"
    for i, p in enumerate(pieces):
        if p.ambient_rank != host.ambient_rank:
            return False, f"piece {i} has wrong ambient rank"
        if not p.is_full_dimensional():
            return False, f"piece {i} is not full-dimensional"
        if not all(host.contains(v) for v in p.vertices):
            return False, f"piece {i} is not contained in the host"
    for i, j in itertools.combinations(range(len(pieces)), 2):
        w = intersect(pieces[i], pieces[j])
        if w is None:
            continue
        if not _is_common_face(w, pieces[i]) or not _is_common_face(w, pieces[j]):
            return False, f"pieces {i} and {j} do not meet in a common face"
    if sum(normalized_volume(p) for p in pieces) != normalized_volume(host):
        return False, "piece volumes do not add up to the host volume"
    return True, "ok"


def _is_common_face(w, piece):
    wset = set(w.vertices)
    return any(set(f.vertices()) == wset for f in face_lattice(piece))


def _gamma_faces(part):
    """All faces of the partition, deduplicated by vertex point set."""
    seen = {}
    for piece in part.pieces:
        for f in face_lattice(piece):
            key = frozenset(f.vertices())
            if key not in seen:
                seen[key] = (tuple(sorted(f.vertices())), f.dimension)
    return sorted(seen.values())


def _carrier_face(host, points, host_face_polys):
    """Minimal face of the host whose hull contains all the points."""
    best = None
    for f, poly in host_face_polys:
        if all(poly.contains(q) for q in points):
            if best is None or f.dimension < best[0].dimension:
                best = (f, poly)
    return best[0]


def validate_semistable(part):
    """Clause-by-clause validation of the semi-stability conditions.

    Clause "vertex-uniqueness": every host vertex lies in exactly one piece.
    Clause "face-count": a partition face whose carrier host face has
    dimension k must be a face of exactly k - l + 1 pieces (l its dimension).
    """
    tiling_ok, msg = check_tiling(part)
    if not tiling_ok:
        return ValidationReport(False, msg, False,
                                {"vertex-uniqueness": [], "face-count": []}, False)
    host, pieces = part.host, part.pieces

    v_violations = []
    for v in host.vertices:
        owners = [i for i, p in enumerate(pieces) if p.contains(v)]
        if len(owners) != 1:
            v_violations.append({"vertex": list(v), "pieces": owners})

    host_face_polys = [(f, convex_hull(f.vertices(), lattice=host.lattice))
                       for f in face_lattice(host)]
    piece_face_sets = [set(frozenset(f.vertices()) for f in face_lattice(p))
                       for p in pieces]

    f_violations = []
    for points, l in _gamma_faces(part):
        tau = _carrier_face(host, points, host_face_polys)
        count = sum(1 for s in piece_face_sets if frozenset(points) in s)
        expected = tau.dimension - l + 1
        if count != expected:
            f_violations.append({
                "sigma": [list(q) for q in points],
                "tau": [list(q) for q in tau.vertices()],
                "count": count,
                "expected": expected,
            })

    simplicial_ok = all(_piece_is_simple(p) for p in pieces)
    valid = tiling_ok and simplicial_ok and not v_violations and not f_violations
    return ValidationReport(tiling_ok, msg, simplicial_ok,
                            {"vertex-uniqueness": v_violations,
                             "face-count": f_violations},
                            valid)


def _piece_is_simple(p):
    from .lattice import is_simplicial
    return is_simplicial(p)


@dataclass
class DualComplex:
    n_vertices: int
    simplices: tuple  # sorted tuples of piece indices, every nonempty intersection

    @property
    def dimension(self):
        return max(len(s) for s in self.simplices) - 1

    def is_closed_under_subsets(self):
        have = set(self.simplices)
        for s in self.simplices:
            for r in range(1, len(s)):
                for sub in itertools.combinations(s, r):
                    if sub not in have:
                        return False
        return True

    def to_doc(self):
        return {"vertices": self.n_vertices,
                "simplices": [list(s) for s in self.simplices],
                "dimension": self.dimension}


def dual_complex(part):
    """Simplices are exactly the nonempty intersections of piece subsets."""
    n = len(part.pieces)
    simplices = []
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            cur = part.pieces[s[0]]
            for i in s[1:]:
                cur = intersect(cur, part.pieces[i]) if cur is not None else None
                if cur is None:
                    break
            if cur is not None:
                simplices.append(s)
    return DualComplex(n, tuple(simplices))


def common_intersection(part):
    cur = part.pieces[0]
    for p in part.pieces[1:]:
        cur = intersect(cur, p)
        if cur is None:
            return None
    return cur


def is_central(part):
    """The origin belongs to every piece."""
    origin = tuple(0 for _ in range(part.host.ambient_rank))
    return all(p.contains(origin) for p in part.pieces)


def gamma_vertices(part):
    """Vertices of the partition: piece vertices that are not host vertices."""
    host_verts = set(part.host.vertices)
    out = []
    for p in part.pieces:
        for v in p.vertices:
            if v not in host_verts and v not in out:
                out.append(v)
    return sorted(out)


def is_nonsingular(part):
    """Every partition vertex is a smooth vertex of each piece containing it."""
    for v in gamma_vertices(part):
        for p in part.pieces:
            if v in p.vertices and not vertex_is_smooth(p, v):
                return False
    return True


# ---------------------------------------------------------------------------
# The concave piecewise-linear function certifying the lifting
# ---------------------------------------------------------------------------

@dataclass
class GammaPLFunction:
    """One integral linear functional per piece, agreeing on walls and bending
    strictly across them, so F = min over pieces is concave and linear exactly
    on the pieces."""

    partition: SemistablePartition
    functionals: tuple  # integer coefficient tuple per piece, in piece order
    bound: int

    def value(self, x):
        return min(dot(m, x) for m in self.functionals)

    def piece_value(self, i, x):
        return dot(self.functionals[i], x)


def _balanced_range(bound):
    out = [0]
    for k in range(1, bound + 1):
        out.extend([-k, k])
    return out


def build_F_Gamma(part, bound=10):
    """Search the coefficient box [-bound, bound]^n for the minimal certificate.

    Validity of an assignment (m_0, ..., m_r): for every ordered pair (i, j)
    and every vertex u of piece j, m_i(u) == m_j(u) when u lies in piece i
    and m_i(u) > m_j(u) otherwise.  Candidates are scanned in the balanced
    lexicographic order 0, -1, 1, -2, 2, ... so the first solution found is
    the canonical one.  Exhausting the box raises (which is not a disproof).
    """
    report = validate_semistable(part)
    if not report.valid:
        raise PartitionError("build_F_Gamma needs a valid semi-stable partition")
    if not is_nonsingular(part):
        raise PartitionError("build_F_Gamma needs a non-singular partition")
    pieces = part.pieces
    n = part.host.ambient_rank
    candidates = list(itertools.product(_balanced_range(bound), repeat=n))

    verts = [p.vertices for p in pieces]
    inside = {}
    for j, p in enumerate(pieces):
        for u in verts[j]:
            inside[u] = [q.contains(u) for q in pieces]

    assignment = [None] * len(pieces)

    def compatible(j, mj):
        for i in range(j):
            mi = assignment[i]
            for u in verts[j]:
                vi, vj = dot(mi, u), dot(mj, u)
                if inside[u][i]:
                    if vi != vj:
                        return False
                elif vi <= vj:
                    return False
            for u in verts[i]:
                vi, vj = dot(mi, u), dot(mj, u)
                if inside[u][j]:
                    if vi != vj:
                        return False
                elif vj <= vi:
                    return False
        return True

    def search(j):
        if j == len(pieces):
            return True
        for mj in candidates:
            if compatible(j, mj):
                assignment[j] = mj
                if search(j + 1):
                    return True
        assignment[j] = None
        return False

    if not search(0):
        raise PartitionError(
            f"F_Gamma search exhausted the coefficient box [-{bound}, {bound}]^{n}")
    return GammaPLFunction(part, tuple(assignment), bound)


# ---------------------------------------------------------------------------
# Lifted polyhedron
# ---------------------------------------------------------------------------

@dataclass
class LiftedPolyhedron:
    """The epigraph {(y, x) : x in host, y >= F(x)} in rank n + 1."""

    ambient_rank: int
    inequalities: tuple   # (normal, offset) with <normal, (y,x)> >= -offset
    recession: tuple      # primitive recession rays
    vertices: tuple

    def to_doc(self):
        return {
            "rank": self.ambient_rank,
            "inequalities": [{"normal": list(n), "offset": o}
                             for n, o in self.inequalities],
            "recession_rays": [list(r) for r in self.recession],
            "vertices": [list(v) for v in self.vertices],
        }

    def truncate(self, y_max=None):
        """Bounded polytope cut off at y <= y_max (display helper)."""
        if y_max is None:
            y_max = max(v[0] for v in self.vertices) + 1
        cap = (tuple([-1] + [0] * (self.ambient_rank - 1)), y_max)
        from .lattice import polytope_from_inequalities
        return polytope_from_inequalities(
            list(self.inequalities) + [cap], ambient_rank=self.ambient_rank)


def lifting_polyhedron(part, F):
    """H-representation y >= m_i(x) for every piece plus the host facets."""
    n = part.host.ambient_rank
    ineqs = []
    for m in F.functionals:
        ineqs.append(((1,) + tuple(-c for c in m), 0))
    for nrm, off in part.host.facets:
        ineqs.append(((0,) + tuple(nrm), off))
    verts, rays = polyhedron_generators(ineqs, ambient_rank=n + 1)
    expected_ray = tuple([1] + [0] * n)
    if rays != [expected_ray]:
        raise PartitionError(f"unexpected recession cone {rays}")
    for x in verts:
        if any(v.denominator != 1 for v in x):
            raise PartitionError(f"non-lattice vertex {tuple(map(str, x))}")
    verts = [tuple(int(v) for v in x) for x in verts]
    return LiftedPolyhedron(n + 1, tuple(ineqs), (expected_ray,), tuple(sorted(verts)))


def lifting_projection_check(part, lifted):
    """Every bounded face of the lifted polyhedron projects onto a face of the
    host or a face of the partition."""
    trunc = lifted.truncate()
    y_max = max(v[0] for v in trunc.vertices)
    targets = set()
    for f in face_lattice(part.host):
        targets.add(frozenset(f.vertices()))
    for piece in part.pieces:
        for f in face_lattice(piece):
            targets.add(frozenset(f.vertices()))
    failures = []
    checked = 0
    for f in face_lattice(trunc):
        vs = f.vertices()
        if any(v[0] == y_max for v in vs):
            continue  # touches the artificial cap: unbounded in the original
        checked += 1
        proj = frozenset(v[1:] for v in vs)
        if proj not in targets:
            failures.append([list(v) for v in vs])
    return {"checked": checked, "failures": failures, "ok": not failures}


# ---------------------------------------------------------------------------
# Central frame and fibration fans
# ---------------------------------------------------------------------------

@dataclass
class CentralFrame:
    partition: SemistablePartition
    l: int
    L_basis: tuple          # rows spanning the common-face direction lattice
    quotient: tuple         # rows of the projection M -> M / (M cap L)
    v_quotient: tuple       # primitive quotient rays, one per piece (absent ray)
    v_vectors: tuple        # primitive ambient representatives in L-perp
    sigma_v: Fan            # complete simplicial fan of the projected pieces

    def project(self, x):
        return tuple(dot(q, x) for q in self.quotient)


def central_frame(part):
    """Span of the common face and the primitive vectors transverse to it.

    The pieces project along the common face to a complete simplicial fan
    with l + 1 rays; the i-th distinguished vector is the unique ray absent
    from the projection of piece i, lifted primitively into the orthogonal
    complement of the common face.
    """
    report = validate_semistable(part)
    if not report.valid:
        raise PartitionError("central_frame needs a valid semi-stable partition")
    if not is_central(part):
        raise PartitionError("central_frame needs a central partition")
    if not is_nonsingular(part):
        raise PartitionError("central_frame needs a non-singular partition")
    host = part.host
    n = host.ambient_rank
    kgamma = dual_complex(part)
    l = kgamma.dimension

    common = common_intersection(part)
    if common is None:
        raise PartitionError("central partition has empty common intersection")
    if l + common.dim != host.dim:
        raise PartitionError(
            f"dim K_Gamma + dim(common face) = {l} + {common.dim} != {host.dim}")

    if common.dim == 0:
        L_rows = []
    else:
        # the common face of a central partition contains the origin, so its
        # direction span is its linear span
        L_rows = saturated_direction_basis(common.vertices)
    k = len(L_rows)

    if l == 0:
        sigma_v = Fan(0, ())
        return CentralFrame(part, 0, tuple(tuple(r) for r in L_rows), (), (), (),
                            sigma_v)

    if L_rows:
        _, _, V = snf_with_transforms(L_rows)
        q_rows = [tuple(V[i][j] for i in range(n)) for j in range(k, n)]
    else:
        q_rows = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]

    cones = []
    for piece in part.pieces:
        qv = [tuple(dot(q, v) for q in q_rows) for v in piece.vertices]
        rays = [primitive(w) for w in qv if any(w)]
        try:
            cones.append(Cone.from_rays(rays, l))
        except FanError as exc:
            raise PartitionError(f"projected piece is not a pointed cone: {exc}")
    all_rays = []
    for c in cones:
        for r in c.rays:
            if r not in all_rays:
                all_rays.append(r)
    if len(all_rays) != l + 1 or any(len(c.rays) != l for c in cones):
        raise PartitionError(
            f"projected pieces do not form a complete fan with {l + 1} rays "
            f"(got rays {sorted(all_rays)})")
    try:
        sigma_v = Fan.from_cones(cones, l)
    except FanError as exc:
        raise PartitionError(f"projected pieces do not form a fan: {exc}")
    if not sigma_v.is_complete():
        raise PartitionError("projected piece fan is not complete")

    v_quot = []
    for c in cones:
        absent = [r for r in all_rays if r not in c.rays]
        if len(absent) != 1:
            raise PartitionError("piece projection does not omit a unique ray")
        v_quot.append(absent[0])
    if len(set(v_quot)) != len(v_quot):
        raise PartitionError("omitted rays are not pairwise distinct")

    v_amb = []
    for r in v_quot:
        A = [list(row) for row in L_rows] + [list(q) for q in q_rows]
        b = [0] * len(L_rows) + list(r)
        x = solve(A, b)
        if x is None:
            raise PartitionError("no orthogonal representative for a ray")
        v_amb.append(primitive(integral_multiple([x])[0]))

    return CentralFrame(part, l, tuple(tuple(r) for r in L_rows),
                        tuple(q_rows), tuple(v_quot), tuple(v_amb), sigma_v)


@dataclass
class FibrationFans:
    sigma_delta: Fan
    sigma_prime: Fan
    sigma_gamma: Fan
    sigma_v: Fan
    added_rays: tuple

    def to_doc(self):
        from .fans import fan_to_doc
        return {
            "sigma_delta": fan_to_doc(self.sigma_delta),
            "sigma_prime": fan_to_doc(self.sigma_prime),
            "sigma_gamma": fan_to_doc(self.sigma_gamma),
            "sigma_v": fan_to_doc(self.sigma_v),
            "added_rays": [list(r) for r in self.added_rays],
        }


def build_fibration_fans(part, frame=None):
    """The face fan, its boundary refinement, the wall subfan, and the
    projected fan of a central partition of a reflexive host (rank <= 3)."""
    host = part.host
    if host.ambient_rank > 3:
        raise PartitionError("fibration fans are implemented for rank <= 3 only")
    if not is_reflexive(host):
        raise PartitionError("fibration fans need a reflexive host")
    if frame is None:
        frame = central_frame(part)
    sigma_delta = face_fan(host)
    sigma_prime = refine_with_boundary_rays(sigma_delta, host)

    added = []
    for v in frame.v_vectors:
        if v not in sigma_prime.rays:
            sigma_prime = _stellar_subdivide(sigma_prime, v)
            added.append(v)

    in_L = set()
    for r in sigma_prime.rays:
        rows = [list(b) for b in frame.L_basis]
        if not rows:
            continue
        if mat_rank(rows + [list(r)]) == len(rows):
            in_L.add(r)
    allowed = in_L | set(frame.v_vectors)

    gamma_cones = []
    for c in sigma_prime.maximal_cones:
        for s in c.face_ray_sets():
            if s and s <= allowed:
                gamma_cones.append(Cone.from_rays(sorted(s), host.ambient_rank))
    if gamma_cones:
        sigma_gamma = Fan.from_cones(gamma_cones, host.ambient_rank)
    else:
        sigma_gamma = Fan(host.ambient_rank, ())
    return FibrationFans(sigma_delta, sigma_prime, sigma_gamma, frame.sigma_v,
                         tuple(added))


def _stellar_subdivide(fan, v):
    new_cones = []
    for c in fan.maximal_cones:
        if not c.contains(v):
            new_cones.append(c)
            continue
        ineqs, _ = c.hrep()
        for n in ineqs:
            if dot(n, v) == 0:
                continue
            facet_rays = [r for r in c.rays if dot(n, r) == 0]
            if facet_rays:
                new_cones.append(Cone.from_rays(facet_rays + [v], c.ambient_rank))
    return Fan.from_cones(new_cones, fan.ambient_rank)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def partition_from_doc(doc, resolve_polytope=None):
    poly = doc["polytope"]
    if isinstance(poly, str):
        if resolve_polytope is None:
            raise PartitionError(f"cannot resolve polytope reference '{poly}'")
        host = resolve_polytope(poly)
    else:
        host = polytope_from_doc(poly)
    pieces = [convex_hull([tuple(v) for v in piece], lattice=host.lattice)
              for piece in doc["pieces"]]
    return SemistablePartition(host, tuple(pieces))
