"""Semi-stable partitions of a polytope and their derived data: validation,
dual complex, concave piecewise-linear function, lifted polyhedron, central
frame with the distinguished primitive vectors, and the fibration fans.

check_tiling matches piece facets (walls) and intersects only the pairs
that share none.  Past it the pieces meet face to face, so which pieces
meet or share a face is read off vertex_owners.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .fans import (
    Cone,
    Fan,
    FanError,
    face_fan,
    fan_to_doc,
    refine_with_boundary_rays,
    star,
)
from .lattice import (
    InputError,
    LatticeError,
    carrier,
    convex_hull,
    facet_masks,
    host_from_doc,
    intersect,
    is_face_of,
    is_reflexive,
    is_simplicial,
    polyhedron_generators,
    read_field,
    read_keys,
    read_points,
    vertex_is_smooth,
)
from .linalg import dot, identity, integer_kernel, integral_multiple, primitive, solve


class PartitionError(ValueError):
    pass


class SemistablePartition(namedtuple("SemistablePartition", "host pieces")):
    __slots__ = ()


def check_tiling(part):
    """Pieces are full-dimensional, sit inside the host, meet in proper
    common faces and cover the host: (verdict, message).

    A wall is a piece facet (a, o) that is not a host facet, keyed by its
    vertex set, read off p.incidence.  Two pieces that hold the same wall
    with opposite (a, o) lie on the two sides of its hyperplane, so they
    meet in exactly that facet, a proper face of both, and are not
    intersected.  Every other pair is intersected, in lex order, and the
    first that does not meet in a proper common face is named.  It is not
    established here that matched walls also make every lower-dimensional
    contact a common face, so this fallback stays until a cited proof lets
    it go.

    Past the pairs the interiors are disjoint, so the piece volumes add up
    to the host volume exactly when the pieces cover it.  In a face-to-face
    covering every interior wall is a facet of exactly two cells, one on
    each side; and when every wall is held from both sides, the covering
    degree is constant (De Loera, Rambau & Santos, Triangulations, 2010,
    4.5), and it is 1 on the interior of any piece.  So the volume message
    is returned exactly when a wall is held by one piece only, and no
    volume is computed.
    """
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
    boundary = set(host.facets)
    walls = {}  # wall vertex set -> [(piece, inward normal)]
    for i, p in enumerate(pieces):
        for facet, s in zip(p.facets, p.incidence):
            if facet not in boundary:
                walls.setdefault(frozenset(p.vertices[k] for k in s), []).append(
                    (i, facet[0]))
    # a wall's vertex set fixes its hyperplane, so two holders of it have
    # equal or opposite normals; opposite ones hold it from its two sides
    matched = {(i, j) for held in walls.values()
               for (i, a), (j, b) in itertools.combinations(held, 2) if a != b}
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if (i, j) in matched:
            continue
        try:
            w = intersect(pieces[i], pieces[j])
            if w is None or (w.dim < host.dim and is_face_of(w, pieces[i])
                             and is_face_of(w, pieces[j])):
                continue
        except LatticeError:  # a common face would have lattice vertices
            pass
        return False, f"pieces {i} and {j} do not meet in a common face"
    if any(len(held) != 2 for held in walls.values()):
        return False, "piece volumes do not add up to the host volume"
    return True, "ok"


def _gamma_faces(part):
    """All faces of the partition, deduplicated by vertex point set."""
    seen = {}
    for piece in part.pieces:
        for f in piece.all_faces():
            key = frozenset(f.vertices())
            if key not in seen:
                seen[key] = (tuple(sorted(f.vertices())), f.dimension)
    return sorted(seen.values())


def vertex_owners(part):
    """{u: sorted indices of the pieces holding u} for every piece vertex u;
    u is tested once, and only against pieces it is not a vertex of.  Past
    check_tiling, pieces meet exactly when a vertex lies in all of them, and
    a face of one is a face of each piece that holds all its vertices."""
    vertex_sets = [set(q.vertices) for q in part.pieces]
    return {u: tuple(i for i, q in enumerate(part.pieces)
                     if u in vertex_sets[i] or q.contains(u))
            for u in dict.fromkeys(u for p in part.pieces for u in p.vertices)}


def _validation_doc(tiling_ok, message, simplicial, v_violations, f_violations):
    return {
        "valid": tiling_ok and simplicial and not (v_violations or f_violations),
        "tiling": {"ok": tiling_ok, "message": message},
        "simplicial": simplicial,
        "clauses": [{"id": "vertex-uniqueness", "violations": v_violations},
                    {"id": "face-count", "violations": f_violations}],
    }


def validate_semistable(part):
    """Clause-by-clause validation of the semi-stability conditions, as the
    `partition validate` document: {"valid", "tiling": {"ok", "message"},
    "simplicial", "clauses": [{"id", "violations"}]}.

    Clause "vertex-uniqueness": every host vertex lies in exactly one piece.
    Clause "face-count": a partition face whose carrier host face has
    dimension k must be a face of exactly k - l + 1 pieces (l its dimension).
    A failed tiling skips both clauses and reports no simplicial pieces.
    """
    tiling_ok, msg = check_tiling(part)
    if not tiling_ok:
        return _validation_doc(False, msg, False, [], [])
    host, pieces = part.host, part.pieces
    owners = vertex_owners(part)

    v_violations = []
    for v in host.vertices:
        holders = owners.get(v, ())  # a piece that holds v has it as a vertex
        if len(holders) != 1:
            v_violations.append({"vertex": list(v), "pieces": list(holders)})

    masks = facet_masks(host, owners)
    f_violations = []
    for points, l in _gamma_faces(part):
        tau = carrier(host, points, masks)
        count = len(set.intersection(*(set(owners[u]) for u in points)))
        expected = tau.dimension - l + 1
        if count != expected:
            f_violations.append({
                "sigma": [list(q) for q in points],
                "tau": [list(q) for q in tau.vertices()],
                "count": count,
                "expected": expected,
            })

    return _validation_doc(True, msg, all(is_simplicial(p) for p in pieces),
                           v_violations, f_violations)


def dual_complex(part):
    """The `partition dual-complex` document {"vertices", "simplices",
    "dimension"}: one vertex per piece, and as simplices the piece subsets
    that meet, by size and then as index lists.  Needs a checked tiling: a
    subset then meets in a face of its first piece, which has a vertex when
    nonempty, so it is a subset of a vertex's owners."""
    simplices = sorted({s for owners in vertex_owners(part).values()
                        for r in range(1, len(owners) + 1)
                        for s in itertools.combinations(owners, r)},
                       key=lambda s: (len(s), s))
    return {"vertices": len(part.pieces),
            "simplices": [list(s) for s in simplices],
            "dimension": len(simplices[-1]) - 1}


def is_central(part):
    """The origin belongs to every piece."""
    origin = tuple(0 for _ in range(part.host.ambient_rank))
    return all(p.contains(origin) for p in part.pieces)


def gamma_vertices(part):
    """Vertices of the partition: piece vertices that are not host vertices."""
    return sorted({v for p in part.pieces for v in p.vertices}
                  - set(part.host.vertices))


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

def _balanced_range(bound):
    out = [0]
    for k in range(1, bound + 1):
        out.extend([-k, k])
    return out


def build_F_Gamma(part, bound):
    """The certificate of the lifting: a tuple of integral functionals, one
    per piece in piece order, that agree on walls and bend strictly across
    them, so F = min over pieces is concave and linear exactly on the pieces.

    The search scans the coefficient box [-bound, bound]^n, lazily at each
    level, so memory does not grow with the box.  Validity of an
    assignment (m_0, ..., m_r): for every ordered pair (i, j) and every
    vertex u of piece j, m_i(u) == m_j(u) when u lies in piece i and
    m_i(u) > m_j(u) otherwise.  Candidates are scanned in the balanced
    lexicographic order 0, -1, 1, -2, 2, ... so the first solution found is
    the canonical one.  Exhausting the box raises (which is not a disproof).
    """
    if not validate_semistable(part)["valid"]:
        raise PartitionError("build_F_Gamma needs a valid semi-stable partition")
    if not is_nonsingular(part):
        raise PartitionError("build_F_Gamma needs a non-singular partition")
    pieces = part.pieces
    n = part.host.ambient_rank
    coefficients = _balanced_range(bound)

    verts = [p.vertices for p in pieces]
    owners = vertex_owners(part)
    assignment = [None] * len(pieces)

    def compatible(j, mj):
        for i in range(j):
            mi = assignment[i]
            for u in verts[j] + verts[i]:
                vi, vj = dot(mi, u), dot(mj, u)
                if i in owners[u] and j in owners[u]:
                    ok = vi == vj
                elif j in owners[u]:
                    ok = vi > vj
                else:
                    ok = vj > vi
                if not ok:
                    return False
        return True

    def search(j):
        if j == len(pieces):
            return True
        for mj in itertools.product(coefficients, repeat=n):
            if compatible(j, mj):
                assignment[j] = mj
                if search(j + 1):
                    return True
        assignment[j] = None
        return False

    if not search(0):
        raise PartitionError(
            f"F_Gamma search exhausted the coefficient box [-{bound}, {bound}]^{n}")
    return tuple(assignment)


# ---------------------------------------------------------------------------
# Lifted polyhedron
# ---------------------------------------------------------------------------

def lifting_polyhedron(part, functionals):
    """The epigraph {(y, x) : x in host, y >= -F(x)} of the convex -F, for
    the concave F = min of the piece functionals (build_F_Gamma), in rank
    n + 1, as the `partition lift` document {"rank", "inequalities",
    "recession_rays", "vertices", "functionals"}.  Its inequalities,
    {"normal", "offset"} with <normal, (y, x)> >= -offset, are
    y >= -m_i(x) for every functional and then the host facets."""
    n = part.host.ambient_rank
    ineqs = []
    for m in functionals:
        ineqs.append(((1,) + tuple(m), 0))
    for nrm, off in part.host.facets:
        ineqs.append(((0,) + tuple(nrm), off))
    verts, rays = polyhedron_generators(ineqs, ambient_rank=n + 1)
    expected_ray = tuple([1] + [0] * n)
    if rays != [expected_ray]:
        raise PartitionError(f"unexpected recession cone {rays}")
    for x in verts:
        if any(v.denominator != 1 for v in x):
            raise PartitionError(f"non-lattice vertex {tuple(map(str, x))}")
    return {
        "rank": n + 1,
        "inequalities": [{"normal": list(nrm), "offset": o} for nrm, o in ineqs],
        "recession_rays": [list(expected_ray)],
        "vertices": sorted([int(v) for v in x] for x in verts),
        "functionals": [list(m) for m in functionals],
    }


# ---------------------------------------------------------------------------
# Central frame and fibration fans
# ---------------------------------------------------------------------------

class CentralFrame(namedtuple("CentralFrame", "l L_basis quotient v_quotient "
                                               "v_vectors sigma_v")):
    """L_basis: rows spanning the common-face direction lattice; quotient:
    rows of the projection M -> M / (M cap L); v_quotient: primitive
    quotient rays, one per piece (absent ray); v_vectors: primitive ambient
    representatives in L-perp; sigma_v: the complete simplicial fan of the
    projected pieces."""

    __slots__ = ()

    def project(self, x):
        return tuple(dot(q, x) for q in self.quotient)


def central_frame(part):
    """Span of the common face and the primitive vectors transverse to it.

    Every piece holds the origin, so every set of pieces meets and K_Gamma is
    the whole simplex on the r + 1 pieces: l = r.  The common face L holds
    the origin too, so its affine-hull equations are the Hermite basis of
    the saturated lattice orthogonal to L; that basis maps M onto
    Z^(n - dim L) with kernel M n L, so it is the quotient M / (M n L).

    The pieces project along the common face to a complete simplicial fan
    with l + 1 rays; the i-th distinguished vector is the unique ray absent
    from the projection of piece i, lifted primitively into the orthogonal
    complement of the common face.
    """
    if not validate_semistable(part)["valid"]:
        raise PartitionError("central_frame needs a valid semi-stable partition")
    if not is_central(part):
        raise PartitionError("central_frame needs a central partition")
    if not is_nonsingular(part):
        raise PartitionError("central_frame needs a non-singular partition")
    host = part.host
    l = len(part.pieces) - 1

    # the origin lies in every piece, so they meet in a face with vertices
    common = convex_hull([u for u, owners in vertex_owners(part).items()
                          if len(owners) == len(part.pieces)])
    if l + common.dim != host.dim:
        raise PartitionError(
            f"dim K_Gamma + dim(common face) = {l} + {common.dim} != {host.dim}")

    # the common face holds the origin, so the lattice points of its span
    # are the kernel of its equations
    q_rows = [q for q, _ in common.equations]
    L_rows = integer_kernel(q_rows) if q_rows else identity(host.ambient_rank)

    if l == 0:
        sigma_v = Fan(0, ())
        return CentralFrame(0, tuple(tuple(r) for r in L_rows), (), (), (),
                            sigma_v)

    cones = []
    for piece in part.pieces:
        qv = [tuple(dot(q, v) for q in q_rows) for v in piece.vertices]
        rays = [primitive(w) for w in qv if any(w)]
        try:
            cones.append(Cone.from_rays(rays, l))
        except FanError as exc:
            raise PartitionError(f"projected piece is not a pointed cone: {exc}")
    all_rays = sorted({r for c in cones for r in c.rays})
    if len(all_rays) != l + 1 or any(len(c.rays) != l for c in cones):
        raise PartitionError(
            f"projected pieces do not form a complete fan with {l + 1} rays "
            f"(got rays {all_rays})")
    # The projected cones come from the input pieces, so the ridge test
    # checks that they form a complete simplicial fan.  Two pieces that
    # project to one cone leave a ridge held once, so it fails then too.
    sigma_v = Fan.from_cones(cones, l)
    try:
        sigma_v.validate()
    except FanError as exc:
        raise PartitionError(f"projected pieces do not form a fan: {exc}")

    # each cone has l of the l + 1 rays, so it omits exactly one, and the
    # l + 1 cones of a complete fan on l + 1 rays omit each ray once
    v_quot = [next(r for r in all_rays if r not in c.rays) for c in cones]

    v_amb = []
    for r in v_quot:
        A = [list(row) for row in L_rows] + [list(q) for q in q_rows]
        b = [0] * len(L_rows) + list(r)
        x = solve(A, b)
        if x is None:
            raise PartitionError("no orthogonal representative for a ray")
        v_amb.append(primitive(integral_multiple([x])[0]))

    return CentralFrame(l, tuple(tuple(r) for r in L_rows),
                        tuple(q_rows), tuple(v_quot), tuple(v_amb), sigma_v)


class FibrationFans(namedtuple("FibrationFans", "sigma_delta sigma_prime "
                                                 "sigma_gamma sigma_v added_rays")):
    __slots__ = ()

    def to_doc(self):
        return {
            "sigma_delta": fan_to_doc(self.sigma_delta),
            "sigma_prime": fan_to_doc(self.sigma_prime),
            "sigma_gamma": fan_to_doc(self.sigma_gamma),
            "sigma_v": fan_to_doc(self.sigma_v),
            "added_rays": [list(r) for r in self.added_rays],
        }


def build_fibration_fans(part, frame):
    """The face fan, its boundary refinement, the wall subfan, and the
    projected fan of a central partition of a reflexive host (rank <= 3)."""
    host = part.host
    if host.ambient_rank > 3:
        raise PartitionError("fibration fans are implemented for rank <= 3 only")
    if not is_reflexive(host):
        raise PartitionError("fibration fans need a reflexive host")
    sigma_delta = face_fan(host)
    refined = refine_with_boundary_rays(host)

    # Star the refined cells at each new v_i.  Every cell is simplicial, so
    # Sigma_Gamma's cones, the faces of Sigma' with rays in L or among the
    # v_i, are the inclusion-maximal sets cell & allowed.
    cells = [c.rays for c in refined.maximal_cones]
    added = []
    for v in frame.v_vectors:
        if v not in refined.rays and v not in added:
            cells = star(cells, v)
            added.append(v)
    rank = host.ambient_rank
    sigma_prime = Fan.from_cones([Cone(tuple(sorted(c)), rank) for c in cells], rank)

    # the quotient rows cut out M n L, so a ray lies in L when it projects to 0
    in_L = {r for r in sigma_prime.rays if not any(frame.project(r))}
    allowed = in_L | set(frame.v_vectors)
    walls = {frozenset(c) & allowed for c in cells} - {frozenset()}
    sigma_gamma = Fan.from_cones([Cone(tuple(sorted(s)), rank) for s in walls
                                  if not any(s < t for t in walls)], rank)
    return FibrationFans(sigma_delta, sigma_prime, sigma_gamma, frame.sigma_v,
                         tuple(added))


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def partition_from_doc(doc, resolve_polytope):
    host = host_from_doc(doc, resolve_polytope)
    pieces = []
    for i, piece in enumerate(read_field(doc, "pieces", list)):
        points = read_points(piece, f"pieces[{i}]", host.ambient_rank)
        if not points:
            raise InputError(f"pieces[{i}]", "no points")
        pieces.append(convex_hull(points))
    read_keys(doc, "", {"polytope", "pieces"})
    return SemistablePartition(host, tuple(pieces))
