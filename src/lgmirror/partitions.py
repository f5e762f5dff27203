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
    is_simplicial,
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
    vertices, read off its mask in p.incidence.  Two pieces that hold the
    same wall with opposite (a, o) lie on the two sides of its hyperplane,
    so they meet in exactly that facet, a proper face of both, and are not
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
    walls = {}  # wall vertices, in lex order -> [(piece, inward normal)]
    for i, p in enumerate(pieces):
        for facet, s in zip(p.facets, p.incidence):
            if facet not in boundary:
                walls.setdefault(tuple(v for k, v in enumerate(p.vertices) if s >> k & 1),
                                 []).append((i, facet[0]))
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
    # the partition faces once each, by their vertices (in lex order)
    gamma = {f.vertices(): f.dimension for p in pieces for f in p.all_faces()}
    for points, l in sorted(gamma.items()):
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

def _bends(owners, functionals):
    """The strict half of the certificate check: at every piece vertex u,
    the functional of each piece that does not hold u exceeds that of the
    pieces that do.  Given that the holders of u agree on it, F = min m_i is
    then m_j on piece j and bends across every wall."""
    for u, holders in owners.items():
        values = [dot(m, u) for m in functionals]
        low = values[holders[0]]
        if any(v <= low for i, v in enumerate(values) if i not in holders):
            return False
    return True


def _lifting_owners(part, who):
    """vertex_owners(part), once the partition is valid, central and
    non-singular; else raise, naming the first of these that fails.  The
    origin is checked before smoothness, as its message names a facet the
    origin fails; the pieces are full-dimensional, as the partition is valid."""
    if not validate_semistable(part)["valid"]:
        raise PartitionError(f"{who} needs a valid semi-stable partition")
    for i, p in enumerate(part.pieces):
        for a, o in p.facets:
            if o < 0:
                raise PartitionError(
                    f"{who} needs a central partition: piece {i} misses the "
                    f"origin, which fails its facet <{list(a)}, x> >= {-o}")
    if not is_nonsingular(part):
        raise PartitionError(f"{who} needs a non-singular partition")
    return vertex_owners(part)


def build_F_Gamma(part):
    """The certificate of the lifting: a tuple of integral functionals, one
    per piece in piece order, that agree on walls and bend strictly across
    them, so F = min over pieces is concave and linear exactly on the pieces.

    Only a central partition has one.  A piece that misses the origin has a
    facet <a, x> >= -o with o < 0.  When the host holds the origin that
    facet is a wall, held from its other side by a second piece, and its
    hyperplane misses the origin, so it spans the space linearly: the forms
    of the two pieces agree on it, hence are equal, and nothing bends there.

    On a central, non-singular partition the pieces are L plus the cones of
    a complete simplicial fan on M / L with l + 1 rays (central_frame).  The
    continuous functions linear on each piece are linear forms plus the
    pull-backs of piecewise-linear functions on that fan, which modulo
    linear forms make a space of dimension (l + 1) - l = 1.  So with m_0 = 0
    the tuples whose holders agree on every piece vertex are a saturated
    lattice of rank 1, the integer kernel of those equations.  Every
    certificate minus its m_0 lies in it, and exactly one sign of its
    primitive generator bends (_bends): that tuple is the certificate.
    """
    owners = _lifting_owners(part, "build_F_Gamma")
    pieces = part.pieces
    n = part.host.ambient_rank
    if len(pieces) == 1:
        return ((0,) * n,)

    # one row m_i(u) - m_j(u) = 0 per vertex u and further holder j, over
    # the unknowns m_1, ..., m_r (m_0 = 0 drops the first n columns)
    rows = []
    for u, (i, *others) in owners.items():
        for j in others:
            row = [0] * (n * len(pieces))
            row[n * i:n * i + n] = u
            row[n * j:n * j + n] = [-x for x in u]
            rows.append(row[n:])
    kernel = integer_kernel(rows)
    if len(kernel) == 1:
        g = (0,) * n + tuple(kernel[0])
        for s in (1, -1):
            functionals = tuple(tuple(s * x for x in g[k:k + n])
                                for k in range(0, len(g), n))
            if _bends(owners, functionals):
                return functionals
    raise AssertionError(
        f"the wall equations of a central non-singular partition have a "
        f"kernel of rank {len(kernel)} and no certificate in it")


# ---------------------------------------------------------------------------
# Lifted polyhedron
# ---------------------------------------------------------------------------

def lifting_polyhedron(part, functionals):
    """The epigraph {(y, x) : x in host, y >= -F(x)} of the convex -F, for
    the concave F = min of the piece functionals (build_F_Gamma), in rank
    n + 1, as the `partition lift` document {"rank", "inequalities",
    "recession_rays", "vertices", "functionals"}.  Its inequalities,
    {"normal", "offset"} with <normal, (y, x)> >= -offset, are
    y >= -m_i(x) for every functional and then the host facets.

    The functionals are build_F_Gamma's certificate, so F is linear exactly
    on the pieces: the bounded faces of the epigraph are the lifts of the
    faces of the pieces.  Its vertices are (-F(u), u) for every piece
    vertex u, and its recession cone is the vertical ray."""
    n = part.host.ambient_rank
    ineqs = [((1,) + tuple(m), 0) for m in functionals]
    ineqs += [((0,) + tuple(nrm), off) for nrm, off in part.host.facets]
    verts = {u for p in part.pieces for u in p.vertices}
    return {
        "rank": n + 1,
        "inequalities": [{"normal": list(nrm), "offset": o} for nrm, o in ineqs],
        "recession_rays": [[1] + [0] * n],
        "vertices": sorted([-min(dot(m, u) for m in functionals), *u]
                           for u in verts),
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
    the saturated lattice orthogonal to its vertices; that basis maps M onto
    Z^(n - dim L) with kernel M n L, so it is the quotient M / (M n L).

    The pieces project along the common face to a complete simplicial fan
    with l + 1 rays; the i-th distinguished vector is the unique ray absent
    from the projection of piece i, lifted primitively into the orthogonal
    complement of the common face.
    """
    owners = _lifting_owners(part, "central_frame")
    host = part.host
    l = len(part.pieces) - 1

    # the origin lies in every piece, so they meet in a face with vertices,
    # and the lattice points of its span are the kernel of its equations
    q_rows = [tuple(q) for q in integer_kernel(
        [u for u, holders in owners.items() if len(holders) == len(part.pieces)])]
    common_dim = host.ambient_rank - len(q_rows)
    if l + common_dim != host.dim:
        raise PartitionError(
            f"dim K_Gamma + dim(common face) = {l} + {common_dim} != {host.dim}")
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
    # The projected cones come from the input pieces, so the ridge test
    # checks that they form a complete simplicial fan.  Two pieces that
    # project to one cone leave a ridge held once, so it fails then too.
    sigma_v = Fan.from_cones(cones, l)
    try:
        sigma_v.validate()
    except FanError as exc:
        raise PartitionError(f"projected pieces do not form a fan: {exc}")

    # Past validate the fan is complete and simplicial: at most l + 1 cones,
    # one per piece, of l rays each.  A ray's link is a complete fan in rank
    # l - 1, of at least l cones, so each ray lies in at least l cones and
    # there are at most as many rays as cones.  The rays positively span
    # rank l, so there are at least l + 1: l + 1 rays and l + 1 cones, each
    # ray in l of them, so each cone omits one ray and each ray is omitted once.
    v_quot = [next(r for r in sigma_v.rays if r not in c.rays) for c in cones]

    # bases of L and of its orthogonal complement: the stacked matrix is invertible
    A = [list(row) for row in L_rows] + [list(q) for q in q_rows]
    b0 = [0] * len(L_rows)
    v_amb = [primitive(integral_multiple([solve(A, b0 + list(r))])[0]) for r in v_quot]

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
    projected fan of a central partition.  The host's rank and reflexivity
    are the fan builders' to check: face_fan and refine_with_boundary_rays
    raise FanError on a host they do not support."""
    host = part.host
    sigma_delta = face_fan(host)
    refined = refine_with_boundary_rays(host)

    # Star the refined cells at each v_i that is not a ray yet (the v_i are
    # distinct: central_frame lifts distinct rays).  Every cell is simplicial,
    # so Sigma_Gamma's cones, the faces of Sigma' with rays in L or among the
    # v_i, are the inclusion-maximal sets cell & allowed.
    cells = [c.rays for c in refined.maximal_cones]
    added = []
    for v in frame.v_vectors:
        if v not in refined.rays:
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
