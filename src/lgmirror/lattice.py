"""Exact lattice-polytope primitives.

Polytopes are stored with both a V-representation (lexicographically sorted
integer vertices) and an H-representation (primitive inward normals with
integer offsets, inequality ``<normal, x> >= -offset``), plus affine-hull
equations when the polytope is not full-dimensional.  All arithmetic is
integer or rational; coordinates are desk-scale (|x| <= ~10, rank <= 4).

Every V/H conversion goes through one integer double-description routine,
cone_generators: convex_hull asks it for the cone of valid inequalities of
the points, polytope_from_inequalities and recession_rays for the
homogenised inequality system (polyhedron_generators).

Each polytope carries an ambient-lattice tag ("M" or "N").  Polar duality
flips the tag; nothing else consumes it, but keeping it explicit avoids the
silent M/N identifications the source constructions are prone to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .linalg import (
    det,
    dot,
    identity,
    integer_kernel,
    primitive,
    rank as mat_rank,
    solve,
    vec_sub,
)


class LatticeError(ValueError):
    """Raised when an operation's lattice-geometric precondition fails."""


def _dedupe(points):
    seen = []
    known = set()
    for p in points:
        t = tuple(p)
        if t not in known:
            known.add(t)
            seen.append(t)
    return seen


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    diffs = [list(vec_sub(p, points[0])) for p in points[1:]]
    return mat_rank(diffs)


def saturated_direction_basis(points):
    """Basis of the saturated lattice of directions spanned by the points.

    Every lattice point of the affine hull has integer coordinates in this
    basis, unlike the lattice generated by vertex differences alone.
    """
    n = len(points[0])
    diffs = [list(vec_sub(p, points[0])) for p in points[1:]]
    ann = integer_kernel(diffs)
    if not ann:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return integer_kernel(ann)


@dataclass(frozen=True)
class LatticePolytope:
    """Convex lattice polytope with consistent V- and H-representations."""

    ambient_rank: int
    vertices: tuple          # tuple of integer coordinate tuples, lex sorted
    facets: tuple            # tuple of (normal tuple, offset int)
    equations: tuple = ()    # tuple of (normal tuple, value int): <n,x> == value
    lattice: str = "M"
    name: str = ""

    @property
    def dim(self):
        return self.ambient_rank - len(self.equations)

    def is_full_dimensional(self):
        return self.dim == self.ambient_rank

    def contains(self, point):
        if any(dot(n, point) != c for n, c in self.equations):
            return False
        return all(dot(n, point) >= -o for n, o in self.facets)

    def contains_strictly(self, point):
        """Membership in the ambient-topology interior (full-dim only)."""
        if not self.is_full_dimensional():
            return False
        return all(dot(n, point) > -o for n, o in self.facets)

    def contains_relatively(self, point):
        """Membership in the relative interior."""
        if any(dot(n, point) != c for n, c in self.equations):
            return False
        return all(dot(n, point) > -o for n, o in self.facets)

    def vertex_set(self):
        return set(self.vertices)

    def with_name(self, name):
        return LatticePolytope(self.ambient_rank, self.vertices, self.facets,
                               self.equations, self.lattice, name)

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.ambient_rank == other.ambient_rank
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_rank, self.vertices))


@dataclass(frozen=True)
class Face:
    """A face of a polytope, recorded by vertex indices."""

    polytope: LatticePolytope
    vertex_indices: tuple
    dimension: int

    def vertices(self):
        return tuple(self.polytope.vertices[i] for i in self.vertex_indices)


def convex_hull(points, lattice="M", name=""):
    """Convex hull of integer points; minimal V-rep plus H-rep.

    Non-full-dimensional hulls are first-class: the affine hull is emitted
    as equations and the facets cut the polytope out inside it.
    """
    pts = _dedupe(points)
    if not pts:
        raise LatticeError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise LatticeError("points of mixed ambient rank")

    p0 = pts[0]
    diffs = [list(vec_sub(p, p0)) for p in pts[1:]]
    # Affine-hull equations: integer kernel rows r with r.(x - p0) = 0.
    ann = integer_kernel(diffs) if diffs else identity(n)
    equations = tuple((tuple(r), dot(r, p0)) for r in ann)
    d = n - len(ann)
    if d == 0:
        return LatticePolytope(n, (tuple(p0),), (), equations, lattice, name)

    # The facets <a, x> >= m are the extreme rays (m, a), a != 0, of the cone
    # of valid inequalities {(m, a) : <a, p> - m >= 0 for every point p}; the
    # one other ray, (-1, 0), is the trivial inequality 0 >= -1.  Asking a to
    # be orthogonal to the equations picks the normal in the direction space.
    rays, _ = cone_generators([(-1,) + p for p in sorted(pts)], n + 1,
                              [(0,) + tuple(r) for r in ann])
    facets = sorted((r[1:], -r[0]) for r in rays if any(r[1:]))

    # Vertices: points whose tight facet normals span the direction space.
    verts = []
    for p in pts:
        tight = [list(a) for a, o in facets if dot(a, p) == -o]
        if tight and mat_rank(tight) == d:
            verts.append(tuple(p))
    verts.sort()
    return LatticePolytope(n, tuple(verts), tuple(facets), equations, lattice, name)


def faces(p, l):
    """All l-faces of p, via closure of facet vertex sets under intersection."""
    if l < 0 or l > p.dim:
        raise LatticeError(f"face dimension {l} out of range for dim {p.dim}")
    return [f for f in face_lattice(p) if f.dimension == l]


def face_lattice(p):
    """Every nonempty face of p (including p itself), deterministically ordered."""
    nverts = len(p.vertices)
    full = frozenset(range(nverts))
    facet_sets = []
    for nrm, o in p.facets:
        facet_sets.append(frozenset(i for i, v in enumerate(p.vertices)
                                    if dot(nrm, v) == -o))
    all_sets = {full}
    frontier = set(facet_sets)
    all_sets |= frontier
    while frontier:
        new = set()
        for s in frontier:
            for f in facet_sets:
                t = s & f
                if t and t not in all_sets:
                    new.add(t)
        all_sets |= new
        frontier = new
    out = []
    for s in sorted(all_sets, key=lambda s: (len(s), sorted(s))):
        vs = [p.vertices[i] for i in s]
        out.append(Face(p, tuple(sorted(s)), _affine_rank(vs)))
    return out


def bounding_box(p):
    los = [min(v[i] for v in p.vertices) for i in range(p.ambient_rank)]
    his = [max(v[i] for v in p.vertices) for i in range(p.ambient_rank)]
    return los, his


def lattice_points(p):
    """All lattice points of p, by bounding-box scan and membership test."""
    los, his = bounding_box(p)
    out = []
    for q in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        if p.contains(q):
            out.append(q)
    return sorted(out)


def interior_lattice_points(p):
    """Lattice points interior to p in the ambient topology.

    Empty for non-full-dimensional polytopes; use
    relative_interior_lattice_points for the relative interior.
    """
    if not p.is_full_dimensional():
        return []
    return [q for q in lattice_points(p) if p.contains_strictly(q)]


def relative_interior_lattice_points(p):
    return [q for q in lattice_points(p) if p.contains_relatively(q)]


def boundary_lattice_points(p):
    return [q for q in lattice_points(p) if not p.contains_relatively(q)]


def is_reflexive(p):
    """True iff p is full-dimensional with 0 interior and all facet offsets 1."""
    origin = tuple(0 for _ in range(p.ambient_rank))
    if not p.is_full_dimensional() or not p.contains_strictly(origin):
        return False
    return all(o == 1 for _, o in p.facets)


def reflexivity_diagnostic(p):
    origin = tuple(0 for _ in range(p.ambient_rank))
    if not p.is_full_dimensional():
        return "not full-dimensional"
    if not p.contains_strictly(origin):
        return "origin is not an interior point"
    bad = [f for f in p.facets if f[1] != 1]
    if bad:
        return f"facet offsets differ from 1: {bad}"
    return "reflexive"


def polar_dual(p):
    """Polar dual of a reflexive polytope; vertices are the facet normals."""
    if not is_reflexive(p):
        raise LatticeError(f"polar dual requires a reflexive polytope: "
                           f"{reflexivity_diagnostic(p)}")
    other = "N" if p.lattice == "M" else "M"
    return convex_hull([n for n, _ in p.facets], lattice=other,
                       name=f"{p.name}*" if p.name else "")


def _vertex_edge_dirs(p, v):
    dirs = []
    for f in faces(p, 1):
        vs = f.vertices()
        if v in vs:
            w = vs[0] if vs[1] == v else vs[1]
            dirs.append(primitive(vec_sub(w, v)))
    return dirs


def is_simplicial(p):
    """Exactly dim-many edges at every vertex (the simple/orbifold condition)."""
    if not p.is_full_dimensional():
        raise LatticeError("simpliciality check needs a full-dimensional polytope")
    return all(len(_vertex_edge_dirs(p, v)) == p.dim for v in p.vertices)


def is_smooth(p):
    """Simplicial with the primitive edge directions a lattice basis at each vertex."""
    if not p.is_full_dimensional():
        raise LatticeError("smoothness check needs a full-dimensional polytope")
    for v in p.vertices:
        dirs = _vertex_edge_dirs(p, v)
        if len(dirs) != p.dim:
            return False
        if abs(det(dirs)) != 1:
            return False
    return True


def vertex_is_smooth(p, v):
    dirs = _vertex_edge_dirs(p, v)
    return len(dirs) == p.dim and abs(det(dirs)) == 1


def minkowski_sum(a, b):
    if a.ambient_rank != b.ambient_rank:
        raise LatticeError("Minkowski sum of polytopes of different ambient rank")
    sums = [tuple(x + y for x, y in zip(u, v))
            for u in a.vertices for v in b.vertices]
    return convex_hull(sums, lattice=a.lattice)


def normalized_volume(p):
    """Lattice-normalized volume (d! times Euclidean volume), an integer."""
    d = p.dim
    if d == 0:
        return 1
    verts = list(p.vertices)
    if not p.is_full_dimensional():
        # Work in coordinates of the saturated direction lattice so the
        # normalization agrees with the induced lattice on the affine hull.
        basis = saturated_direction_basis(verts)
        coords = []
        for v in verts:
            y = solve([[basis[j][i] for j in range(len(basis))]
                       for i in range(p.ambient_rank)], vec_sub(v, verts[0]))
            coords.append(tuple(int(x) for x in y))
        q = convex_hull(coords)
        return normalized_volume(q)
    total = 0
    for simplex in _triangulate(p):
        rows = [list(vec_sub(v, simplex[0])) for v in simplex[1:]]
        total += abs(det(rows))
    return int(total)


def _triangulate(p):
    """Simplices (vertex tuples) triangulating p, by pulling the first vertex."""
    d = p.dim
    verts = p.vertices
    if len(verts) == d + 1:
        return [verts]
    v0 = verts[0]
    out = []
    for f in faces(p, d - 1):
        if v0 in f.vertices():
            continue
        sub = convex_hull(f.vertices(), lattice=p.lattice)
        for s in _triangulate(sub):
            out.append((v0,) + s)
    return out


def cone_generators(rows, n, equations=()):
    """Extreme rays and lineality basis of a polyhedral cone in Q^n.

    The cone is {x : <a, x> >= 0 for a in rows, <e, x> = 0 for e in
    equations}; every entry must be an int.  Double description (Motzkin et
    al. 1953; Fukuda & Prodon 1996): start from the whole space (lineality
    basis e_1..e_n, no rays) and add one constraint at a time.  A constraint
    that is not zero on the lineality space cuts it down by projecting
    along one lineality vector.  Otherwise rays on the wrong side are
    dropped, and a pair of rays on opposite sides is combined exactly when
    no third ray is tight on every constraint the two share (the
    combinatorial adjacency test).  Rays stay primitive integer vectors and
    no division happens.  Returns (rays, lineality), both lists of int
    tuples; an empty cone gives ([], []).
    """
    cons = ([(tuple(e), False) for e in equations]
            + [(tuple(a), True) for a in rows])
    for a, _ in cons:
        if len(a) != n or not all(type(x) is int for x in a):
            raise TypeError(f"cone_generators: row {a!r} is not {n} ints")
    lin = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays = []  # (primitive ray, bitmask of the constraints it is tight on)
    for k, (a, inequality) in enumerate(cons):
        bit = 1 << k
        vals = [dot(a, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            # Project along l0, oriented so that <a, l0> = s > 0.
            s = abs(vals[j])
            l0 = lin[j] if vals[j] > 0 else tuple(-x for x in lin[j])
            lin = [primitive([s * x - v * y for x, y in zip(l, l0)])
                   for i, (l, v) in enumerate(zip(lin, vals)) if i != j]
            rays = [(primitive([s * x - dot(a, r) * y for x, y in zip(r, l0)]),
                     z | bit) for r, z in rays]
            if inequality:
                rays.append((l0, bit - 1))
            continue
        vals = [dot(a, r) for r, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        kept = [(r, z | bit) for (r, z), v in zip(rays, vals) if v == 0]
        if inequality:
            kept += [rays[i] for i in pos]
        need = n - len(lin) - 2
        for i in pos:
            p, zp = rays[i]
            for j in neg:
                q, zq = rays[j]
                common = zp & zq
                if common.bit_count() < need or any(
                        z & common == common for t, (_, z) in enumerate(rays)
                        if t != i and t != j):
                    continue
                vp, vq = vals[i], -vals[j]
                kept.append((primitive([vp * y + vq * x for x, y in zip(p, q)]),
                             common | bit))
        rays = kept
    return [r for r, _ in rays], lin


def polyhedron_generators(ineqs, equations=(), ambient_rank=None):
    """(vertices, recession generators) of a system of (normal, offset)
    inequalities <normal, x> >= -offset and (normal, value) equations.

    One cone_generators call on the homogenised system in (x, t), t >= 0:
    rays with t > 0 are the vertices (Fraction tuples), rays with t = 0 the
    extreme recession rays, and the lineality comes back as +/- pairs.  No
    vertex means the system is infeasible.
    """
    if ambient_rank is None:
        ambient_rank = len(ineqs[0][0]) if ineqs else len(equations[0][0])
    rows = [tuple(a) + (o,) for a, o in ineqs] + [(0,) * ambient_rank + (1,)]
    eqs = [tuple(a) + (-c,) for a, c in equations]
    rays, lin = cone_generators(rows, ambient_rank + 1, eqs)
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays if r[-1]]
    rec = [r[:-1] for r in rays if not r[-1]]
    return verts, rec + [tuple(s * x for x in l[:-1]) for l in lin for s in (1, -1)]


def polytope_from_inequalities(ineqs, equations=(), ambient_rank=None, lattice="M"):
    """Bounded polytope from inequalities (normal, offset) and equations.

    Raises LatticeError when the region is unbounded or empty.  Vertices are
    required to be lattice points; a rational vertex is reported, since every
    consumer in this package expects lattice output.
    """
    verts, rec = polyhedron_generators(ineqs, equations, ambient_rank)
    if rec:
        raise LatticeError("inequality system is unbounded")
    if not verts:
        raise LatticeError("inequality system is infeasible")
    for x in verts:
        if any(v.denominator != 1 for v in x):
            raise LatticeError(f"non-lattice vertex {tuple(map(str, x))}")
    return convex_hull([tuple(int(v) for v in x) for x in verts], lattice=lattice)


def recession_rays(ineqs, equations=(), ambient_rank=None):
    """Primitive extreme rays of the recession cone of an inequality system,
    with its lineality as +/- pairs."""
    return polyhedron_generators(ineqs, equations, ambient_rank)[1]


def intersect(a, b):
    """Intersection polytope of a and b (possibly lower-dimensional), or None."""
    ineqs = list(a.facets) + list(b.facets)
    eqs = list(a.equations) + list(b.equations)
    try:
        return polytope_from_inequalities(ineqs, eqs, a.ambient_rank, a.lattice)
    except LatticeError as exc:
        if "infeasible" in str(exc):
            return None
        raise


def is_face_of(f, p):
    """Is polytope f a face of polytope p (vertex sets compared exactly)?"""
    fv = set(f.vertices)
    for face in face_lattice(p):
        if set(face.vertices()) == fv:
            return True
    return False


# ---------------------------------------------------------------------------
# Rank-2 specifics: boundary cycles, unimodular normal form, classification.
# ---------------------------------------------------------------------------

def _angular_cmp(a, b):
    def quadrant(p):
        x, y = p
        if x > 0 and y >= 0:
            return 0
        if x <= 0 and y > 0:
            return 1
        if x < 0 and y <= 0:
            return 2
        return 3
    qa, qb = quadrant(a), quadrant(b)
    if qa != qb:
        return qa - qb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def boundary_cycle(p):
    """Boundary lattice points of a reflexive polygon in counterclockwise order."""
    if p.ambient_rank != 2 or not is_reflexive(p):
        raise LatticeError("boundary cycle requires a reflexive polygon")
    pts = boundary_lattice_points(p)
    return sorted(pts, key=cmp_to_key(_angular_cmp))


def polygon_normal_form(p):
    """Canonical GL(2,Z)-invariant of a reflexive polygon.

    Consecutive boundary lattice points span a unimodular basis; mapping each
    such pair to the standard basis and minimizing over start points and
    orientation gives a complete equivalence invariant.
    """
    cyc = boundary_cycle(p)
    mirrored = [( -q[0], q[1]) for q in reversed(cyc)]
    best = None
    for seq in (cyc, mirrored):
        B = len(seq)
        for i in range(B):
            a, b = seq[i], seq[(i + 1) % B]
            det = a[0] * b[1] - a[1] * b[0]
            if det != 1:
                raise LatticeError("boundary cycle is not unimodular")
            U = ((b[1], -b[0]), (-a[1], a[0]))
            img = tuple(
                (U[0][0] * q[0] + U[0][1] * q[1], U[1][0] * q[0] + U[1][1] * q[1])
                for q in (seq[(i + k) % B] for k in range(B)))
            if best is None or img < best:
                best = img
    return best


_polygon_cache = {}


def reflexive_polygons(box=3):
    """All reflexive polygons up to unimodular equivalence (there are 16).

    Enumerates counterclockwise cycles of primitive lattice vectors with
    consecutive determinants 1 and convex turning, which are exactly the
    boundary lattice point cycles of reflexive polygons (a polygon with a
    single interior lattice point is reflexive in rank 2, every boundary
    point is primitive, and consecutive boundary points span unimodularly).
    Cycles visit directions in strictly increasing counterclockwise order,
    which the search enforces; results are deduplicated by normal form.
    """
    if box in _polygon_cache:
        return list(_polygon_cache[box])
    prims = [(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
             if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1]
    prims.sort()
    succ = {a: [b for b in prims if a[0] * b[1] - a[1] * b[0] == 1] for a in prims}

    def ccw_rank_from(base):
        def key(u):
            cr = base[0] * u[1] - base[1] * u[0]
            if cr > 0:
                half = 0
            elif cr == 0:
                half = 1  # opposite ray; same direction cannot occur
            else:
                half = 2
            return half

        def cmp(u, v):
            hu, hv = key(u), key(v)
            if hu != hv:
                return hu - hv
            cr = u[0] * v[1] - u[1] * v[0]
            return -1 if cr > 0 else (1 if cr < 0 else 0)

        order = sorted((u for u in prims if u != base), key=cmp_to_key(cmp))
        return {u: i for i, u in enumerate(order)}

    found = {}

    def close_ok(chain):
        p0 = chain[0]
        last, prev = chain[-1], chain[-2]
        if last[0] * p0[1] - last[1] * p0[0] != 1:
            return False
        e_prev = vec_sub(last, prev)
        e_close = vec_sub(p0, last)
        e_first = vec_sub(chain[1], p0)
        cr1 = e_prev[0] * e_close[1] - e_prev[1] * e_close[0]
        cr2 = e_close[0] * e_first[1] - e_close[1] * e_first[0]
        return cr1 >= 0 and cr2 >= 0

    # One boundary point of every reflexive polygon is its lex-smallest
    # boundary point; fixing it as the start makes each cycle unique.
    for p0 in prims:
        rank_from = ccw_rank_from(p0)
        stack = [[p0]]
        while stack:
            chain = stack.pop()
            if len(chain) >= 3 and close_ok(chain):
                poly = convex_hull(chain)
                if is_reflexive(poly) and \
                        set(boundary_lattice_points(poly)) == set(chain):
                    found.setdefault(polygon_normal_form(poly), poly)
            if len(chain) >= 9:  # a reflexive polygon has at most 9 boundary points
                continue
            last = chain[-1]
            for q in succ[last]:
                if q <= p0:
                    continue
                if len(chain) >= 2:
                    if rank_from[q] <= rank_from[last]:
                        continue
                    e_prev = vec_sub(last, chain[-2])
                    e_new = vec_sub(q, last)
                    if e_prev[0] * e_new[1] - e_prev[1] * e_new[0] < 0:
                        continue
                stack.append(chain + [q])
    result = [found[k] for k in sorted(found)]
    _polygon_cache[box] = result
    return list(result)


def apply_unimodular(p, U, shift=None):
    """Image of p under an integer matrix U (rows), optionally translated."""
    imgs = []
    for v in p.vertices:
        w = tuple(dot(row, v) for row in U)
        if shift:
            w = tuple(a + b for a, b in zip(w, shift))
        imgs.append(w)
    return convex_hull(imgs, lattice=p.lattice)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def polytope_to_doc(p):
    return {
        "name": p.name,
        "rank": p.ambient_rank,
        "vertices": [list(v) for v in p.vertices],
        "facets": [{"normal": list(n), "offset": o} for n, o in p.facets],
    }


def polytope_from_doc(doc):
    if "vertices" not in doc or "rank" not in doc:
        raise LatticeError("polytope document needs 'rank' and 'vertices'")
    verts = [tuple(int(x) for x in v) for v in doc["vertices"]]
    if any(len(v) != doc["rank"] for v in verts):
        raise LatticeError("vertex length does not match declared rank")
    return convex_hull(verts, name=doc.get("name", ""))
