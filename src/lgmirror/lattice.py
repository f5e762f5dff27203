"""Exact lattice-polytope primitives.

Polytopes are stored with both a V-representation (lexicographically sorted
integer vertices) and an H-representation (primitive inward normals with
integer offsets, inequality ``<normal, x> >= -offset``), plus affine-hull
equations when the polytope is not full-dimensional.  All arithmetic is
integer or rational.

Every V/H conversion goes through one integer double-description routine,
cone_generators: convex_hull asks it for the cone of valid inequalities of
the points, polytope_from_inequalities, intersect and recession_rays for
the homogenised inequality system (polyhedron_generators).  It returns each
ray with the bitmask of the constraints tight on it: for convex_hull, a
facet with the points on it; and the lineality, for convex_hull the affine
hull of the points, zero exactly when they are full-dimensional.  convex_hull
reads the vertices off the masks and keeps the facet-vertex incidence on
the polytope, one vertex mask per facet.  polar_dual reads the polar off
the facets, vertices and transposed incidence of its reflexive polytope.
Every face query reads one face lattice per polytope, built on vertex masks
by face_lattice on first use and kept, keyed by mask (LatticePolytope.face).
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import and_

from .linalg import (
    det,
    dot,
    integer_kernel,
    primitive,
    vec_sub,
)


class LatticeError(ValueError):
    """Raised when an operation's lattice-geometric precondition fails."""


class InputError(ValueError):
    """A malformed input document; path is the JSON path of the bad field."""

    def __init__(self, path, message):
        super().__init__(f"{path or 'document'}: {message}")
        self.path = path


def read_field(doc, key, *kinds, path=""):
    """doc[key] of a JSON object, of exactly one of the types kinds (so
    True is not an int), or InputError naming the path."""
    if type(doc) is not dict:
        raise InputError(path, f"expected an object, got {type(doc).__name__}")
    if type(v := doc.get(key)) in kinds:
        return v
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise InputError(where, "missing")
    names = " or ".join(k.__name__ for k in kinds)
    raise InputError(where, f"expected {names}, got {doc[key]!r}")


def read_keys(doc, path, keys):
    """Reject the first key of the JSON object doc at path that is not in
    keys, the set its reader knows.  Readers call it once the known keys
    are read, so a document of another kind keeps its first error."""
    if not keys.issuperset(doc):
        key = next(k for k in doc if k not in keys)
        raise InputError(path, f"unknown key {key!r}")


def read_int(x, path):
    """x if it is a true int; a float or a bool is an InputError, never
    truncated or coerced."""
    if type(x) is not int:
        raise InputError(path, f"expected an int, got {x!r}")
    return x


def read_list(items, path, read_item=read_int):
    """A JSON list as a tuple, each item read by read_item(item, its path);
    by default a list of ints."""
    if type(items) is not list:
        raise InputError(path, f"expected a list, got {items!r}")
    if read_item is read_int and all(type(x) is int for x in items):
        return tuple(items)  # the common case, without a path per item
    return tuple(read_item(x, f"{path}[{i}]") for i, x in enumerate(items))


def read_count(x, path):
    """A dimension or a component index: an int >= 0."""
    if read_int(x, path) < 0:
        raise InputError(path, f"expected an int >= 0, got {x!r}")
    return x


def read_index_set(I, path, components=None):
    """A JSON list of component indices, ints >= 0 without repeats, as a
    frozenset.  Given the number of components, the list must also be
    nonempty and below that number."""
    if not all(type(i) is int and i >= 0 for i in I):
        read_list(I, path, read_count)  # raises, naming the first bad index
    if components is not None and not I:
        raise InputError(path, "empty index set")
    for j, i in enumerate(I):
        if components is not None and i >= components:
            raise InputError(f"{path}[{j}]", f"expected an index below "
                             f"{components} components, got {i}")
        if i in I[:j]:
            raise InputError(f"{path}[{j}]", f"repeats index {i}")
    return frozenset(I)


def read_points(items, path, rank):
    """A JSON list of lattice points, each a list of `rank` ints."""
    def point(x, where):
        x = read_list(x, where)
        if len(x) != rank:
            raise InputError(where, f"has {len(x)} coordinates, rank is {rank}")
        return x
    return read_list(items, path, point)


def host_from_doc(doc, resolve_polytope):
    """doc["polytope"]: a polytope document, or the name of one that
    resolve_polytope loads."""
    poly = read_field(doc, "polytope", str, dict)
    if type(poly) is dict:
        return polytope_from_doc(poly, "polytope")
    return resolve_polytope(poly)


class LatticePolytope:
    """Convex lattice polytope with consistent V- and H-representations.

    Equal, and hashed alike, when ambient_rank and vertices agree.  A field
    cannot be assigned; the face lattice is kept in _faces and _by_mask.
    """

    __slots__ = ("ambient_rank", "vertices", "facets", "equations", "name",
                 "incidence", "_faces", "_by_mask")

    def __init__(self, ambient_rank, vertices, facets, equations=(), name="",
                 incidence=()):
        put = object.__setattr__
        put(self, "ambient_rank", ambient_rank)
        put(self, "vertices", vertices)    # integer coordinate tuples, lex sorted
        put(self, "facets", facets)        # (normal tuple, offset int) pairs
        put(self, "equations", equations)  # (normal tuple, value int): <n,x> == value
        put(self, "name", name)
        # incidence[i]: the vertices on facets[i], bit k set for vertex k
        put(self, "incidence", incidence)
        put(self, "_faces", None)
        put(self, "_by_mask", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"LatticePolytope(ambient_rank={self.ambient_rank!r}, "
                f"vertices={self.vertices!r}, facets={self.facets!r}, "
                f"equations={self.equations!r}, name={self.name!r})")

    def all_faces(self):
        """Every nonempty face, built by face_lattice on first use and kept."""
        if self._faces is None:
            object.__setattr__(self, "_faces", tuple(face_lattice(self)))
        return self._faces

    def face(self, mask):
        """The face of vertex mask `mask` (bit k for vertex k), by one lookup."""
        if self._by_mask is None:
            object.__setattr__(self, "_by_mask", {
                sum(1 << k for k in f.vertex_indices): f for f in self.all_faces()})
        return self._by_mask[mask]

    @property
    def dim(self):
        return self.ambient_rank - len(self.equations)

    def is_full_dimensional(self):
        return self.dim == self.ambient_rank

    def contains(self, point):
        if any(dot(n, point) != c for n, c in self.equations):
            return False
        return all(dot(n, point) >= -o for n, o in self.facets)

    def contains_relatively(self, point):
        """Membership in the relative interior."""
        if any(dot(n, point) != c for n, c in self.equations):
            return False
        return all(dot(n, point) > -o for n, o in self.facets)

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.ambient_rank == other.ambient_rank
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_rank, self.vertices))


class Face(namedtuple("Face", "polytope vertex_indices dimension")):
    """A face of a polytope, recorded by vertex indices."""

    __slots__ = ()

    def vertices(self):
        return tuple(self.polytope.vertices[i] for i in self.vertex_indices)


def convex_hull(points, name=""):
    """Convex hull of integer points; minimal V-rep plus H-rep.

    Non-full-dimensional hulls are first-class: the affine hull is emitted
    as equations and the facets cut the polytope out inside it.
    """
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        raise LatticeError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise LatticeError("points of mixed ambient rank")

    # The facets <a, x> >= m are the extreme rays (m, a), a != 0, of the cone
    # of valid inequalities {(m, a) : <a, p> - m >= 0 for every point p}; the
    # one other ray, (-1, 0), is the trivial inequality 0 >= -1.  Its
    # lineality, the (m, a) with <a, p> = m on every point, is zero exactly
    # when the points are full-dimensional.  Else the equations r of the
    # affine hull (the zero difference of pts[0] makes one point's kernel the
    # identity) are asked of a, to pick the normal in the direction space.
    # Each ray's mask has bit j set when the facet holds pts[j].
    pts.sort()
    rows = [(-1,) + p for p in pts]
    rays, lineality = cone_generators(rows, n + 1)
    ann = integer_kernel([vec_sub(p, pts[0]) for p in pts]) if lineality else []
    if ann:
        rays, _ = cone_generators(rows, n + 1, [(0,) + tuple(r) for r in ann])
    equations = tuple((tuple(r), dot(r, pts[0])) for r in ann)
    facets = sorted((r[1:], -r[0], z) for r, z in rays if any(r[1:]))

    # A point is a vertex when the facets through it meet in it alone.
    full = (1 << len(pts)) - 1
    verts = [j for j in range(len(pts))
             if reduce(and_, (z for *_, z in facets if z >> j & 1), full) == 1 << j]
    incidence = tuple(z for *_, z in facets)
    if len(verts) < len(pts):  # renumber the bits from points to vertices
        incidence = tuple(sum(1 << k for k, j in enumerate(verts) if z >> j & 1)
                          for z in incidence)
    return LatticePolytope(n, tuple(pts[j] for j in verts),
                           tuple((a, o) for a, o, _ in facets), equations,
                           name, incidence)


def faces(p, l):
    """All l-faces of p, read off its face lattice."""
    if l < 0 or l > p.dim:
        raise LatticeError(f"face dimension {l} out of range for dim {p.dim}")
    return [f for f in p.all_faces() if f.dimension == l]


def face_lattice(p):
    """Every nonempty face of p (including p itself), deterministically ordered.

    This builds the lattice; everything else reads it through p.all_faces(),
    which calls this once per polytope.  The faces are p and the nonempty
    ANDs of facet masks, by size and then by vertex indices.
    """
    incidence, n = p.incidence, len(p.vertices)
    frontier = set(incidence)
    masks = frontier | {(1 << n) - 1}
    while frontier:
        frontier = {t for s in frontier for f in incidence
                    if (t := s & f) and t not in masks}
        masks |= frontier
    # A face's dimension is one more than the largest dimension of its
    # proper faces, the masks s & f, which are smaller and so come first.
    out, dims = [], {}
    for _, idx, s in sorted((m.bit_count(), tuple(k for k in range(n) if m >> k & 1), m)
                            for m in masks):
        dims[s] = 1 + max((dims[t] for f in incidence
                           if (t := s & f) and t != s), default=-1)
        out.append(Face(p, idx, dims[s]))
    return out


def lattice_points(p):
    """All lattice points of p in lex order, by a scan of the bounding box
    and a membership test."""
    box = [range(min(x), max(x) + 1) for x in zip(*p.vertices)]
    return [q for q in itertools.product(*box) if p.contains(q)]


def interior_lattice_points(p):
    """Lattice points interior to p in the ambient topology.

    Empty for non-full-dimensional polytopes; use
    relative_interior_lattice_points for the relative interior.
    """
    if not p.is_full_dimensional():
        return []
    return relative_interior_lattice_points(p)


def relative_interior_lattice_points(p):
    return [q for q in lattice_points(p) if p.contains_relatively(q)]


def boundary_lattice_points(p):
    return [q for q in lattice_points(p) if not p.contains_relatively(q)]


def is_reflexive(p):
    """True iff p is full-dimensional with 0 interior and all facet offsets 1."""
    return reflexivity_diagnostic(p) == "reflexive"


def reflexivity_diagnostic(p):
    origin = tuple(0 for _ in range(p.ambient_rank))
    if not p.is_full_dimensional():
        return "not full-dimensional"
    if not p.contains_relatively(origin):
        return "origin is not an interior point"
    bad = [f for f in p.facets if f[1] != 1]
    if bad:
        return f"facet offsets differ from 1: {bad}"
    return "reflexive"


def polar_dual(p):
    """Polar dual of a reflexive polytope, read off p without a hull.

    Its vertices are the facet normals of p, in p.facets order, which is
    lex order.  Its facets are <v, y> >= -1 for the vertices v of p, in
    their lex order; v is primitive, as p is reflexive.  Its vertex j lies
    on its facet i exactly when vertex i of p lies on facet j of p, so its
    incidence is that of p transposed.
    """
    diagnostic = reflexivity_diagnostic(p)
    if diagnostic != "reflexive":
        raise LatticeError(f"not reflexive: {diagnostic}")
    return LatticePolytope(p.ambient_rank, tuple(n for n, _ in p.facets),
                           tuple((v, 1) for v in p.vertices), (),
                           f"{p.name}*" if p.name else "", vertex_facets(p))


def vertex_facets(p):
    """The incidence transposed: for each vertex, the mask of the facets
    through it, bit i for facets[i]."""
    return tuple(sum(1 << i for i, s in enumerate(p.incidence) if s >> k & 1)
                 for k in range(len(p.vertices)))


def is_simplicial(p):
    """Exactly dim-many edges at every vertex (the simple/orbifold condition),
    counted as facets: the vertex figure, with a vertex per edge and a facet
    per facet at the vertex, is a simplex exactly when either count is dim."""
    if not p.is_full_dimensional():
        raise LatticeError("simpliciality check needs a full-dimensional polytope")
    return all(z.bit_count() == p.dim for z in vertex_facets(p))


def is_smooth(p):
    """Simplicial with the primitive edge directions a lattice basis at each vertex."""
    if not p.is_full_dimensional():
        raise LatticeError("smoothness check needs a full-dimensional polytope")
    return all(vertex_is_smooth(p, v) for v in p.vertices)


def vertex_is_smooth(p, v):
    """Is v smooth?  Its tangent cone is simplicial exactly when dim facets
    hold v, and then unimodular exactly when its dual, the cone on their
    normals, is: det +/-1 (Cox, Little & Schenck, Toric Varieties, 2.4)."""
    k = p.vertices.index(v)
    normals = [a for (a, _), s in zip(p.facets, p.incidence) if s >> k & 1]
    return len(normals) == p.dim and abs(det(normals)) == 1


def triangulation(face):
    """Simplices (vertex tuples) of the pulling triangulation of a face.

    Pull the face's first vertex, which is its lex-smallest: cone it over the
    triangulations of the facets of the face that miss it.  The facets are
    read off the polytope's face lattice, so no hull is built.
    """
    verts = face.vertices()
    if len(verts) == face.dimension + 1:
        return [verts]
    inside = set(face.vertex_indices)
    return [(verts[0],) + s for g in face.polytope.all_faces()
            if g.dimension == face.dimension - 1
            and face.vertex_indices[0] not in g.vertex_indices
            and inside.issuperset(g.vertex_indices)
            for s in triangulation(g)]


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
    no division happens.  Returns (rays, lineality): (int tuple, mask)
    pairs, bit i of the mask set exactly when the ray is tight on rows[i],
    and int tuples; an empty cone gives ([], []).
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
    return [(r, z >> len(equations)) for r, z in rays], lin


def polyhedron_generators(ineqs, equations=(), *, ambient_rank):
    """(vertices, recession generators) of a system of (normal, offset)
    inequalities <normal, x> >= -offset and (normal, value) equations.

    One cone_generators call on the homogenised system in (x, t), t >= 0:
    rays with t > 0 are the vertices (Fraction tuples), rays with t = 0 the
    extreme recession rays, and the lineality comes back as +/- pairs.  No
    vertex means the system is infeasible.
    """
    rows = [tuple(a) + (o,) for a, o in ineqs] + [(0,) * ambient_rank + (1,)]
    eqs = [tuple(a) + (-c,) for a, c in equations]
    rays, lin = cone_generators(rows, ambient_rank + 1, eqs)
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r, _ in rays if r[-1]]
    rec = [r[:-1] for r, _ in rays if not r[-1]]
    return verts, rec + [tuple(s * x for x in l[:-1]) for l in lin for s in (1, -1)]


def polytope_from_inequalities(ineqs, equations=(), *, ambient_rank):
    """Bounded polytope from inequalities (normal, offset) and equations.

    Raises LatticeError when the region is unbounded or empty.  Vertices are
    required to be lattice points; a rational vertex is reported, since every
    consumer in this package expects lattice output.
    """
    verts, rec = polyhedron_generators(ineqs, equations, ambient_rank=ambient_rank)
    if rec:
        raise LatticeError("inequality system is unbounded")
    if not verts:
        raise LatticeError("inequality system is infeasible")
    return _lattice_hull(verts)


def _lattice_hull(verts):
    """convex_hull of Fraction vertices, which must be lattice points."""
    for x in verts:
        if any(v.denominator != 1 for v in x):
            raise LatticeError(f"non-lattice vertex {tuple(map(str, x))}")
    return convex_hull([tuple(int(v) for v in x) for x in verts])


def recession_rays(ineqs, equations=(), *, ambient_rank):
    """Primitive extreme rays of the recession cone of an inequality system,
    with its lineality as +/- pairs."""
    return polyhedron_generators(ineqs, equations, ambient_rank=ambient_rank)[1]


def intersect(a, b):
    """Intersection polytope of a and b (possibly lower-dimensional), or None
    when they do not meet.  A non-lattice vertex raises LatticeError."""
    verts, _ = polyhedron_generators(a.facets + b.facets, a.equations + b.equations,
                                     ambient_rank=a.ambient_rank)
    return _lattice_hull(verts) if verts else None


def facet_masks(p, points):
    """{q: bitmask of the facets of p through q} for points q of p; a
    vertex reads them off vertex_facets."""
    at = dict(zip(p.vertices, vertex_facets(p)))
    return {q: at[q] if q in at else
            sum(1 << i for i, (n, o) in enumerate(p.facets) if dot(n, q) == -o)
            for q in points}


def carrier(p, points, masks=None):
    """The smallest face of p holding the points, which lie in p: the
    vertices that the facets through all the points share, as a mask, and
    the face of that mask.  masks is facet_masks of the points or of more,
    for callers that reuse it."""
    masks = masks or facet_masks(p, points)
    through = reduce(and_, (masks[q] for q in points), -1)
    return p.face(reduce(and_, (s for i, s in enumerate(p.incidence)
                                if through >> i & 1), (1 << len(p.vertices)) - 1))


def is_face_of(f, p):
    """Is polytope f a face of polytope p?  Exactly when the vertices of f
    are vertices of p and their carrier has no other vertex."""
    return (set(f.vertices) <= set(p.vertices)
            and carrier(p, f.vertices).vertices() == f.vertices)


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


def polytope_from_doc(doc, path=""):
    """A polytope document: rank and vertices, and optionally a name and
    the facets that polytope_to_doc writes, which must be the hull's."""
    rank = read_field(doc, "rank", int, path=path)
    if rank < 1:
        raise InputError(f"{path}.rank" if path else "rank",
                         f"expected an int >= 1, got {rank}")
    where = f"{path}.vertices" if path else "vertices"
    verts = read_points(read_field(doc, "vertices", list, path=path), where, rank)
    if not verts:
        raise InputError(where, "no vertices")
    name = read_field(doc, "name", str, path=path) if "name" in doc else ""
    read_keys(doc, path, {"name", "rank", "vertices", "facets"})
    p = convex_hull(verts, name=name)
    # compared as JSON text, so a bool or a float is not an int
    if "facets" in doc and (json.dumps(doc["facets"], sort_keys=True)
                            != json.dumps(polytope_to_doc(p)["facets"], sort_keys=True)):
        raise InputError(f"{path}.facets" if path else "facets",
                         "differ from the facets of the hull of the vertices")
    return p
