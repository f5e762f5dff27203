"""Cones and fans: face fans, normal fans, boundary-ray refinement (rank <= 3),
and piecewise-linear support functions with convexity predicates.

Cones are strongly convex and stored by their primitive extreme rays; fans
check on construction that pairwise cone intersections are common faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .lattice import (
    convex_hull,
    faces,
    is_reflexive,
    lattice_points,
    recession_rays,
    reflexivity_diagnostic,
    saturated_coordinates,
    saturated_direction_basis,
)
from .linalg import dot, primitive, rank as mat_rank, solve, vec_sub


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational cone with primitive, canonically ordered rays."""

    rays: tuple
    ambient_rank: int

    @staticmethod
    def from_rays(rays, ambient_rank=None):
        if ambient_rank is None:
            if not rays:
                raise FanError("zero cone needs an explicit ambient rank")
            ambient_rank = len(rays[0])
        prims = []
        for r in rays:
            p = primitive(r)
            if not any(p):
                raise FanError("zero vector is not a ray")
            if p not in prims:
                prims.append(p)
        if prims:
            hull = convex_hull([tuple(0 for _ in range(ambient_rank))] + prims)
            origin = tuple(0 for _ in range(ambient_rank))
            if origin not in hull.vertices:
                raise FanError(f"cone on rays {prims} contains a line")
        # Keep only extreme rays.
        extreme = []
        for r in prims:
            others = [s for s in prims if s != r]
            if not others or not _in_cone_hull(r, others, ambient_rank):
                extreme.append(r)
        return Cone(tuple(sorted(extreme)), ambient_rank)

    @property
    def dim(self):
        if not self.rays:
            return 0
        return mat_rank([list(r) for r in self.rays])

    def hrep(self):
        """(inequalities, equations): normals n with <n,x> >= 0 and span equations."""
        return _cone_hrep(self.rays, self.ambient_rank)

    def contains(self, x):
        ineqs, eqs = self.hrep()
        return all(dot(n, x) >= 0 for n in ineqs) and all(dot(n, x) == 0 for n in eqs)

    def face_ray_sets(self):
        """Ray subsets spanning each face of the cone (including {} and all)."""
        ineqs, _ = self.hrep()
        facet_sets = []
        for n in ineqs:
            facet_sets.append(frozenset(r for r in self.rays if dot(n, r) == 0))
        out = {frozenset(self.rays)}
        frontier = set(facet_sets)
        out |= frontier
        while frontier:
            new = set()
            for s in frontier:
                for f in facet_sets:
                    t = s & f
                    if t not in out:
                        new.add(t)
            out |= new
            frontier = new
        out.add(frozenset())
        return out

    def intersection_rays(self, other):
        ineqs1, eqs1 = self.hrep()
        ineqs2, eqs2 = other.hrep()
        ineqs = [(n, 0) for n in ineqs1 + ineqs2]
        eqs = [(n, 0) for n in eqs1 + eqs2]
        return tuple(sorted(recession_rays(ineqs, eqs, self.ambient_rank)))


def _in_cone_hull(x, rays, ambient_rank):
    ineqs, eqs = _cone_hrep(tuple(rays), ambient_rank)
    return all(dot(n, x) >= 0 for n in ineqs) and all(dot(n, x) == 0 for n in eqs)


_hrep_cache = {}


def _cone_hrep(rays, ambient_rank):
    key = (rays, ambient_rank)
    if key in _hrep_cache:
        return _hrep_cache[key]
    origin = tuple(0 for _ in range(ambient_rank))
    if not rays:
        eqs = [tuple(1 if i == j else 0 for j in range(ambient_rank))
               for i in range(ambient_rank)]
        _hrep_cache[key] = ((), tuple(eqs))
        return _hrep_cache[key]
    hull = convex_hull([origin] + list(rays))
    ineqs = tuple(n for n, o in hull.facets if o == 0)
    eqs = tuple(n for n, c in hull.equations)
    _hrep_cache[key] = (ineqs, eqs)
    return _hrep_cache[key]


@dataclass(frozen=True)
class Fan:
    """Fan given by its maximal cones; pairwise face condition checked."""

    ambient_rank: int
    maximal_cones: tuple

    @staticmethod
    def from_cones(cones, ambient_rank=None):
        cones = list(cones)
        if ambient_rank is None:
            if not cones:
                raise FanError("empty fan needs an explicit ambient rank")
            ambient_rank = cones[0].ambient_rank
        # Drop cones that are faces of other cones; they are implicit.
        maximal = []
        for c in cones:
            if not any(set(c.rays) < set(d.rays) and
                       frozenset(c.rays) in d.face_ray_sets() for d in cones):
                if c not in maximal:
                    maximal.append(c)
        fan = Fan(ambient_rank, tuple(sorted(maximal, key=lambda c: c.rays)))
        fan.validate()
        return fan

    @property
    def rays(self):
        out = []
        for c in self.maximal_cones:
            for r in c.rays:
                if r not in out:
                    out.append(r)
        return tuple(sorted(out))

    def validate(self):
        for c1, c2 in itertools.combinations(self.maximal_cones, 2):
            common = c1.intersection_rays(c2)
            key = frozenset(common)
            if key not in c1.face_ray_sets() or key not in c2.face_ray_sets():
                raise FanError(
                    f"cones {c1.rays} and {c2.rays} do not meet in a common face")

    def is_complete(self):
        """Every ridge of every full-dimensional cone lies in exactly two cones."""
        if not self.maximal_cones:
            return self.ambient_rank == 0
        if any(c.dim != self.ambient_rank for c in self.maximal_cones):
            return False
        ridge_count = {}
        for c in self.maximal_cones:
            for s in c.face_ray_sets():
                # only facets of the cone, not deeper faces
                if s != frozenset(c.rays) and \
                        mat_rank([list(r) for r in s]) == self.ambient_rank - 1 and \
                        _is_cone_facet(c, s):
                    ridge_count[s] = ridge_count.get(s, 0) + 1
        return all(v == 2 for v in ridge_count.values()) and bool(ridge_count)


def _is_cone_facet(c, s):
    ineqs, _ = c.hrep()
    for n in ineqs:
        if all(dot(n, r) == 0 for r in s) and \
                set(r for r in c.rays if dot(n, r) == 0) == set(s):
            return True
    return False


def face_fan(p):
    """Fan over the facets of a reflexive polytope."""
    if not is_reflexive(p):
        raise FanError(f"face fan needs a reflexive polytope: "
                       f"{reflexivity_diagnostic(p)}")
    cones = []
    for f in faces(p, p.dim - 1):
        cones.append(Cone.from_rays(f.vertices(), p.ambient_rank))
    return Fan.from_cones(cones, p.ambient_rank)


def normal_fan(p):
    """Complete fan with one maximal cone (of facet normals) per vertex."""
    if not p.is_full_dimensional():
        raise FanError("normal fan needs a full-dimensional polytope")
    cones = []
    for v in p.vertices:
        normals = [n for n, o in p.facets if dot(n, v) == -o]
        cones.append(Cone.from_rays(normals, p.ambient_rank))
    return Fan.from_cones(cones, p.ambient_rank)


def refine_with_boundary_rays(fan, p):
    """Refine face_fan(p) so its rays are all boundary lattice points of p.

    Rank 2 splits each facet cone at the boundary points; rank 3 uses a
    deterministic pulling-style triangulation of each facet that uses every
    lattice point of the facet.  Rank >= 4 is unsupported.
    """
    if p.ambient_rank > 3:
        raise FanError("boundary-ray refinement is implemented for rank <= 3 only")
    if p.ambient_rank == 1:
        return fan
    cones = []
    for f in faces(p, p.dim - 1):
        facet_poly = convex_hull(f.vertices(), lattice=p.lattice)
        cells = _triangulate_with_all_points(facet_poly)
        for cell in cells:
            cones.append(Cone.from_rays(cell, p.ambient_rank))
    return Fan.from_cones(cones, p.ambient_rank)


def _triangulate_with_all_points(face_poly):
    """Cells of a triangulation of a 1- or 2-dimensional lattice polytope
    using every one of its lattice points.

    Starts from the vertex fan and stars the remaining lattice points in
    lexicographic order, so the result is deterministic.
    """
    pts = lattice_points(face_poly)
    verts = list(face_poly.vertices)
    if face_poly.dim == 0:
        return [tuple(verts)]
    if face_poly.dim == 1:
        d = primitive(vec_sub(verts[-1], verts[0]))
        order = sorted(pts, key=lambda q: dot(vec_sub(q, verts[0]), d))
        return [(order[i], order[i + 1]) for i in range(len(order) - 1)]

    # Map to integer coordinates on the saturated 2-dimensional sublattice.
    if face_poly.ambient_rank == 2:
        to2 = {p: p for p in pts}
    else:
        to2 = dict(zip(pts, saturated_coordinates(pts, verts)))
    back = {v: k for k, v in to2.items()}

    tris = _triangulate_polygon_points(sorted(to2[v] for v in verts),
                                       sorted(to2[p] for p in pts))
    return [tuple(back[q] for q in t) for t in tris]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _triangulate_polygon_points(verts, pts):
    """Triangles on exactly `pts` filling conv(verts), in the plane.

    Fan triangulation of the vertex polygon, then lexicographic starring of
    the remaining points (interior points split a triangle in three, edge
    points split every incident triangle in two).
    """
    lo = min(verts)
    cyc = sorted((v for v in verts if v != lo),
                 key=cmp_to_key(lambda a, b:
                                -1 if _cross(lo, a, b) > 0
                                else (1 if _cross(lo, a, b) < 0 else 0)))
    tris = [(lo, cyc[i], cyc[i + 1]) for i in range(len(cyc) - 1)
            if _cross(lo, cyc[i], cyc[i + 1]) != 0]
    for q in sorted(p for p in pts if p not in verts):
        new = []
        for t in tris:
            a, b, c = t
            s1, s2, s3 = _cross(a, b, q), _cross(b, c, q), _cross(c, a, q)
            if s1 < 0 or s2 < 0 or s3 < 0 or q in t:
                new.append(t)
            elif s1 > 0 and s2 > 0 and s3 > 0:
                new.extend([(a, b, q), (b, c, q), (c, a, q)])
            else:
                # on an edge of t: keep the two non-degenerate splits
                for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                    if _cross(u, v, q) != 0:
                        continue
                    new.extend([(u, q, w), (q, v, w)])
                    break
        tris = new
    return tris


@dataclass
class PLFunction:
    """Integer values on the rays of a complete fan, one linear piece per cone."""

    fan: Fan
    values: dict  # ray tuple -> int

    def __post_init__(self):
        missing = [r for r in self.fan.rays if r not in self.values]
        if missing:
            raise FanError(f"missing values on rays {missing}")

    def linear_extensions(self):
        """Rational functional per maximal cone; FanError when none exists."""
        out = {}
        for c in self.fan.maximal_cones:
            A = [list(r) for r in c.rays]
            b = [self.values[r] for r in c.rays]
            m = solve(A, b)
            if m is None or any(dot(r, m) != self.values[r] for r in c.rays):
                raise FanError(f"values admit no linear extension on cone {c.rays}")
            out[c] = m
        return out

    def non_integral_cone(self):
        """Rays of the first cone whose piece takes a non-integer value on a
        lattice point of the cone's span, or None when every piece is
        integral."""
        origin = (0,) * self.fan.ambient_rank
        for c, m in self.linear_extensions().items():
            for b in saturated_direction_basis((origin,) + c.rays):
                if Fraction(dot(b, m)).denominator != 1:
                    return [list(r) for r in c.rays]
        return None

    def is_integral(self):
        """Each piece takes integer values on the lattice points of its cone."""
        return self.non_integral_cone() is None


def pl_function_checks(phi):
    """Convexity report of a PL function on a complete fan.

    A support function of a nef divisor satisfies the <=-on-foreign-rays test
    here called convex; concave is the mirrored test; strict convexity asks
    for strict inequality off the cone.
    """
    if not phi.fan.is_complete():
        raise FanError("convexity checks need a complete fan")
    ext = phi.linear_extensions()
    is_convex = True
    is_concave = True
    is_strict = True
    for c, m in ext.items():
        for r in phi.fan.rays:
            if r in c.rays:
                continue
            val = dot(r, m)
            target = phi.values[r]
            if c.contains(r):
                # foreign ray inside the cone: linearity decides
                if val != target:
                    is_convex = is_concave = is_strict = False
                continue
            if val > target:
                is_convex = False
            if val < target:
                is_concave = False
            if val >= target:
                is_strict = False
    return {"is_convex": is_convex, "is_concave": is_concave,
            "is_strictly_convex": is_strict}


def fan_to_doc(fan):
    return {"rank": fan.ambient_rank,
            "maximal_cones": [[list(r) for r in c.rays] for c in fan.maximal_cones]}


def fan_from_doc(doc):
    rank = doc["rank"]
    cones = [Cone.from_rays([tuple(r) for r in rays], rank)
             for rays in doc["maximal_cones"]]
    return Fan.from_cones(cones, rank)
