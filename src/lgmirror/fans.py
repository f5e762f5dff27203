"""Cones and fans: face fans, boundary-ray refinement (rank <= 3) and
stellar subdivision (star).

Cones are strongly convex and stored by their primitive extreme rays; each
reads its faces off the face lattice of conv(0, rays), a hull built only
when something asks about its faces.  Cones from outside, the projected
pieces in partitions.central_frame, are checked: Cone.from_rays makes their
rays primitive and extreme, and Fan.validate checks that pairwise cone
intersections are common faces.  The cones built here, over the facets of a
reflexive polytope and over the simplicial cells that subdivide them, are
made directly from their sorted rays and build no hull; the property tests
check them against Cone.from_rays and Fan.validate, not every build.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .lattice import (
    LatticePolytope,
    boundary_lattice_points,
    convex_hull,
    faces,
    is_reflexive,
    recession_rays,
    reflexivity_diagnostic,
    triangulation,
)
from .linalg import dot, primitive, solve


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational cone with primitive, canonically ordered rays.

    Cone(rays, rank) trusts that the rays are sorted, primitive and
    extreme; from_rays makes them so.  The cone keeps its hull conv(0,
    rays), whose vertices are the origin and the rays, built on first use
    unless from_rays passed the one it built.  The faces of a pointed cone
    are exactly the faces of that hull through the origin, so the hull's
    one face lattice gives the cone's dimension, faces, facets and
    H-representation.
    """

    rays: tuple
    ambient_rank: int
    _hull: LatticePolytope = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_rays(rays, ambient_rank):
        """The checked constructor: primitive rays, no line, and only the
        extreme rays kept."""
        prims = list(dict.fromkeys(primitive(r) for r in rays))
        if any(not any(p) for p in prims):
            raise FanError("zero vector is not a ray")
        origin = (0,) * ambient_rank
        hull = convex_hull([origin] + prims)
        if origin not in hull.vertices:
            raise FanError(f"cone on rays {prims} contains a line")
        # The extreme rays are the far ends of the hull's edges at the origin.
        extreme = sorted(w for f in hull.all_faces() if f.dimension == 1
                         and origin in f.vertices()
                         for w in f.vertices() if w != origin)
        # A dropped ray is a vertex of this hull but not of the cone's.
        return Cone(tuple(extreme), ambient_rank,
                    hull if len(extreme) == len(prims) else None)

    @property
    def hull(self):
        if self._hull is None:
            origin = (0,) * self.ambient_rank
            object.__setattr__(self, "_hull", convex_hull((origin,) + self.rays))
        return self._hull

    @property
    def dim(self):
        return self.hull.dim

    def hrep(self):
        """(inequalities, equations): normals n with <n,x> >= 0 and span equations."""
        return (tuple(n for n, o in self.hull.facets if o == 0),
                tuple(n for n, _ in self.hull.equations))

    def _faces_through_origin(self):
        origin = (0,) * self.ambient_rank
        return [(frozenset(v for v in f.vertices() if v != origin), f.dimension)
                for f in self.hull.all_faces() if origin in f.vertices()]

    def face_ray_sets(self):
        """Ray subsets spanning each face of the cone (including {} and all)."""
        return {s for s, _ in self._faces_through_origin()}

    def facets(self):
        """Ray sets of the facets of the cone."""
        return [s for s, d in self._faces_through_origin() if d == self.dim - 1]

    def intersection_rays(self, other):
        ineqs1, eqs1 = self.hrep()
        ineqs2, eqs2 = other.hrep()
        ineqs = [(n, 0) for n in ineqs1 + ineqs2]
        eqs = [(n, 0) for n in eqs1 + eqs2]
        return tuple(sorted(recession_rays(ineqs, eqs,
                                           ambient_rank=self.ambient_rank)))


@dataclass(frozen=True)
class Fan:
    """Fan given by its maximal cones.

    from_cones takes the maximal cones only; it drops repeats and sorts,
    and builds no cone's hull.  It does not check the face condition:
    face, refined and stellar fans are fans by construction.  Call
    validate() on cones that come from outside; central_frame does.
    """

    ambient_rank: int
    maximal_cones: tuple

    @staticmethod
    def from_cones(cones, ambient_rank):
        return Fan(ambient_rank, tuple(sorted(set(cones), key=lambda c: c.rays)))

    @property
    def rays(self):
        return tuple(sorted({r for c in self.maximal_cones for r in c.rays}))

    def validate(self):
        """Raise FanError unless every two maximal cones meet in a common face."""
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
        ridges = Counter(s for c in self.maximal_cones for s in c.facets())
        return all(v == 2 for v in ridges.values()) and bool(ridges)


def _require_reflexive(p, what):
    if not is_reflexive(p):
        raise FanError(f"{what} needs a reflexive polytope: "
                       f"{reflexivity_diagnostic(p)}")


def face_fan(p):
    """Fan over the facets of a reflexive polytope.  A facet's vertices lie
    at lattice distance 1 from the origin, so they are primitive, and they
    are the extreme rays of the cone over it."""
    _require_reflexive(p, "face fan")
    return Fan.from_cones([Cone(f.vertices(), p.ambient_rank)
                           for f in faces(p, p.dim - 1)], p.ambient_rank)


def refine_with_boundary_rays(p):
    """Refine face_fan(p) so its rays are all boundary lattice points of p.

    Each facet is triangulated by pulling (lattice.triangulation), and its
    cells are starred at the facet's other lattice points in lexicographic
    order; the cones over the cells are unimodular up to rank 3.  Rank >= 4
    is unsupported.  p is reflexive, so its boundary points are primitive,
    and a cell's points are the extreme rays of its cone.
    """
    if p.ambient_rank > 3:
        raise FanError("boundary-ray refinement is implemented for rank <= 3 only")
    _require_reflexive(p, "boundary-ray refinement")
    boundary = boundary_lattice_points(p)
    cones = []
    for f in faces(p, p.dim - 1):
        verts = f.vertices()
        n, o = p.facets[p.incidence.index(frozenset(f.vertex_indices))]
        cells = triangulation(f)
        for q in boundary:
            if dot(n, q) == -o and q not in verts:
                cells = star(cells, q)
        cones += [Cone(tuple(sorted(cell)), p.ambient_rank) for cell in cells]
    return Fan.from_cones(cones, p.ambient_rank)


def star(cells, v):
    """Stellar subdivision at v of simplicial cones given as ray tuples.

    A cone that holds v = sum mu_i r_i with every mu_i >= 0 becomes the
    cones with v in place of each r_i where mu_i > 0; the other cones are
    returned as they are.
    """
    out = []
    for cell in cells:
        mu = solve([list(col) for col in zip(*cell)], v)
        if mu is None or any(m < 0 for m in mu):
            out.append(cell)
        else:
            out += [cell[:i] + (v,) + cell[i + 1:] for i, m in enumerate(mu) if m > 0]
    return out


def fan_to_doc(fan):
    return {"rank": fan.ambient_rank,
            "maximal_cones": [[list(r) for r in c.rays] for c in fan.maximal_cones]}
