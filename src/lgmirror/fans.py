"""Cones and fans: the face fan and the boundary-ray refinement (rank <= 3)
of a reflexive polytope, each raising FanError on a host it does not
support, and stellar subdivision (star).

Cones are strongly convex and stored by their primitive extreme rays.  The
cones built here, over the facets of a reflexive polytope and over the
simplicial cells that subdivide them, are fans by construction and are made
directly from their sorted rays.  Cones from outside, the projected pieces
in partitions.central_frame, are checked twice: Cone.from_rays makes their
rays primitive and extreme, and Fan.validate checks that they form a
complete simplicial fan.  That check is local: full-dimensional simplicial
cones form a complete fan exactly when every ridge lies in exactly two
cones, on opposite sides of it, and one generic point is covered once (De
Loera, Rambau & Santos, Triangulations, 2010, 4.5).  star and Fan.validate
test whether such a cone holds v by Cramer's rule: v's coordinate on a ray
r_i has the sign of det(rays, v in place of r_i) * det(rays), an integer.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import (
    boundary_lattice_points,
    carrier,
    convex_hull,
    faces,
    reflexivity_diagnostic,
    triangulation,
)
from .linalg import det, dot, primitive, sign


class FanError(ValueError):
    pass


class Cone(namedtuple("Cone", "rays ambient_rank")):
    """Strongly convex rational cone with primitive, canonically ordered rays.

    Cone(rays, rank) trusts that the rays are sorted, primitive and
    extreme; from_rays makes them so.
    """

    __slots__ = ()

    @staticmethod
    def from_rays(rays, ambient_rank):
        """The checked constructor: primitive rays, no line, and only the
        extreme rays kept, read off the hull conv(0, rays)."""
        prims = list(dict.fromkeys(primitive(r) for r in rays))
        if any(not any(p) for p in prims):
            raise FanError("zero vector is not a ray")
        origin = (0,) * ambient_rank
        hull = convex_hull([origin] + prims)
        if origin not in hull.vertices:
            raise FanError(f"cone on rays {prims} contains a line")
        # The extreme rays are the far ends of the hull's edges at the origin.
        return Cone(tuple(sorted(w for w in hull.vertices if w != origin
                                 and carrier(hull, (origin, w)).dimension == 1)),
                    ambient_rank)


class Fan(namedtuple("Fan", "ambient_rank maximal_cones")):
    """Fan given by its maximal cones.  from_cones drops repeats and sorts
    but checks nothing: fans built here are fans by construction, and
    central_frame calls validate() on the cones it projects."""

    __slots__ = ()

    @staticmethod
    def from_cones(cones, ambient_rank):
        return Fan(ambient_rank, tuple(sorted(set(cones), key=lambda c: c.rays)))

    @property
    def rays(self):
        return tuple(sorted({r for c in self.maximal_cones for r in c.rays}))

    def validate(self):
        """Raise FanError unless the maximal cones form a complete simplicial
        fan (DLRS, Triangulations, 4.5).

        Each cone has ambient_rank rays and det != 0.  Each ridge, a cone's
        sorted rays but the i-th, lies in exactly two cones, and on opposite
        sides of it: det(ridge, r_i) = (-1)^(n-1-i) det(rays) is a linear
        form in r_i that vanishes on the ridge.  So every generic point is
        covered equally often, and once when the sum x of the first cone's
        rays, interior to it, has a negative Cramer sign in every other cone.
        """
        n, cones = self.ambient_rank, self.maximal_cones
        if not cones:
            if n:
                raise FanError("a fan without cones is not complete")
            return
        sides = {}
        for c in cones:
            d = det(c.rays) if len(c.rays) == n else 0
            if d == 0:
                raise FanError(f"cone {c.rays} is not full-dimensional and simplicial")
            for i in range(n):
                sides.setdefault(c.rays[:i] + c.rays[i + 1:], []).append(
                    (sign(i) * d > 0, c.rays))
        for ridge, held in sides.items():
            if len(held) != 2 or held[0][0] == held[1][0]:
                raise FanError(f"ridge {ridge} does not lie in exactly two cones "
                               f"on opposite sides: {[c for _, c in held]}")
        x = tuple(map(sum, zip(*cones[0].rays)))
        for c in cones[1:]:
            d = det(c.rays)
            if all(det(c.rays[:i] + (x,) + c.rays[i + 1:]) * d >= 0 for i in range(n)):
                raise FanError(f"cones {cones[0].rays} and {c.rays} overlap")


def _require_reflexive(p, what):
    diagnostic = reflexivity_diagnostic(p)
    if diagnostic != "reflexive":
        raise FanError(f"{what} needs a reflexive polytope: {diagnostic}")


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
    cells are starred at its lattice points that are not vertices of p, in
    lexicographic order; the cones over the cells are unimodular up to rank
    3.  Rank >= 4 is unsupported.  p is reflexive, so its boundary points
    are primitive, and a cell's points are the extreme rays of its cone.
    """
    if p.ambient_rank > 3:
        raise FanError("boundary-ray refinement is implemented for rank <= 3 only")
    _require_reflexive(p, "boundary-ray refinement")
    others = [q for q in boundary_lattice_points(p) if q not in p.vertices]
    cones = []
    for (n, o), s in zip(p.facets, p.incidence):
        cells = triangulation(p.face(s))
        for q in others:
            if dot(n, q) == -o:
                cells = star(cells, q)
        cones += [Cone(tuple(sorted(cell)), p.ambient_rank) for cell in cells]
    return Fan.from_cones(cones, p.ambient_rank)


def star(cells, v):
    """Stellar subdivision at v of ray tuples with det != 0.  Every caller's
    cells are full-dimensional and simplicial: a facet simplex of a
    reflexive polytope lies on a hyperplane that misses the origin, and
    starring keeps det != 0.  A cell where no Cramer sign of v is negative
    becomes the swapped cells, v in place of r_i, of positive sign; the
    other cells are returned as they are.
    """
    out = []
    for cell in cells:
        d = det(cell)
        swaps = [cell[:i] + (v,) + cell[i + 1:] for i in range(len(cell))]
        signs = [det(s) * d for s in swaps]
        out += [cell] if min(signs) < 0 else [s for s, m in zip(swaps, signs) if m > 0]
    return out


def fan_to_doc(fan):
    return {"rank": fan.ambient_rank,
            "maximal_cones": [[list(r) for r in c.rays] for c in fan.maximal_cones]}
