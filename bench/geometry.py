"""Lattice facts the benchmark derives on its own, without lgmirror.

The 16 reflexive polygons are hard-coded.  Everything the checker expects of
a polygon (lattice points, dual vertices, smoothness, f-vector) is computed
here from its vertex list, and products of polygons and segments get their
facts from the factors by closed forms.
"""

from __future__ import annotations

import itertools
from math import gcd

# One representative of each GL(2, Z) class of reflexive polygons, vertices in
# counter-clockwise order around the origin.  Names give the number of
# boundary lattice points and of vertices.
POLYGONS = {
    "b3v3": ((1, 0), (0, 1), (-1, -1)),
    "b4v3": ((2, -1), (0, 1), (-1, 0)),
    "b4v4a": ((1, -1), (1, 0), (0, 1), (-1, 0)),
    "b4v4b": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "b5v4": ((1, -1), (1, 1), (0, 1), (-1, 0)),
    "b5v5": ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)),
    "b6v3": ((1, 0), (-1, 2), (-1, -1)),
    "b6v4": ((1, 0), (-1, 2), (-1, 0), (0, -1)),
    "b6v5": ((1, 0), (1, 1), (-1, 1), (-1, 0), (0, -1)),
    "b6v6": ((1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)),
    "b7v4": ((2, -1), (0, 1), (-1, 0), (-1, -1)),
    "b7v5": ((1, -1), (1, 0), (0, 1), (-1, 1), (-1, -1)),
    "b8v3": ((3, -1), (-1, 1), (-1, -1)),
    "b8v4a": ((2, -1), (0, 1), (-1, 1), (-1, -1)),
    "b8v4b": ((1, -1), (1, 1), (-1, 1), (-1, -1)),
    "b9v3": ((2, -1), (-1, 2), (-1, -1)),
}

SEGMENT = ((-1,), (1,))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v) if g else tuple(v)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def polygon_edges(verts):
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def polygon_points(verts, strict=False):
    """Lattice points of a counter-clockwise polygon by half-plane tests."""
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            sides = [_cross(_sub(b, a), _sub((x, y), a))
                     for a, b in polygon_edges(verts)]
            if all(s > 0 for s in sides) if strict else all(s >= 0 for s in sides):
                out.append((x, y))
    return out


def polygon_dual_vertices(verts):
    """Vertices of the polar dual of a reflexive polygon: for each edge, the
    inner normal u with <u, x> = -1 on it."""
    out = []
    for a, b in polygon_edges(verts):
        e = _sub(b, a)
        u = _primitive((-e[1], e[0]))
        c = u[0] * a[0] + u[1] * a[1]
        if c != -1:
            raise ValueError(f"edge {a}-{b} is not at lattice distance 1")
        out.append(u)
    return out


def polygon_smooth(verts):
    """Primitive edge directions at every vertex form a lattice basis."""
    n = len(verts)
    for i, v in enumerate(verts):
        d1 = _primitive(_sub(verts[(i + 1) % n], v))
        d2 = _primitive(_sub(verts[i - 1], v))
        if abs(_cross(d1, d2)) != 1:
            return False
    return True


def dilate(verts, k):
    return tuple(tuple(k * x for x in v) for v in verts)


class Factor:
    """A polytope with the facts the checker needs, known in closed form."""

    def __init__(self, vertices, points, interior, fvector, dual, smooth,
                 reflexive):
        self.vertices = list(vertices)
        self.points = list(points)
        self.interior = list(interior)
        self.fvector = list(fvector)   # f_0, ..., f_dim (f_dim = 1)
        self.dual = dual               # dual vertices, None if not reflexive
        self.smooth = smooth
        self.reflexive = reflexive


def polygon_factor(verts, dilation=1):
    verts = dilate(verts, dilation)
    n = len(verts)
    return Factor(verts, polygon_points(verts), polygon_points(verts, True),
                  [n, n, 1],
                  polygon_dual_vertices(verts) if dilation == 1 else None,
                  polygon_smooth(verts), dilation == 1)


def segment_factor():
    return Factor(SEGMENT, [(-1,), (0,), (1,)], [(0,)], [2, 1], list(SEGMENT),
                  True, True)


def product(factors):
    """Facts of the product polytope from the facts of its factors."""
    def prod_sets(sets):
        return [tuple(itertools.chain(*t)) for t in itertools.product(*sets)]

    fvec = _product_fvector(factors)
    ranks = [len(f.vertices[0]) for f in factors]
    dual = None
    if all(f.reflexive for f in factors):
        dual = []
        offset = 0
        for f, r in zip(factors, ranks):
            for u in f.dual:
                dual.append((0,) * offset + tuple(u)
                            + (0,) * (sum(ranks) - offset - r))
            offset += r
    return Factor(prod_sets([f.vertices for f in factors]),
                  prod_sets([f.points for f in factors]),
                  prod_sets([f.interior for f in factors]),
                  fvec, dual, all(f.smooth for f in factors),
                  all(f.reflexive for f in factors))


def _product_fvector(factors):
    """f_k of a product is the sum over i + j = k of f_i * f_j."""
    fvec = [1]
    for f in factors:
        new = [0] * (len(fvec) + len(f.fvector) - 1)
        for i, a in enumerate(fvec):
            for j, b in enumerate(f.fvector):
                new[i + j] += a * b
        fvec = new
    return fvec


# Signed permutation matrices keep bounding boxes, lattice distances and
# reflexivity, and are their own inverse transpose, so a seeded one can move
# an input without changing its cost or the closed forms above.

def signed_permutation(rng, rank):
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    return [[signs[i] if j == perm[i] else 0 for j in range(rank)]
            for i in range(rank)]


def apply(g, point):
    return tuple(sum(g[i][j] * point[j] for j in range(len(point)))
                 for i in range(len(g)))


def apply_all(g, points):
    return [apply(g, p) for p in points]
