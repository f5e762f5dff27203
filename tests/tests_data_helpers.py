"""Builders for consistency-constructed spectral-sequence inputs, and the
shared test oracles: the reflexive polygons, unimodular images, normalized
volumes, cone faces and the pairwise fan check, relabelled Euler data and
abutment checks; the splits of a vertex set, the nef documents of the
polygons, the octahedron and P^3, and the hull route to the polytopes of a
nef partition; the partition documents whose pieces do not tile their
host, the ones that take the central-frame path beyond rank 1, the ones
that are not central and the ones the lifting path refuses; the cuts of the
polygons and prisms into two lattice halves, the valid non-singular ones
among them, and the filter for central partitions; polytopes that are not
full-dimensional.

The hybrid family is a contraction/wedge pair on an exterior algebra: with
removal coefficients b and insertion coefficients a satisfying <a, b> = 0 and
an extra (-1)^|I| character on the insertions, the two signed sums commute,
so the double-flag differential squares to zero while the untwisted variant
does not.  The degeneration family is a cycle of rational curves.  Both can
be thickened by a block scale and conjugated by random invertible matrices,
which preserves consistency and roughens the matrices.
"""

import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

from geometry import POLYGONS, polygon_edges

from lgmirror.lattice import (LatticeError, boundary_lattice_points, convex_hull,
                              polytope_from_inequalities, recession_rays, triangulation)
from lgmirror.linalg import det, dot, vec_sub
from lgmirror.partitions import SemistablePartition, is_nonsingular, validate_semistable
from lgmirror.spectral import StrataComplexData
from lgmirror.strata import StrataEuler

fs = frozenset


def reflexive_polygons():
    """The 16 reflexive polygons up to GL(2, Z), from the benchmark's
    hard-coded list."""
    return [convex_hull(verts) for verts in POLYGONS.values()]


def vertex_splits(n, most=3):
    """Every split of range(n) into 1 to `most` nonempty parts, once each:
    the parts in the order of their least index, each in ascending order."""
    def grow(labels):
        if len(labels) == n:
            return [[tuple(j for j in range(n) if labels[j] == k)
                     for k in range(max(labels) + 1)]]
        return [split for k in range(min(max(labels) + 2, most))
                for split in grow(labels + [k])]
    return grow([0])


def polygon(name):
    return convex_hull(POLYGONS[name])


def unit_simplex(rank):
    """The simplex of P^rank: the unit vectors and minus their sum."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return convex_hull(units + [tuple([-1] * rank)])


def cross_polytope(rank):
    return convex_hull([tuple(s * int(i == j) for j in range(rank))
                        for i in range(rank) for s in (1, -1)])


def free_sum(p, q):
    """conv(P x 0 and 0 x Q)."""
    zp, zq = (0,) * p.ambient_rank, (0,) * q.ambient_rank
    return convex_hull([v + zq for v in p.vertices] + [zp + w for w in q.vertices])


def product(p, q):
    return convex_hull([v + w for v in p.vertices for w in q.vertices])


def nef_documents(hosts):
    """{name: document} of a nef document, inline host and parts, for every
    split of each (name, host) pair's vertices into 1, 2 or 3 parts, nef or
    not."""
    return {f"{name}-{'-'.join(''.join(map(str, p)) for p in parts)}":
            {"polytope": {"rank": poly.ambient_rank,
                          "vertices": [list(v) for v in poly.vertices]},
             "parts": [list(p) for p in parts]}
            for name, poly in hosts
            for parts in vertex_splits(len(poly.vertices))}


def polygon_nef_documents():
    """The nef documents of the 16 reflexive polygons."""
    return nef_documents(zip(POLYGONS, reflexive_polygons()))


def rank3_nef_documents():
    """The nef documents of the octahedron (122 splits) and of P^3 (14)."""
    return nef_documents([("octahedron", cross_polytope(3)), ("P3", unit_simplex(3))])


def hull_delta_piece(nef, i):
    """Oracle: Delta_i = conv(0, E_i) as a hull."""
    origin = (0,) * nef.host.ambient_rank
    return convex_hull((origin,) + nef.part_vertices(i))


def hull_nabla_pieces(nef):
    """Oracle: the dual pieces nabla_i, in part order, as the hulls of the
    vertices validate_nef read off the dual Cayley cone."""
    return [convex_hull(vs) for vs in nef.nabla]


def hull_nabla(nef):
    """Oracle: nabla, the hull of the union of the dual pieces."""
    return convex_hull([v for vs in nef.nabla for v in vs])


def hull_fan_rays(nef):
    """Oracle: the boundary lattice points of nabla, in lex order."""
    return tuple(sorted(boundary_lattice_points(hull_nabla(nef))))


def apply_unimodular(p, U, shift=None):
    """Image of p under the integer matrix U (rows), optionally translated."""
    shift = shift or (0,) * p.ambient_rank
    return convex_hull([tuple(dot(row, v) + s for row, s in zip(U, shift))
                        for v in p.vertices])


def normalized_volume(p):
    """Lattice-normalized volume (d! times Euclidean volume), an integer,
    in the saturated lattice of the affine hull of p.

    Sum over the simplices of lattice.triangulation(p): the gcd of the
    d x d minors of a simplex's edge vectors, which is the absolute
    determinant of those vectors in a basis of that lattice (the maximal
    minors of a basis of a saturated lattice are coprime).
    """
    cols = list(itertools.combinations(range(p.ambient_rank), p.dim))
    # The face lattice lists p itself last: it has the most vertices.
    return sum(gcd(*(det([[e[c] for c in cs] for e in edges]) for cs in cols))
               for s in triangulation(p.all_faces()[-1])
               for edges in [[vec_sub(v, s[0]) for v in s[1:]]])


def cone_hrep(rays, n):
    """(inequalities, equations) of the cone over rays: the normals n with
    <n, x> >= 0 and the span equations, read off conv(0, rays)."""
    hull = convex_hull([(0,) * n] + list(rays))
    return (tuple(a for a, o in hull.facets if o == 0),
            tuple(e for e, _ in hull.equations))


@functools.lru_cache(maxsize=None)
def cone_faces(rays, n):
    """{ray set: dimension} of the faces of the pointed cone over the tuple
    rays: the faces of conv(0, rays) through the origin, the apex {}
    included.  Cached, since the perturbed fans of the tests share cones."""
    origin = (0,) * n
    return {fs(v for v in f.vertices() if v != origin): f.dimension
            for f in convex_hull((origin,) + rays).all_faces()
            if origin in f.vertices()}


@functools.lru_cache(maxsize=None)
def _meet(rays1, rays2, n):
    """The extreme rays of the intersection of two cones, by one double
    description of their joint H-representation."""
    (i1, e1), (i2, e2) = cone_hrep(rays1, n), cone_hrep(rays2, n)
    return fs(recession_rays([(a, 0) for a in i1 + i2],
                             [(e, 0) for e in e1 + e2], ambient_rank=n))


def pairwise_fan(fan):
    """The former Fan.validate, as an oracle: every two maximal cones meet
    in a common face.  One double description per pair of cones and a face
    lattice per cone; it also takes non-simplicial and lower-dimensional
    cones."""
    n = fan.ambient_rank
    for c1, c2 in itertools.combinations(fan.maximal_cones, 2):
        common = _meet(c1.rays, c2.rays, n)
        if common not in cone_faces(c1.rays, n) or common not in cone_faces(c2.rays, n):
            return False
    return True


def ridge_count_complete(fan):
    """The former Fan.is_complete, as an oracle: every cone is
    full-dimensional and every ridge lies in exactly two cones."""
    n = fan.ambient_rank
    if not fan.maximal_cones:
        return n == 0
    faces = [cone_faces(c.rays, n) for c in fan.maximal_cones]
    # a cone that holds a line has no face of all its rays through 0
    if any(f.get(fs(c.rays)) != n for c, f in zip(fan.maximal_cones, faces)):
        return False
    ridges = Counter(s for f in faces for s, d in f.items() if d == n - 1)
    return bool(ridges) and all(v == 2 for v in ridges.values())


SQUARE = {"rank": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}
LEFT_HALF = [[-1, -1], [0, -1], [-1, 1], [0, 1]]

# Partition documents whose pieces do not tile the host, by the first test
# of the tiling check that fails.
NON_TILING = {
    # pieces 0 and 1 overlap in a triangle with the vertex (1/3, 1/3)
    "overlap": {"polytope": SQUARE, "pieces": [
        [[-1, -1], [1, -1], [1, 1]], [[-1, -1], [1, 0], [-1, 1]],
        [[-1, 1], [1, 1], [0, 0]]]},
    # one half listed twice: the copies meet in the whole half, an improper
    # face, and their volumes add up to the square's
    "repeated": {"polytope": SQUARE, "pieces": [LEFT_HALF] * 2},
    # the left half and a triangle on its wall leave two corners uncovered
    "gap": {"polytope": SQUARE, "pieces": [
        LEFT_HALF, [[0, -1], [0, 1], [1, 0]]]},
    # the vertical and the horizontal halves cover the square twice
    "double-cover": {"polytope": SQUARE, "pieces": [
        LEFT_HALF, [[0, -1], [1, -1], [0, 1], [1, 1]],
        [[-1, -1], [1, -1], [-1, 0], [1, 0]], [[-1, 0], [1, 0], [-1, 1], [1, 1]]]},
    # the right quarters each hold half of the left half's wall
    "t-junction": {"polytope": SQUARE, "pieces": [
        LEFT_HALF, [[0, -1], [1, -1], [0, 0], [1, 0]],
        [[0, 0], [1, 0], [0, 1], [1, 1]]]},
    # the cube's quarters around the z axis with one quarter left out
    "cube-gap": {"polytope": "cube", "pieces": [
        [[x, y, z] for x in (a, a + 1) for y in (b, b + 1) for z in (-1, 1)]
        for a, b in ((-1, -1), (-1, 0), (0, -1))]},
}


# Single edits of the complex documents: name -> (corpus document, path,
# action, value).  The action sets, renames or deletes the key or index at
# the end of the path, repeats the object there, or appends value to the
# list there.  The last three are faults that the loader or the duality
# check once read past: a rho without its dual, and a map and a pairing with
# a zero side that carry entries.
COMPLEX_EDITS = {
    "float entry": ("elliptic-hyb-complex", ("maps", 0, "matrix", 0, 1), "set", 1.5),
    "bool entry": ("elliptic-hyb-complex", ("maps", 1, "matrix", 1, 0), "set", False),
    "bool entry after a 1": ("elliptic-hyb-complex", ("maps", 0, "matrix"), "set",
                             [[1, -1], [True, 0]]),
    "plus entry": ("elliptic-hyb-complex", ("maps", 0, "matrix", 0, 0), "set", "+1"),
    "space entry": ("delta-sign-instance", ("maps", 2, "matrix", 0, 0), "set", " 1"),
    "arabic-indic entry": ("delta-sign-instance", ("maps", 0, "matrix", 0, 0), "set", "\u0661"),
    "zero denominator": ("elliptic-hyb-complex", ("pairings", 0, "matrix", 0, 1), "set", "1/0"),
    "negative denominator": ("elliptic-hyb-complex", ("maps", 2, "matrix", 1, 1), "set", "1/-2"),
    "leading zero entry": ("elliptic-hyb-complex", ("maps", 3, "matrix", 1, 1), "set", "01"),
    "repeated index": ("elliptic-hyb-complex", ("strata", 2, "I", 1), "set", 0),
    "negative index": ("elliptic-hyb-complex", ("maps", 1, "from", 0), "set", -1),
    "bool index": ("delta-sign-instance", ("strata", 1, "I", 0), "set", True),
    "bool index after a 1": ("elliptic-hyb-complex", ("maps", 1, "to"), "set", [True]),
    "dims key 01": ("elliptic-hyb-complex", ("strata", 0, "dims", "1"), "rename", "01"),
    "dims key -0": ("elliptic-hyb-complex", ("strata", 2, "dims", "0"), "rename", "-0"),
    "hodge count 0": ("elliptic-deg-complex", ("strata", 0, "hodge", "0"), "set",
                      {"0": 1, "1": 0}),
    "hodge label off the dims": ("elliptic-deg-complex", ("strata", 0, "hodge", "1"),
                                 "set", {"1": 1}),
    "hodge undercount": ("elliptic-deg-complex", ("strata", 2, "hodge", "0"), "set",
                         {"0": 1}),
    "hodge overcount": ("elliptic-deg-complex", ("strata", 2, "hodge", "0"), "set",
                        {"0": 3}),
    "negative dim": ("delta-sign-instance", ("strata", 5, "dims", "1"), "set", -1),
    "renamed key": ("elliptic-hyb-complex", ("maps", 3, "degree"), "rename", "degrees"),
    "dropped key": ("elliptic-hyb-complex", ("pairings", 1, "matrix"), "delete", None),
    "extra key": ("delta-sign-instance", ("strata", 4, "hodge_"), "set", {}),
    "repeated map": ("delta-sign-instance", ("maps", 3), "repeat", None),
    "non-list row": ("elliptic-hyb-complex", ("maps", 0, "matrix", 1), "set", "0"),
    "ragged row": ("elliptic-hyb-complex", ("maps", 2, "matrix", 0), "set", ["0"]),
    "missing dual map": ("elliptic-hyb-complex", ("maps", 2), "delete", None),
    "zero-side map": ("elliptic-hyb-complex", ("maps",), "append",
                      {"kind": "rho", "from": [0, 7], "to": [0], "degree": 0,
                       "matrix": [["1"]]}),
    "zero-side pairing": ("elliptic-hyb-complex", ("pairings",), "append",
                          {"I": [0, 1], "degree": 2, "matrix": [["1", "0"]]}),
}

# A Hodge count at a degree that dims lacks, under which a map with no
# entries runs: elliptic-deg-complex with a label-1 class of [0, 1] in
# degree 2.  `ss pw` once read past the map's rows and crashed.
HODGE_AT_A_ZERO_DEGREE = {
    "n": 1, "side": "degeneration",
    "strata": [
        {"I": [0], "dims": {"0": 1, "2": 1}, "hodge": {"0": {"0": 1}, "2": {"0": 1}}},
        {"I": [1], "dims": {"0": 1, "2": 1}, "hodge": {"0": {"0": 1}, "2": {"0": 1}}},
        {"I": [0, 1], "dims": {"0": 2}, "hodge": {"0": {"0": 2}, "2": {"1": 1}}}],
    "maps": [
        {"kind": "restrict", "from": [0], "to": [0, 1], "degree": 0, "matrix": [["1"], ["1"]]},
        {"kind": "restrict", "from": [1], "to": [0, 1], "degree": 0, "matrix": [["1"], ["1"]]},
        {"kind": "restrict", "from": [0], "to": [0, 1], "degree": 2, "matrix": []}],
}

# A degeneration complex with no Gysin map, whose Gysin [0, 1] -> [0] at
# degree 0 defaults to the transpose of a restriction of the wrong shape:
# 2x1, where dim [0] at degree 2 and dim [0, 1] at degree 0 ask for 1x1.
ASYMMETRIC_GYSIN = {
    "n": 1, "side": "degeneration",
    "strata": [{"I": [0], "dims": {"0": 2, "2": 1}}, {"I": [1], "dims": {"0": 1, "2": 1}},
               {"I": [0, 1], "dims": {"0": 1}}],
    "maps": [{"kind": "restrict", "from": [0], "to": [0, 1], "degree": 0, "matrix": [[1, 0]]},
             {"kind": "restrict", "from": [1], "to": [0, 1], "degree": 0, "matrix": [[1]]}],
}


# Input files that json.load cannot read, by file name: bytes that are not
# UTF-8, a nesting deeper than the parser's recursion limit, an int literal
# longer than int() accepts, and a syntax error.
UNREADABLE_FILES = {
    "latin-1.json": b'{"rank": 2, "name": "\xe9"}',
    "deep.json": b"[" * 100_000,
    "long-int.json": b'{"rank": ' + b"1" * 5000 + b"}",
    "syntax-error.json": b'{"rank": 2,',
}


def edit_document(doc, path, action, value):
    """Apply one COMPLEX_EDITS action to doc, in place, and return it."""
    *head, last = path
    obj = functools.reduce(lambda o, k: o[k], head, doc)
    if action == "set":
        obj[last] = value
    elif action == "rename":
        obj[value] = obj.pop(last)
    elif action == "delete":
        del obj[last]
    elif action == "repeat":
        obj.append(json.loads(json.dumps(obj[last])))
    else:
        obj[last].append(value)
    return doc


def _prism(verts):
    return [v + [z] for v in verts for z in (-1, 1)]


# the pieces of the corpus document tsigma-3piece
TSIGMA_3PIECE = [[[0, 0], [0, -1], [2, -1], [1, 0]],
                 [[0, 0], [1, 0], [0, 1], [-1, 2], [-1, 1]],
                 [[0, 0], [-1, 1], [-1, 0], [-1, -1], [0, -1]]]
CUBE4 = [list(v) for v in itertools.product((-1, 1), repeat=4)]

# Central partitions whose projected fan Sigma_v is more than the two rays
# of rank 1, or whose host has rank 4.  `partition frame` accepts both;
# `partition fans` fails on the prism (pi_Gamma) and at the rank guard.
FRAME_PATH = {
    # the prism over tsigma-3piece: rank 3, l = 2
    "tsigma-3piece-prism": {
        "polytope": {"rank": 3, "vertices": _prism([[-1, -1], [-1, 2], [2, -1]])},
        "pieces": [_prism(p) for p in TSIGMA_3PIECE]},
    # the halves x_4 <= 0 and x_4 >= 0 of [-1, 1]^4: rank 4, l = 1
    "cube4-halves": {
        "polytope": {"rank": 4, "vertices": CUBE4},
        "pieces": [[v[:3] + [z] for v in CUBE4 for z in zs] for zs in ((-1, 0), (0, 1))]},
}



def _rectangle(x0, x1, y0, y1):
    return [[x, y] for x in (x0, x1) for y in (y0, y1)]


# Valid non-singular partitions that are not central: `partition lift`,
# `frame` and `fans` name the first facet of a piece that the origin fails.
NON_CENTRAL = {
    # the host holds the origin, and the wall x = 1 misses it
    "wall-off-the-origin": {
        "polytope": {"rank": 2, "vertices": _rectangle(-2, 2, -1, 1)},
        "pieces": [_rectangle(-2, 1, -1, 1), _rectangle(1, 2, -1, 1)]},
    # a host off the origin
    "off-origin-host": {
        "polytope": {"rank": 2, "vertices": _rectangle(1, 3, -1, 1)},
        "pieces": [_rectangle(1, 3, -1, 0), _rectangle(1, 3, 0, 1)]},
}


# Partitions that `partition lift`, `frame` and `fans` refuse at the check
# that owns the refusal.
LIFTING_REFUSALS = {
    # b6v3 cut by y - x >= 1: valid, but piece 0 misses the origin, and
    # (0, 1) is a singular vertex of both pieces; all three name the origin
    "singular-off-the-origin": {
        "polytope": {"rank": 2, "vertices": [[1, 0], [-1, 2], [-1, -1]]},
        "pieces": [[[-1, 0], [-1, 2], [0, 1]], [[-1, -1], [-1, 0], [0, 1], [1, 0]]]},
    # the halves x <= 0 and x >= 0 of the non-reflexive [-2, 2]^2: central
    # and non-singular, so lift and frame pass, and fans stops at the face fan
    "non-reflexive-halves": {
        "polytope": {"rank": 2, "vertices": _rectangle(-2, 2, -2, 2)},
        "pieces": [_rectangle(-2, 0, -2, 2), _rectangle(0, 2, -2, 2)]},
}


def is_central(part):
    """The origin belongs to every piece."""
    origin = tuple(0 for _ in range(part.host.ambient_rank))
    return all(p.contains(origin) for p in part.pieces)


def lattice_cuts():
    """{name: partition} of the cuts a.x = 0, a in [-2, 2]^n and a != 0, of
    the 16 reflexive polygons and of the prisms over six of them whose two
    halves, a.x >= 0 first, are lattice polytopes: 472 partitions, valid
    or not.  A name is the host's and then a, as in "b6v6-prism:1,0,-2"."""
    hosts = [(name, convex_hull(v)) for name, v in POLYGONS.items()]
    hosts += [(f"{name}-prism", convex_hull([v + (z,) for v in POLYGONS[name]
                                              for z in (-1, 1)]))
              for name in ("b6v6", "b7v5", "b8v3", "b8v4a", "b8v4b", "b9v3")]
    cuts = {}
    for name, host in hosts:
        n = host.ambient_rank
        for a in itertools.product(range(-2, 3), repeat=n):
            if not any(a):
                continue
            try:
                halves = tuple(polytope_from_inequalities(host.facets + ((b, 0),),
                                                          ambient_rank=n)
                               for b in (a, tuple(-x for x in a)))
            except LatticeError:  # a half with a non-lattice vertex
                continue
            cuts[f"{name}:{','.join(map(str, a))}"] = SemistablePartition(host, halves)
    return cuts


def cut_partitions():
    """{name: partition} of the lattice cuts of the polygons and prisms
    (lattice_cuts) that are valid and non-singular: 92, all central."""
    return {name: part for name, part in lattice_cuts().items()
            if validate_semistable(part)["valid"] and is_nonsingular(part)}


def lower_dimensional_documents():
    """{name: polytope document} of polytopes that are not full-dimensional:
    single points, segments, and a triangle and a square embedded in ranks 3
    and 4; and, each as a document of its own, the facets and edges of the
    cube and of b6v4 x b5v5, whose image under a signed permutation is a
    product of the seed-3 hulls workload.  The faces are read off the
    factors, not off a hull."""
    docs = {}

    def put(name, verts):
        docs[name] = {"rank": len(verts[0]), "vertices": [list(v) for v in verts]}

    for n in (1, 2, 3, 4):
        put(f"point-rank{n}", [tuple(range(-1, n - 1))])
    put("segment-rank2", [(0, 0), (2, 4)])
    put("segment-rank3", [(1, 0, -1), (-1, 2, 3)])
    put("segment-rank4", [(0, 0, 0, 0), (1, 1, 1, 1)])
    for name, verts in (("triangle", ((0, 0), (1, 0), (0, 1))),
                        ("square", ((-1, -1), (1, -1), (-1, 1), (1, 1)))):
        put(f"{name}-rank3", [(x, y, x + y) for x, y in verts])
        put(f"{name}-rank3-index3", [(x + y, 2 * x - y, 3) for x, y in verts])
        put(f"{name}-rank4", [(x, y, 1 - x, 2 * y) for x, y in verts])
    cube = list(itertools.product((-1, 1), repeat=3))
    for i, s in itertools.product(range(3), (-1, 1)):
        put(f"cube-facet-{i}{s:+}", [v for v in cube if v[i] == s])
    for i, (a, b) in itertools.product(range(3), itertools.product((-1, 1), repeat=2)):
        put(f"cube-edge-{i}{a:+}{b:+}", [v for v in cube
                                         if (v[:i] + v[i + 1:]) == (a, b)])
    P, Q = POLYGONS["b6v4"], POLYGONS["b5v5"]
    for k, e in enumerate(polygon_edges(P)):
        put(f"product-facet-e{k}xQ", [u + v for u in e for v in Q])
        for j, v in enumerate(Q):
            put(f"product-edge-e{k}xq{j}", [u + v for u in e])
    for k, e in enumerate(polygon_edges(Q)):
        put(f"product-facet-Pxe{k}", [u + v for u in P for v in e])
        for j, u in enumerate(P):
            put(f"product-edge-p{j}xe{k}", [u + v for v in e])
    return docs


def partition_document(part):
    """The document of a partition, with an inline host."""
    return {"polytope": {"rank": part.host.ambient_rank,
                         "vertices": [list(v) for v in part.host.vertices]},
            "pieces": [[list(v) for v in p.vertices] for p in part.pieces]}


def relabeled(d, perm):
    """Euler data d with component i renamed perm[i]."""
    def image(I):
        return fs(perm[i] for i in I)
    return StrataEuler(d.n, d.components, d.side,
                       {image(I): e for I, e in d.entries.items()},
                       fs(image(I) for I in d.zero_strata))


def abutment_mismatches(page, dims_by_total_degree):
    """{k: (E2 total, declared)} where the E2 dimensions on the diagonal
    p + q = k miss the declared abutment."""
    totals = {}
    for (p, q), v in page.e2().items():
        totals[p + q] = totals.get(p + q, 0) + v
    return {k: (totals.get(k, 0), dims_by_total_degree.get(k, 0))
            for k in set(totals) | set(dims_by_total_degree)
            if totals.get(k, 0) != dims_by_total_degree.get(k, 0)}


def koszul_instance(components=3, a=None, b=None, n=2, scale=1):
    if a is None:
        a = [1] * components
    if b is None:
        b = [1] * (components - 1) + [-(components - 1)]
    assert sum(x * y for x, y in zip(a, b)) == 0
    strata = {}
    for r in range(1, components + 1):
        for I in itertools.combinations(range(components), r):
            strata[fs(I)] = {components - r: scale}
    maps = {}
    eye = [[F(1) if i == j else F(0) for j in range(scale)]
           for i in range(scale)]

    def scaled(c):
        return [[c * x for x in row] for row in eye]

    for r in range(2, components + 1):
        for I in itertools.combinations(range(components), r):
            I = fs(I)
            for x in sorted(I):
                maps[("rho", I, I - {x}, components - r)] = scaled(F(b[x]))
    for r in range(1, components):
        for I in itertools.combinations(range(components), r):
            I = fs(I)
            for x in range(components):
                if x not in I:
                    maps[("rho_dual", I, I | {x}, components - r)] = \
                        scaled(F((-1) ** r * a[x]))
    return StrataComplexData(n=n, side="hybrid", strata=strata, hodge={},
                             maps=maps)


def cycle_snc_instance(r_components, with_hodge=True):
    """Cycle of rational curves: components meet the two cyclic neighbours in
    one point each (two components meet in two points)."""
    strata = {}
    hodge = {}
    maps = {}
    if r_components == 2:
        doubles = {fs([0, 1]): 2}
    else:
        doubles = {fs([i, (i + 1) % r_components]): 1
                   for i in range(r_components)}
    for i in range(r_components):
        strata[fs([i])] = {0: 1, 2: 1}
        hodge[fs([i])] = {0: {0: 1}, 2: {0: 1}}
    for I, npts in doubles.items():
        strata[I] = {0: npts}
        hodge[I] = {0: {0: npts}}
        for i in sorted(I):
            maps[("restrict", fs([i]), I, 0)] = [[F(1)] for _ in range(npts)]
    return StrataComplexData(n=1, side="degeneration", strata=strata,
                             hodge=hodge if with_hodge else {}, maps=maps)


def random_invertible(rng, size, bound=3):
    while True:
        m = [[F(rng.randint(-bound, bound)) for _ in range(size)]
             for _ in range(size)]
        from lgmirror.linalg import rank
        if rank(m) == size:
            return m


def _invert(m):
    from lgmirror.linalg import solve
    size = len(m)
    cols = []
    for j in range(size):
        e = [F(1) if i == j else F(0) for i in range(size)]
        cols.append(solve(m, e))
    return [[cols[j][i] for j in range(size)] for i in range(size)]


def conjugated(data, rng):
    """Change basis of every stratum graded piece by a random invertible
    matrix; all structure maps transform accordingly, so d^2 = 0 survives."""
    from lgmirror.linalg import mat_mul

    basis = {}
    for I, dims in data.strata.items():
        for k, d in dims.items():
            q = random_invertible(rng, d)
            basis[(I, k)] = (q, _invert(q))
    new_maps = {}
    shift = {"restrict": 0, "gysin": 2, "rho": 1, "rho_dual": -1}
    for (kind, frm, to, deg), m in data.maps.items():
        q_t, _ = basis[(to, deg + shift[kind])]
        _, q_s_inv = basis[(frm, deg)]
        new_maps[(kind, frm, to, deg)] = mat_mul(q_t, mat_mul(m, q_s_inv))
    new_pairings = {}
    for (I, deg), p in data.pairings.items():
        n_I = data.stratum_dim_complex(I)
        # B'(x, y) = B(Q1^-1 x, Q2^-1 y)
        _, q1_inv = basis[(I, deg)]
        _, q2_inv = basis[(I, 2 * n_I - deg)]
        from lgmirror.linalg import transpose
        new_pairings[(I, deg)] = mat_mul(transpose(q1_inv),
                                         mat_mul(p, q2_inv))
    return StrataComplexData(data.n, data.side, dict(data.strata),
                             dict(data.hodge), new_maps, new_pairings)


def random_hybrid_instance(rng):
    comps = rng.choice([2, 3, 3])
    a = [rng.randint(1, 3) for _ in range(comps)]
    # scale the free entries by a[-1] so the closing entry stays integral
    free = [rng.randint(-3, 3) for _ in range(comps - 1)]
    b = [a[-1] * x for x in free]
    b.append(-sum(ai * bi for ai, bi in zip(a, b)) // a[-1])
    assert sum(x * y for x, y in zip(a, b)) == 0
    scale = rng.choice([1, 1, 2])
    inst = koszul_instance(comps, a, b, n=rng.randint(1, 3), scale=scale)
    return conjugated(inst, rng)


def random_degeneration_instance(rng):
    inst = cycle_snc_instance(rng.randint(2, 6))
    return conjugated(inst, rng)


def float_leaves(obj, path="$"):
    """JSON paths of every float inside a nested dict/list report."""
    if isinstance(obj, float):
        return [path]
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return []
    return [leaf for k, v in items for leaf in float_leaves(v, f"{path}.{k}")]
