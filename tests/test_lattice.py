import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import tempfile
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
import sympy
from conftest import corpus_doc, corpus_path
from geometry import POLYGONS, polygon_factor, product
from hypothesis import assume, example, given, settings, strategies as st
from tests_data_helpers import cone_hrep, normalized_volume, reflexive_polygons

from lgmirror.cli import main
from lgmirror.fans import Cone, FanError, face_fan
from lgmirror.lattice import (
    Face,
    InputError,
    LatticeError,
    LatticePolytope,
    boundary_lattice_points,
    carrier,
    convex_hull,
    face_lattice,
    faces,
    interior_lattice_points,
    intersect,
    is_face_of,
    is_reflexive,
    is_simplicial,
    is_smooth,
    lattice_points,
    polar_dual,
    polytope_from_doc,
    polytope_from_inequalities,
    polytope_to_doc,
    recession_rays,
    relative_interior_lattice_points,
    vertex_is_smooth,
)
from lgmirror.linalg import det, dot, identity, integer_kernel, primitive, rank, vec_sub


def brute_force_facets(points, normal_bound=2):
    """Oracle: enumerate supporting inequalities over small normal vectors."""
    n = len(points[0])
    found = set()
    for nrm in itertools.product(range(-normal_bound, normal_bound + 1),
                                 repeat=n):
        if not any(nrm):
            continue
        vals = [sum(a * b for a, b in zip(nrm, p)) for p in points]
        m = min(vals)
        tight = [p for p, v in zip(points, vals) if v == m]
        # a facet is tight on an affinely (n-1)-dimensional set
        if len(tight) >= n:
            diffs = [[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]
            from lgmirror.linalg import rank
            if rank(diffs) == n - 1:
                from math import gcd
                g = 0
                for x in nrm:
                    g = gcd(g, abs(x))
                if all(x % g == 0 for x in nrm) and m % g == 0:
                    found.add((tuple(x // g for x in nrm), -(m // g)))
    return found


def test_hull_of_own_vertices(square):
    assert square.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    assert len(square.facets) == 4


def test_hull_drops_interior_point(square):
    again = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    assert again == square


def test_diamond_facets_match_brute_force_oracle(diamond):
    oracle = brute_force_facets(list(diamond.vertices))
    assert set(diamond.facets) == oracle
    assert set(diamond.facets) == {((1, 1), 1), ((1, -1), 1),
                                   ((-1, 1), 1), ((-1, -1), 1)}


def test_hull_rejects_empty_and_mixed():
    with pytest.raises(LatticeError):
        convex_hull([])
    with pytest.raises(LatticeError):
        convex_hull([(1, 0), (1, 0, 0)])


def test_faces_counts(square, cube):
    assert len(faces(square, 1)) == 4
    assert len(faces(square, 0)) == 4
    assert len(faces(cube, 2)) == 6
    assert len(faces(cube, 1)) == 12
    assert len(faces(cube, 0)) == 8
    with pytest.raises(LatticeError):
        faces(square, 3)


def test_polytope_equality_and_hash_ignore_name_and_incidence(square):
    bare = LatticePolytope(square.ambient_rank, square.vertices, square.facets,
                           square.equations)
    assert (bare.name, bare.incidence) != (square.name, square.incidence)
    assert bare == square and hash(bare) == hash(square)


def test_the_face_lattice_is_kept_after_its_first_use(square):
    assert square.all_faces() is square.all_faces()


@pytest.mark.parametrize("record,field", [
    ("polytope", "vertices"), ("face", "vertex_indices"),
    ("cone", "rays"), ("fan", "maximal_cones")])
def test_geometric_records_refuse_assignment(square, record, field):
    fan = face_fan(square)
    obj = {"polytope": square, "face": square.all_faces()[0],
           "cone": fan.maximal_cones[0], "fan": fan}[record]
    with pytest.raises(AttributeError):
        setattr(obj, field, ())
    assert getattr(obj, field) != ()


def test_face_vertex_sets(square):
    edges = faces(square, 1)
    edge_sets = {frozenset(f.vertices()) for f in edges}
    assert frozenset({(-1, -1), (-1, 1)}) in edge_sets
    assert all(f.dimension == 1 for f in edges)


def grid_scan(p):
    """Oracle: direct box scan with the inequality test."""
    los = [min(v[i] for v in p.vertices) for i in range(p.ambient_rank)]
    his = [max(v[i] for v in p.vertices) for i in range(p.ambient_rank)]
    out = []
    for q in itertools.product(*[range(lo, hi + 1)
                                 for lo, hi in zip(los, his)]):
        if all(sum(a * b for a, b in zip(nrm, q)) >= -o
               for nrm, o in p.facets):
            out.append(q)
    return out


def test_lattice_points_square(square):
    assert len(lattice_points(square)) == 9
    assert lattice_points(square) == sorted(grid_scan(square))
    assert interior_lattice_points(square) == [(0, 0)]


def test_lattice_points_diamond(diamond):
    assert len(lattice_points(diamond)) == 5
    assert interior_lattice_points(diamond) == [(0, 0)]


def test_segment_in_rank_two():
    seg = convex_hull([(0, 0), (1, 0)])
    assert seg.dim == 1
    assert lattice_points(seg) == [(0, 0), (1, 0)]
    assert interior_lattice_points(seg) == []
    assert relative_interior_lattice_points(seg) == []
    three = convex_hull([(0, 0), (3, 0)])
    assert relative_interior_lattice_points(three) == [(1, 0), (2, 0)]
    assert interior_lattice_points(three) == []
    # read off a list of the lattice points that the caller holds
    for p in (seg, three, convex_hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])):
        pts = lattice_points(p)
        assert interior_lattice_points(p, pts) == interior_lattice_points(p)
        assert relative_interior_lattice_points(p, pts) == relative_interior_lattice_points(p)


def test_reflexivity(square, diamond):
    assert is_reflexive(square)
    assert is_reflexive(diamond)
    big = convex_hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    assert not is_reflexive(big)
    assert len(interior_lattice_points(big)) == 9
    shifted = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert not is_reflexive(shifted)


def test_polar_dual_square_diamond(square, diamond):
    assert polar_dual(square) == diamond
    assert polar_dual(diamond) == square
    with pytest.raises(LatticeError):
        polar_dual(convex_hull([(2, 2), (2, -2), (-2, 2), (-2, -2)]))


def hull_route_polar(p):
    """Oracle: the polar as the hull of the facet normals of p."""
    return convex_hull([n for n, _ in p.facets], name=f"{p.name}*" if p.name else "")


POLYTOPE_FIELDS = ("ambient_rank", "vertices", "facets", "equations", "name",
                   "incidence")


def fields(p, names=POLYTOPE_FIELDS):
    return {name: getattr(p, name) for name in names}


def polar_hosts():
    """The 16 polygons (named), their prisms, the 136 unordered products of
    two of them, the cube and the 4-cross-polytope."""
    polygons = [convex_hull(v, name=name) for name, v in POLYGONS.items()]
    prisms = [convex_hull([v + (h,) for v in p.vertices for h in (-1, 1)])
              for p in polygons]
    products = [convex_hull(product([polygon_factor(a), polygon_factor(b)]).vertices)
                for a, b in itertools.combinations_with_replacement(POLYGONS.values(), 2)]
    cube = convex_hull(list(itertools.product((-1, 1), repeat=3)), name="cube")
    cross = convex_hull([tuple(s * (i == j) for j in range(4))
                         for i in range(4) for s in (-1, 1)])
    return polygons + prisms + products + [cube, cross]


def test_polar_dual_is_the_hull_of_the_facet_normals():
    hosts = polar_hosts()
    assert len(hosts) == 16 + 16 + 136 + 2
    for p in hosts:
        dual = polar_dual(p)
        assert fields(dual) == fields(hull_route_polar(p)), p.vertices
        # the polar of the polar is p, but for the name's two stars
        back = polar_dual(dual)
        unnamed = [name for name in POLYTOPE_FIELDS if name != "name"]
        assert fields(back, unnamed) == fields(p, unnamed)
        assert back.name == (f"{p.name}**" if p.name else "")


def test_polar_dual_simplex_involution():
    simplex = convex_hull([(-1, -1), (1, 0), (0, 1)])
    assert is_reflexive(simplex)
    assert polar_dual(polar_dual(simplex)) == simplex


def test_simplicial_smooth(square, diamond, cube):
    assert is_smooth(square)
    assert is_simplicial(diamond) and not is_smooth(diamond)
    assert is_smooth(cube)
    # oracle for the diamond: edge primitives at (1,0) are (-1,1), (-1,-1)
    det = (-1) * (-1) - 1 * (-1)
    assert abs(det) == 2


def test_volume(square, diamond, cube):
    assert normalized_volume(square) == 8
    assert normalized_volume(diamond) == 4
    assert normalized_volume(cube) == 48
    assert normalized_volume(convex_hull([(0, 0), (2, 0)])) == 2


def _shoelace(p):
    """Normalized area of a lattice polygon: twice its Euclidean area."""
    cx = sum(v[0] for v in p.vertices) / len(p.vertices)
    cy = sum(v[1] for v in p.vertices) / len(p.vertices)
    cyc = sorted(p.vertices, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    return abs(sum(a[0] * b[1] - a[1] * b[0]
                   for a, b in zip(cyc, cyc[1:] + cyc[:1])))


def test_volume_of_products():
    """vol(P x Q) = C(d_P + d_Q, d_P) vol(P) vol(Q) for normalized volumes."""
    rng = random.Random(11)
    for factors in [(1, 2)] * 6 + [(2, 1)] * 3 + [(2, 2)] * 4:
        polys, vols = [], []
        for d in factors:
            if d == 1:
                a, b = sorted(rng.sample(range(-4, 5), 2))
                polys.append(convex_hull([(a,), (b,)]))
                vols.append(b - a)
            else:
                p = convex_hull([(rng.randint(-2, 2), rng.randint(-2, 2))
                                 for _ in range(rng.randint(3, 5))])
                if p.dim < 2:
                    p = convex_hull([(0, 0), (1, 0), (0, 1)])
                polys.append(p)
                vols.append(_shoelace(p))
        P, Q = polys
        prod = convex_hull([u + v for u in P.vertices for v in Q.vertices])
        assert normalized_volume(prod) == \
            math.comb(sum(factors), factors[0]) * vols[0] * vols[1]


def test_intersection_is_common_face():
    left = convex_hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    right = convex_hull([(0, -1), (0, 1), (1, -1), (1, 1)])
    wall = intersect(left, right)
    assert wall.vertices == ((0, -1), (0, 1))
    assert is_face_of(wall, left) and is_face_of(wall, right)
    far = convex_hull([(5, 5), (6, 5), (5, 6)])
    assert intersect(left, far) is None
    # the two triangles meet in a triangle with the vertex (1/3, 1/3)
    with pytest.raises(LatticeError, match="non-lattice vertex"):
        intersect(convex_hull([(-1, -1), (1, -1), (1, 1)]),
                  convex_hull([(-1, -1), (1, 0), (-1, 1)]))


def test_euler_face_relation(square, diamond, cube):
    for p in (square, diamond, cube):
        total = sum((-1) ** l * len(faces(p, l)) for l in range(p.dim))
        assert total == 1 - (-1) ** p.dim


def test_sixteen_reflexive_polygons():
    polys = reflexive_polygons()
    assert len(polys) == 16 and all(is_reflexive(p) for p in polys)
    # the boundary-point counts of the classification, and the "12 theorem"
    counts = sorted(len(boundary_lattice_points(p)) for p in polys)
    assert counts == [3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]
    for p in polys:
        assert len(boundary_lattice_points(p)) + \
            len(boundary_lattice_points(polar_dual(p))) == 12


def test_document_round_trip(square):
    doc = polytope_to_doc(square)
    assert doc["facets"] == [{"normal": list(n), "offset": o}
                             for n, o in square.facets]
    assert polytope_from_doc(doc) == square


# ---------------------------------------------------------------------------
# The double-description kernel against a subset-enumeration reference
# ---------------------------------------------------------------------------

def _kernel(rows, cols):
    """Basis of {x in Q^cols : r.x = 0 for r in rows}, by Fraction
    Gauss-Jordan elimination (reference code, independent of lgmirror)."""
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        row = M[piv]
        M[piv], M[r] = M[r], [x / row[c] for x in row]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for r, c in enumerate(pivots):
            v[c] = -M[r][f]
        basis.append(v)
    return basis


def _primitive_int(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    w = [int(x * den) for x in v]
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    return tuple(x // g for x in w)


def reference_hull(points):
    """(vertices, facets, dimension) of conv(points) by trying
    every d-subset of points as a facet; facet normals are taken in the
    linear span of the point differences, as convex_hull reports them."""
    pts = sorted(set(points))
    n = len(pts[0])
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    # A basis of the direction space: complement of the kernel's kernel.
    span = _kernel(_kernel(diffs, n), n) if diffs else []
    d = len(span)
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    facets = set()
    for sub in itertools.combinations(pts, d) if d else ():
        rows = [[dot([a - b for a, b in zip(s, sub[0])], w) for w in span]
                for s in sub[1:]]
        ker = _kernel(rows, d)
        if len(ker) != 1:
            continue
        nrm = [sum(c * w[k] for c, w in zip(ker[0], span)) for k in range(n)]
        for sgn in (1, -1):
            a = [sgn * x for x in nrm]
            m = dot(a, sub[0])
            if all(dot(a, p) >= m for p in pts):
                row = _primitive_int(a + [-m])
                facets.add((row[:-1], row[-1]))
    def is_vertex(p):
        # tight on facets whose normals span the direction space
        tight = [list(a) for a, o in facets if dot(a, p) == -o]
        return d == 0 or (tight and n - len(_kernel(tight, n)) == d)

    return tuple(filter(is_vertex, pts)), tuple(sorted(facets)), d


def _minors_gcd(rows):
    """gcd of the maximal minors: 1 exactly when the rows are a basis of a
    saturated lattice."""
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, int(sympy.Matrix([[r[c] for c in cols] for r in rows]).det()))
    return g


@st.composite
def point_sets(draw, min_rank=2):
    """1-8 integer points in rank min_rank-4, on an affine lattice of a
    random dimension 0..rank, so lower-dimensional hulls come up often."""
    n = draw(st.integers(min_rank, 4))
    coords = st.integers(-2, 2)
    k = draw(st.integers(0, n))
    dirs = draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    base = draw(st.lists(coords, min_size=n, max_size=n))
    combos = draw(st.lists(st.lists(coords, min_size=k, max_size=k),
                           min_size=1, max_size=8))
    return [tuple(b + sum(c * w[i] for c, w in zip(cs, dirs))
                  for i, b in enumerate(base)) for cs in combos]


def old_equations(points):
    """convex_hull's former affine-hull route: the integer kernel of the
    differences from the first point, or the identity for one point."""
    pts = list(dict.fromkeys(tuple(q) for q in points))
    diffs = [list(vec_sub(q, pts[0])) for q in pts[1:]]
    ann = integer_kernel(diffs) if diffs else identity(len(pts[0]))
    return tuple((tuple(r), dot(r, pts[0])) for r in ann)


@given(point_sets())
@settings(max_examples=200)
def test_convex_hull_matches_subset_enumeration(points):
    p = convex_hull(points)
    verts, facets, d = reference_hull(points)
    assert p.vertices == verts
    assert p.facets == facets
    assert p.dim == d
    # The equations are a basis of the saturated lattice of integer normals
    # to the affine hull, with the right-hand sides of the points.
    rows = [list(e) for e, _ in p.equations]
    assert len(rows) == len(points[0]) - d
    assert all(sum(a * b for a, b in zip(e, q)) == c
               for e, c in p.equations for q in points)
    assert not rows or _minors_gcd(rows) == 1
    assert p.equations == old_equations(points)


@given(point_sets())
@settings(max_examples=100)
def test_v_to_h_to_v_round_trip(points):
    p = convex_hull(points)
    q = polytope_from_inequalities(p.facets, p.equations, ambient_rank=p.ambient_rank)
    assert (q.vertices, q.facets, q.equations) == (p.vertices, p.facets, p.equations)


@given(point_sets())
@settings(max_examples=100)
def test_recession_rays_of_a_pointed_cone_are_its_rays(points):
    rays = [r for r in points if any(r)]
    try:
        cone = Cone.from_rays(rays, len(points[0]))
    except FanError:
        return  # the rays span a line
    ineqs, eqs = cone_hrep(cone.rays, cone.ambient_rank)
    found = recession_rays([(a, 0) for a in ineqs], [(e, 0) for e in eqs],
                           ambient_rank=cone.ambient_rank)
    assert sorted(found) == list(cone.rays)


# ---------------------------------------------------------------------------
# The facet-vertex incidence against the dot-and-rank code it replaced
# ---------------------------------------------------------------------------

def old_vertices(p, points):
    """convex_hull's former vertex test: the points whose tight facet
    normals span the direction space."""
    if p.dim == 0:
        return tuple(set(points))
    return tuple(sorted(q for q in set(points)
                        if (tight := [list(a) for a, o in p.facets if dot(a, q) == -o])
                        and rank(tight) == p.dim))


def old_facet_sets(p):
    """face_lattice's former facet vertex sets, by evaluating each facet."""
    return tuple(frozenset(i for i, v in enumerate(p.vertices) if dot(a, v) == -o)
                 for a, o in p.facets)


def frozenset_face_lattice(p):
    """The former face_lattice, on frozensets: the facet vertex sets, by
    evaluating each facet, closed under intersection and ranked by the
    dimensions of their proper faces."""
    facet_sets = old_facet_sets(p)
    frontier = set(facet_sets)
    all_sets = frontier | {frozenset(range(len(p.vertices)))}
    while frontier:
        frontier = {t for s in frontier for f in facet_sets
                    if (t := s & f) and t not in all_sets}
        all_sets |= frontier
    out, dims = [], {}
    for s in sorted(all_sets, key=lambda s: (len(s), sorted(s))):
        dims[s] = 1 + max((dims[s & f] for f in facet_sets
                           if s & f and s & f != s), default=-1)
        out.append(Face(p, tuple(sorted(s)), dims[s]))
    return out


def assert_same_face_lattice(p):
    faces = face_lattice(p)
    oracle = frozenset_face_lattice(p)
    assert [(f.vertex_indices, f.dimension) for f in faces] == \
        [(f.vertex_indices, f.dimension) for f in oracle]
    assert faces == oracle


def old_carrier(p, points):
    """The former partitions._carrier_face: the vertex indices tight on
    every facet that is tight on all the points."""
    tight = [(a, o) for a, o in p.facets if all(dot(a, q) == -o for q in points)]
    return tuple(i for i, v in enumerate(p.vertices)
                 if all(dot(a, v) == -o for a, o in tight))


def old_is_face_of(f, p):
    fv = set(f.vertices)
    return any(set(face.vertices()) == fv for face in p.all_faces())


def old_is_simplicial(p):
    """dim edges at every vertex, counted off the 1-faces."""
    edges = [f.vertices() for f in faces(p, 1)]
    return all(sum(v in e for e in edges) == p.dim for v in p.vertices)


@given(point_sets(min_rank=1))
@example([(0, 0, 0), (1, 1, 1), (3, 3, 3), (-1, -1, -1)])     # collinear
@example([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 3),
          (1, 1, 2)])                                          # coplanar
@settings(max_examples=200)
def test_hull_vertices_and_incidence_match_the_dot_and_rank_oracle(points):
    p = convex_hull(points)
    assert p.vertices == old_vertices(p, points)
    assert p.incidence == tuple(sum(1 << k for k in s) for s in old_facet_sets(p))
    assert_same_face_lattice(p)  # the masks close and rank as the sets did


def benchmark_shape_vertices(tmp_path):
    """The vertex lists of the 16 polygons, their prisms and the products of
    the seed-3 hulls workload, as its ops read them."""
    import workloads
    polygons = [P.vertices for P in reflexive_polygons()]
    prisms = [[v + (h,) for v in P for h in (-1, 1)] for P in polygons]
    workloads.generate("hulls", 3, str(tmp_path))
    products = [[tuple(v) for v in json.loads(f.read_text())["vertices"]]
                for f in sorted((tmp_path / "inputs").glob("product*.json"))]
    assert len(products) == len(workloads.PRODUCT_CLASSES)
    return polygons + prisms + products


def test_face_lattice_matches_the_frozenset_oracle_on_the_benchmark_shapes(tmp_path):
    for vertices in benchmark_shape_vertices(tmp_path):
        assert_same_face_lattice(convex_hull(vertices))


@given(st.data())
@settings(max_examples=100)
def test_carrier_and_is_face_of_match_the_oracles(data):
    points = sorted(set(data.draw(point_sets(min_rank=1))))
    p = convex_hull(points)
    for face in p.all_faces():
        assert carrier(p, face.vertices()) == face
        assert is_face_of(convex_hull(face.vertices()), p)
    # Hulls of other point sets of p, most of them not faces, and one
    # moved off p.
    subsets = data.draw(st.lists(st.lists(st.sampled_from(points), min_size=1,
                                          max_size=4), min_size=1, max_size=4))
    for sub in subsets:
        assert carrier(p, sub).vertex_indices == old_carrier(p, sub)
        f = convex_hull(sub)
        assert is_face_of(f, p) == old_is_face_of(f, p)
    off = convex_hull([tuple(x + 1 for x in v) for v in subsets[0]])
    assert is_face_of(off, p) == old_is_face_of(off, p)


def test_carrier_builds_one_face_lattice_and_scans_no_faces(monkeypatch, cube):
    """A carrier is one lookup by vertex mask: over many calls, the face
    lattice is built once and the list of faces is read once, to key it."""
    import lgmirror.lattice as lattice
    p = convex_hull(cube.vertices)
    builds, reads = [], []
    build, all_faces = lattice.face_lattice, LatticePolytope.all_faces
    monkeypatch.setattr(lattice, "face_lattice", lambda q: builds.append(q) or build(q))
    monkeypatch.setattr(LatticePolytope, "all_faces",
                        lambda q: reads.append(q) or all_faces(q))
    subsets = [s for r in (1, 2, 3) for s in itertools.combinations(p.vertices, r)]
    found = [carrier(p, s).vertex_indices for s in subsets]
    assert found == [old_carrier(p, s) for s in subsets]
    assert builds == [p] and reads == [p]


def test_is_simplicial_matches_the_edge_count():
    polygons = [convex_hull(v) for v in POLYGONS.values()]
    prisms = [convex_hull([v + (h,) for v in P.vertices for h in (-1, 1)])
              for P in polygons]
    by_count = {len(P.vertices): P for P in polygons}
    products = [convex_hull([u + v for u in by_count[a].vertices
                             for v in by_count[b].vertices])
                for a, b in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (6, 6))]
    # The duals of prisms (bipyramids) and of products are not simple.
    cases = polygons + prisms + products + [polar_dual(p) for p in prisms + products]
    verdicts = [is_simplicial(p) for p in cases]
    assert verdicts == [old_is_simplicial(p) for p in cases]
    assert any(verdicts) and not all(verdicts)


def test_slab_is_unbounded_not_infeasible():
    slab = [((1, 0, 0), 0), ((-1, 0, 0), 1)]
    with pytest.raises(LatticeError, match="unbounded"):
        polytope_from_inequalities(slab, ambient_rank=3)
    rays = recession_rays([((1, 0, 0), 0)], ambient_rank=3)
    for r in ((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        assert r in rays


def test_empty_system_is_infeasible():
    with pytest.raises(LatticeError, match="infeasible"):
        polytope_from_inequalities([((1, 0), 0), ((-1, 0), -1),
                                    ((0, 1), 0), ((0, -1), 1)], ambient_rank=2)


@pytest.mark.parametrize("argv", [["polytope", "points"], ["ss", "delta"]])
def test_missing_input_file_is_named(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.json")
    assert main(argv + [missing]) == 3
    assert missing in capsys.readouterr().err


def test_face_lattice_is_built_once_per_polytope(monkeypatch, cube):
    import lgmirror.lattice as lattice
    builds = []
    build = lattice.face_lattice
    monkeypatch.setattr(lattice, "face_lattice",
                        lambda p: builds.append(p) or build(p))
    assert is_smooth(cube)
    assert len(faces(cube, 1)) == 12
    assert builds == [cube]


@pytest.mark.parametrize("shape", ["cube", "hexagon x hexagon"])
def test_face_lattice_and_hull_vertices_evaluate_no_facet(monkeypatch, cube,
                                                           shape):
    """Both read the incidence of the double description: no dot, no rank."""
    import lgmirror.lattice as lattice
    import lgmirror.linalg as linalg
    hexagon = POLYGONS["b6v6"]
    points = (cube.vertices if shape == "cube"
              else [u + v for u in hexagon for v in hexagon])
    calls = []
    for mod in (lattice, linalg):
        for name in ("dot", "rank", "mat_rank"):
            if hasattr(mod, name):
                f = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, f=f, name=name:
                                    calls.append(name) or f(*a))
    generators = lattice.cone_generators

    def cone_generators(*args):
        out = generators(*args)
        calls.clear()  # count from the end of the double description on
        return out
    monkeypatch.setattr(lattice, "cone_generators", cone_generators)
    p = lattice.convex_hull(points)
    assert len(p.vertices) == (8 if shape == "cube" else 36)
    assert calls == []
    assert len(lattice.face_lattice(p)) == (27 if shape == "cube" else 169)
    assert calls == []


# ---------------------------------------------------------------------------
# The affine hull off the lineality, smoothness off the facets at a vertex
# ---------------------------------------------------------------------------

def hull_and_kernel_calls(points):
    """convex_hull(points) and the number of integer_kernel calls it made."""
    import lgmirror.lattice as lattice
    calls = []
    kernel = lattice.integer_kernel
    with mock.patch.object(lattice, "integer_kernel",
                           lambda A: calls.append(A) or kernel(A)):
        p = lattice.convex_hull(points)
    return p, len(calls)


@given(point_sets(min_rank=1))
@example([(0, 0, 0), (1, 1, 1), (3, 3, 3), (-1, -1, -1)])     # collinear
@example([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 3),
          (1, 1, 2)])                                          # coplanar
@example([(2, -1, 0)])                                         # one point
@settings(max_examples=200)
def test_only_a_lower_dimensional_hull_takes_an_integer_kernel(points):
    """The double description's lineality says whether the points are
    full-dimensional; the kernel is taken only for the equations."""
    p, calls = hull_and_kernel_calls(points)
    assert calls == (0 if p.is_full_dimensional() else 1)
    assert p.equations == old_equations(points)


def test_no_benchmark_shape_takes_an_integer_kernel(tmp_path):
    shapes = benchmark_shape_vertices(tmp_path)
    for vertices in shapes:
        assert hull_and_kernel_calls(vertices)[1] == 0
    # their facets and edges, as polytopes of their own, take one each
    for vertices in shapes[16:18] + shapes[-1:]:
        p = convex_hull(vertices)
        for f in faces(p, p.dim - 1) + faces(p, 1):
            q, calls = hull_and_kernel_calls(f.vertices())
            assert (q.dim, calls) == (f.dimension, 1)


def old_vertex_is_smooth(p, v):
    """The former vertex_is_smooth: the primitive directions of the edges at
    v, read off the face lattice, are a lattice basis."""
    dirs = [primitive(vec_sub(w, v)) for f in faces(p, 1) if v in f.vertices()
            for w in f.vertices() if w != v]
    return len(dirs) == p.dim and abs(det(dirs)) == 1


def assert_smooth_as_the_edges_say(p):
    verdicts = [vertex_is_smooth(p, v) for v in p.vertices]
    assert verdicts == [old_vertex_is_smooth(p, v) for v in p.vertices]
    assert is_smooth(p) == all(verdicts)
    return verdicts


@st.composite
def full_dimensional_point_sets(draw):
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                           min_size=n + 1, max_size=8))
    p = convex_hull(points)
    assume(p.is_full_dimensional())
    return p


@given(full_dimensional_point_sets())
@settings(max_examples=200)
def test_vertex_is_smooth_matches_the_edge_directions(p):
    assert_smooth_as_the_edges_say(p)


def test_vertex_is_smooth_matches_the_edge_directions_on_the_benchmark_shapes(tmp_path):
    hexagon = POLYGONS["b6v6"]
    shapes = benchmark_shape_vertices(tmp_path)
    shapes += [[u + v for u in hexagon for v in hexagon],
               [u + v + w for u in hexagon for v in hexagon for w in hexagon]]
    verdicts = [v for vertices in shapes
                for v in assert_smooth_as_the_edges_say(convex_hull(vertices))]
    assert any(verdicts) and not all(verdicts)


def test_is_smooth_builds_no_face_lattice(monkeypatch, tmp_path):
    import lgmirror.lattice as lattice
    builds = []
    build = lattice.face_lattice
    monkeypatch.setattr(lattice, "face_lattice",
                        lambda p: builds.append(p) or build(p))
    verdicts = [is_smooth(convex_hull(vertices))
                for vertices in benchmark_shape_vertices(tmp_path)]
    assert any(verdicts) and not all(verdicts)
    assert builds == []


SQUARE = {"rank": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}
TRIANGLE = [[0, 0], [1, 0], [0, 1]]
P2 = {"rank": 2, "vertices": [[1, 0], [0, 1], [-1, -1]]}
ELLIPTIC = corpus_doc("elliptic-deg")
CURVE = {"n": 1, "side": "degeneration",
         "strata": [{"I": [0], "dims": {"0": 1}}, {"I": [0, 1], "dims": {"0": 2}}]}


def _with(doc, **fields):
    return {**doc, **fields}


def _with_item(key, i, **fields):
    """elliptic-deg-complex with fields of the i-th item of doc[key] replaced."""
    doc = corpus_doc("elliptic-deg-complex")
    items = list(doc[key])
    items[i] = _with(items[i], **fields)
    return _with(doc, **{key: items})


def _restrict(matrix):
    return {"kind": "restrict", "from": [0], "to": [0, 1], "degree": 0,
            "matrix": matrix}


# The command each kind of document is read by, and how many files it takes.
ARGV = {"polytope": ["polytope", "points"], "partition": ["partition", "validate"],
        "lg": ["lg", "emit"], "compactify": ["lg", "compactify"],
        "ss": ["ss", "weight"], "euler": ["euler", "check"]}


@pytest.mark.parametrize("command, doc, path", [
    ("polytope", {"rank": 2, "vertices": [[0, 0], [1, 0, 0], [0, 1]]},
     "vertices[1]"),
    ("polytope", {"rank": 2, "vertices": []}, "vertices"),
    ("polytope", TRIANGLE, "document"),
    ("polytope", {"vertices": TRIANGLE}, "rank"),
    ("polytope", {"rank": 2, "vertices": [[0.5, 0], [1, 0], [0, 1]]},
     "vertices[0][0]"),
    ("polytope", {"rank": 2, "vertices": [[True, 0], [1, 0], [0, 1]]},
     "vertices[0][0]"),
    ("partition", {"polytope": SQUARE, "pieces": [TRIANGLE, [[0, 0, 0]]]},
     "pieces[1][0]"),
    ("partition", [SQUARE, [TRIANGLE]], "document"),
    ("partition", {"polytope": SQUARE, "pieces": [[1, 0]]}, "pieces[0][0]"),
    ("partition", {"polytope": SQUARE, "pieces": [[[0.0, 0], [1, 0], [0, 1]]]},
     "pieces[0][0][0]"),
    ("partition", {"polytope": {"rank": 2, "vertices": [[1.5, 0]]},
                   "pieces": [TRIANGLE]}, "polytope.vertices[0][0]"),
    ("polytope", _with(SQUARE, name=7), "name"),
    ("lg", {"polytope": P2, "parts": [[0, 1, 2.0]]}, "parts[0][2]"),
    ("lg", {"polytope": P2, "parts": 5}, "parts"),
    ("lg", {"polytope": P2, "parts": [[0, 1], 2]}, "parts[1]"),
    ("lg", {"polytope": 5, "parts": [[0, 1, 2]]}, "polytope"),
    ("ss", _with(CURVE, strata=[{"I": [0], "dims": {"0": 1.5}}]),
     "strata[0].dims.0"),
    ("ss", _with(CURVE, strata=[{"I": [0], "dims": {"x": 1}}]),
     "strata[0].dims"),
    ("ss", _with(CURVE, strata=[{"I": [0.0], "dims": {"0": 1}}]),
     "strata[0].I[0]"),
    ("ss", _with(CURVE, strata=[{"I": [0], "dims": {"0": 1},
                                 "hodge": {"0": {"0": True}}}]),
     "strata[0].hodge.0.0"),
    ("ss", _with(CURVE, maps=[_restrict([[1.5], ["1"]])]), "maps[0].matrix[0][0]"),
    ("ss", _with(CURVE, maps=[_restrict([["1"], [True]])]), "maps[0].matrix[1][0]"),
    ("ss", _with(CURVE, maps=[_restrict([["1/0"], ["1"]])]), "maps[0].matrix[0][0]"),
    ("ss", _with(CURVE, maps=[_restrict([["0.5"], ["1"]])]), "maps[0].matrix[0][0]"),
    ("ss", _with(CURVE, maps=[_with(_restrict([["1"], ["1"]]), degree="0")]),
     "maps[0].degree"),
    ("ss", _with(CURVE, n=1.0), "n"),
    ("ss", _with(CURVE, strata=[]), "strata"),
    ("ss", _with(CURVE, strata=[{"I": [], "dims": {"0": 1}}]), "strata[0].I"),
    ("ss", _with(CURVE, maps=[_with(_restrict([["1"], ["1"]]), kind="bogus")]),
     "maps[0].kind"),
    ("euler", {"n": 1, "components": 2, "side": "degeneration",
               "entries": [{"I": [0], "e": 2.5}]}, "entries[0].e"),
    ("euler", {"n": True, "components": 2, "side": "degeneration",
               "entries": []}, "n"),
    ("euler", {"n": 1, "components": 2, "side": "degeneration",
               "entries": [], "zero_strata": [[0, "1"]]}, "zero_strata[0][1]"),
    ("compactify", {"polytope": P2, "parts": [[0, 1, 2]],
                    "split_last_points": 5}, "split_last_points"),
    ("compactify", {"polytope": P2, "parts": [[0, 1, 2]],
                    "split_last_points": [[[1, 0]], [[0, 1, 0]]]},
     "split_last_points[1][0]"),
    ("ss", _with(CURVE, maps=[_restrict([["1", "1"]])]), "maps[0].matrix"),
    ("ss", _with(CURVE, pairings=[{"I": [0, 1], "degree": 0, "matrix": [["1"]]}]),
     "pairings[0].matrix"),
    ("ss", _with(CURVE, strata=[{"I": [0], "dims": {"0": -1}}]), "strata[0].dims.0"),
    ("ss", _with(CURVE, strata=[{"I": [0], "dims": {"0": 1}},
                                {"I": [0, 1], "dims": {"0": -1}}],
                 maps=[_restrict([["1"]])]), "strata[1].dims.0"),
    ("ss", _with(CURVE, strata=[{"I": [0], "dims": {"0": 1},
                                 "hodge": {"0": {"0": 2, "1": -1}}}]),
     "strata[0].hodge.0.1"),
    ("ss", _with(CURVE, strata=[{"I": [0, -2], "dims": {"0": 1}}]), "strata[0].I[1]"),
    ("ss", _with(CURVE, maps=[_with(_restrict([["1"], ["1"]]), to=[0, -1])]),
     "maps[0].to[1]"),
    ("ss", _with(CURVE, n=-3), "n"),
    ("euler", _with(ELLIPTIC, entries=[{"I": [-1], "e": 2}]), "entries[0].I[0]"),
    ("euler", _with(ELLIPTIC, components=-2), "components"),
    ("euler", _with(ELLIPTIC, components=0), "components"),
    ("euler", _with(ELLIPTIC, n=-1), "n"),
    ("euler", _with(ELLIPTIC, entries=[{"I": [], "e": 2}]), "entries[0].I"),
    ("euler", _with(ELLIPTIC, entries=[{"I": [0, 0], "e": 2}]), "entries[0].I[1]"),
    ("euler", _with(ELLIPTIC, entries=[{"I": [0, 2], "e": 2}]), "entries[0].I[1]"),
    ("euler", _with(ELLIPTIC, entries=[{"I": [0.0], "e": 2}]), "entries[0].I[0]"),
    ("euler", _with(ELLIPTIC, zero_strata=[[1, 1]]), "zero_strata[0][1]"),
    ("euler", _with(ELLIPTIC, zero_strata=[[-1]]), "zero_strata[0][0]"),
    ("euler", _with(ELLIPTIC, zero_strata=[[2]]), "zero_strata[0][0]"),
    ("euler", _with(ELLIPTIC, zero_strata=[[]]), "zero_strata[0]"),
    ("ss", _with(CURVE, strata=CURVE["strata"] + [{"I": [0], "dims": {"0": 1}}]),
     "strata[2].I"),
    ("ss", _with(CURVE, maps=[_restrict([["1"], ["1"]]), _restrict([["1"], ["2"]])]),
     "maps[1]"),
    ("ss", _with(CURVE, pairings=[{"I": [0], "degree": 0, "matrix": [["1"]]}] * 2),
     "pairings[1]"),
    ("ss", _with(CURVE, side="degenration"), "side"),
    ("euler", _with(ELLIPTIC, entries=ELLIPTIC["entries"] + [{"I": [1, 0], "e": 5}]),
     f"entries[{len(ELLIPTIC['entries'])}].I"),
    ("euler", _with(ELLIPTIC, side="hybird"), "side"),
    ("ss", _with_item("strata", 0, dims={"0": 1, "2": 1, "02": 5}),
     "strata[0].dims"),
    ("ss", _with_item("strata", 0, dims={"0": 1, "2": 1, "-0": 5}),
     "strata[0].dims"),
    ("ss", _with_item("strata", 0, hodge={"0": {"0": 1}, "2": {"00": 1}}),
     "strata[0].hodge.2"),
    ("ss", _with_item("strata", 0, hodge={"0": {"0": 1}, "-0": {"0": 1}}),
     "strata[0].hodge"),
    ("ss", _with_item("strata", 2, I=[1, 0, 1]), "strata[2].I[2]"),
    ("ss", _with_item("maps", 0, **{"from": [0, 0]}), "maps[0].from[1]"),
    ("euler", _with(ELLIPTIC, zero_strata=[[0, 1]]), "zero_strata[0]"),
    ("euler", _with(ELLIPTIC, entries=ELLIPTIC["entries"][:2],
                    zero_strata=[[0, 1], [1, 0]]), "zero_strata[1]"),
])
def test_malformed_document_exits_3_with_its_path(capsys, tmp_path, command,
                                                 doc, path):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    files = [str(f)] * (2 if command == "euler" else 1)
    assert main(ARGV[command] + files) == 3
    err = capsys.readouterr().err
    assert f"cannot read input: {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rank", [0, -1])
@pytest.mark.parametrize("argv, host", [
    (["polytope", "smooth"], False), (["polytope", "dual"], False),
    (["partition", "validate"], True)])
def test_a_rank_below_1_exits_3_at_the_rank(capsys, tmp_path, rank, argv, host):
    # rank 0 used to reach the kernels: `smooth` failed on a face dimension
    # and `dual` on an empty hull, both with exit 2
    doc = {"rank": rank, "vertices": [[]]}
    if host:
        doc = {"polytope": doc, "pieces": [[[]]]}
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(argv + [str(f)]) == 3
    path = "polytope.rank" if host else "rank"
    assert capsys.readouterr() == (
        "", f"cannot read input: {path}: expected an int >= 1, got {rank}\n")


@pytest.mark.parametrize("error", [KeyError, ValueError, TypeError])
def test_internal_error_is_not_reported_as_bad_input(monkeypatch, error):
    import lgmirror.partitions as partitions

    def broken(part):
        raise error("a bug, not bad input")
    monkeypatch.setattr(partitions, "validate_semistable", broken)
    with pytest.raises(error):
        main(["partition", "validate", corpus_path("square-vsplit")])


# Fuzzed corpus documents: each kind, the corpus documents of that kind, the
# command that reads them (None: no command does, so the loader is called),
# and the top-level keys under which the command reads every value.  lg emit
# does not read the points of split_last_points, so they are not fuzzed; a
# key that the loader does not know exits 3 at its object.
FUZZ_KINDS = {
    "polytope": (("big-square", "cube", "diamond", "square", "tsigma"),
                 ARGV["polytope"], {"rank", "vertices", "name"}),
    "partition": (("square-diag", "square-vsplit", "tsigma-3piece"),
                  ARGV["partition"], {"polytope", "pieces"}),
    "nef": (("diamond-nef", "square-nef-anticanonical"), ARGV["lg"],
            {"polytope", "parts"}),
    "strata": (("elliptic-deg", "elliptic-hyb", "elliptic-hyb-corrupt"),
               ARGV["euler"], {"n", "components", "side", "entries"}),
    "spectral": (("delta-sign-instance", "elliptic-deg-complex",
                  "elliptic-hyb-complex"), ARGV["ss"],
                 {"n", "side", "strata", "maps", "pairings"}),
    "cubical": (("elliptic-cubical-a", "elliptic-cubical-b"), None,
                {"label", "entries", "maps"}),
    "monodromy": (("monodromy-bad", "monodromy-ok"), None, {"dim", "reps"}),
}
# Keys whose absence is valid; keys of graded dimensions ("0", "2") are data.
OPTIONAL = {"name", "hodge", "maps", "pairings", "zero_strata", "label", "i",
            "facets", "split_last_points"}


def _schema_key(key):
    """A key that a loader names, not a list index or a graded-dimension
    key, which is data."""
    return isinstance(key, str) and not re.fullmatch(r"-?[0-9]+", key)


def _rename(container, key, path):
    """Rename container[key] to key + "_", and return the path of the
    object that held it."""
    container[key + "_"] = container.pop(key)
    return path[:-len(key)].rstrip(".")


def _positions(doc, keys):
    """(JSON path, container, key) of every value under the given keys."""
    out = []

    def walk(container, key, path):
        out.append((path, container, key))
        value = container[key]
        items = value.items() if isinstance(value, dict) else enumerate(
            value if isinstance(value, list) else ())
        for k, _ in items:
            walk(value, k, f"{path}.{k}" if isinstance(k, str) else f"{path}[{k}]")
    for k in doc:
        if k in keys:
            walk(doc, k, k)
    return out


def _wrong_values(old):
    """Values of another JSON type than old.  An int in place of a string
    can be a matrix entry, and a string in place of an object a corpus
    reference, so those two swaps are left out."""
    return [v for v in (None, 1.5, True, "x", [], {}, 7)
            if type(v) is not type(old)
            and not (type(old) is str and type(v) is int)
            and not (type(old) is dict and type(v) is str)]


def _out_of_range(doc, path, container, key):
    """Ints of the right type but out of range at the count and index
    positions of a strata document: a negative n, fewer than one component,
    and an index set that is empty, negative, repeats an earlier index or
    reaches the number of components."""
    if path == "n":
        return [-1]
    if path == "components":
        return [0, -2]
    if re.fullmatch(r"entries\[\d+\]\.I", path):
        return [[]]
    if re.fullmatch(r"entries\[\d+\]\.I\[\d+\]", path):
        return [-1, doc["components"]] + ([container[0]] if key else [])
    return []


@given(st.data())
@settings(max_examples=250)
def test_fuzzed_documents_exit_3_with_their_path(data):
    from lgmirror import spectral, strata
    kind = data.draw(st.sampled_from(sorted(FUZZ_KINDS)))
    names, argv, keys = FUZZ_KINDS[kind]
    doc = corpus_doc(data.draw(st.sampled_from(names)))
    path, container, key = data.draw(st.sampled_from(_positions(doc, keys)))
    edits = ["replace"] + ["rename", "delete"] * _schema_key(key)
    edit = data.draw(st.sampled_from(edits))
    if edit == "rename":
        path = _rename(container, key, path)  # the error names its object
    elif edit == "delete" and key not in OPTIONAL:
        del container[key]
    else:
        bad = _out_of_range(doc, path, container, key) if kind == "strata" else []
        if not (bad and data.draw(st.booleans())):
            bad = _wrong_values(container[key])
        container[key] = data.draw(st.sampled_from(bad))
    if argv is None:
        loader = {"cubical": spectral.cubical_from_doc,
                  "monodromy": strata.monodromy_from_doc}[kind]
        with pytest.raises(InputError) as exc:
            loader(doc)
        assert exc.value.path.startswith(path)
        return
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "doc.json")
        with open(f, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [f] * (2 if kind == "strata" else 1))
    assert code == 3, (path, err.getvalue())
    assert err.getvalue().startswith(f"cannot read input: {path}"), err.getvalue()


# ---------------------------------------------------------------------------
# One gate per document: the loader's keys and the command's sides
# ---------------------------------------------------------------------------

def _read(directory, kind, original, doc):
    """(exit code, stderr) of the command that reads the corpus document
    original of the given kind, run on doc in its place: a strata or spectral
    document in the slot of its side, a nef document through lg compactify,
    which reads split_last_points.  No command reads the cubical and
    monodromy kinds, so their loader runs, and an InputError is exit 3."""
    from lgmirror import spectral, strata
    if kind in ("cubical", "monodromy"):
        loader = {"cubical": spectral.cubical_from_doc,
                  "monodromy": strata.monodromy_from_doc}[kind]
        try:
            loader(doc)
        except InputError as exc:
            return 3, f"cannot read input: {exc}\n"
        return 0, ""
    f = os.path.join(directory, "doc.json")
    with open(f, "w") as fh:
        json.dump(doc, fh)
    deg = original.get("side") == "degeneration"
    argv = {"strata": ["euler", "check"] + ([f, corpus_path("elliptic-hyb")] if deg
                                           else [corpus_path("elliptic-deg"), f]),
            "spectral": ["ss", "weight" if deg else "delta", f],
            "nef": ["lg", "compactify", f]}.get(kind, FUZZ_KINDS[kind][1] + [f])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


CORPUS_KINDS = {name: kind for kind, (names, _, _) in FUZZ_KINDS.items()
                for name in names}


def test_every_corpus_document_has_a_kind():
    from lgmirror.cli import corpus_names
    assert sorted(CORPUS_KINDS) == corpus_names()


@pytest.mark.parametrize("name", sorted(CORPUS_KINDS))
def test_renamed_keys_exit_3_under_their_object(tmp_path, name):
    # every key a loader names, at every depth: a required key is then
    # missing, an optional one unknown, both in the object that held it
    kind = CORPUS_KINDS[name]
    original = corpus_doc(name)
    count = len(_positions(original, original.keys()))
    renamed = 0
    for i in range(count):
        doc = corpus_doc(name)
        path, container, key = _positions(doc, doc.keys())[i]
        if not _schema_key(key):
            continue
        obj = _rename(container, key, path)
        code, err = _read(tmp_path, kind, original, doc)
        assert code == 3, (path, err)
        missing = f"cannot read input: {path}: missing\n"
        unknown = f"cannot read input: {obj or 'document'}: unknown key '{key}_'\n"
        assert err == (unknown if key in OPTIONAL else missing), path
        renamed += 1
    assert renamed


@pytest.mark.parametrize("name", sorted(CORPUS_KINDS))
def test_dropped_optional_keys_never_exit_3(tmp_path, name):
    # dropping i would make a pair rep a diagonal rep, which may repeat one
    kind = CORPUS_KINDS[name]
    original = corpus_doc(name)
    for i in range(len(_positions(original, original.keys()))):
        doc = corpus_doc(name)
        path, container, key = _positions(doc, doc.keys())[i]
        if key in OPTIONAL - {"i"}:
            del container[key]
            code, err = _read(tmp_path, kind, original, doc)
            assert code in (0, 2), (path, err)


def _hull_facets(doc):
    return polytope_to_doc(polytope_from_doc(doc))["facets"]


@pytest.mark.parametrize("name, key, default", [
    ("delta-sign-instance", "maps", []),
    ("elliptic-hyb-complex", "maps", []),
    ("elliptic-hyb-complex", "pairings", []),
    ("elliptic-deg", "zero_strata", []),
    ("elliptic-hyb", "zero_strata", []),
    ("elliptic-cubical-a", "label", 0),
    ("elliptic-cubical-b", "maps", []),
    ("square", "name", ""),
    ("tsigma", "facets", _hull_facets),
])
def test_a_dropped_optional_key_reads_as_its_default(name, key, default):
    from lgmirror import spectral, strata
    load = {"spectral": spectral.complex_from_doc, "strata": strata.strata_from_doc,
            "cubical": spectral.cubical_from_doc,
            "polytope": polytope_from_doc}[CORPUS_KINDS[name]]
    dropped = corpus_doc(name)
    dropped.pop(key, None)
    written = dict(dropped, **{key: default(dropped) if callable(default) else default})
    assert repr(load(dropped)) == repr(load(written))


@pytest.mark.parametrize("mode", ["smoothing", "central_fiber"])
@pytest.mark.parametrize("drop", [[0], [1], [2], [0, 1, 2]])
def test_a_dropped_hodge_compares_total_dimensions(capsys, tmp_path, drop, mode):
    doc = corpus_doc("elliptic-deg-complex")
    for i in drop:
        del doc["strata"][i]["hodge"]
    f = tmp_path / "deg.json"
    f.write_text(json.dumps(doc))
    assert main(["ss", "pw", str(f), corpus_path("elliptic-hyb-complex"),
                 "--mode", mode, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["labelled"] is False
    assert {c["a"] for c in report["cells"]} == {None}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 2)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3), inner, max_size=3), max_leaves=6)


@given(st.data())
@settings(max_examples=200)
def test_random_edits_exit_0_2_or_3(data):
    # up to three edits anywhere in a corpus document: delete, rename or
    # replace by any JSON value; no edit may reach a traceback
    name = data.draw(st.sampled_from(sorted(CORPUS_KINDS)))
    doc = corpus_doc(name)
    for _ in range(data.draw(st.integers(1, 3))):
        positions = _positions(doc, doc.keys())
        if not positions:
            break
        path, container, key = data.draw(st.sampled_from(positions))
        edit = data.draw(st.sampled_from(["delete", "rename", "replace"]))
        if edit == "replace":
            container[key] = data.draw(JSON_VALUES)
        elif edit == "rename" and isinstance(key, str):
            _rename(container, key, path)
        else:
            del container[key]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _read(tmp, CORPUS_KINDS[name], corpus_doc(name), doc)
    assert code in (0, 2, 3), err


@pytest.mark.parametrize("argv", [
    ["euler", "check", "elliptic-hyb", "elliptic-deg"],
    ["ss", "pw", "elliptic-hyb-complex", "elliptic-deg-complex"],
    ["ss", "pw", "elliptic-hyb-complex", "elliptic-deg-complex",
     "--mode", "central_fiber"]])
def test_swapped_files_exit_3_at_side(capsys, argv):
    files = [corpus_path(a) if a.startswith("elliptic") else a for a in argv[2:]]
    assert main(argv[:2] + files) == 3
    assert capsys.readouterr() == ("", (
        f"cannot read input: side: {argv[0]} {argv[1]} DEG expects "
        "'degeneration', got 'hybrid'\n"))


@pytest.mark.parametrize("name", ["cube", "diamond", "square", "tsigma"])
def test_polytope_dual_output_reads_back(capsys, tmp_path, name):
    assert main(["polytope", "dual", corpus_path(name)]) == 0
    dual = json.loads(capsys.readouterr().out)
    f = tmp_path / "dual.json"
    f.write_text(json.dumps(dual))
    assert main(["polytope", "points", str(f)]) == 0
    assert polytope_from_doc(dual) == polar_dual(polytope_from_doc(corpus_doc(name)))
    # facets that are not the hull's, or not ints, are rejected at facets
    for bad in ([], dual["facets"][1:], [dict(dual["facets"][0], offset=True)]
                + dual["facets"][1:]):
        f.write_text(json.dumps(dict(dual, facets=bad)))
        capsys.readouterr()
        assert main(["polytope", "points", str(f)]) == 3
        assert capsys.readouterr().err == (
            "cannot read input: facets: differ from the facets of the hull of "
            "the vertices\n")
