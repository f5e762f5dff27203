import itertools
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lgmirror.cli import main
from lgmirror.fans import Cone, FanError
from lgmirror.lattice import (
    LatticeError,
    apply_unimodular,
    boundary_lattice_points,
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
    minkowski_sum,
    normalized_volume,
    polar_dual,
    polygon_normal_form,
    polytope_from_doc,
    polytope_from_inequalities,
    polytope_to_doc,
    recession_rays,
    reflexive_polygons,
    relative_interior_lattice_points,
)


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
    assert polar_dual(square).lattice == "N"
    with pytest.raises(LatticeError):
        polar_dual(convex_hull([(2, 2), (2, -2), (-2, 2), (-2, -2)]))


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


def test_minkowski_sum(square):
    n1 = convex_hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    n2 = convex_hull([(0, 0), (1, 0)])
    assert minkowski_sum(n1, n2) == square
    origin = convex_hull([(0, 0)])
    assert minkowski_sum(square, origin) == square
    sx = convex_hull([(0, 0), (1, 0)])
    sy = convex_hull([(0, 0), (0, 1)])
    unit = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert minkowski_sum(sx, sy) == unit
    with pytest.raises(LatticeError):
        minkowski_sum(square, convex_hull([(0,), (1,)]))


def test_volume(square, diamond, cube):
    assert normalized_volume(square) == 8
    assert normalized_volume(diamond) == 4
    assert normalized_volume(cube) == 48
    assert normalized_volume(convex_hull([(0, 0), (2, 0)])) == 2


def test_intersection_is_common_face():
    left = convex_hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    right = convex_hull([(0, -1), (0, 1), (1, -1), (1, 1)])
    wall = intersect(left, right)
    assert wall.vertices == ((0, -1), (0, 1))
    assert is_face_of(wall, left) and is_face_of(wall, right)
    far = convex_hull([(5, 5), (6, 5), (5, 6)])
    assert intersect(left, far) is None


def test_euler_face_relation(square, diamond, cube):
    for p in (square, diamond, cube):
        total = sum((-1) ** l * len(faces(p, l)) for l in range(p.dim))
        assert total == 1 - (-1) ** p.dim


def test_sixteen_reflexive_polygons():
    polys = reflexive_polygons()
    assert len(polys) == 16
    forms = {polygon_normal_form(p) for p in polys}
    assert len(forms) == 16
    # the boundary-point counts of the classification, and the "12 theorem"
    counts = sorted(len(boundary_lattice_points(p)) for p in polys)
    assert counts == [3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]
    for p in polys:
        assert len(boundary_lattice_points(p)) + \
            len(boundary_lattice_points(polar_dual(p))) == 12


def test_normal_form_is_unimodular_invariant():
    simplex = convex_hull([(-1, -1), (1, 0), (0, 1)])
    image = apply_unimodular(simplex, [[1, 1], [0, 1]])
    assert polygon_normal_form(simplex) == polygon_normal_form(image)
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert polygon_normal_form(simplex) != polygon_normal_form(square)


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
def point_sets(draw):
    """1-8 integer points in rank 2-4, on an affine lattice of a random
    dimension 0..rank, so lower-dimensional hulls come up often."""
    n = draw(st.integers(2, 4))
    coords = st.integers(-2, 2)
    k = draw(st.integers(0, n))
    dirs = draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    base = draw(st.lists(coords, min_size=n, max_size=n))
    combos = draw(st.lists(st.lists(coords, min_size=k, max_size=k),
                           min_size=1, max_size=8))
    return [tuple(b + sum(c * w[i] for c, w in zip(cs, dirs))
                  for i, b in enumerate(base)) for cs in combos]


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


@given(point_sets())
@settings(max_examples=100)
def test_v_to_h_to_v_round_trip(points):
    p = convex_hull(points)
    q = polytope_from_inequalities(p.facets, p.equations, p.ambient_rank)
    assert (q.vertices, q.facets, q.equations) == (p.vertices, p.facets, p.equations)


@given(point_sets())
@settings(max_examples=100)
def test_recession_rays_of_a_pointed_cone_are_its_rays(points):
    rays = [r for r in points if any(r)]
    try:
        cone = Cone.from_rays(rays)
    except FanError:
        return  # no nonzero ray, or the rays span a line
    ineqs, eqs = cone.hrep()
    found = recession_rays([(a, 0) for a in ineqs], [(e, 0) for e in eqs],
                           cone.ambient_rank)
    assert sorted(found) == list(cone.rays)


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
                                    ((0, 1), 0), ((0, -1), 1)])


@pytest.mark.parametrize("argv", [["polytope", "points"], ["ss", "delta"]])
def test_missing_input_file_is_named(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.json")
    assert main(argv + [missing]) == 3
    assert missing in capsys.readouterr().err
