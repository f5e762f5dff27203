import itertools
import random
import time

import pytest
from conftest import corpus_doc
from hypothesis import example, given, settings, strategies as st
from tests_data_helpers import (
    cone_faces,
    cone_hrep,
    is_central,
    normalized_volume,
    pairwise_fan,
    reflexive_polygons,
    ridge_count_complete,
)

from lgmirror.cli import resolve_polytope
from lgmirror.fans import (
    Cone,
    Fan,
    FanError,
    face_fan,
    fan_to_doc,
    refine_with_boundary_rays,
    star,
)
from lgmirror.lattice import (
    boundary_lattice_points,
    convex_hull,
    faces,
    polar_dual,
    triangulation,
)
from lgmirror.lg import LGError, pi_gamma_monomials
from lgmirror.linalg import det, dot, identity, integer_kernel, primitive, rank
from lgmirror.nef import NefError, validate_nef
from lgmirror.partitions import (
    SemistablePartition,
    build_fibration_fans,
    central_frame,
    dual_complex,
    is_nonsingular,
    partition_from_doc,
    validate_semistable,
)


def cone_sets(fan):
    return {c.rays for c in fan.maximal_cones}


def cone_contains(cone, x):
    ineqs, eqs = cone_hrep(cone.rays, cone.ambient_rank)
    return all(dot(n, x) >= 0 for n in ineqs) and all(dot(n, x) == 0 for n in eqs)


def test_face_fan_square(square):
    fan = face_fan(square)
    assert len(fan.maximal_cones) == 4
    assert set(fan.rays) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    fan.validate()


def test_face_fan_diamond(diamond):
    fan = face_fan(diamond)
    assert cone_sets(fan) == {((0, 1), (1, 0)), ((-1, 0), (0, 1)),
                              ((-1, 0), (0, -1)), ((0, -1), (1, 0))}


def test_face_fan_rank_one():
    seg = convex_hull([(-1,), (1,)])
    fan = face_fan(seg)
    assert cone_sets(fan) == {((-1,),), ((1,),)}
    fan.validate()


def test_face_fan_rejects_non_reflexive():
    with pytest.raises(FanError):
        face_fan(convex_hull([(0, 0), (1, 0), (0, 1)]))


def test_refinement_rejects_non_reflexive():
    # its cones trust the boundary points to be primitive rays
    with pytest.raises(FanError, match="needs a reflexive polytope"):
        refine_with_boundary_rays(convex_hull([(0, 0), (2, 0), (0, 2)]))


def normal_cones(p):
    """Oracle: the normal fan of p, one cone of facet normals per vertex."""
    return {tuple(sorted(n for n, o in p.facets if dot(n, v) == -o))
            for v in p.vertices}


def test_face_fan_of_the_dual_is_the_normal_fan(square, diamond, cube):
    assert normal_cones(diamond) == cone_sets(face_fan(square))
    assert normal_cones(square) == cone_sets(face_fan(diamond))
    for p in reflexive_polygons() + [cube]:
        assert cone_sets(face_fan(polar_dual(p))) == normal_cones(p)


def test_refine_square(square):
    fan = face_fan(square)
    ref = refine_with_boundary_rays(square)
    assert len(ref.rays) == 8
    assert set(ref.rays) == set(boundary_lattice_points(square))
    ref.validate()
    # refinement: every refined cone lies in an original cone
    for c in ref.maximal_cones:
        assert any(all(cone_contains(orig, r) for r in c.rays)
                   for orig in fan.maximal_cones)
    assert set(ref.rays) >= set(fan.rays)


def test_refine_diamond_unchanged(diamond):
    fan = face_fan(diamond)
    ref = refine_with_boundary_rays(diamond)
    assert cone_sets(ref) == cone_sets(fan)


def test_refine_rank_one_unchanged():
    seg = convex_hull([(-1,), (1,)])
    fan = face_fan(seg)
    assert refine_with_boundary_rays(seg) == fan


def test_refine_cube(cube):
    ref = refine_with_boundary_rays(cube)
    assert set(ref.rays) == set(boundary_lattice_points(cube))
    ref.validate()


def test_refine_rank_four_unsupported():
    p4 = convex_hull([tuple(s if j == i else 0 for j in range(4))
                      for i in range(4) for s in (-1, 1)])
    with pytest.raises(FanError):
        refine_with_boundary_rays(p4)


def test_star_replaces_the_rays_with_positive_coefficients():
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    other = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    # (1, 1, 0) = e1 + e2 lies on the common facet of both cones
    assert star([e, other], (1, 1, 0)) == [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
        ((1, 1, 0), (0, 1, 0), (0, 0, -1)), ((1, 0, 0), (1, 1, 0), (0, 0, -1))]
    # (1, 1, 1) is interior to e only; a ray is a no-op
    assert len(star([e, other], (1, 1, 1))) == 4
    assert star([e, other], (1, 0, 0)) == [e, other]


def test_cone_rejects_lines():
    with pytest.raises(FanError):
        Cone.from_rays([(1, 0), (-1, 0)], 2)


def test_cone_drops_redundant_rays():
    c = Cone.from_rays([(1, 0), (0, 1), (1, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))


def test_fan_rejects_improper_intersections():
    # from_cones trusts its caller; the check runs in validate(), which
    # central_frame calls on the projected cones.
    c1 = Cone.from_rays([(1, 0), (0, 1)], 2)
    c2 = Cone.from_rays([(1, 1), (1, -1)], 2)
    fan = Fan.from_cones([c1, c2], 2)
    with pytest.raises(FanError):
        fan.validate()


def test_validate_names_two_cones_that_overlap():
    # eight cones on consecutive rays of a cycle that winds twice around the
    # origin: every ridge lies in two cones on opposite sides, and only the
    # covering count tells the fan from a double cover
    rays = [(1, 0), (-1, 2), (-2, -1), (1, -2), (1, 2), (-2, 1), (-1, -2), (2, -1)]
    fan = Fan.from_cones([Cone.from_rays([r, s], 2)
                          for r, s in zip(rays, rays[1:] + rays[:1])], 2)
    with pytest.raises(FanError) as err:
        fan.validate()
    assert str(err.value) == "cones ((-2, -1), (-1, 2)) and ((-2, 1), (-1, -2)) overlap"


def test_validate_refuses_an_empty_fan_in_rank_one_and_up():
    Fan(0, ()).validate()
    for n in (1, 2):
        with pytest.raises(FanError, match="^a fan without cones is not complete$"):
            Fan(n, ()).validate()


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


@pytest.mark.parametrize("verts, part, ray, height", [
    # the certificate of (1, 1) is (x + y) / 2 on the cone over (-1, 1),
    # (1, 1): not integral, so the first dual piece has the vertex
    # (-1/2, -1/2), read off a ray at height [2, 0]
    ([(1, 1), (1, -1), (-1, 1), (-1, -1)], [(1, 1)], [-1, -1], [2, 0]),
    # the certificates are linear and integral but not convex: a ray of
    # mixed height
    (HEXAGON, [(1, 0), (-1, 0)], [-2, 1], [2, 1]),
    (HEXAGON, [(1, 0)], [-2, 1], [2, 1]),
], ids=["square-corner", "hexagon-opposite-pair", "hexagon-one-vertex"])
def test_nef_certificate_witness(verts, part, ray, height):
    host = convex_hull(verts)
    parts = [tuple(j for j, v in enumerate(host.vertices) if v in part),
             tuple(j for j, v in enumerate(host.vertices) if v not in part)]
    with pytest.raises(NefError) as err:
        validate_nef(host, parts)
    assert str(err.value) == (f"not nef: ray {ray} of the dual Cayley cone "
                              f"has height {height}, not a unit vector")
    assert err.value.witness == {"ray": ray, "height": height}


def test_fan_documents(diamond):
    assert fan_to_doc(face_fan(diamond)) == {
        "rank": 2, "maximal_cones": [[[-1, 0], [0, -1]], [[-1, 0], [0, 1]],
                                     [[0, -1], [1, 0]], [[0, 1], [1, 0]]]}


# The reference for the extreme rays, computed without any face lattice:
# per-ray pruning (a ray is extreme when the cone of the others misses it).

def _ref_extreme_rays(prims, n):
    return sorted(r for r in prims
                  if not cone_contains(Cone([s for s in prims if s != r], n), r))


@st.composite
def ray_sets(draw):
    """Nonzero rays in rank 1-4, sometimes with a sum of two of them (a
    redundant ray) or the negative of one (a line)."""
    n = draw(st.integers(1, 4))
    coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    rays = draw(st.lists(coords.filter(any), min_size=1, max_size=5))
    extra = draw(st.sampled_from(["none", "sum", "line"]))
    if extra == "sum" and len(rays) > 1:
        s = tuple(a + b for a, b in zip(rays[0], rays[1]))
        if any(s):
            rays.append(s)
    elif extra == "line":
        rays.append(tuple(-x for x in rays[-1]))
    return n, rays


@given(ray_sets())
@settings(max_examples=120)
def test_cone_agrees_with_reference(case):
    n, rays = case
    prims = list(dict.fromkeys(primitive(r) for r in rays))
    if convex_hull(prims).contains((0,) * n):
        # 0 is a convex combination of the rays: the cone holds a line
        with pytest.raises(FanError, match="line"):
            Cone.from_rays(rays, n)
        return
    assert list(Cone.from_rays(rays, n).rays) == _ref_extreme_rays(prims, n)


def old_cone_rays(rays, n):
    """Cone.from_rays' former reading: the far ends of the edges at the
    origin, found among every face of conv(0, rays); None for a line."""
    origin = (0,) * n
    hull = convex_hull([origin] + [primitive(r) for r in rays])
    if origin not in hull.vertices:
        return None
    return tuple(sorted(w for f in hull.all_faces() if f.dimension == 1
                        and origin in f.vertices()
                        for w in f.vertices() if w != origin))


@given(ray_sets())
@example((1, [(2,), (-1,)]))                                  # a line
@example((2, [(1, 0), (0, 1), (1, 1)]))                       # an interior ray
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, -1, 0)]))
@settings(max_examples=200)
def test_cone_reads_its_rays_off_the_carriers_as_off_the_face_lattice(case):
    n, rays = case
    old = old_cone_rays(rays, n)
    if old is None:
        with pytest.raises(FanError, match="line"):
            Cone.from_rays(rays, n)
    else:
        assert Cone.from_rays(rays, n).rays == old


# The fan constructors make their cones with the trusted Cone(rays, rank),
# and Fan.from_cones trusts its caller, so this test checks every cone
# against the checked Cone.from_rays, runs Fan.validate on every simplicial
# fan and the pairwise oracle on the others.  The smooth reflexive polygons
# are the bases of the smooth prisms whose halves the fibrations benchmark
# cuts.
SMOOTH_POLYGONS = {
    "b6v6": ((1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)),
    "b7v5": ((1, -1), (1, 0), (0, 1), (-1, 1), (-1, -1)),
    "b8v4a": ((2, -1), (0, 1), (-1, 1), (-1, -1)),
    "b8v4b": ((1, -1), (1, 1), (-1, 1), (-1, -1)),
    "b9v3": ((2, -1), (-1, 2), (-1, -1)),
}


def _constructor_inputs():
    cases = {name: partition_from_doc(corpus_doc(name), resolve_polytope)
             for name in ("square-vsplit", "square-diag", "tsigma-3piece")}
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)])
    p3 = convex_hull([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    for name, host in (("cube", cube), ("p3", p3)):
        cases[name] = SemistablePartition(host, (host,))
    for name, verts in SMOOTH_POLYGONS.items():
        host = convex_hull([v + (z,) for v in verts for z in (-1, 1)])
        halves = [convex_hull([v + (z,) for v in verts for z in zs])
                  for zs in ((-1, 0), (0, 1))]
        cases[f"{name}-halves"] = SemistablePartition(host, tuple(halves))
    return cases


CONSTRUCTOR_INPUTS = _constructor_inputs()


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_INPUTS))
def test_constructed_fans_pass_validate(name):
    part = CONSTRUCTOR_INPUTS[name]
    host = part.host
    sigma = face_fan(host)
    fans = [sigma, face_fan(polar_dual(host)), refine_with_boundary_rays(host)]
    if (validate_semistable(part)["valid"] and is_central(part)
            and is_nonsingular(part)):
        fib = build_fibration_fans(part, central_frame(part))
        fans += [fib.sigma_prime, fib.sigma_gamma, fib.sigma_v]
    elif name != "square-diag":
        pytest.fail(f"{name} should reach the fibration fans")
    for fan in fans:
        for c in fan.maximal_cones:
            assert Cone.from_rays(c.rays, fan.ambient_rank) == c
        if all(len(c.rays) == fan.ambient_rank for c in fan.maximal_cones):
            fan.validate()
        else:  # the face fan of a prism or of the cube, or Sigma_Gamma
            assert pairwise_fan(fan)


def test_fibration_fans_build_no_cone_hull(monkeypatch):
    """Sigma' and Sigma_Gamma are read off simplicial cells, so no cone of
    theirs builds a hull."""
    part = CONSTRUCTOR_INPUTS["b6v6-halves"]
    frame = central_frame(part)  # the projected pieces are checked cones
    hulls = []
    monkeypatch.setattr("lgmirror.fans.convex_hull",
                        lambda points: hulls.append(points) or convex_hull(points))
    fib = build_fibration_fans(part, frame)
    assert fib.sigma_gamma.maximal_cones
    assert hulls == []


def _reference_pi_gamma(sigma_prime, frame):
    """pi_Gamma exponents by division along the first nonzero coordinate of
    the distinguished ray; None when some ray projects outside every one."""
    comps = [dict() for _ in frame.v_quotient]
    for s in sigma_prime.rays:
        q = frame.project(s)
        if not any(q):
            continue
        hits = [i for i, vq in enumerate(frame.v_quotient) if primitive(q) == vq]
        if not hits:
            return None
        vq = frame.v_quotient[hits[0]]
        j = next(j for j, b in enumerate(vq) if b)
        c, rem = divmod(q[j], vq[j])
        assert rem == 0 and c >= 1
        comps[hits[0]][s] = c
    return tuple(comps)


# square-diag is the one input above that does not reach the fibration fans.
@pytest.mark.parametrize("name", sorted(set(CONSTRUCTOR_INPUTS) - {"square-diag"}))
def test_fibration_data_agrees_with_reference_derivations(name):
    """The frame reads l off the number of pieces and the quotient off the
    common face's equations; the fans read membership in L, and pi_Gamma its
    exponents, off the projection.  Each agrees with the derivation it
    replaced: the dimension of K_Gamma, the integer kernel of the L basis,
    a rank test, and division along the distinguished ray."""
    part = CONSTRUCTOR_INPUTS[name]
    frame = central_frame(part)
    n = part.host.ambient_rank
    assert frame.l == dual_complex(part)["dimension"]
    L = [list(b) for b in frame.L_basis]
    assert frame.quotient == tuple(
        tuple(q) for q in (integer_kernel(L) if L else identity(n)))
    if frame.l:  # each projected piece omits exactly its own ray
        cones = [set(Cone.from_rays([primitive(frame.project(v))
                                     for v in piece.vertices
                                     if any(frame.project(v))], frame.l).rays)
                 for piece in part.pieces]
        for rays, vq in zip(cones, frame.v_quotient):
            assert set().union(*cones) - rays == {vq}

    fib = build_fibration_fans(part, frame)
    in_L = {r for r in fib.sigma_prime.rays
            if L and rank(L + [list(r)]) == len(L)}
    allowed = in_L | set(frame.v_vectors)
    walls = {s for c in fib.sigma_prime.maximal_cones
             for s in cone_faces(c.rays, n) if s and s <= allowed}
    assert {frozenset(c.rays) for c in fib.sigma_gamma.maximal_cones} == {
        s for s in walls if not any(s < t for t in walls)}
    reference = _reference_pi_gamma(fib.sigma_prime, frame)
    if reference is None:
        with pytest.raises(LGError):
            pi_gamma_monomials(fib.sigma_prime, frame)
        return
    pg = pi_gamma_monomials(fib.sigma_prime, frame)
    assert pg == reference
    for vq, comp in zip(frame.v_quotient, pg):
        for s, c in comp.items():
            assert frame.project(s) == tuple(c * x for x in vq)


# The rank-3 hosts above, and P3* (a smooth simplex): their facets are
# lattice polygons at distance 1, so a triangulation of each facet with every
# lattice point is unimodular and has one triangle per unit of normalized
# area.
RANK3_HOSTS = {name: part.host for name, part in CONSTRUCTOR_INPUTS.items()
               if part.host.ambient_rank == 3}
RANK3_HOSTS["p3-dual"] = polar_dual(RANK3_HOSTS["p3"])


@pytest.mark.parametrize("name", sorted(RANK3_HOSTS))
def test_refined_fan_is_unimodular(name):
    host = RANK3_HOSTS[name]
    fan = refine_with_boundary_rays(host)
    assert all(abs(det(c.rays)) == 1 for c in fan.maximal_cones)
    assert len(fan.maximal_cones) == sum(
        normalized_volume(convex_hull(f.vertices())) for f in faces(host, 2))


# The refined fan of P3 = conv((-1,-1,-1), (3,-1,-1), (-1,3,-1), (-1,-1,3)):
# pulling each facet at its lex-first vertex and starring its other lattice
# points in lex order.  Another order gives another (equally unimodular) fan.
P3_REFINED = [
    ((-1, -1, -1), (-1, -1, 0), (-1, 0, -1)), ((-1, -1, -1), (-1, -1, 0), (0, -1, -1)),
    ((-1, -1, -1), (-1, 0, -1), (0, -1, -1)), ((-1, -1, 0), (-1, -1, 1), (-1, 0, 0)),
    ((-1, -1, 0), (-1, -1, 1), (0, -1, 0)), ((-1, -1, 0), (-1, 0, -1), (-1, 1, -1)),
    ((-1, -1, 0), (-1, 0, 0), (-1, 3, -1)), ((-1, -1, 0), (-1, 1, -1), (-1, 2, -1)),
    ((-1, -1, 0), (-1, 2, -1), (-1, 3, -1)), ((-1, -1, 0), (0, -1, -1), (1, -1, -1)),
    ((-1, -1, 0), (0, -1, 0), (3, -1, -1)), ((-1, -1, 0), (1, -1, -1), (2, -1, -1)),
    ((-1, -1, 0), (2, -1, -1), (3, -1, -1)), ((-1, -1, 1), (-1, -1, 2), (-1, 0, 1)),
    ((-1, -1, 1), (-1, -1, 2), (0, -1, 1)), ((-1, -1, 1), (-1, 0, 0), (-1, 1, 0)),
    ((-1, -1, 1), (-1, 0, 1), (-1, 1, 0)), ((-1, -1, 1), (0, -1, 0), (1, -1, 0)),
    ((-1, -1, 1), (0, -1, 1), (1, -1, 0)), ((-1, -1, 2), (-1, -1, 3), (-1, 0, 2)),
    ((-1, -1, 2), (-1, -1, 3), (0, -1, 2)), ((-1, -1, 2), (-1, 0, 1), (-1, 3, -1)),
    ((-1, -1, 2), (-1, 0, 2), (-1, 1, 1)), ((-1, -1, 2), (-1, 1, 1), (-1, 2, 0)),
    ((-1, -1, 2), (-1, 2, 0), (-1, 3, -1)), ((-1, -1, 2), (0, -1, 1), (3, -1, -1)),
    ((-1, -1, 2), (0, -1, 2), (1, -1, 1)), ((-1, -1, 2), (1, -1, 1), (2, -1, 0)),
    ((-1, -1, 2), (2, -1, 0), (3, -1, -1)), ((-1, -1, 3), (-1, 0, 2), (0, -1, 2)),
    ((-1, 0, -1), (-1, 1, -1), (0, 0, -1)), ((-1, 0, -1), (0, -1, -1), (1, -1, -1)),
    ((-1, 0, -1), (0, 0, -1), (3, -1, -1)), ((-1, 0, -1), (1, -1, -1), (2, -1, -1)),
    ((-1, 0, -1), (2, -1, -1), (3, -1, -1)), ((-1, 0, 0), (-1, 1, 0), (-1, 3, -1)),
    ((-1, 0, 1), (-1, 1, 0), (-1, 3, -1)), ((-1, 0, 2), (-1, 1, 1), (0, 0, 1)),
    ((-1, 0, 2), (0, -1, 2), (1, -1, 1)), ((-1, 0, 2), (0, 0, 1), (3, -1, -1)),
    ((-1, 0, 2), (1, -1, 1), (2, -1, 0)), ((-1, 0, 2), (2, -1, 0), (3, -1, -1)),
    ((-1, 1, -1), (-1, 2, -1), (0, 1, -1)), ((-1, 1, -1), (0, 0, -1), (1, 0, -1)),
    ((-1, 1, -1), (0, 1, -1), (1, 0, -1)), ((-1, 1, 1), (-1, 2, 0), (0, 1, 0)),
    ((-1, 1, 1), (0, 0, 1), (1, 0, 0)), ((-1, 1, 1), (0, 1, 0), (1, 0, 0)),
    ((-1, 2, -1), (-1, 3, -1), (0, 2, -1)), ((-1, 2, -1), (0, 1, -1), (3, -1, -1)),
    ((-1, 2, -1), (0, 2, -1), (1, 1, -1)), ((-1, 2, -1), (1, 1, -1), (2, 0, -1)),
    ((-1, 2, -1), (2, 0, -1), (3, -1, -1)), ((-1, 2, 0), (-1, 3, -1), (0, 2, -1)),
    ((-1, 2, 0), (0, 1, 0), (3, -1, -1)), ((-1, 2, 0), (0, 2, -1), (1, 1, -1)),
    ((-1, 2, 0), (1, 1, -1), (2, 0, -1)), ((-1, 2, 0), (2, 0, -1), (3, -1, -1)),
    ((0, -1, 0), (1, -1, 0), (3, -1, -1)), ((0, -1, 1), (1, -1, 0), (3, -1, -1)),
    ((0, 0, -1), (1, 0, -1), (3, -1, -1)), ((0, 0, 1), (1, 0, 0), (3, -1, -1)),
    ((0, 1, -1), (1, 0, -1), (3, -1, -1)), ((0, 1, 0), (1, 0, 0), (3, -1, -1)),
]


def test_p3_refinement_is_pinned():
    fan = refine_with_boundary_rays(RANK3_HOSTS["p3"])
    assert [c.rays for c in fan.maximal_cones] == P3_REFINED


def _simplicial_fans():
    """Every distinct simplicial fan that the constructors build from
    CONSTRUCTOR_INPUTS and the 16 reflexive polygons, with at least one cone."""
    fans = []
    for part in CONSTRUCTOR_INPUTS.values():
        host = part.host
        fans += [face_fan(host), face_fan(polar_dual(host)),
                 refine_with_boundary_rays(host)]
        if (validate_semistable(part)["valid"] and is_central(part)
                and is_nonsingular(part)):
            fib = build_fibration_fans(part, central_frame(part))
            fans += [fib.sigma_prime, fib.sigma_gamma, fib.sigma_v]
    for p in reflexive_polygons():
        fans += [face_fan(p), face_fan(polar_dual(p)), refine_with_boundary_rays(p)]
    return [f for f in dict.fromkeys(fans) if f.maximal_cones and all(
        len(c.rays) == f.ambient_rank for c in f.maximal_cones)]


def _perturbed(fan, rng):
    """The fan with a cone dropped, with a cone listed twice (Fan, not
    from_cones, which drops repeats), and with one ray bent by a random step
    in every cone that holds it."""
    n, cones = fan.ambient_rank, list(fan.maximal_cones)
    k = rng.randrange(len(cones))
    out = [Fan(n, tuple(cones[:k] + cones[k + 1:])), Fan(n, tuple(cones + [cones[k]]))]
    r = rng.choice(fan.rays)
    bends = sorted({primitive(tuple(2 * x + rng.randint(-1, 1) for x in r))
                    for _ in range(8)} - set(fan.rays))
    if bends:  # in rank 1 every bend is r again
        bent = rng.choice(bends)
        out.append(Fan(n, tuple(Cone(tuple(sorted(bent if s == r else s for s in c.rays)), n)
                                for c in cones)))
    return out


def _passes(fan):
    try:
        fan.validate()
    except FanError:
        return False
    return True


def test_validate_agrees_with_the_pairwise_check():
    """The ridge test against the former pairwise test and ridge count, on
    every simplicial constructed fan and three seeded perturbations of it."""
    rng = random.Random(19)
    verdicts = []
    for fan in _simplicial_fans():
        for f in [fan] + _perturbed(fan, rng):
            oracle = ridge_count_complete(f) and pairwise_fan(f)
            assert _passes(f) == oracle, f
            verdicts.append(oracle)
    assert True in verdicts and False in verdicts


def test_validate_passes_the_rank_4_cube_refinement_fast():
    """refine_with_boundary_rays refuses rank 4, so the test builds its fan:
    each facet of [-1, 1]^4 triangulated and starred at its other lattice
    points, 8 x 48 cones.  The pairwise check took 27 s on it."""
    host = convex_hull(list(itertools.product((-1, 1), repeat=4)))
    cones = []
    for (n, o), s in zip(host.facets, host.incidence):
        f = host.face(s)
        cells = triangulation(f)
        for q in boundary_lattice_points(host):
            if dot(n, q) == -o and q not in f.vertices():
                cells = star(cells, q)
        cones += [Cone(tuple(sorted(cell)), 4) for cell in cells]
    fan = Fan.from_cones(cones, 4)
    assert len(fan.maximal_cones) == 384
    start = time.perf_counter()
    fan.validate()
    assert time.perf_counter() - start < 0.5
    perturbed = _perturbed(fan, random.Random(4))
    assert len(perturbed) == 3
    for bad in perturbed:
        with pytest.raises(FanError):
            bad.validate()
