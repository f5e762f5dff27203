"""Randomized invariant checks with pinned seeds and moderate counts.

Polytopes: polar involution, hull idempotence, V/H consistency, the Euler
face relation and reflexivity.  Pages: d1 o d1 = 0 and exact integer row
Euler sums on random conjugated instances, and abutments on cycles.  Euler
numbers: invariance under relabelling the components.  Bundled data:
Poincare dimension symmetry and the anticanonical curve genus.
"""

import itertools
import random
from fractions import Fraction as F

from lgmirror.lattice import (
    convex_hull,
    faces,
    interior_lattice_points,
    is_reflexive,
    lattice_points,
    polar_dual,
    triangulation,
)
from lgmirror.linalg import det, solve, vec_sub
from lgmirror.spectral import (
    build_G_flag_E1,
    build_delta_E1,
    build_monodromy_E1,
    build_weight_E1,
    page_report_doc,
)
from lgmirror.strata import (
    StrataEuler,
    euler_glued_total,
    euler_smoothing,
    euler_snc,
    euler_tilde_total,
)

from tests_data_helpers import (
    abutment_mismatches,
    apply_unimodular,
    random_degeneration_instance,
    random_hybrid_instance,
    reflexive_polygons,
    relabeled,
)

fs = frozenset


def random_unimodular(rng, size=2, steps=6):
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-2, 2)
        for k in range(size):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], [-x for x in m[i]]
    return m


def random_point_set(rng, dim, count, box=4):
    return [tuple(rng.randint(-box, box) for _ in range(dim))
            for _ in range(count)]


def in_hull_oracle(p, x):
    """Membership via barycentric coordinates over a vertex triangulation."""
    if not p.is_full_dimensional():
        return p.contains(x)
    for simplex in triangulation(p.all_faces()[-1]):
        base = simplex[0]
        cols = [[v[i] - base[i] for v in simplex[1:]]
                for i in range(p.ambient_rank)]
        lam = solve(cols, [x[i] - base[i] for i in range(p.ambient_rank)])
        if lam is None:
            continue
        if all(c >= 0 for c in lam) and sum(lam) <= 1:
            return True
    return False


def test_polar_involution_small_sample():
    rng = random.Random(101)
    polys = reflexive_polygons()
    assert len(polys) == 16
    for _ in range(200):
        p = rng.choice(polys)
        q = apply_unimodular(p, random_unimodular(rng))
        assert is_reflexive(q)
        assert polar_dual(polar_dual(q)) == q


def test_polar_involution_rank_three():
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)])
    octa = polar_dual(cube)
    simp = convex_hull([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    for p in (cube, octa, simp):
        assert polar_dual(polar_dual(p)) == p


def test_hull_idempotence_small_sample():
    rng = random.Random(202)
    for _ in range(200):
        dim = rng.choice([2, 2, 3])
        pts = random_point_set(rng, dim, rng.randint(dim + 1, 7))
        h = convex_hull(pts)
        again = convex_hull(h.vertices)
        assert again == h


def test_vh_consistency_small_sample():
    rng = random.Random(303)
    for _ in range(100):
        dim = rng.choice([2, 3])
        pts = random_point_set(rng, dim, rng.randint(dim + 1, 6))
        h = convex_hull(pts)
        if not h.is_full_dimensional():
            continue
        for _ in range(5):
            x = tuple(rng.randint(-5, 5) for _ in range(dim))
            assert h.contains(x) == in_hull_oracle(h, x)


def _simplex_dets(p):
    return [det([vec_sub(v, s[0]) for v in s[1:]])
            for s in triangulation(p.all_faces()[-1])]


def test_triangulation_simplices_small_sample():
    """Pulling simplices are full-dimensional, and their total volume is
    invariant under a unimodular map plus a translation."""
    rng = random.Random(505)
    for _ in range(60):
        dim = rng.choice([2, 3, 4])
        h = convex_hull(random_point_set(rng, dim, rng.randint(dim + 1, 7)))
        if not h.is_full_dimensional():
            continue
        dets = _simplex_dets(h)
        assert all(dets)
        shift = [rng.randint(-3, 3) for _ in range(dim)]
        g = apply_unimodular(h, random_unimodular(rng, dim), shift)
        assert sum(abs(d) for d in _simplex_dets(g)) == sum(abs(d) for d in dets)


def test_euler_face_relation_small_sample():
    rng = random.Random(404)
    for _ in range(150):
        dim = rng.choice([2, 2, 3])
        pts = random_point_set(rng, dim, rng.randint(dim + 1, 7))
        h = convex_hull(pts)
        if h.dim == 0:
            continue
        total = sum((-1) ** l * len(faces(h, l)) for l in range(h.dim))
        assert total == 1 - (-1) ** h.dim


def test_reflexive_iff_dual_is_lattice():
    # on the polygon corpus: reflexivity <-> every dual vertex is integral,
    # probed through the interior-point criterion
    for p in reflexive_polygons():
        assert len(interior_lattice_points(p)) == 1
        assert is_reflexive(polar_dual(p))


def test_pages_square_to_zero_small_sample():
    rng = random.Random(505)
    for _ in range(60):
        deg = random_degeneration_instance(rng)
        for page in (build_weight_E1(deg), build_monodromy_E1(deg)):
            for row in page_report_doc(page)["row_euler"]:
                assert row["ok"]
                assert isinstance(row["e1_sum"], int) and isinstance(row["e2_sum"], int)
    for _ in range(60):
        hyb = random_hybrid_instance(rng)
        for page in (build_G_flag_E1(hyb), build_delta_E1(hyb)):
            for row in page_report_doc(page)["row_euler"]:
                assert row["ok"]
                assert isinstance(row["e1_sum"], int) and isinstance(row["e2_sum"], int)


def test_weight_abutment_on_cycles():
    from tests_data_helpers import cycle_snc_instance
    for r in range(2, 7):
        data = cycle_snc_instance(r)
        page = build_weight_E1(data)
        # a cycle of rational curves has betti numbers 1, 1, r
        assert abutment_mismatches(page, {0: 1, 1: 1, 2: r}) == {}
        mono = build_monodromy_E1(data)
        assert abutment_mismatches(mono, {0: 1, 1: 2, 2: 1}) == {}


def test_label_permutation_invariance_small_sample():
    rng = random.Random(606)
    for _ in range(200):
        comps = rng.randint(2, 4)
        entries = {}
        for r in range(1, comps + 1):
            for I in itertools.combinations(range(comps), r):
                entries[fs(I)] = rng.randint(-6, 6)
        perm = list(range(comps))
        rng.shuffle(perm)
        relab = dict(enumerate(perm))
        deg = StrataEuler(rng.randint(1, 3), comps, "degeneration", entries)
        assert euler_snc(relabeled(deg, relab)) == euler_snc(deg)
        assert euler_smoothing(relabeled(deg, relab)) == euler_smoothing(deg)
        hyb = StrataEuler(deg.n, comps, "hybrid", dict(entries))
        assert euler_tilde_total(relabeled(hyb, relab)) == euler_tilde_total(hyb)
        assert euler_glued_total(relabeled(hyb, relab)) == euler_glued_total(hyb)


def test_pd_symmetry_on_bundled_hybrid_data():
    from conftest import corpus_doc
    from lgmirror.spectral import check_poincare_duality, complex_from_doc
    for name in ("elliptic-hyb-complex", "delta-sign-instance"):
        data = complex_from_doc(corpus_doc(name))
        assert check_poincare_duality(data)["dimension_symmetry"] == []


def test_curve_genus_helper_on_corpus():
    # e = 2 - 2g with g = interior point count; reflexive implies g = 1
    from lgmirror.strata import anticanonical_curve_euler
    for p in reflexive_polygons():
        assert anticanonical_curve_euler(p) == 0
