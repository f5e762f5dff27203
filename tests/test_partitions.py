import itertools
import json
import random
import sys
from math import gcd

import pytest
import sympy
import workloads
from conftest import corpus_doc, corpus_path
from geometry import POLYGONS
from hypothesis import given, strategies as st
from tests_data_helpers import (FRAME_PATH, LIFTING_REFUSALS, NON_CENTRAL, NON_TILING,
                                cut_partitions, is_central, lattice_cuts,
                                normalized_volume)

from lgmirror import linalg, partitions
from lgmirror.cli import corpus_names, main, resolve_polytope
from lgmirror.lattice import (LatticeError, boundary_lattice_points, carrier,
                              convex_hull, intersect, is_face_of, lattice_points,
                              polyhedron_generators, polytope_from_inequalities)
from lgmirror.lg import pi_gamma_monomials
from lgmirror.linalg import dot
from lgmirror.partitions import (
    PartitionError,
    SemistablePartition,
    build_F_Gamma,
    build_fibration_fans,
    central_frame,
    check_tiling,
    dual_complex,
    gamma_vertices,
    is_nonsingular,
    lifting_polyhedron,
    partition_from_doc,
    validate_semistable,
    vertex_owners,
)


def lifting_projection_check(part, lifted):
    """Oracle: every bounded face of the lifted polyhedron projects onto a
    face of the host or of a piece.  The polyhedron is cut off one above its
    highest vertex, and the faces that touch the cap are skipped."""
    y_max = max(v[0] for v in lifted["vertices"]) + 1
    cap = ((-1,) + (0,) * (lifted["rank"] - 1), y_max)
    trunc = polytope_from_inequalities(inequalities(lifted) + [cap],
                                       ambient_rank=lifted["rank"])
    targets = {frozenset(f.vertices()) for poly in (part.host,) + part.pieces
               for f in poly.all_faces()}
    bounded = [f.vertices() for f in trunc.all_faces()
               if all(v[0] < y_max for v in f.vertices())]
    failures = [vs for vs in bounded
                if frozenset(v[1:] for v in vs) not in targets]
    return {"checked": len(bounded), "failures": failures, "ok": not failures}


def inequalities(lifted):
    return [(tuple(i["normal"]), i["offset"]) for i in lifted["inequalities"]]


def violations(report, clause):
    return next(c["violations"] for c in report["clauses"] if c["id"] == clause)


def diag_partition(square):
    t1 = convex_hull([(-1, -1), (1, 1), (-1, 1)])
    t2 = convex_hull([(-1, -1), (1, 1), (1, -1)])
    return SemistablePartition(square, (t1, t2))


def test_vertical_split_is_semistable(vsplit):
    report = validate_semistable(vsplit)
    assert report["valid"]
    assert report["clauses"][0]["violations"] == []


def test_diagonal_split_fails_vertex_uniqueness(square):
    report = validate_semistable(diag_partition(square))
    assert not report["valid"]
    bad = violations(report, "vertex-uniqueness")
    assert sorted(v["vertex"] for v in bad) == [[-1, -1], [1, 1]]


def test_trivial_partition_valid(square):
    assert validate_semistable(SemistablePartition(square, (square,)))["valid"]


def test_non_tiling_rejected(square):
    left = convex_hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    report = validate_semistable(SemistablePartition(square, (left,)))
    assert not report["valid"] and not report["tiling"]["ok"]


def test_quadrant_partition_fails_face_count(square):
    quads = [convex_hull([(0, 0), (sx, 0), (0, sy), (sx, sy)])
             for sx in (1, -1) for sy in (1, -1)]
    report = validate_semistable(SemistablePartition(square, tuple(quads)))
    assert report["tiling"]["ok"] and not report["valid"]
    assert violations(report, "face-count")


def test_tiling_volume_invariant(vsplit, tsigma_part):
    for part in (vsplit, tsigma_part):
        assert sum(normalized_volume(p) for p in part.pieces) == \
            normalized_volume(part.host)


def test_dual_complex_vertical_split(vsplit):
    K = dual_complex(vsplit)
    assert K == {"vertices": 2, "simplices": [[0], [1], [0, 1]], "dimension": 1}
    # closed under taking faces
    assert all(list(sub) in K["simplices"] for s in K["simplices"]
               for r in range(1, len(s)) for sub in itertools.combinations(s, r))


def test_dual_complex_trivial(square):
    K = dual_complex(SemistablePartition(square, (square,)))
    assert K == {"vertices": 1, "simplices": [[0]], "dimension": 0}


def test_dual_complex_quadrants_records_intersections(square):
    # brute-force oracle: all 15 nonempty subsets meet at the origin
    quads = [convex_hull([(0, 0), (sx, 0), (0, sy), (sx, sy)])
             for sx in (1, -1) for sy in (1, -1)]
    K = dual_complex(SemistablePartition(square, tuple(quads)))
    assert len(K["simplices"]) == 15
    assert K["dimension"] == 3


def test_centrality_and_nonsingularity(vsplit, square):
    assert is_central(vsplit)
    assert is_nonsingular(vsplit)
    assert gamma_vertices(vsplit) == [(0, -1), (0, 1)]
    # central split of a non-reflexive host: centrality is a separate flag
    big = convex_hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    halves = (convex_hull([(-2, -2), (-2, 2), (0, -2), (0, 2)]),
              convex_hull([(0, -2), (0, 2), (2, -2), (2, 2)]))
    part = SemistablePartition(big, halves)
    assert is_central(part)
    from lgmirror.lattice import is_reflexive
    assert not is_reflexive(big)


def test_F_gamma_vertical_split(vsplit):
    F = build_F_Gamma(vsplit)
    assert F == ((0, 0), (-1, 0))
    # concavity: m_i(x) >= F(x) on all host lattice points, equality on own
    for x in lattice_points(vsplit.host):
        val = min(dot(m, x) for m in F)
        for m, piece in zip(F, vsplit.pieces):
            assert dot(m, x) >= val
            if piece.contains(x):
                assert dot(m, x) == val


def test_F_gamma_trivial(square):
    part = SemistablePartition(square, (square,))
    assert build_F_Gamma(part) == ((0, 0),)


def test_F_gamma_requires_validity(square):
    with pytest.raises(PartitionError):
        build_F_Gamma(diag_partition(square))


def test_F_gamma_tsigma(tsigma_part):
    assert build_F_Gamma(tsigma_part) == ((0, 0), (0, -1), (1, 0))


def test_lifting_vertical_split(vsplit):
    F = build_F_Gamma(vsplit)
    lifted = lifting_polyhedron(vsplit, F)
    assert set(inequalities(lifted)) == {
        ((1, 0, 0), 0), ((1, -1, 0), 0),
        ((0, 1, 0), 1), ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)}
    assert lifted["recession_rays"] == [[1, 0, 0]]
    assert lifted["functionals"] == [[0, 0], [-1, 0]]
    check = lifting_projection_check(vsplit, lifted)
    assert check["ok"] and check["checked"] > 0


def test_lifting_trivial(square):
    part = SemistablePartition(square, (square,))
    lifted = lifting_polyhedron(part, build_F_Gamma(part))
    assert ((1, 0, 0), 0) in inequalities(lifted)
    assert lifting_projection_check(part, lifted)["ok"]


def test_lifting_projection_three_pieces(tsigma_part, capsys):
    # The lift is the epigraph of the convex -F: with three pieces, the
    # epigraph of max m_i would bend along faces of no piece.
    assert main(["partition", "lift", corpus_path("tsigma-3piece"),
                 "--format", "json"]) == 0
    lifted = json.loads(capsys.readouterr().out)
    check = lifting_projection_check(tsigma_part, lifted)
    assert check["ok"] and check["checked"] > 0


def test_central_frame_vertical_split(vsplit):
    fr = central_frame(vsplit)
    assert fr.l == 1
    assert fr.L_basis == ((0, 1),)
    assert set(fr.v_vectors) == {(1, 0), (-1, 0)}
    # v_i is opposite to its piece
    assert fr.v_vectors[0] == (1, 0)   # piece 0 is the left piece
    assert fr.v_vectors[1] == (-1, 0)


def test_central_frame_trivial(square):
    fr = central_frame(SemistablePartition(square, (square,)))
    assert fr.l == 0 and fr.v_vectors == ()
    fr.sigma_v.validate()


def test_central_frame_tsigma(tsigma_part):
    fr = central_frame(tsigma_part)
    assert fr.l == 2
    assert set(fr.v_vectors) == {(-1, 1), (0, -1), (1, 0)}
    # omissions pairwise distinct and each piece projection omits its vector
    for i, piece in enumerate(tsigma_part.pieces):
        proj = {fr.project(v) for v in piece.vertices}
        assert fr.v_quotient[i] not in proj


def _sheared_cube_halves(U):
    """The cube cut in half along x = 0, moved by the unimodular matrix U."""
    def f(v):
        return tuple(sum(a * x for a, x in zip(row, v)) for row in U)
    cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    mid = [(0, y, z) for y in (-1, 1) for z in (-1, 1)]
    halves = [[v for v in cube if v[0] == s] + mid for s in (1, -1)]
    return SemistablePartition(
        convex_hull([f(v) for v in cube]),
        tuple(convex_hull([f(v) for v in h]) for h in halves))


SHEARS = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
          [[1, 1, 1], [0, 1, 0], [0, 0, 1]])


def test_central_frame_quotient_is_exact(vsplit, tsigma_part):
    """The quotient rows Q read off M / (M n L): Q L^T = 0, and Q maps Z^n
    onto Z^(n-k) (the gcd of its maximal minors is 1).  Then |det [L; Q]|
    is the covolume det(L L^T) of the common-face lattice: 1 when it spans
    a coordinate subspace, 2 and 3 on the sheared cubes."""
    parts = [vsplit, tsigma_part] + [_sheared_cube_halves(U) for U in SHEARS]
    covolumes = []
    for part in parts:
        fr = central_frame(part)
        L = sympy.Matrix([list(r) for r in fr.L_basis])
        Q = sympy.Matrix([list(q) for q in fr.quotient])
        n = part.host.ambient_rank
        assert Q.rows == n - L.rows
        if L.rows:
            assert Q * L.T == sympy.zeros(Q.rows, L.rows)
            covolumes.append((L * L.T).det())
            assert abs(L.col_join(Q).det()) == covolumes[-1]
        minors = [Q.extract(list(range(Q.rows)), list(c)).det()
                  for c in itertools.combinations(range(n), Q.rows)]
        assert gcd(*(int(m) for m in minors)) == 1
    assert covolumes == [1, 1, 2, 3]


def test_hexagon_three_piece_cut_is_not_semistable():
    # The hexagon's edges are primitive, so its only boundary lattice points
    # are its vertices, and each ray of a central cut into lattice pieces
    # ends at a host vertex that two pieces share.  The cut tiles, but the
    # vertex-uniqueness clause fails and the frame refuses to build.
    part = OWNER_TABLE_INPUTS["hexagon-cut"]
    assert check_tiling(part) == (True, "ok")
    report = validate_semistable(part)
    assert not report["valid"]
    assert violations(report, "vertex-uniqueness")
    with pytest.raises(PartitionError):
        central_frame(part)


def test_fibration_fans_vertical_split(vsplit):
    fr = central_frame(vsplit)
    fans = build_fibration_fans(vsplit, fr)
    assert len(fans.sigma_delta.rays) == 4
    assert len(fans.sigma_prime.rays) == 8
    assert len(fans.sigma_v.rays) == 2
    assert fans.sigma_v.rays == ((-1,), (1,))
    assert set(fans.sigma_gamma.rays) == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert fans.added_rays == ()
    fans.sigma_prime.validate()


def test_fibration_fans_trivial(square):
    part = SemistablePartition(square, (square,))
    fans = build_fibration_fans(part, central_frame(part))
    assert len(fans.sigma_prime.rays) == 8
    assert fans.sigma_v.maximal_cones == ()


def test_diamond_axis_split_is_not_semistable(diamond):
    # any chord of the diamond through the origin ends in two opposite
    # vertices, so no nontrivial central semi-stable partition exists; the
    # validator and the frame both refuse
    upper = convex_hull([(-1, 0), (1, 0), (0, 1)])
    lower = convex_hull([(-1, 0), (1, 0), (0, -1)])
    part = SemistablePartition(diamond, (upper, lower))
    report = validate_semistable(part)
    assert not report["valid"]
    assert violations(report, "vertex-uniqueness")
    with pytest.raises(PartitionError):
        central_frame(part)


def test_fibration_fans_trivial_diamond(diamond):
    part = SemistablePartition(diamond, (diamond,))
    fans = build_fibration_fans(part, central_frame(part))
    fans.sigma_prime.validate()
    assert set(fans.sigma_prime.rays) == set(fans.sigma_delta.rays)
    assert fans.sigma_v.maximal_cones == ()


def test_pieces_meeting_at_a_non_lattice_point_fail_the_tiling(capsys, tmp_path):
    # A common face of two lattice polytopes has lattice vertices, so the
    # verdict is the tiling's, not an error from the intersection.
    f = tmp_path / "overlap.json"
    f.write_text(json.dumps(NON_TILING["overlap"]))
    assert main(["partition", "validate", str(f), "--format", "json"]) == 2
    out = capsys.readouterr()
    assert json.loads(out.out)["tiling"] == {
        "ok": False, "message": "pieces 0 and 1 do not meet in a common face"}
    assert out.err == "FAIL: partition is not semi-stable\n"
    assert main(["partition", "dual-complex", str(f)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "FAIL: pieces 0 and 1 do not meet in a common face\n")


def test_a_piece_listed_twice_fails_the_tiling(capsys, tmp_path):
    part = partition_from_doc(NON_TILING["repeated"], resolve_polytope)
    assert check_tiling(part) == (
        False, "pieces 0 and 1 do not meet in a common face")
    f = tmp_path / "repeated.json"
    f.write_text(json.dumps(NON_TILING["repeated"]))
    assert main(["partition", "validate", str(f)]) == 2
    out = capsys.readouterr()
    assert "tiling: False (pieces 0 and 1 do not meet in a common face)" in out.out
    assert main(["partition", "dual-complex", str(f)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "FAIL: pieces 0 and 1 do not meet in a common face\n")


# The documents the partition commands print are the values the library
# returns; the cube halves meet in the square x = 0.
REPORT_DOCS = {name: corpus_doc(name)
               for name in ("square-vsplit", "square-diag", "tsigma-3piece")}
REPORT_DOCS["cube-halves"] = {"polytope": "cube", "pieces": [
    [[u, y, z] for u in (x, 0) for y in (-1, 1) for z in (-1, 1)] for x in (-1, 1)]}
REPORTS = {
    "validate": validate_semistable,
    "dual-complex": dual_complex,
    "lift": lambda part: lifting_polyhedron(part, build_F_Gamma(part)),
}


@pytest.mark.parametrize("action", sorted(REPORTS))
@pytest.mark.parametrize("name", sorted(REPORT_DOCS))
def test_partition_json_is_the_library_value(capsys, tmp_path, name, action):
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(REPORT_DOCS[name]))
    try:
        value = REPORTS[action](partition_from_doc(REPORT_DOCS[name],
                                                   resolve_polytope))
    except PartitionError:  # square-diag has no lifting
        assert (name, action) == ("square-diag", "lift")
        assert main(["partition", action, str(f), "--format", "json"]) == 2
        assert capsys.readouterr().out == ""
        return
    main(["partition", action, str(f), "--format", "json"])
    assert json.loads(capsys.readouterr().out) == value


# ---------------------------------------------------------------------------
# The vertex-owner table against intersections
# ---------------------------------------------------------------------------

def subset_fold_dual_complex(part):
    """Oracle: the piece subsets whose intersection, folded over the subset
    with lattice.intersect, is nonempty, by size and then as index lists."""
    n = len(part.pieces)
    simplices = []
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            cur = part.pieces[s[0]]
            for i in s[1:]:
                cur = intersect(cur, part.pieces[i])
                if cur is None:
                    break
            if cur is not None:
                simplices.append(s)
    return [list(s) for s in simplices]


def common_intersection(part):
    """Oracle: the intersection of all pieces, or None when it is empty."""
    cur = part.pieces[0]
    for p in part.pieces[1:]:
        cur = intersect(cur, p)
        if cur is None:
            return None
    return cur


def semistable_clauses(part):
    """Oracle for the two clauses of validate_semistable: host vertices by
    the pieces that contain them, and each partition face counted among the
    face sets of the pieces."""
    host, pieces = part.host, part.pieces
    v_violations = []
    for v in host.vertices:
        owners = [i for i, p in enumerate(pieces) if p.contains(v)]
        if len(owners) != 1:
            v_violations.append({"vertex": list(v), "pieces": owners})
    piece_face_sets = [{frozenset(f.vertices()) for f in p.all_faces()}
                       for p in pieces]
    f_violations = []
    faces = {frozenset(f.vertices()): f for p in pieces for f in p.all_faces()}
    for points in sorted(tuple(sorted(k)) for k in faces):
        f = faces[frozenset(points)]
        tau = carrier(host, points)
        count = sum(1 for s in piece_face_sets if frozenset(points) in s)
        expected = tau.dimension - f.dimension + 1
        if count != expected:
            f_violations.append({"sigma": [list(q) for q in points],
                                 "tau": [list(q) for q in tau.vertices()],
                                 "count": count, "expected": expected})
    return {"vertex-uniqueness": v_violations, "face-count": f_violations}


def _box(lo, hi):
    return convex_hull(list(itertools.product(*zip(lo, hi))))


def _owner_table_inputs():
    """Tilings: the corpus partitions, the halves of the prisms over the 16
    reflexive polygons, the cube quarters and octants, and a hexagon cut."""
    cases = {name: partition_from_doc(corpus_doc(name), resolve_polytope)
             for name in ("square-vsplit", "square-diag", "tsigma-3piece")}
    for name, verts in POLYGONS.items():
        host = convex_hull([v + (z,) for v in verts for z in (-1, 1)])
        cases[f"{name}-halves"] = SemistablePartition(host, tuple(
            convex_hull([v + (z,) for v in verts for z in zs])
            for zs in ((-1, 0), (0, 1))))
    cube = _box((-1, -1, -1), (1, 1, 1))
    cases["cube-quarters"] = SemistablePartition(cube, tuple(
        _box((x, y, -1), (x + 1, y + 1, 1))
        for x, y in itertools.product((-1, 0), repeat=2)))
    cases["cube-octants"] = SemistablePartition(cube, tuple(
        _box(lo, [x + 1 for x in lo]) for lo in itertools.product((-1, 0), repeat=3)))
    # A central cut along the rays to every other vertex: it tiles, but it is
    # not semi-stable (test_hexagon_three_piece_cut_is_not_semistable).
    cases["hexagon-cut"] = SemistablePartition(
        convex_hull([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
        (convex_hull([(0, 0), (1, 1), (0, 1), (-1, 0)]),
         convex_hull([(0, 0), (-1, 0), (-1, -1), (0, -1)]),
         convex_hull([(0, 0), (0, -1), (1, 0), (1, 1)])))
    return cases


OWNER_TABLE_INPUTS = _owner_table_inputs()


@pytest.mark.parametrize("name", sorted(OWNER_TABLE_INPUTS))
def test_vertex_owners_agree_with_intersections(name):
    part = OWNER_TABLE_INPUTS[name]
    assert check_tiling(part) == (True, "ok")
    owners = vertex_owners(part)
    assert set(owners) == {v for p in part.pieces for v in p.vertices}
    for u, held in owners.items():
        assert held == tuple(i for i, p in enumerate(part.pieces) if p.contains(u))

    assert dual_complex(part)["simplices"] == subset_fold_dual_complex(part)
    report = validate_semistable(part)
    assert {c["id"]: c["violations"] for c in report["clauses"]} == \
        semistable_clauses(part)

    common = common_intersection(part)
    held_by_all = [u for u, held in owners.items() if len(held) == len(part.pieces)]
    assert (common is None) == (not held_by_all)
    if common is None:
        return
    hull = convex_hull(held_by_all)
    assert (hull.vertices, hull.equations) == (common.vertices, common.equations)
    if report["valid"] and is_central(part) and is_nonsingular(part):
        frame = central_frame(part)
        assert frame.quotient == tuple(q for q, _ in common.equations)


def test_cube_octants_dual_complex_is_every_subset():
    K = dual_complex(OWNER_TABLE_INPUTS["cube-octants"])
    assert len(K["simplices"]) == 2 ** 8 - 1 == 255
    assert K["dimension"] == 7


def test_dual_complex_and_frame_intersect_only_in_check_tiling(monkeypatch):
    calls = {"tiling": 0, "inside": 0, "outside": 0}
    depth = []

    def counted_tiling(part):
        depth.append(1)
        calls["tiling"] += 1
        try:
            return check_tiling(part)
        finally:
            depth.pop()

    def counted_intersect(a, b):
        calls["inside" if depth else "outside"] += 1
        return intersect(a, b)

    monkeypatch.setattr(partitions, "check_tiling", counted_tiling)
    monkeypatch.setattr(partitions, "intersect", counted_intersect)
    for name in ("square-vsplit", "tsigma-3piece", "b8v4b-halves", "cube-octants"):
        part = OWNER_TABLE_INPUTS[name]
        partitions.dual_complex(part)
        if name != "cube-octants":
            partitions.central_frame(part)
    assert calls["outside"] == 0
    # the frame validates the partition, and so checks the tiling, once; every
    # pair of pieces there shares a wall, so the tiling intersects none
    assert calls["tiling"] == 3 and calls["inside"] == 0


# ---------------------------------------------------------------------------
# The wall check against the pairwise tiling check
# ---------------------------------------------------------------------------

def pairwise_tiling(part):
    """Oracle: the tiling check that intersects every two pieces and then
    compares the sum of the piece volumes with the host volume."""
    host, pieces = part.host, part.pieces
    if not pieces:
        return False, "no pieces"
    for i, p in enumerate(pieces):
        if p.ambient_rank != host.ambient_rank:
            return False, f"piece {i} has wrong ambient rank"
        if not p.is_full_dimensional():
            return False, f"piece {i} is not full-dimensional"
        if not all(host.contains(v) for v in p.vertices):
            return False, f"piece {i} is not contained in the host"
    for i, j in itertools.combinations(range(len(pieces)), 2):
        try:
            w = intersect(pieces[i], pieces[j])
            if w is None or (w.dim < host.dim and is_face_of(w, pieces[i])
                             and is_face_of(w, pieces[j])):
                continue
        except LatticeError:
            pass
        return False, f"pieces {i} and {j} do not meet in a common face"
    if sum(normalized_volume(p) for p in pieces) != normalized_volume(host):
        return False, "piece volumes do not add up to the host volume"
    return True, "ok"


def _split(piece, rng):
    """The two halves of piece cut by a random lattice hyperplane <c, x> = t
    through its interior, or None when a half has a non-lattice vertex."""
    c = tuple(rng.choice((-1, 0, 1)) for _ in range(piece.ambient_rank))
    values = sorted({dot(c, v) for v in piece.vertices})
    if len(values) < 2 or values[-1] - values[0] < 2:
        return None
    t = rng.randint(values[0] + 1, values[-1] - 1)
    try:
        return [polytope_from_inequalities(piece.facets + (cut,),
                                           ambient_rank=piece.ambient_rank)
                for cut in ((c, -t), (tuple(-x for x in c), t))]
    except LatticeError:
        return None


def _random_hulls(host, rng):
    points = lattice_points(host)
    return [convex_hull(rng.sample(points, rng.randint(1, min(6, len(points)))))
            for _ in range(rng.randint(1, 4))]


def _perturbed(part, rng):
    """part with a piece dropped, duplicated, split or moved by a lattice
    vector; random hulls of host lattice points; or part itself."""
    pieces = list(part.pieces)
    k = rng.randrange(len(pieces))
    kind = rng.choice(("drop", "duplicate", "split", "move", "hulls", "none"))
    if kind == "drop" and len(pieces) > 1:
        del pieces[k]
    elif kind == "duplicate":
        pieces.insert(rng.randrange(len(pieces) + 1), pieces[k])
    elif kind == "split":
        pieces[k:k + 1] = _split(pieces[k], rng) or [pieces[k]]
    elif kind == "move":
        shift = [rng.choice((-1, 0, 1)) for _ in range(part.host.ambient_rank)]
        pieces[k] = convex_hull([tuple(x + s for x, s in zip(v, shift))
                                 for v in pieces[k].vertices])
    elif kind == "hulls":
        pieces = _random_hulls(part.host, rng)
    rng.shuffle(pieces)
    return SemistablePartition(part.host, tuple(pieces))


NON_TILING_PARTS = {name: partition_from_doc(doc, resolve_polytope)
                    for name, doc in NON_TILING.items()}


@pytest.mark.parametrize("name", sorted(OWNER_TABLE_INPUTS) + sorted(NON_TILING))
def test_wall_check_agrees_with_the_pairwise_check(name):
    part = OWNER_TABLE_INPUTS.get(name) or NON_TILING_PARTS[name]
    assert check_tiling(part) == pairwise_tiling(part)


def test_non_tiling_documents_fail_where_they_are_named():
    verdicts = {name: check_tiling(part) for name, part in NON_TILING_PARTS.items()}
    pair = "pieces {} and {} do not meet in a common face".format
    volume = "piece volumes do not add up to the host volume"
    assert verdicts == {"overlap": (False, pair(0, 1)),
                        "repeated": (False, pair(0, 1)),
                        "gap": (False, volume),
                        "double-cover": (False, pair(0, 2)),
                        "t-junction": (False, pair(0, 1)),
                        "cube-gap": (False, volume)}


@pytest.mark.parametrize("rank", [2, 3])
def test_wall_check_agrees_on_seeded_perturbations(rank):
    bases = [p for p in OWNER_TABLE_INPUTS.values() if p.host.ambient_rank == rank]
    bases += [SemistablePartition(p.host, (p.host,)) for p in bases]
    rng = random.Random(rank)
    messages = set()
    for _ in range(300):
        part = _perturbed(rng.choice(bases), rng)
        verdict = check_tiling(part)
        assert verdict == pairwise_tiling(part), [p.vertices for p in part.pieces]
        messages.add(verdict[1].split()[0])
    # tilings, covering failures and pair failures all occur
    assert {"ok", "piece", "pieces"} <= messages


HOSTS = sorted({p.host for p in OWNER_TABLE_INPUTS.values()},
               key=lambda h: (h.ambient_rank, h.vertices))


@given(st.sampled_from(HOSTS), st.randoms(use_true_random=False))
def test_wall_check_agrees_on_random_hulls(host, rng):
    part = SemistablePartition(host, tuple(_random_hulls(host, rng)))
    assert check_tiling(part) == pairwise_tiling(part)


def _intersect_calls(monkeypatch, run):
    calls = []

    def counted(a, b):
        calls.append(1)
        return intersect(a, b)
    monkeypatch.setattr(partitions, "intersect", counted)
    run()
    return len(calls)


@pytest.mark.parametrize("name, count", [
    *((f"{name}-halves", 0) for name in sorted(POLYGONS)),
    ("cube-quarters", 2), ("cube-octants", 16)])
def test_check_tiling_intersects_only_pairs_without_a_common_wall(
        monkeypatch, name, count):
    # the quarters meet two by two in an edge of the z axis, and of the 28
    # octant pairs only the 12 that share a square share a wall
    part = OWNER_TABLE_INPUTS[name]
    assert _intersect_calls(monkeypatch, lambda: check_tiling(part)) == count


def test_seed_3_fibrations_pass_makes_26_intersect_calls(monkeypatch, tmp_path):
    ops = workloads.generate("fibrations", 3, str(tmp_path))
    monkeypatch.chdir(tmp_path)  # op argv names inputs relative to it

    def run():
        for op in ops:
            main(op["argv"])
    assert _intersect_calls(monkeypatch, run) == 26


# ---------------------------------------------------------------------------
# F_Gamma and the lift against the box search and the double description
# ---------------------------------------------------------------------------

def box_F_Gamma(part, bound):
    """Oracle: the first certificate in the coefficient box [-bound, bound]^n,
    scanned piece by piece in the balanced lexicographic order 0, -1, 1, -2,
    2, ..., or None when the box holds none.  An assignment is valid when
    for every ordered pair (i, j) and every vertex u of piece j, m_i(u) ==
    m_j(u) when u lies in piece i and m_i(u) > m_j(u) otherwise."""
    pieces = part.pieces
    coefficients = [0] + [s * k for k in range(1, bound + 1) for s in (-1, 1)]
    owners = vertex_owners(part)
    assignment = [None] * len(pieces)

    def compatible(j, mj):
        for i in range(j):
            mi = assignment[i]
            for u in pieces[j].vertices + pieces[i].vertices:
                vi, vj = dot(mi, u), dot(mj, u)
                if i in owners[u] and j in owners[u]:
                    ok = vi == vj
                elif j in owners[u]:
                    ok = vi > vj
                else:
                    ok = vj > vi
                if not ok:
                    return False
        return True

    def search(j):
        if j == len(pieces):
            return True
        for mj in itertools.product(coefficients, repeat=part.host.ambient_rank):
            if compatible(j, mj):
                assignment[j] = mj
                if search(j + 1):
                    return True
        return False

    return tuple(assignment) if search(0) else None


def generated_lift(part, functionals):
    """Oracle: the vertices and recession rays of the lifted polyhedron, by
    one double description of its inequalities."""
    ineqs = [((1,) + tuple(m), 0) for m in functionals]
    ineqs += [((0,) + tuple(a), o) for a, o in part.host.facets]
    verts, rays = polyhedron_generators(ineqs, ambient_rank=part.host.ambient_rank + 1)
    return sorted(list(v) for v in verts), [list(r) for r in rays]


def _lifted_by_both(part):
    F = build_F_Gamma(part)
    assert F == box_F_Gamma(part, 10)
    lifted = lifting_polyhedron(part, F)
    assert (lifted["vertices"], lifted["recession_rays"]) == generated_lift(part, F)


def test_F_gamma_is_the_box_certificate_on_the_cuts():
    assert len(lattice_cuts()) == 472
    cuts = cut_partitions()
    assert len(cuts) == 92
    for part in cuts.values():
        _lifted_by_both(part)


def test_F_gamma_is_the_box_certificate_on_every_central_partition_built_here():
    parts = list(OWNER_TABLE_INPUTS.values())
    parts += [partition_from_doc(doc, resolve_polytope)
              for doc in (*FRAME_PATH.values(), REPORT_DOCS["cube-halves"])]
    parts += [_sheared_cube_halves(U) for U in SHEARS]
    parts += [SemistablePartition(p.host, (p.host,)) for p in parts]
    central = [p for p in parts if validate_semistable(p)["valid"]
               and is_central(p) and is_nonsingular(p)]
    assert len(central) == 13 + 28  # and the one-piece partitions of the hosts
    for part in central:
        _lifted_by_both(part)


def test_sigma_v_has_l_plus_1_rays_and_each_cone_omits_one():
    """What central_frame reads off Fan.validate without checking it again,
    on every central partition built here with two pieces or more."""
    parts = list(cut_partitions().values())
    parts += [partition_from_doc(doc, resolve_polytope) for doc in
              (*FRAME_PATH.values(), corpus_doc("tsigma-3piece"))]
    assert len(parts) == 92 + 3 and all(is_central(p) for p in parts)
    for part in parts:
        frame = central_frame(part)
        rays, cones = frame.sigma_v.rays, frame.sigma_v.maximal_cones
        assert len(rays) == len(cones) == frame.l + 1
        omitted = [set(rays) - set(c.rays) for c in cones]
        assert sorted(r for o in omitted for r in o) == list(rays)


def test_fibration_fans_on_the_cuts():
    """Sigma' on every valid non-singular cut: a complete simplicial fan
    whose rays are the host's boundary points and the v_i starred in, every
    v_i a ray, and one pi_Gamma component per v_i.  16 cuts star a v_i in:
    those of b8v3, b9v3 and their prisms."""
    cuts = cut_partitions()
    assert len(cuts) == 92
    added = []
    for name, part in cuts.items():
        frame = central_frame(part)
        fib = build_fibration_fans(part, frame)
        fib.sigma_prime.validate()
        assert list(fib.sigma_prime.rays) == sorted(
            boundary_lattice_points(part.host) + list(fib.added_rays))
        assert set(frame.v_vectors) <= set(fib.sigma_prime.rays)
        assert len(pi_gamma_monomials(fib.sigma_prime, frame)) == len(frame.v_vectors)
        if fib.added_rays:
            added.append(name.split(":")[0])
    assert len(added) == 16
    assert set(added) == {"b8v3", "b9v3", "b8v3-prism", "b9v3-prism"}


def test_is_nonsingular_builds_no_face_lattice(monkeypatch):
    """Smoothness at a partition vertex is read off the facets there."""
    from lgmirror import lattice
    parts = list(lattice_cuts().values())  # hulls built, no face lattice yet
    builds = []
    build = lattice.face_lattice
    monkeypatch.setattr(lattice, "face_lattice",
                        lambda p: builds.append(p) or build(p))
    verdicts = [is_nonsingular(part) for part in parts]
    assert any(verdicts) and not all(verdicts)
    assert builds == []


def _rectangle(x0, x1, y0, y1):
    return [[x, y] for x in (x0, x1) for y in (y0, y1)]


def _lift_doc(tmp_path, doc, capsys):
    f = tmp_path / "part.json"
    f.write_text(json.dumps(doc))
    code = main(["partition", "lift", str(f), "--format", "json"])
    return code, capsys.readouterr()


def test_a_steep_cut_lifts_by_its_primitive_certificate(capsys, tmp_path):
    # the cut x = 11 y of [-12, 12] x [-1, 1]: the certificate leaves the box
    # of bound 10, whose search printed ((0, -1), (-1, 10)), the same bend
    # plus the common form (0, -1)
    doc = {"polytope": {"rank": 2, "vertices": _rectangle(-12, 12, -1, 1)},
           "pieces": [[[-12, -1], [-11, -1], [11, 1], [-12, 1]],
                      [[-11, -1], [12, -1], [12, 1], [11, 1]]]}
    part = partition_from_doc(doc, resolve_polytope)
    assert box_F_Gamma(part, 10) == ((0, -1), (-1, 10))
    assert build_F_Gamma(part) == box_F_Gamma(part, 11) == ((0, 0), (-1, 11))
    code, out = _lift_doc(tmp_path, doc, capsys)
    assert (code, out.err) == (0, "")
    assert json.loads(out.out)["functionals"] == [[0, 0], [-1, 11]]


@pytest.mark.parametrize("name, message", [
    # the forms on the two sides of the wall x = 1 are equal, so no box
    # holds a certificate
    ("wall-off-the-origin",
     "piece 1 misses the origin, which fails its facet <[1, 0], x> >= 1"),
    # an off-origin host has certificates, and it lifted by one of them
    ("off-origin-host",
     "piece 0 misses the origin, which fails its facet <[1, 0], x> >= 1"),
], ids=["wall-off-the-origin", "off-origin-host"])
def test_a_partition_that_is_not_central_is_not_lifted(capsys, tmp_path, name, message):
    doc = NON_CENTRAL[name]
    part = partition_from_doc(doc, resolve_polytope)
    assert validate_semistable(part)["valid"] and is_nonsingular(part)
    assert (box_F_Gamma(part, 3) is None) == part.host.contains((0, 0))
    with pytest.raises(PartitionError, match="central partition"):
        build_F_Gamma(part)
    code, out = _lift_doc(tmp_path, doc, capsys)
    assert (code, out.out) == (2, "")
    assert out.err == f"error: build_F_Gamma needs a central partition: {message}\n"
    # frame and fans name the same facet
    with pytest.raises(PartitionError, match="central partition: piece"):
        central_frame(part)
    for action in ("frame", "fans"):
        assert main(["partition", action, str(tmp_path / "part.json")]) == 2
        assert capsys.readouterr() == (
            "", f"error: central_frame needs a central partition: {message}\n")


@pytest.mark.parametrize("name, frame, fans_error", [
    ("tsigma-3piece-prism",
     "l = 2; L basis [[0, 0, 1]]; v vectors [[-1, 1, 0], [0, -1, 0], [1, 0, 0]]",
     "ray (-1, -1, -1) projects to (-1, -1), outside every distinguished ray"),
    ("cube4-halves",
     "l = 1; L basis [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]; "
     "v vectors [[0, 0, 0, 1], [0, 0, 0, -1]]",
     "boundary-ray refinement is implemented for rank <= 3 only"),
], ids=["tsigma-3piece-prism", "cube4-halves"])
def test_frame_path_documents_frame_and_stop_at_the_fans(capsys, tmp_path, name,
                                                         frame, fans_error):
    """Sigma_v with three rays in rank 2, and a rank-4 host: Fan.validate
    accepts both projected fans, and `fans` stops where it is named."""
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(FRAME_PATH[name]))
    assert main(["partition", "frame", str(f)]) == 0
    assert capsys.readouterr() == (frame + "\n", "")
    assert main(["partition", "fans", str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: {fans_error}\n")


def test_lift_frame_and_fans_name_the_origin_before_smoothness(capsys, tmp_path):
    """One gate checks validity, the origin and smoothness in that order
    for all three actions, so on a valid singular partition that misses the
    origin each names the facet that the origin fails."""
    doc = LIFTING_REFUSALS["singular-off-the-origin"]
    part = partition_from_doc(doc, resolve_polytope)
    assert validate_semistable(part)["valid"] and not is_nonsingular(part)
    f = tmp_path / "part.json"
    f.write_text(json.dumps(doc))
    for action, who in (("lift", "build_F_Gamma"), ("frame", "central_frame"),
                        ("fans", "central_frame")):
        assert main(["partition", action, str(f)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {who} needs a central partition: piece 0 misses the "
                "origin, which fails its facet <[-1, 1], x> >= 1\n")


def test_fans_on_a_host_that_is_not_reflexive_stop_at_the_face_fan(capsys, tmp_path):
    """The halves of [-2, 2]^2 are central and non-singular, so they lift and
    have a frame; the face fan owns the reflexivity check and names it."""
    f = tmp_path / "part.json"
    f.write_text(json.dumps(LIFTING_REFUSALS["non-reflexive-halves"]))
    assert main(["partition", "lift", str(f), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["functionals"] == [[0, 0], [-1, 0]]
    assert main(["partition", "frame", str(f)]) == 0
    assert capsys.readouterr() == (
        "l = 1; L basis [[0, 1]]; v vectors [[1, 0], [-1, 0]]\n", "")
    assert main(["partition", "fans", str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: face fan needs a reflexive polytope: facet offsets differ "
            "from 1: [((-1, 0), 2), ((0, -1), 2), ((0, 1), 2), ((1, 0), 2)]\n")


def test_fans_evaluate_the_reflexivity_diagnostic_once_per_fan_builder(
        monkeypatch, capsys):
    """face_fan and refine_with_boundary_rays each check the host once, and
    nothing else on the `partition fans` path checks it."""
    from lgmirror import fans, lattice
    calls = []
    diagnose = lattice.reflexivity_diagnostic

    def counted(p):
        calls.append(p)
        return diagnose(p)

    monkeypatch.setattr(lattice, "reflexivity_diagnostic", counted)
    monkeypatch.setattr(fans, "reflexivity_diagnostic", counted)
    assert main(["partition", "fans", corpus_path("square-vsplit")]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 2


FANS_DOCUMENTS = {**{name: doc for name in corpus_names()
                     if "pieces" in (doc := corpus_doc(name))}, **FRAME_PATH}


@pytest.mark.parametrize("name", sorted(FANS_DOCUMENTS))
def test_fans_solves_only_to_lift_the_distinguished_vectors(name, monkeypatch, capsys,
                                                            tmp_path):
    """star and Fan.validate read cone membership off integer determinants,
    so the one linalg.solve of `partition fans` is central_frame's lift of
    each v_i (none where central_frame refuses the partition)."""
    doc = FANS_DOCUMENTS[name]
    try:
        expected = len(central_frame(partition_from_doc(doc, resolve_polytope)).v_vectors)
    except PartitionError:
        expected = 0
    calls = []
    solve = linalg.solve
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("lgmirror")
                and getattr(mod, "solve", None) is solve):
            monkeypatch.setattr(mod, "solve", lambda A, b: calls.append(b) or solve(A, b))
    f = tmp_path / "part.json"
    f.write_text(json.dumps(doc))
    main(["partition", "fans", str(f)])
    capsys.readouterr()
    assert len(calls) == expected


def test_a_partition_without_pieces_fails_the_tiling(capsys, tmp_path):
    f = tmp_path / "part.json"
    f.write_text(json.dumps({"polytope": "square", "pieces": []}))
    assert main(["partition", "validate", str(f), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["tiling"] == {"ok": False, "message": "no pieces"}
    assert err == "FAIL: partition is not semi-stable\n"


def test_a_piece_without_points_is_bad_input(capsys, tmp_path):
    f = tmp_path / "part.json"
    f.write_text(json.dumps({"polytope": "square",
                             "pieces": [[[-1, -1], [1, -1], [-1, 1], [1, 1]], []]}))
    assert main(["partition", "validate", str(f)]) == 3
    assert capsys.readouterr() == ("", "cannot read input: pieces[1]: no points\n")
