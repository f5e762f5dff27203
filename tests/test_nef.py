import itertools
import json
import re
from collections import Counter

import pytest
import sympy
from tests_data_helpers import reflexive_polygons, vertex_splits

from lgmirror.cli import main, resolve_polytope
from lgmirror.fans import face_fan
from lgmirror.lattice import (InputError, convex_hull, lattice_points, polar_dual,
                              polytope_from_inequalities)
from lgmirror.linalg import dot
from lgmirror.nef import NefError, nabla_hull, nabla_pieces, nef_from_doc, validate_nef


def minkowski_sum(*pieces):
    """Oracle: the hull of every sum of one vertex from each piece."""
    return convex_hull([tuple(map(sum, zip(*vs)))
                        for vs in itertools.product(*(p.vertices for p in pieces))])


def inequality_piece(nef, i):
    """Oracle: the i-th dual piece from its inequalities
    {u : <u, v> >= -phi_i(v)} at the host's vertices, phi_i being 1 on the
    vertices of part i and 0 on the others."""
    ineqs = [(v, int(j in nef.parts[i])) for j, v in enumerate(nef.host.vertices)]
    return polytope_from_inequalities(ineqs, ambient_rank=nef.host.ambient_rank)


def brute_force_dual_piece(host, values, box=3):
    """Oracle: scan a box for {u : <u, v> >= -phi(v) at every vertex v}."""
    out = []
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if all(x * v[0] + y * v[1] >= -values[v] for v in host.vertices):
                out.append((x, y))
    return sorted(out)


def test_diamond_nef_partition(diamond):
    # vertices sorted: (-1,0), (0,-1), (0,1), (1,0)
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    assert nef.part_vertices(0) == ((1, 0), (0, 1), (0, -1))
    assert nef.part_vertices(1) == ((-1, 0),)


def test_single_part_always_nef(diamond, square):
    for p in (diamond, square):
        nef = validate_nef(p, [tuple(range(len(p.vertices)))])
        assert nabla_pieces(nef) == [polar_dual(p)]


def test_square_diagonal_parts_fail_with_witness(square):
    # vertices sorted: (-1,-1), (-1,1), (1,-1), (1,1)
    with pytest.raises(NefError) as err:
        validate_nef(square, [(0, 3), (1, 2)])
    assert err.value.witness is not None


def test_cube_is_checked_on_its_non_simplicial_cones(cube):
    # vertices sorted: (-1,-1,-1), (-1,-1,1), ..., (1,1,1); every face fan
    # cone has four rays, so the values at a cone's rays may fit no functional
    nef = validate_nef(cube, [tuple(range(8))])
    assert nabla_pieces(nef) == [polar_dual(cube)]
    for parts, what, cone in (
            ([(0,), tuple(range(1, 8))], "linear",
             [[-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [-1, 1, 1]]),
            ([(0, 1, 2, 3), (4, 5, 6, 7)], "integral",
             [[-1, -1, -1], [-1, -1, 1], [1, -1, -1], [1, -1, 1]])):
        with pytest.raises(NefError) as err:
            validate_nef(cube, parts)
        assert str(err.value) == f"part 0: certificate is not {what} on cone {cone}"
        assert err.value.witness == {"part": 0, "cone": cone}


def test_parts_must_partition(diamond):
    with pytest.raises(NefError):
        validate_nef(diamond, [(0, 1), (1, 2, 3)])


def test_an_empty_part_is_not_nef(diamond, tmp_path, capsys):
    # the parts of a nef partition are nonempty (Batyrev-Borisov); an empty
    # one made lg emit print the constant potential a_(0,0)
    with pytest.raises(NefError, match="^part 1 is empty$"):
        validate_nef(diamond, [(0, 1, 2, 3), ()])
    f = tmp_path / "nef.json"
    f.write_text('{"polytope": "diamond", "parts": [[0, 1, 2, 3], []]}')
    assert main(["lg", "emit", str(f)]) == 2
    assert capsys.readouterr() == ("", "error: part 1 is empty\n")


def test_nabla_pieces_diamond(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    n1, n2 = nabla_pieces(nef)
    assert n1 == convex_hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    assert n2 == convex_hull([(0, 0), (1, 0)])
    # oracle cross-check by box scan
    phi1 = {(1, 0): 1, (0, 1): 1, (0, -1): 1, (-1, 0): 0}
    assert brute_force_dual_piece(diamond, phi1) == lattice_points(n1)
    # Minkowski identity
    assert minkowski_sum(n1, n2) == polar_dual(diamond)


def test_nabla_hull_diamond(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    hull = nabla_hull(nabla_pieces(nef))
    assert hull == convex_hull([(-1, 1), (-1, -1), (0, 1), (0, -1), (1, 0)])
    dual = polar_dual(diamond)
    assert all(dual.contains(v) for v in hull.vertices)


def test_nabla_contains_origin_for_all_pieces(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    for piece in nabla_pieces(nef):
        assert piece.contains((0, 0))


def test_nef_on_polygon_corpus_single_part():
    for p in reflexive_polygons():
        nef = validate_nef(p, [tuple(range(len(p.vertices)))])
        hull = nabla_hull(nabla_pieces(nef))
        dual = polar_dual(p)
        assert all(dual.contains(v) for v in hull.vertices)


def unit_simplex(rank):
    """The simplex of P^rank: the unit vectors and minus their sum."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return convex_hull(units + [tuple([-1] * rank)])


def test_dual_pieces_match_their_inequalities_on_every_split(cube):
    # every split into 1, 2 or 3 parts of the polygons and of five hosts of
    # rank 3 and 4; the cube's face fan is not simplicial
    octahedron = convex_hull([tuple(s * int(i == j) for j in range(3))
                              for i in range(3) for s in (1, -1)])
    hosts = reflexive_polygons() + [cube, octahedron, unit_simplex(3),
                                    polar_dual(unit_simplex(3)), unit_simplex(4)]
    verdicts = Counter()
    for host in hosts:
        for parts in vertex_splits(len(host.vertices)):
            try:
                nef = validate_nef(host, parts)
            except NefError:
                verdicts["not nef"] += 1
                continue
            verdicts["nef"] += 1
            pieces = nabla_pieces(nef)
            assert pieces == [inequality_piece(nef, i) for i in range(len(parts))]
            assert minkowski_sum(*pieces) == polar_dual(host), (host.vertices, parts)
    assert verdicts == {"nef": 249, "not nef": 1404}


def test_the_functionals_are_one_per_face_fan_cone(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    cones = face_fan(diamond).maximal_cones
    assert len(nef.functionals) == 2
    for i, fs in enumerate(nef.functionals):
        assert len(fs) == len(cones)
        marked = set(nef.part_vertices(i))
        for m, c in zip(fs, cones):
            assert all(type(x) is int for x in m)
            assert [dot(m, r) for r in c.rays] == [int(r in marked) for r in c.rays]


@pytest.mark.parametrize("index", [-1, 4, 7])
def test_a_part_index_that_names_no_vertex_is_bad_input(tmp_path, capsys, index):
    doc = {"polytope": "diamond", "parts": [[3, 2, 1], [0, index]]}
    with pytest.raises(InputError) as err:
        nef_from_doc(doc, resolve_polytope)
    assert err.value.path == "parts[1][1]"
    message = f"parts[1][1]: expected a vertex index below 4, got {index}"
    assert str(err.value) == message
    f = tmp_path / "nef.json"
    f.write_text(json.dumps(doc))
    assert main(["lg", "emit", str(f)]) == 3
    assert capsys.readouterr() == ("", f"cannot read input: {message}\n")


@pytest.mark.parametrize("parts", [[[3, 2, 1], [0, 1]], [[3, 2], [0]]])
def test_a_repeated_or_missing_vertex_is_not_a_partition(tmp_path, capsys, parts):
    f = tmp_path / "nef.json"
    f.write_text(json.dumps({"polytope": "diamond", "parts": parts}))
    assert main(["lg", "emit", str(f)]) == 2
    assert capsys.readouterr() == ("", "error: parts do not partition the vertex set\n")


def test_nef_document(diamond):
    doc = {"polytope": {"name": "diamond", "rank": 2,
                        "vertices": [[-1, 0], [0, -1], [0, 1], [1, 0]]},
           "parts": [[3, 2, 1], [0]]}
    nef = nef_from_doc(doc, resolve_polytope)
    assert nef.n_parts == 2


def sympy_nef_verdict(host, part):
    """Oracle: None when the function that is 1 on `part` and 0 on the other
    vertices is linear, integral and convex on the face fan, else the first
    failure: "linear" or "integral" on the first facet cone, in ray order,
    where one fails, then "convex".  Each facet cone's piece is solved by
    sympy from all of its rays; sympy's error on an inconsistent system
    reads as "linear"."""
    values = {v: int(v in part) for v in host.vertices}
    pieces = []
    for rays in sorted(sorted(host.vertices[j] for j in facet)
                       for facet in host.incidence):
        try:
            m = sympy.Matrix(rays).solve(sympy.Matrix([values[r] for r in rays]))
        except ValueError:
            return "linear"
        if not all(x.is_integer for x in m):
            return "integral"
        pieces.append(list(m))
    if any(sum(a * b for a, b in zip(m, v)) > values[v]
           for m in pieces for v in host.vertices):
        return "convex"
    return None


def two_part_verdicts(hosts):
    """validate_nef's verdict on every two-part split of each host, checked
    against the sympy oracle, counted by verdict."""
    verdicts = Counter()
    for host in hosts:
        verts = host.vertices
        for r in range(1, len(verts)):
            for first in itertools.combinations(range(len(verts)), r):
                parts = [first, tuple(j for j in range(len(verts)) if j not in first)]
                expect = next(filter(None, (
                    sympy_nef_verdict(host, {verts[j] for j in p}) for p in parts)),
                    None)
                try:
                    validate_nef(host, parts)
                    verdict = None
                except NefError as exc:
                    verdict = re.search("not (linear|integral|convex)",
                                        str(exc)).group(1)
                assert verdict == expect, (verts, parts)
                verdicts[verdict] += 1
    return verdicts


def test_validate_nef_agrees_with_sympy_on_two_part_polygon_splits():
    # 280 splits: all three verdicts occur
    assert two_part_verdicts(reflexive_polygons()) == {
        None: 80, "integral": 122, "convex": 78}


def test_validate_nef_agrees_with_sympy_on_two_part_cube_splits(cube):
    # 254 splits of a host whose face fan cones are not simplicial: none is
    # nef, and most fail already on linearity
    assert two_part_verdicts([cube]) == {"linear": 182, "integral": 72}
