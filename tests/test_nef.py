import itertools
import json
import random
import re
from collections import Counter

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix
from tests_data_helpers import (cross_polytope, free_sum, hull_nabla, hull_nabla_pieces,
                                polygon, product, reflexive_polygons, unit_simplex,
                                vertex_splits)

from lgmirror.cli import main, resolve_polytope
from lgmirror.fans import face_fan
from lgmirror.lattice import (InputError, convex_hull, lattice_points, polar_dual,
                              polytope_from_inequalities)
from lgmirror.linalg import dot, solve
from lgmirror.nef import NefError, nef_from_doc, validate_nef


def face_fan_nef(host, parts):
    """Oracle: the face-fan decision.  Per part, the functional of its
    certificate (1 on the part's vertices, 0 on the other rays) on each
    maximal cone of face_fan(host), solved from all of the cone's rays.
    Raises NefError at the first part, and on it the first cone, where the
    certificate is not linear or not integral, then at the first cone and
    ray where it is not convex."""
    fan = face_fan(host)
    functionals = []
    for idx, part in enumerate(parts):
        marked = {host.vertices[j] for j in part}
        pieces = [(c, solve([list(r) for r in c.rays],
                            [int(r in marked) for r in c.rays]))
                  for c in fan.maximal_cones]
        for c, m in pieces:
            if m is None or any(x.denominator != 1 for x in m):
                what = "linear" if m is None else "integral"
                raise NefError(f"part {idx}: certificate is not {what} on cone "
                               f"{[list(r) for r in c.rays]}")
        for c, m in pieces:
            for r in fan.rays:
                if r not in c.rays and dot(r, m) > int(r in marked):
                    raise NefError(f"part {idx}: certificate not convex at cone "
                                   f"{[list(x) for x in c.rays]} against ray {list(r)}")
        functionals.append([tuple(int(x) for x in m) for _, m in pieces])
    return functionals


def oracle_nabla(host, parts):
    """Oracle: the vertices of each dual piece, the hull of the negated
    face-fan functionals (phi_i is their convex max), or None when the
    face-fan decision finds the parts not nef."""
    try:
        functionals = face_fan_nef(host, parts)
    except NefError:
        return None
    return tuple(convex_hull([tuple(-x for x in m) for m in fs]).vertices
                 for fs in functionals)


def package_nabla(host, parts):
    """validate_nef's dual piece vertices, or None when it finds the parts
    not nef."""
    try:
        return validate_nef(host, parts).nabla
    except NefError:
        return None


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
        assert hull_nabla_pieces(nef) == [polar_dual(p)]


def test_square_diagonal_parts_fail_with_witness(square):
    # vertices sorted: (-1,-1), (-1,1), (1,-1), (1,1)
    with pytest.raises(NefError) as err:
        validate_nef(square, [(0, 3), (1, 2)])
    assert err.value.witness == {"ray": [-1, -1], "height": [2, 0]}


def test_cube_is_checked_on_its_non_simplicial_cones(cube):
    # vertices sorted: (-1,-1,-1), (-1,-1,1), ..., (1,1,1); every face fan
    # cone has four rays.  A corner's certificate is not linear on the cone
    # over x = -1, and that of the face x = -1 not integral on the cone over
    # y = -1; either way the second piece would need the non-lattice vertex
    # ray / 2, read off a ray at height [0, 2].
    nef = validate_nef(cube, [tuple(range(8))])
    assert hull_nabla_pieces(nef) == [polar_dual(cube)]
    for parts, ray, height in (
            ([(0,), tuple(range(1, 8))], [-1, 0, 1], [0, 2]),
            ([(0, 1, 2, 3), (4, 5, 6, 7)], [-1, -1, 0], [0, 2])):
        with pytest.raises(NefError) as err:
            validate_nef(cube, parts)
        assert str(err.value) == (f"not nef: ray {ray} of the dual Cayley cone "
                                  f"has height {height}, not a unit vector")
        assert err.value.witness == {"ray": ray, "height": height}


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


def test_a_host_that_is_not_reflexive_has_no_nef_partition(tmp_path, capsys):
    # big-square is [-2, 2]^2: its facets lie at lattice distance 2
    f = tmp_path / "nef.json"
    f.write_text('{"polytope": "big-square", "parts": [[0, 1], [2, 3]]}')
    assert main(["lg", "emit", str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: nef partitions need a reflexive host polytope\n")


def test_nabla_pieces_diamond(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    n1, n2 = hull_nabla_pieces(nef)
    assert n1 == convex_hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    assert n2 == convex_hull([(0, 0), (1, 0)])
    # oracle cross-check by box scan
    phi1 = {(1, 0): 1, (0, 1): 1, (0, -1): 1, (-1, 0): 0}
    assert brute_force_dual_piece(diamond, phi1) == lattice_points(n1)
    # Minkowski identity
    assert minkowski_sum(n1, n2) == polar_dual(diamond)


def test_nabla_hull_diamond(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    hull = hull_nabla(nef)
    assert hull == convex_hull([(-1, 1), (-1, -1), (0, 1), (0, -1), (1, 0)])
    dual = polar_dual(diamond)
    assert all(dual.contains(v) for v in hull.vertices)


def test_nabla_contains_origin_for_all_pieces(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    for piece in hull_nabla_pieces(nef):
        assert piece.contains((0, 0))


def test_nef_on_polygon_corpus_single_part():
    for p in reflexive_polygons():
        nef = validate_nef(p, [tuple(range(len(p.vertices)))])
        hull = hull_nabla(nef)
        dual = polar_dual(p)
        assert all(dual.contains(v) for v in hull.vertices)


def sympy_checks_witness(host, parts, witness):
    """Oracle, by sympy alone: the witness (u, t) is a primitive integer
    vector of the dual Cayley cone, on which every row (v, e_i), v in part
    i, and (0, e_i) is >= 0; its tight rows have rank n + r - 1, so it spans
    an extreme ray; and t is not a unit vector."""
    n, r = host.ambient_rank, len(parts)
    units = [[int(i == k) for k in range(r)] for i in range(r)]
    rows = [list(host.vertices[j]) + units[i] for i, part in enumerate(parts)
            for j in part] + [[0] * n + e for e in units]
    x = witness["ray"] + witness["height"]
    values = [sum(a * b for a, b in zip(row, x)) for row in rows]
    tight = [[ZZ(a) for a in row] for row, value in zip(rows, values) if value == 0]
    return (all(type(c) is int for c in x) and sympy.igcd(*x) == 1
            and min(values) >= 0
            and DomainMatrix(tight, (len(tight), n + r), ZZ).rank() == n + r - 1
            and witness["height"] not in units)


def test_the_dual_cone_decides_every_split_as_the_face_fan_does(cube):
    # every split into 1, 2 or 3 parts of the polygons and of five hosts of
    # rank 3 and 4; the cube's face fan is not simplicial.  A nef split has
    # the face fan's dual pieces, which match their inequalities and add up
    # to the polar dual; sympy re-checks the witness of every other split,
    # and shuffling the indices inside the parts leaves that witness as it is.
    hosts = reflexive_polygons() + [cube, cross_polytope(3), unit_simplex(3),
                                    polar_dual(unit_simplex(3)), unit_simplex(4)]
    rng = random.Random(0)
    verdicts = Counter()
    for host in hosts:
        for parts in vertex_splits(len(host.vertices)):
            expect = oracle_nabla(host, parts)
            try:
                nef = validate_nef(host, parts)
            except NefError as exc:
                assert expect is None, (host.vertices, parts)
                assert sympy_checks_witness(host, parts, exc.witness)
                shuffled = [rng.sample(part, len(part)) for part in parts]
                with pytest.raises(NefError) as err:
                    validate_nef(host, shuffled)
                assert err.value.witness == exc.witness
                verdicts["not nef"] += 1
                continue
            verdicts["nef"] += 1
            assert nef.nabla == expect, (host.vertices, parts)
            pieces = hull_nabla_pieces(nef)
            assert [p.vertices for p in pieces] == list(nef.nabla)
            assert pieces == [inequality_piece(nef, i) for i in range(len(parts))]
            assert minkowski_sum(*pieces) == polar_dual(host), (host.vertices, parts)
    assert verdicts == {"nef": 249, "not nef": 1404}


def two_part_splits(nverts):
    """Every split of range(nverts) into two parts, vertex 0 in the first."""
    for first in itertools.product((0, 1), repeat=nverts - 1):
        second = tuple(j for j, b in enumerate(first, 1) if b)
        if second:
            yield [tuple(j for j in range(nverts) if j not in second), second]


@pytest.mark.parametrize("host, sample, nef", [
    (product(polygon("b6v6"), convex_hull([(-1,), (1,)])), None, 0),
    (free_sum(polygon("b3v3"), polygon("b3v3")), None, 31),
    (free_sum(polygon("b3v3"), polygon("b4v4b")), None, 63),
    (free_sum(polygon("b4v4b"), polygon("b4v4b")), None, 127),
    (free_sum(polygon("b6v6"), polygon("b3v3")), None, 79),
    (product(polygon("b3v3"), polygon("b3v3")), None, 0),
    (product(polygon("b4v4b"), polygon("b4v4b")), 400, 0),
    (cross_polytope(4), None, 127),
], ids=["hexagon-prism", "b3v3+b3v3", "b3v3+b4v4b", "b4v4b+b4v4b",
        "b6v6+b3v3", "b3v3xb3v3", "b4v4bxb4v4b", "cross-polytope-4"])
def test_two_part_splits_agree_with_the_face_fan(host, sample, nef):
    # the two-part splits of the hosts that enumerating nef partitions
    # meets in ranks 3 and 4; the largest product is sampled
    splits = list(two_part_splits(len(host.vertices)))
    if sample:
        splits = random.Random(0).sample(splits, sample)
    found = 0
    for parts in splits:
        nabla = package_nabla(host, parts)
        assert nabla == oracle_nabla(host, parts), parts
        found += nabla is not None
    assert found == nef


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
    for rays in sorted([v for k, v in enumerate(host.vertices) if facet >> k & 1]
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
    """The face-fan oracle's verdict on every two-part split of each host,
    checked against the sympy oracle, counted by verdict."""
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
                    face_fan_nef(host, parts)
                    verdict = None
                except NefError as exc:
                    verdict = re.search("not (linear|integral|convex)",
                                        str(exc)).group(1)
                assert verdict == expect, (verts, parts)
                verdicts[verdict] += 1
    return verdicts


def test_face_fan_oracle_agrees_with_sympy_on_two_part_polygon_splits():
    # 280 splits: all three verdicts occur
    assert two_part_verdicts(reflexive_polygons()) == {
        None: 80, "integral": 122, "convex": 78}


def test_face_fan_oracle_agrees_with_sympy_on_two_part_cube_splits(cube):
    # 254 splits of a host whose face fan cones are not simplicial: none is
    # nef, and most fail already on linearity
    assert two_part_verdicts([cube]) == {"linear": 182, "integral": 72}
