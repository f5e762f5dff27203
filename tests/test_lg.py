import json
import random
import sys

import pytest
from conftest import corpus_path
from tests_data_helpers import (cross_polytope, free_sum, hull_delta_piece, hull_fan_rays,
                                hull_nabla_pieces, polygon, product, reflexive_polygons,
                                unit_simplex, vertex_splits)

from lgmirror.cli import main
from lgmirror.lattice import convex_hull, lattice_points, polar_dual
from lgmirror.linalg import dot
from lgmirror.lg import (
    LGError,
    _fan_rays,
    check_degree_consistency,
    compactify_fiber,
    givental_hybrid,
    pi_gamma_monomials,
    var_label,
)
from lgmirror.nef import NefError, validate_nef
from lgmirror.partitions import central_frame, build_fibration_fans


def term_set(eq):
    return {(t["coef"], t["sign"], tuple(t["exps"].items())) for t in eq["terms"]}


def labelled(terms):
    """term_set of terms whose exponents are keyed by the ray sigma."""
    return {(coef, sign, tuple((var_label(s), e) for s, e in exps))
            for coef, sign, exps in terms}


@pytest.fixture
def diamond_model(diamond):
    nef = validate_nef(diamond, [(3, 2, 1), (0,)])
    return givental_hybrid(nef, 1, 1), nef


@pytest.mark.parametrize("name, host", [("diamond-nef", "diamond"),
                                        ("square-nef-anticanonical", "square")])
@pytest.mark.parametrize("action", ["emit", "compactify"])
def test_an_lg_op_builds_one_hull_for_its_host(monkeypatch, capsys, name, host, action):
    # the Delta_i, the nabla_i and nabla are read off the nef partition;
    # every module that holds convex_hull is watched
    from lgmirror.cli import resolve_polytope
    calls = []
    for module in [m for n, m in sys.modules.items() if n.startswith("lgmirror")]:
        if hasattr(module, "convex_hull"):
            build = module.convex_hull
            monkeypatch.setattr(module, "convex_hull", lambda points, *a, build=build, **kw:
                                calls.append(sorted(map(tuple, points))) or build(points, *a, **kw))
    assert main(["lg", action, corpus_path(name)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert calls == [list(resolve_polytope(host).vertices)]


def nef_splits(host):
    """Every nef split of the host's vertices into 1, 2 or 3 parts, in the
    form of vertex_splits.  Merging two parts of a nef partition leaves it
    nef (phi_i + phi_j is convex and integral), so each 3-part nef split
    refines a 2-part one by splitting its part without vertex 0."""
    def nef(parts):
        try:
            return validate_nef(host, parts)
        except NefError:
            return None
    n = len(host.vertices)
    found = [nef([tuple(range(n))])]
    for first, rest in (s for s in vertex_splits(n, 2) if len(s) == 2):
        two = nef([first, rest])
        if two:
            found.append(two)
            for b, c in (s for s in vertex_splits(len(rest), 2) if len(s) == 2):
                found.append(nef(sorted([first, tuple(rest[j] for j in b),
                                         tuple(rest[j] for j in c)])))
    return [f for f in found if f]


@pytest.mark.parametrize("hosts, sample, count", [
    (reflexive_polygons(), None, 70),
    ([cross_polytope(3)], None, 122),
    ([unit_simplex(3)], None, 14),
    ([unit_simplex(4)], None, 41),
    ([product(polygon("b6v6"), convex_hull([(-1,), (1,)]))], None, 1),
    ([free_sum(polygon("b3v3"), polygon("b3v3"))], None, 122),
    ([cross_polytope(4)], 40, 40),
], ids=["polygons", "octahedron", "P3", "P4", "hexagon-prism", "b3v3+b3v3",
        "cross-polytope-4"])
def test_the_readings_match_the_hull_route(hosts, sample, count):
    # the supports of the Delta_i, the points of the nabla_i (the lambda
    # term of each part taken as a potential), the fan rays and each
    # sigma-minimum, against the hulls they are read off; the largest
    # host is sampled
    splits = [nef for host in hosts for nef in nef_splits(host)]
    if sample:
        splits = random.Random(0).sample(splits, sample)
    for nef in splits:
        model = givental_hybrid(nef, 0, nef.n_parts)
        deltas = [hull_delta_piece(nef, i) for i in range(nef.n_parts)]
        assert list(model.potentials) == [tuple(lattice_points(d)) for d in deltas]
        rays = _fan_rays(nef)
        assert rays == hull_fan_rays(nef)
        eqs = compactify_fiber(model, nef)
        for eq, piece, delta in zip(eqs, hull_nabla_pieces(nef), deltas):
            lam, *terms = eq["terms"]
            assert lam["exps"] == {var_label(q): 1 for q in lattice_points(piece) if any(q)}
            mins = {s: min(dot(s, v) for v in delta.vertices) for s in rays}
            assert [t["exps"] for t in terms] == [
                {var_label(s): dot(s, rho) - mins[s] for s in rays if dot(s, rho) != mins[s]}
                for rho in lattice_points(delta) if any(rho)]
    assert len(splits) == count


def test_givental_monomial_supports(diamond_model):
    model, _ = diamond_model
    assert model.constraints[0] == ((0, -1), (0, 0), (0, 1), (1, 0))
    assert model.potentials[0] == ((-1, 0), (0, 0))


def test_pure_potential_split(diamond):
    nef = validate_nef(diamond, [(0, 1, 2, 3)])
    model = givental_hybrid(nef, 0, 1)
    assert model.constraints == ()
    assert list(model.potentials[0]) == lattice_points(diamond)


def test_rank_bookkeeping(capsys):
    # diamond-nef has two parts; a split that does not add up to them, or
    # leaves no potential, is a command line that cannot run
    for action in ("emit", "compactify"):
        for split, message in (("5:1", "split 5:1 does not match 2 parts"),
                               ("2:0", "at least one potential part is required")):
            assert main(["lg", action, corpus_path("diamond-nef"),
                         "--split", split]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_one_lambda_per_potential_is_a_usage_error(capsys):
    assert main(["lg", "compactify", corpus_path("diamond-nef"),
                 "--lambda", "a,b"]) == 3
    assert capsys.readouterr() == (
        "", "error: --lambda names 2 symbols for 1 potentials\n")
    # a split of the last part into two groups takes two symbols
    assert main(["lg", "compactify", corpus_path("square-nef-anticanonical"),
                 "--lambda", "a"]) == 3
    assert capsys.readouterr() == (
        "", "error: --lambda names 1 symbols for 2 potentials\n")


def test_compactified_equations_match_worked_example(diamond_model):
    model, nef = diamond_model
    eqs = compactify_fiber(model, nef, ["lambda"])
    assert len(eqs) == 2

    # the displayed constraint, term for term
    expect0 = {
        ("a_(0,0)", 1, (((-1, -1), 1), ((-1, 0), 1), ((-1, 1), 1),
                        ((0, -1), 1), ((0, 1), 1))),
        ("a_(1,0)", 1, (((0, -1), 1), ((0, 1), 1), ((1, 0), 1))),
        ("a_(0,1)", 1, (((-1, 0), 1), ((-1, 1), 2), ((0, 1), 2))),
        ("a_(0,-1)", 1, (((-1, -1), 2), ((-1, 0), 1), ((0, -1), 2))),
    }
    assert term_set(eqs[0]) == labelled(expect0)

    expect1 = {
        ("lambda", 1, (((1, 0), 1),)),
        ("a_(-1,0)", -1, (((-1, -1), 1), ((-1, 0), 1), ((-1, 1), 1))),
    }
    assert term_set(eqs[1]) == labelled(expect1)


def test_single_exponent_example(diamond_model):
    # <(-1,1), (0,1)> - min over Delta_1 = 1 - (-1) = 2
    model, nef = diamond_model
    eqs = compactify_fiber(model, nef)
    term = next(t for t in eqs[0]["terms"] if t["coef"] == "a_(0,1)")
    assert term["exps"][var_label((-1, 1))] == 2
    # rho = 0 gives exponent -sigma_min >= 0 everywhere
    origin_term = next(t for t in eqs[0]["terms"] if t["coef"] == "a_(0,0)")
    assert all(e >= 0 for e in origin_term["exps"].values())


def test_degree_consistency(diamond_model):
    model, nef = diamond_model
    eqs = compactify_fiber(model, nef)
    assert check_degree_consistency(eqs[0], _fan_rays(nef))
    assert check_degree_consistency(eqs[1], _fan_rays(nef))


def test_newton_polytope_round_trip(diamond_model):
    model, nef = diamond_model
    for i, support in enumerate(model.constraints + model.potentials):
        assert convex_hull(list(support)) == hull_delta_piece(nef, i)


def test_non_nef_split_degenerate_equals_compactification(diamond_model):
    model, nef = diamond_model
    pts = [pt for pt in model.potentials[0] if any(pt)]
    split_eq = compactify_fiber(model, nef, ["lambda"], split=[pts])
    direct = compactify_fiber(model, nef, ["lambda"])
    assert split_eq == direct


def test_non_nef_split_square_anticanonical(square):
    nef = validate_nef(square, [(0, 1, 2, 3)])
    model = givental_hybrid(nef, 0, 1)
    pts = [pt for pt in model.potentials[0] if any(pt)]
    group1 = [q for q in pts if q[0] != 0]
    group2 = [q for q in pts if q[0] == 0]
    eqs = compactify_fiber(model, nef, split=[group1, group2])
    assert len(eqs) == 2
    for eq in eqs:
        for t in eq["terms"]:
            assert all(e > 0 for e in t["exps"].values())
    # the lambda-free parts partition the potential's nonzero terms
    labels = [t["coef"] for eq in eqs for t in eq["terms"]
              if t["coef"].startswith("a_")]
    assert sorted(labels) == sorted(f"a_({q[0]},{q[1]})" for q in pts)


DIAMOND_SPLIT = {"polytope": "diamond", "parts": [[0], [1, 2, 3]],
                 "split_last_points": [[[0, -1], [0, 1]], [[1, 0]]]}


def _lg(tmp_path, capsys, action, doc, *options):
    f = tmp_path / "nef.json"
    f.write_text(json.dumps(doc))
    code = main(["lg", action, str(f), *options])
    return (code,) + tuple(capsys.readouterr())


def test_a_split_with_constraints_prints_them(tmp_path, capsys):
    # K = 1: the constraint equation comes first, as in the unsplit output
    code, out, err = _lg(tmp_path, capsys, "compactify", DIAMOND_SPLIT)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == [
        "mirror status open: the split of the last part is not certified nef",
        "a_(-1,0)*z_(-1,-1)*z_(-1,0)*z_(-1,1) + a_(0,0)*z_(1,0) = 0"]
    assert len(lines) == 4
    plain = _lg(tmp_path, capsys, "compactify",
                {k: v for k, v in DIAMOND_SPLIT.items() if k != "split_last_points"})
    assert plain[1].splitlines()[0] == lines[1]


NOT_A_PARTITION = ("the groups must be nonempty and partition the nonzero "
                   "points of the last part")


@pytest.mark.parametrize("doc, options, message", [
    # --split leaves two potentials, so there is no one last part to split
    (dict(DIAMOND_SPLIT, parts=[[3, 2, 1], [0]],
          split_last_points=[[[-1, 0]], [[7, 7]]]), ["--split", "0:2"],
     "splits the last part, but --split leaves 2 potential parts"),
    # (7, 7) is not a point of the last part
    (dict(DIAMOND_SPLIT, split_last_points=[[[0, -1], [0, 1]], [[7, 7]]]), [],
     NOT_A_PARTITION),
    # (1, 0) is in no group
    (dict(DIAMOND_SPLIT, split_last_points=[[[0, -1], [0, 1]]]), [], NOT_A_PARTITION),
    # (0, 1) is in two groups
    (dict(DIAMOND_SPLIT, split_last_points=[[[0, -1], [0, 1]], [[0, 1], [1, 0]]]),
     [], NOT_A_PARTITION),
    (dict(DIAMOND_SPLIT, split_last_points=[[], [[0, -1], [0, 1], [1, 0]]]), [],
     NOT_A_PARTITION),
    (dict(DIAMOND_SPLIT, split_last_points=[]), [], NOT_A_PARTITION),
    (dict(DIAMOND_SPLIT, parts=[[3, 2, 1], [0]], split_last_points=5), [],
     "expected a list, got 5"),
], ids=["two-potentials", "outside", "uncovered", "twice", "empty-group", "no-group",
        "not-a-list"])
@pytest.mark.parametrize("action", ["emit", "compactify"])
def test_a_bad_split_exits_3_at_split_last_points(tmp_path, capsys, action, doc,
                                                   options, message):
    # emit reads the groups too, so both actions accept the same documents
    assert _lg(tmp_path, capsys, action, doc, *options) == (
        3, "", f"cannot read input: split_last_points: {message}\n")


def test_one_part_cube_compactifies(cube, tmp_path):
    # the face fan cones of the cube are not simplicial; its one-part
    # partition is nef, and the fiber coordinates are the 6 nonzero points
    # of the octahedron, at each of which the cube's minimum is -1
    nef = validate_nef(cube, [tuple(range(8))])
    model = givental_hybrid(nef, 0, 1)
    assert len(model.potentials[0]) == 27
    (eq,) = compactify_fiber(model, nef)
    rays = _fan_rays(nef)
    assert rays == tuple(q for q in lattice_points(polar_dual(cube)) if any(q))
    assert len(rays) == 6
    rhos = [rho for rho in model.potentials[0] if any(rho)]
    assert [t["exps"] for t in eq["terms"][1:]] == [
        {var_label(s): dot(s, rho) + 1 for s in rays if dot(s, rho) + 1}
        for rho in rhos]
    f = tmp_path / "cube-nef.json"
    f.write_text('{"polytope": "cube", "parts": [[0, 1, 2, 3, 4, 5, 6, 7]]}')
    assert main(["lg", "emit", str(f)]) == 0
    assert main(["lg", "compactify", str(f)]) == 0


def test_pi_gamma_square(vsplit):
    fr = central_frame(vsplit)
    fans = build_fibration_fans(vsplit, fr)
    pg = pi_gamma_monomials(fans.sigma_prime, fr)
    monos = {frozenset(comp.items()) for comp in pg}
    assert monos == {
        frozenset({((1, 1), 1), ((1, 0), 1), ((1, -1), 1)}),
        frozenset({((-1, 1), 1), ((-1, 0), 1), ((-1, -1), 1)}),
    }


def test_pi_gamma_trivial(square):
    from lgmirror.partitions import SemistablePartition
    part = SemistablePartition(square, (square,))
    fr = central_frame(part)
    fans = build_fibration_fans(part, fr)
    assert pi_gamma_monomials(fans.sigma_prime, fr) == ()


def test_pi_gamma_multiplicity_micro_example():
    # rank-2 frame with the vertical line as the common direction and a
    # synthetic fan containing the ray (2, 1), which projects to twice the
    # distinguished ray (1, 0)
    from lgmirror.partitions import CentralFrame
    from lgmirror.fans import Cone, Fan
    frame = CentralFrame(l=1, L_basis=((0, 1),),
                         quotient=((1, 0),), v_quotient=((1,), (-1,)),
                         v_vectors=((1, 0), (-1, 0)),
                         sigma_v=Fan.from_cones([Cone.from_rays([(1,)], 1),
                                                 Cone.from_rays([(-1,)], 1)], 1))
    fan = Fan.from_cones([Cone.from_rays([(2, 1), (0, 1)], 2),
                          Cone.from_rays([(0, 1), (-1, 0)], 2),
                          Cone.from_rays([(-1, 0), (0, -1)], 2),
                          Cone.from_rays([(0, -1), (2, 1)], 2)], 2)
    assert pi_gamma_monomials(fan, frame) == ({(2, 1): 2}, {(-1, 0): 1})


def test_pi_gamma_structural_error(tsigma_part):
    # the full quotient frame of the triangle partition sends some refined
    # rays inside two-dimensional cones, which the monomial map rejects
    fr = central_frame(tsigma_part)
    fans = build_fibration_fans(tsigma_part, fr)
    with pytest.raises(LGError):
        pi_gamma_monomials(fans.sigma_prime, fr)


@pytest.mark.parametrize("split", ["3", "1:", "a:1", "1:1:1"])
def test_malformed_split_is_a_usage_error(capsys, split):
    assert main(["lg", "emit", corpus_path("diamond-nef"), "--split", split]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: --split must be K:R with integers K and R, "
                   f"got {split!r}\n")


@pytest.mark.parametrize("action", ["emit", "compactify"])
def test_negative_split_count_is_a_usage_error(capsys, action):
    # diamond-nef has two parts, so -1:3 adds up; a negative count would
    # slice the parts from the end
    assert main(["lg", action, corpus_path("diamond-nef"), "--split=-1:3"]) == 3
    assert capsys.readouterr() == (
        "", "error: --split must be K:R with K >= 0, got '-1:3'\n")
    # no potential part is a usage error too
    assert main(["lg", action, corpus_path("diamond-nef"), "--split=3:-1"]) == 3
    assert capsys.readouterr().err == "error: at least one potential part is required\n"
