import json

import pytest
from conftest import corpus_path

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
from lgmirror.nef import nabla_pieces, validate_nef
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
    return givental_hybrid(nef, 1, 1), nabla_pieces(nef)


def test_nabla_pieces_are_built_once(monkeypatch):
    import lgmirror.nef as nef_mod
    calls = []
    build = nef_mod.nabla_pieces
    monkeypatch.setattr(nef_mod, "nabla_pieces",
                        lambda nef: calls.append(nef.parts) or build(nef))
    assert main(["lg", "compactify", corpus_path("diamond-nef")]) == 0
    assert calls == [((3, 2, 1), (0,))]


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
    model, nd = diamond_model
    eqs = compactify_fiber(model, nd, ["lambda"])
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
    model, nd = diamond_model
    eqs = compactify_fiber(model, nd)
    term = next(t for t in eqs[0]["terms"] if t["coef"] == "a_(0,1)")
    assert term["exps"][var_label((-1, 1))] == 2
    # rho = 0 gives exponent -sigma_min >= 0 everywhere
    origin_term = next(t for t in eqs[0]["terms"] if t["coef"] == "a_(0,0)")
    assert all(e >= 0 for e in origin_term["exps"].values())


def test_degree_consistency(diamond_model):
    model, nd = diamond_model
    eqs = compactify_fiber(model, nd)
    assert check_degree_consistency(eqs[0], _fan_rays(nd))
    assert check_degree_consistency(eqs[1], _fan_rays(nd))


def test_newton_polytope_round_trip(diamond_model):
    model, _ = diamond_model
    for support, piece in zip(model.constraints + model.potentials,
                              model.delta_pieces):
        assert convex_hull(list(support)) == piece


def test_non_nef_split_degenerate_equals_compactification(diamond_model):
    model, nd = diamond_model
    pts = [pt for pt in model.potentials[0] if any(pt)]
    split_eq = compactify_fiber(model, nd, ["lambda"], split=[pts])
    direct = compactify_fiber(model, nd, ["lambda"])
    assert split_eq == direct


def test_non_nef_split_square_anticanonical(square):
    nef = validate_nef(square, [(0, 1, 2, 3)])
    model = givental_hybrid(nef, 0, 1)
    nd = nabla_pieces(nef)
    pts = [pt for pt in model.potentials[0] if any(pt)]
    group1 = [q for q in pts if q[0] != 0]
    group2 = [q for q in pts if q[0] == 0]
    eqs = compactify_fiber(model, nd, split=[group1, group2])
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
    (eq,) = compactify_fiber(model, nabla_pieces(nef))
    rays = _fan_rays(nabla_pieces(nef))
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
