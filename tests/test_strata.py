import itertools
import random

import pytest
from tests_data_helpers import relabeled

from lgmirror.lattice import InputError, convex_hull
from lgmirror.strata import (
    StrataError,
    StrataEuler,
    anticanonical_curve_euler,
    check_topological_mirror,
    euler_glued_total,
    euler_relative,
    euler_smoothing,
    euler_snc,
    euler_tilde_total,
    monodromy_from_doc,
    monodromy_relation_check,
    strata_from_doc,
)

fs = frozenset


def strata_doc(d):
    """The document of Euler data d."""
    return {"n": d.n, "components": d.components, "side": d.side,
            "entries": [{"I": sorted(I), "e": e} for I, e in d.entries.items()]}


def euler_tilde_resummed(d):
    """Oracle: inclusion-exclusion over the chart cover, the second route to
    the Euler number of the glued fibration over affine space."""
    return sum((-1) ** (len(I) - 1) * d.e(I)
               for r in range(1, d.components + 1)
               for I in itertools.combinations(range(d.components), r))


def elliptic_pair():
    deg = StrataEuler(1, 2, "degeneration",
                      {fs([0]): 2, fs([1]): 2, fs([0, 1]): 2})
    hyb = StrataEuler(1, 2, "hybrid",
                      {fs([0]): 0, fs([1]): 0, fs([0, 1]): 2})
    return deg, hyb


def brute_inclusion_exclusion(entries):
    return sum((-1) ** (len(I) - 1) * e for I, e in entries.items())


def test_euler_snc(square):
    deg, _ = elliptic_pair()
    assert euler_snc(deg) == 2
    assert euler_snc(deg) == brute_inclusion_exclusion(deg.entries)
    single = StrataEuler(2, 1, "degeneration", {fs([0]): 7})
    assert euler_snc(single) == 7


def test_euler_smoothing():
    deg, _ = elliptic_pair()
    assert euler_smoothing(deg) == 0
    single = StrataEuler(2, 1, "degeneration", {fs([0]): 7})
    with pytest.raises(StrataError):
        euler_smoothing(single)


def test_euler_smoothing_of_the_tyurin_k3():
    """A Tyurin degeneration of a K3 surface: two rational elliptic
    surfaces (e = 12 each) glued along an elliptic curve (e = 0), so
    e_X = 12 + 12 - 2 * 0 = 24, the Euler number of a K3."""
    tyurin = StrataEuler(2, 2, "degeneration",
                         {fs([0]): 12, fs([1]): 12, fs([0, 1]): 0})
    assert euler_smoothing(tyurin) == 24
    # the double curve counts twice, against the components
    assert euler_smoothing(tyurin._replace(entries={**tyurin.entries,
                                                    fs([0, 1]): 1})) == 22


def test_euler_smoothing_symmetric_under_labels():
    deg = StrataEuler(2, 3, "degeneration", {
        fs([0]): 3, fs([1]): 5, fs([2]): 7,
        fs([0, 1]): 2, fs([0, 2]): 4, fs([1, 2]): 6, fs([0, 1, 2]): 1})
    for perm in itertools.permutations(range(3)):
        assert euler_smoothing(relabeled(deg, dict(enumerate(perm)))) == \
            euler_smoothing(deg)


def test_generic_fiber():
    # e(Y_I,sm) = e(Y_I) - euler_relative: 2 over [0], 0 over the deepest
    # stratum by the rank-0 convention
    _, hyb = elliptic_pair()
    assert hyb.e([0]) - euler_relative(hyb, [0]) == 2
    assert hyb.e([0, 1]) - euler_relative(hyb, [0, 1]) == 0
    with pytest.raises(StrataError):
        euler_relative(StrataEuler(1, 2, "hybrid", {fs([0]): 1}), [0])


def test_generic_fiber_matches_cover_oracle():
    # N = 2 synthetic data: inclusion-exclusion over the chart cover is the
    # same alternating sum, checked against an independent implementation
    rng = random.Random(7)
    for _ in range(50):
        entries = {}
        for r in range(1, 4):
            for I in itertools.combinations(range(3), r):
                entries[fs(I)] = rng.randint(-5, 5)
        hyb = StrataEuler(2, 3, "hybrid", entries)
        for base in ([0], [1], [2], [0, 1]):
            rest = [i for i in range(3) if i not in base]
            oracle = 0
            for r in range(1, len(rest) + 1):
                for J in itertools.combinations(rest, r):
                    oracle += (-1) ** (r - 1) * entries[fs(base) | fs(J)]
            assert euler_relative(hyb, base) == entries[fs(base)] - oracle


def test_relative_and_totals():
    _, hyb = elliptic_pair()
    assert [euler_relative(hyb, I) for I in ([0], [1], [0, 1])] == [-2, -2, 2]
    assert euler_tilde_total(hyb) == -2
    assert euler_tilde_resummed(hyb) == -2
    assert euler_glued_total(hyb) == 0


def test_tilde_total_two_routes_agree_on_random_data():
    rng = random.Random(11)
    for _ in range(100):
        comps = rng.randint(2, 4)
        entries = {}
        for r in range(1, comps + 1):
            for I in itertools.combinations(range(comps), r):
                entries[fs(I)] = rng.randint(-6, 6)
        hyb = StrataEuler(rng.randint(1, 3), comps, "hybrid", entries)
        assert euler_tilde_total(hyb) == euler_tilde_resummed(hyb)


def test_topological_mirror_elliptic():
    deg, hyb = elliptic_pair()
    rep = check_topological_mirror(deg, hyb)
    assert rep["ok"]
    assert (rep["e_X"], rep["e_Xc"], rep["e_Y"], rep["e_Y_tilde"]) == \
        (0, 2, 0, -2)
    assert rep["identity_smoothing"]["ok"]
    assert rep["identity_central_proof_reading"]["ok"]
    # the statement-literal reading differs and is reported, not hidden
    assert not rep["identity_central_statement_reading"]["ok"]
    # per-stratum: e(X_0) = 2 against (-1)^(1-1+1) * (-2) = 2
    assert rep["per_stratum"][0] == {"I": [0], "lhs": 2, "rhs": 2, "ok": True}


def test_topological_mirror_corrupted_names_stratum():
    deg, hyb = elliptic_pair()
    bad = StrataEuler(1, 2, "hybrid",
                      {fs([0]): 0, fs([1]): 1, fs([0, 1]): 2})
    rep = check_topological_mirror(deg, bad)
    assert not rep["ok"]
    assert [s["I"] for s in rep["per_stratum"] if not s["ok"]] == [[1]]


def test_monodromy_relation():
    ident = [[1, 0], [0, 1]]
    assert monodromy_relation_check(2, {(0, 1): ident}, {1: ident})["ok"]
    A = [[2, 1], [1, 1]]
    Ainv = [[1, -1], [-1, 2]]
    assert monodromy_relation_check(2, {(0, 1): A}, {1: Ainv})["ok"]
    assert not monodromy_relation_check(2, {(0, 1): A}, {1: A})["ok"]
    # a rep of the wrong shape is the loader's to reject
    # (test_monodromy_loader_rejects_shapes_and_missing_diagonal)


def test_monodromy_corpus_documents():
    from conftest import corpus_doc
    ok = monodromy_relation_check(*monodromy_from_doc(corpus_doc("monodromy-ok")))
    bad = monodromy_relation_check(*monodromy_from_doc(corpus_doc("monodromy-bad")))
    assert ok["ok"]
    assert not bad["ok"]


def _monodromy_variant(change):
    from conftest import corpus_doc
    doc = corpus_doc("monodromy-ok")
    change(doc)
    return doc


@pytest.mark.parametrize("change, path", [
    # a second rep of a pair or a second diagonal rep would win silently
    # over the first and turn the ok document into not ok
    (lambda doc: doc["reps"].append(
        {"i": 0, "j": 1, "matrix": [[1, 0], [0, 1]]}), "reps[4]"),
    (lambda doc: doc["reps"].append({"j": 1, "matrix": [[2, 0], [0, 2]]}),
     "reps[4]"),
    (lambda doc: doc.update(dim=-1), "dim"),
], ids=["pair", "diagonal", "dim"])
def test_monodromy_loader_rejects_repeats_and_negative_dim(change, path):
    with pytest.raises(InputError) as err:
        monodromy_from_doc(_monodromy_variant(change))
    assert err.value.path == path


@pytest.mark.parametrize("change, path", [
    # each of these made monodromy_relation_check report "not ok" or raise
    # StrataError (exit 2, no path) instead of failing in the loader
    (lambda doc: doc["reps"][1].update(matrix=[[1, 2, 3], [0, 1, 0]]),
     "reps[1].matrix"),
    (lambda doc: doc.update(dim=3), "reps[0].matrix"),
    (lambda doc: doc["reps"].pop(1), "reps[0].j"),
], ids=["non-square", "dim", "no-diagonal"])
def test_monodromy_loader_rejects_shapes_and_missing_diagonal(change, path):
    with pytest.raises(InputError) as err:
        monodromy_from_doc(_monodromy_variant(change))
    assert err.value.path == path


def test_curve_helper(square, diamond):
    assert anticanonical_curve_euler(square) == 0
    assert anticanonical_curve_euler(diamond) == 0
    big = convex_hull([(-1, -1), (2, -1), (-1, 2)])
    assert anticanonical_curve_euler(big) == 0
    with pytest.raises(StrataError):
        anticanonical_curve_euler(convex_hull([(0, 0), (1, 0), (0, 1)]))


def test_document_round_trip():
    deg, _ = elliptic_pair()
    again = strata_from_doc(strata_doc(deg))
    assert (again.n, again.components, again.side, again.entries) == \
        (deg.n, deg.components, deg.side, deg.entries)


def test_euler_json_has_no_floats(tmp_path, capsys):
    # cycle of three rational curves and its mirror: the deepest stratum has
    # n - |I| + 1 = -1, whose sign must stay the int -1
    import json
    from lgmirror.cli import main
    from tests_data_helpers import float_leaves
    deg = StrataEuler(1, 3, "degeneration",
                      {fs([0]): 2, fs([1]): 2, fs([2]): 2,
                       fs([0, 1]): 1, fs([0, 2]): 1, fs([1, 2]): 1,
                       fs([0, 1, 2]): 0})
    hyb = StrataEuler(1, 3, "hybrid",
                      {fs([0]): 0, fs([1]): 0, fs([2]): 0,
                       fs([0, 1]): 1, fs([0, 2]): 1, fs([1, 2]): 1,
                       fs([0, 1, 2]): 0})
    paths = []
    for name, d in (("deg", deg), ("hyb", hyb)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(strata_doc(d)))
    assert main(["euler", "check", *map(str, paths), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["e_X"], rep["e_Xc"], rep["e_Y"], rep["e_Y_tilde"]) == \
        (0, 3, 0, -3)
    assert rep["per_stratum"][-1] == {"I": [0, 1, 2], "lhs": 0, "rhs": 0,
                                      "ok": True}
    assert float_leaves(rep) == []


@pytest.mark.parametrize("change, message", [
    (dict(n=2), "n: euler check DEG has n = 2, euler check HYB has n = 1"),
    (dict(components=3), "components: euler check DEG has 3 components, "
                         "euler check HYB has 2 components")])
def test_euler_check_refuses_documents_of_different_shape(tmp_path, capsys, change,
                                                          message):
    # the identities compare the sides stratum by stratum, so two shapes
    # are bad input at the key that differs, not a FAIL verdict
    import json
    from conftest import corpus_doc, corpus_path
    from lgmirror.cli import main
    f = tmp_path / "deg.json"
    f.write_text(json.dumps(dict(corpus_doc("elliptic-deg"), **change)))
    assert main(["euler", "check", str(f), corpus_path("elliptic-hyb")]) == 3
    assert capsys.readouterr() == ("", f"cannot read input: {message}\n")
