import functools
import itertools
import json
from collections import Counter
from fractions import Fraction as F

import complex_reference
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_data_helpers import (
    ASYMMETRIC_GYSIN,
    COMPLEX_EDITS,
    HODGE_AT_A_ZERO_DEGREE,
    abutment_mismatches,
    edit_document,
)

from lgmirror.cli import corpus_names
from lgmirror.lattice import InputError
from lgmirror.spectral import (
    DELTA,
    MONODROMY,
    WEIGHT,
    CubicalData,
    SpectralError,
    StrataComplexData,
    assemble,
    build_G_flag_E1,
    build_delta_E1,
    build_monodromy_E1,
    build_weight_E1,
    check_cubical_mirror,
    check_mirror_pw,
    check_poincare_duality,
    complex_from_doc,
    cubical_from_doc,
    page_report_doc,
    slice_by_label,
)

fs = frozenset


def with_twist(spec, kind, twist):
    """The spec with the twist of every `kind` map replaced."""
    return spec._replace(maps=tuple(
        rule._replace(twist=twist) if rule.kind == kind else rule
        for rule in spec.maps))


# the delta page with the alternating twist removed: a deliberately wrong
# differential that no longer squares to zero on generic consistent data
UNTWISTED_DELTA = with_twist(DELTA, "rho_dual", lambda p: 1)


def annulus_pair_dims():
    """Independent oracle: H^*(annulus, 2 generic fiber points) from the long
    exact sequence of the pair.  H^0(A)=Q -> H^0(pts)=Q^2 -> H^1(pair) ->
    H^1(A)=Q -> 0 with the first map of rank 1 gives (0, 2, 0)."""
    h0 = 1 - 1          # kernel of the rank-1 restriction
    h1 = (2 - 1) + 1    # cokernel plus the surviving H^1
    return (h0, h1, 0)


def test_annulus_oracle(elliptic_hyb_complex):
    dims = annulus_pair_dims()
    for I in ([0], [1]):
        got = tuple(elliptic_hyb_complex.dim(I, k) for k in range(3))
        assert got == dims == (0, 2, 0)


def test_weight_page_elliptic(elliptic_deg_complex):
    page = build_weight_E1(elliptic_deg_complex)
    assert page.e2() == {(0, 0): 1, (1, 0): 1, (0, 2): 2}
    assert abutment_mismatches(page, {0: 1, 1: 1, 2: 2}) == {}


def test_weight_page_smooth_component_is_pure():
    data = StrataComplexData(2, "degeneration",
                             {fs([0]): {0: 1, 2: 3, 4: 1}}, {}, {})
    page = build_weight_E1(data)
    assert page.e2() == {(0, 0): 1, (0, 2): 3, (0, 4): 1}
    assert all(p == 0 for (p, q) in page.e2())


def test_weight_euler_cross_check(elliptic_deg_complex):
    # sum over the page equals the inclusion-exclusion Euler number
    from lgmirror.strata import StrataEuler, euler_snc
    page = build_weight_E1(elliptic_deg_complex)
    total = sum((-1) ** (p + q) * v for (p, q), v in page.e2().items())
    deg = StrataEuler(1, 2, "degeneration",
                      {fs([0]): 2, fs([1]): 2, fs([0, 1]): 2})
    assert total == euler_snc(deg)


def test_monodromy_page_elliptic(elliptic_deg_complex):
    page = build_monodromy_E1(elliptic_deg_complex)
    assert page.e2() == {(0, 0): 1, (1, 0): 1, (-1, 2): 1, (0, 2): 1}
    assert abutment_mismatches(page, {0: 1, 1: 2, 2: 1}) == {}
    assert elliptic_deg_complex.defaulted_gysin  # transpose default was used


def test_monodromy_smooth_fiber_pure():
    data = StrataComplexData(1, "degeneration",
                             {fs([0]): {0: 1, 1: 2, 2: 1}}, {}, {})
    page = build_monodromy_E1(data)
    assert page.e2() == {(0, 0): 1, (0, 1): 2, (0, 2): 1}


def test_gflag_page_elliptic(elliptic_hyb_complex):
    page = build_G_flag_E1(elliptic_hyb_complex)
    assert page.e2() == {(-1, 2): 3, (-2, 2): 1}
    # cross-check against e(Y~) = -2: alternating sum over total degree a - l
    total = sum((-1) ** (p + q) * v for (p, q), v in page.e2().items())
    assert total == -2


def test_gflag_zero_maps_e2_equals_e1():
    data = StrataComplexData(
        1, "hybrid",
        {fs([0]): {1: 2}, fs([1]): {1: 2}, fs([0, 1]): {0: 2}}, {},
        {("rho", fs([0, 1]), fs([0]), 0): [[F(0)] * 2 for _ in range(2)],
         ("rho", fs([0, 1]), fs([1]), 0): [[F(0)] * 2 for _ in range(2)]})
    page = build_G_flag_E1(data)
    for (p, q) in page.positions():
        d = page.term_dim(p, q)
        if d:
            assert page.e2().get((p, q), 0) == d


def test_gflag_single_stratum():
    data = StrataComplexData(1, "hybrid", {fs([0]): {0: 1, 1: 2}}, {}, {})
    page = build_G_flag_E1(data)
    assert set(page.e2().values()) == {1, 2}
    assert all(p == -1 for (p, q) in page.e2())


def test_delta_page_elliptic(elliptic_hyb_complex):
    page = build_delta_E1(elliptic_hyb_complex)
    assert page.e2() == {(-1, 1): 1, (0, 1): 2, (1, 1): 1}
    assert abutment_mismatches(page, {0: 1, 1: 2, 2: 1}) == {}


def test_delta_all_zero_maps():
    data = StrataComplexData(
        1, "hybrid",
        {fs([0]): {1: 2}, fs([1]): {1: 2}, fs([0, 1]): {0: 2}}, {},
        {("rho", fs([0, 1]), fs([0]), 0): [[F(0)] * 2 for _ in range(2)],
         ("rho", fs([0, 1]), fs([1]), 0): [[F(0)] * 2 for _ in range(2)],
         ("rho_dual", fs([0]), fs([0, 1]), 1): [[F(0)] * 2 for _ in range(2)],
         ("rho_dual", fs([1]), fs([0, 1]), 1): [[F(0)] * 2 for _ in range(2)]})
    page = build_delta_E1(data)
    for (p, q) in page.positions():
        d = page.term_dim(p, q)
        if d:
            assert page.e2().get((p, q), 0) == d


def test_delta_flipped_twist_breaks_on_designated_instance():
    from tests_data_helpers import koszul_instance
    data = koszul_instance()
    page = build_delta_E1(data)          # correct twist: assembles fine
    assert page is not None
    with pytest.raises(SpectralError, match="d1 o d1 != 0"):
        assemble(UNTWISTED_DELTA, data)


def test_delta_flipped_twist_from_bundled_doc():
    from conftest import corpus_doc
    data = complex_from_doc(corpus_doc("delta-sign-instance"))
    build_delta_E1(data)
    with pytest.raises(SpectralError, match="d1 o d1 != 0"):
        assemble(UNTWISTED_DELTA, data)


def test_d1_squared_violation_is_reported():
    # restriction maps that do not commute give a nonzero composite
    data = StrataComplexData(
        2, "degeneration",
        {fs([0]): {0: 1}, fs([1]): {0: 1}, fs([2]): {0: 1},
         fs([0, 1]): {0: 1}, fs([0, 2]): {0: 1}, fs([1, 2]): {0: 1},
         fs([0, 1, 2]): {0: 1}},
        {},
        {("restrict", I, J, 0): [[F(1)]]
         for I in [fs([0]), fs([1]), fs([2])]
         for J in [fs([0, 1]), fs([0, 2]), fs([1, 2])] if I < J} |
        {("restrict", I, fs([0, 1, 2]), 0): [[F(1)] if I != fs([0, 1])
                                             else [F(3)]]
         for I in [fs([0, 1]), fs([0, 2]), fs([1, 2])]})
    with pytest.raises(SpectralError):
        build_weight_E1(data)


def test_poincare_duality_elliptic(elliptic_hyb_complex):
    rep = check_poincare_duality(elliptic_hyb_complex)
    assert rep["ok"]
    assert rep["matched_signs"] == {"1": 1}


def test_poincare_duality_dim_failure():
    data = StrataComplexData(1, "hybrid", {fs([0]): {1: 2, 2: 1}}, {}, {})
    rep = check_poincare_duality(data)
    assert not rep["ok"]
    bad = rep["dimension_symmetry"][0]
    assert bad["I"] == [0]


def test_poincare_duality_self_dual_vector_passes():
    data = StrataComplexData(2, "hybrid", {fs([0]): {1: 3, 2: 5, 3: 3}}, {}, {})
    assert check_poincare_duality(data)["ok"]


@pytest.mark.parametrize("action", ["pd", "delta"])
def test_map_of_the_wrong_shape_exits_3(capsys, tmp_path, action):
    # rho_dual [0] -> [0, 1] at degree 1 maps 2 dimensions to 2
    import json
    from conftest import corpus_doc
    from lgmirror.cli import main
    doc = corpus_doc("elliptic-hyb-complex")
    doc["maps"][2]["matrix"] = [[1, 2, 3]]
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["ss", action, str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot read input: maps[2].matrix: ")
    assert "Traceback" not in err


def test_mirror_pw_elliptic(elliptic_deg_complex, elliptic_hyb_complex):
    rep = check_mirror_pw(elliptic_deg_complex, elliptic_hyb_complex,
                          "smoothing")
    assert rep["ok"] and rep["labelled"]
    cells = {(c["a"], c["l"]): (c["degeneration"], c["fibration"])
             for c in rep["cells"]}
    assert cells == {(0, -1): (1, 1), (0, 0): (2, 2), (0, 1): (1, 1)}

    rep2 = check_mirror_pw(elliptic_deg_complex, elliptic_hyb_complex,
                           "central_fiber")
    assert rep2["ok"]
    cells2 = {(c["a"], c["l"]): (c["degeneration"], c["fibration"])
              for c in rep2["cells"]}
    assert cells2 == {(0, 0): (3, 3), (0, 1): (1, 1)}


def test_mirror_pw_mismatch_is_named(elliptic_deg_complex):
    bad = StrataComplexData(
        1, "hybrid",
        {fs([0]): {1: 2}, fs([1]): {1: 2}, fs([0, 1]): {0: 4}}, {},
        {("rho", fs([0, 1]), fs([0]), 0):
            [[F(1), F(-1), F(0), F(0)], [F(0)] * 4],
         ("rho", fs([0, 1]), fs([1]), 0):
            [[F(1), F(-1), F(0), F(0)], [F(0)] * 4],
         ("rho_dual", fs([0]), fs([0, 1]), 1):
            [[F(0), F(0)] for _ in range(4)],
         ("rho_dual", fs([1]), fs([0, 1]), 1):
            [[F(0), F(0)] for _ in range(4)]})
    rep = check_mirror_pw(elliptic_deg_complex, bad, "smoothing")
    assert not rep["ok"]
    assert any(not c["ok"] for c in rep["cells"])


def test_mirror_pw_refuses_documents_of_different_shape(capsys, tmp_path):
    # n 1 against 2, then 2 components against 3: the comparison is not
    # defined, so it is bad input at the key that differs, not a FAIL verdict
    from conftest import corpus_doc, corpus_path
    from lgmirror.cli import main
    deg, hyb = corpus_path("elliptic-deg-complex"), corpus_path("delta-sign-instance")
    assert main(["ss", "pw", deg, hyb]) == 3
    assert capsys.readouterr() == ("", "cannot read input: n: ss pw DEG has n = 1, "
                                       "ss pw HYB has n = 2\n")
    f = tmp_path / "deg.json"
    f.write_text(json.dumps(dict(corpus_doc("delta-sign-instance"), n=1,
                                 side="degeneration")))
    assert main(["ss", "pw", str(f), corpus_path("elliptic-hyb-complex")]) == 3
    assert capsys.readouterr() == ("", "cannot read input: strata: ss pw DEG has "
                                       "3 components, ss pw HYB has 2 components\n")


def test_mirror_pw_degrades_without_labels(elliptic_hyb_complex):
    unlabelled = StrataComplexData(
        1, "degeneration",
        {fs([0]): {0: 1, 2: 1}, fs([1]): {0: 1, 2: 1}, fs([0, 1]): {0: 2}},
        {},
        {("restrict", fs([0]), fs([0, 1]), 0): [[F(1)], [F(1)]],
         ("restrict", fs([1]), fs([0, 1]), 0): [[F(1)], [F(1)]]})
    rep = check_mirror_pw(unlabelled, elliptic_hyb_complex, "smoothing")
    assert not rep["labelled"]
    assert rep["ok"]
    assert all(c["a"] is None for c in rep["cells"])


def test_label_slicing(elliptic_deg_complex):
    sliced = slice_by_label(elliptic_deg_complex)
    assert sliced is not None and list(sliced) == [0]
    page = build_weight_E1(sliced[0])
    assert page.e2() == {(0, 0): 1, (1, 0): 1, (0, 2): 2}


def _two_label_data(restrict_0):
    """Elliptic-style degeneration strata carrying Hodge labels 0 and 1, the
    label-0 basis vectors first in each graded piece; the restriction from
    [1] is block diagonal, the one from [0] is restrict_0."""
    return StrataComplexData(
        1, "degeneration",
        {fs([0]): {0: 2, 2: 1}, fs([1]): {0: 2, 2: 1}, fs([0, 1]): {0: 3}},
        {fs([0]): {0: {0: 1, 1: 1}, 2: {0: 1}},
         fs([1]): {0: {0: 1, 1: 1}, 2: {1: 1}},
         fs([0, 1]): {0: {0: 2, 1: 1}}},
        {("restrict", fs([0]), fs([0, 1]), 0): restrict_0,
         ("restrict", fs([1]), fs([0, 1]), 0): [[1, 0], [1, 0], [0, 1]]})


def test_two_label_slicing_adds_up_to_the_unsliced_page():
    data = _two_label_data([[1, 0], [1, 0], [0, 1]])
    sliced = slice_by_label(data)
    assert list(sliced) == [0, 1]
    pages = [build_weight_E1(sliced[a]).e2() for a in (0, 1)]
    assert pages == [{(0, 0): 1, (1, 0): 1, (0, 2): 1}, {(0, 0): 1, (0, 2): 1}]
    assert Counter(pages[0]) + Counter(pages[1]) == \
        Counter(build_weight_E1(data).e2())
    # one entry from a label-0 source vector to a label-1 target vector
    assert slice_by_label(_two_label_data([[1, 0], [1, 0], [1, 1]])) is None


def test_gflag_delta_agree_on_deepest_column_with_zero_duals():
    # with vanishing dual maps the deepest block of both pages carries the
    # same kernel
    data = StrataComplexData(
        1, "hybrid",
        {fs([0]): {1: 2}, fs([1]): {1: 2}, fs([0, 1]): {0: 2}}, {},
        {("rho", fs([0, 1]), fs([0]), 0): [[F(1), F(-1)], [F(0), F(0)]],
         ("rho", fs([0, 1]), fs([1]), 0): [[F(1), F(-1)], [F(0), F(0)]],
         ("rho_dual", fs([0]), fs([0, 1]), 1): [[F(0), F(0)], [F(0), F(0)]],
         ("rho_dual", fs([1]), fs([0, 1]), 1): [[F(0), F(0)], [F(0), F(0)]]})
    g = build_G_flag_E1(data).e2()
    d = build_delta_E1(data).e2()
    assert g.get((-2, 2), 0) == d.get((-1, 1), 0) == 1


def test_cubical_mirror_elliptic():
    from conftest import corpus_doc
    b = cubical_from_doc(corpus_doc("elliptic-cubical-b"))
    a = cubical_from_doc(corpus_doc("elliptic-cubical-a"))
    rep = check_cubical_mirror(b, a)
    assert rep["ok"]
    assert sorted(d["b"] for d in rep["dimensions"]) == [1, 1, 2]


@pytest.mark.parametrize("change, path", [
    # a second dim for I = [] would win over the first and turn the check
    # against elliptic-cubical-b from ok into not ok
    (lambda doc: doc["entries"].append({"I": [], "dim": 3}), "entries[3].I"),
    (lambda doc: doc["maps"].append(dict(doc["maps"][1])), "maps[2]"),
    # a map from a dimension-1 to a dimension-2 entry must be 2 x 1; a
    # 3 x 3 identity made the check report a rank of 3
    (lambda doc: doc["maps"][0].update(matrix=[["1", "0", "0"], ["0", "1", "0"],
                                               ["0", "0", "1"]]),
     "maps[0].matrix"),
    (lambda doc: doc["entries"][0].update(dim=-1), "entries[0].dim"),
], ids=["entry", "map", "shape", "dim"])
def test_cubical_loader_rejects_repeats_and_shapes(change, path):
    from conftest import corpus_doc
    doc = corpus_doc("elliptic-cubical-a")
    change(doc)
    with pytest.raises(InputError) as err:
        cubical_from_doc(doc)
    assert err.value.path == path


def test_cubical_empty_family_vacuous():
    rep = check_cubical_mirror(CubicalData(0, {}, {}),
                               CubicalData(0, {}, {}))
    assert rep["ok"]


def test_cubical_rank_mismatch_named():
    b = CubicalData(0, {fs(): 2, fs([1]): 1},
                    {(fs([1]), fs()): [[F(1)], [F(0)]]})
    a = CubicalData(0, {fs(): 2, fs([1]): 1},
                    {(fs([1]), fs()): [[F(0)], [F(0)]]})
    rep = check_cubical_mirror(b, a)
    assert not rep["ok"]
    assert rep["map_ranks"][0]["from"] == [1]


def test_d2_vanishing_report(elliptic_deg_complex):
    page = build_weight_E1(elliptic_deg_complex)
    rep = page_report_doc(page)["d2_report"]
    assert all(entry["confirmed_zero"] for entry in rep)


def test_float_sign_is_rejected_by_page_builder(elliptic_deg_complex):
    spec = with_twist(WEIGHT, "restrict", lambda p: -1.0)
    with pytest.raises(TypeError, match="not an int"):
        assemble(spec, elliptic_deg_complex)


def test_page_report_ranks_each_differential_once(monkeypatch):
    import lgmirror.spectral as spectral
    from conftest import corpus_doc
    page = build_delta_E1(complex_from_doc(corpus_doc("delta-sign-instance")))
    real_rank = spectral.rank
    calls = []

    def counted(m):
        calls.append(m)
        return real_rank(m)

    monkeypatch.setattr(spectral, "rank", counted)
    spectral.page_report_doc(page)
    assert page.diff
    assert len(calls) <= len(page.diff)


@pytest.mark.parametrize("name, run", [
    ("delta-sign-instance", lambda data: page_report_doc(build_delta_E1(data))),
    ("delta-sign-instance", lambda data: page_report_doc(build_G_flag_E1(data))),
    ("elliptic-hyb-complex", check_poincare_duality),
], ids=["delta", "gflag", "pd"])
def test_all_int_document_builds_no_fraction(monkeypatch, name, run):
    # ints from the loader to the rank: the matrices of these documents are
    # all "p" strings, so no Fraction is needed anywhere
    from conftest import corpus_doc
    doc = corpus_doc(name)
    made = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__",
                        lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    run(complex_from_doc(doc))
    assert made == []


def test_differential_joining_denominators_2_and_3_matches_sympy():
    # d = [A | -B] from H^0(X_0) + H^0(X_1) to H^0(X_01): one int matrix,
    # scaled by 6.  The third row of each block is the sum of the first two;
    # the numerators alone would give rank 3.
    A = [["1/2", "1"], ["1", "1/2"], ["3/2", "3/2"]]
    B = [["1/3", "0"], ["0", "2/3"], ["1/3", "2/3"]]
    restrict = [{"kind": "restrict", "from": [i], "to": [0, 1], "degree": 0,
                 "matrix": m} for i, m in enumerate((A, B))]
    doc = {"n": 1, "side": "degeneration", "maps": restrict,
           "strata": [{"I": [0], "dims": {"0": 2}}, {"I": [1], "dims": {"0": 2}},
                      {"I": [0, 1], "dims": {"0": 3}}]}
    page = build_weight_E1(complex_from_doc(doc))
    r = sympy.Matrix([[sympy.Rational(x) for x in a + b]
                      for a, b in zip(A, B)]).rank()
    assert r == 2
    assert page.e2() == {(0, 0): 4 - r, (1, 0): 3 - r}
    assert all(type(x) is int for m in page.diff.values() for row in m for x in row)


# E2 of the 8-component Koszul delta pages, as the dense engine computed it.
# With <a, b> = 0 and a != 0 the Koszul complex is exact, so the default
# instance has an empty E2; with b = 0 only the wedge by a is left.
KOSZUL_8_E2 = {}
KOSZUL_8_WEDGE_E2 = {(-7, 7): 1, (-6, 7): 7, (-5, 7): 21, (-4, 7): 35,
                     (-3, 7): 35, (-2, 7): 21, (-1, 7): 7, (0, 7): 1}


@pytest.mark.parametrize("b, table", [(None, KOSZUL_8_E2),
                                      ([0] * 8, KOSZUL_8_WEDGE_E2)])
def test_eight_component_koszul_delta_page(b, table):
    from tests_data_helpers import koszul_instance
    assert build_delta_E1(koszul_instance(8, b=b)).e2() == table
    doubled = build_delta_E1(koszul_instance(8, b=b, scale=2)).e2()
    assert doubled == {pq: 2 * v for pq, v in table.items()}


def test_delta_page_entries_are_ints():
    # the dual twist carries sign (-1)^l with l < 0 on the left half; a float
    # sign would leave a float entry, which is not an int
    from conftest import corpus_doc
    page = build_delta_E1(complex_from_doc(corpus_doc("delta-sign-instance")))
    assert any(p < 0 for (p, q) in page.diff)
    for mat in page.diff.values():
        assert all(type(x) is int for row in mat for x in row)


@pytest.mark.parametrize("action, name", [
    ("gflag", "elliptic-hyb-complex"),
    ("gflag", "delta-sign-instance"),
    ("delta", "elliptic-hyb-complex"),
    ("delta", "delta-sign-instance"),
    ("monodromy", "elliptic-deg-complex"),
])
def test_page_json_has_no_floats(capsys, action, name):
    import json
    from conftest import corpus_path
    from lgmirror.cli import main
    from tests_data_helpers import float_leaves
    assert main(["ss", action, corpus_path(name), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["row_euler"]
    assert float_leaves(doc) == []


def test_ss_pw_with_one_file_exits_3(capsys):
    from conftest import corpus_path
    from lgmirror.cli import main
    assert main(["ss", "pw", corpus_path("elliptic-deg-complex")]) == 3
    assert "ss pw needs 2 files (DEG HYB), got 1" in capsys.readouterr().err


def test_ss_one_file_action_with_two_files_exits_3(capsys):
    from lgmirror.cli import main
    assert main(["ss", "delta", "a.json", "b.json"]) == 3
    assert "ss delta needs 1 file (FILE), got 2" in capsys.readouterr().err


@pytest.mark.parametrize("mode, a, l", [("smoothing", 1, 0),
                                        ("central_fiber", -1, 0)])
def test_mirror_pw_names_a_hybrid_row_no_label_reaches(capsys, tmp_path,
                                                       mode, a, l):
    # H^2 on stratum [0] puts E2[0,2] = 1 on the hybrid pages; the
    # degeneration side has label 0 only, so no label slice holds that row
    import json
    from conftest import corpus_doc, corpus_path
    from lgmirror.cli import main
    doc = corpus_doc("elliptic-hyb-complex")
    assert doc["strata"][0]["I"] == [0]
    doc["strata"][0]["dims"]["2"] = 1
    f = tmp_path / "hyb.json"
    f.write_text(json.dumps(doc))
    assert main(["ss", "pw", corpus_path("elliptic-deg-complex"), str(f),
                 "--mode", mode, "--format", "json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert [c for c in rep["cells"] if not c["ok"]] == [
        {"a": a, "l": l, "degeneration": 0, "fibration": 1, "ok": False}]


def scan_monodromy_place(I, deg, components):
    """Oracle: the monodromy blocks found by scanning p over [-m-1, m+1]
    for m = 2k - p + 1 with k >= max(0, p)."""
    m = len(I)
    for p in range(-m - 1, m + 2):
        two_k = m + p - 1
        if two_k % 2 or two_k < 0 or two_k // 2 < max(0, p):
            continue
        k = two_k // 2
        yield p, deg - 2 * p + 2 * k, (k, I)


def delta_block_valid(l, m, components):
    """Oracle: block (m, I) sits at column l when (i, j) = ((l - m + 1) / 2,
    (l + m - 1) / 2) are integers in -N <= i <= 0 <= j <= N, N = c - 1."""
    N = components - 1
    if m < 1 or m > components or (m - l - 1) % 2:
        return False
    j2 = l + m - 1   # = 2j
    i2 = l - m + 1   # = 2i
    return 0 <= j2 <= 2 * N and -2 * N <= i2 <= 0


def scan_delta_place(I, deg, components):
    """Oracle: the delta blocks found by scanning l over [-c, c]."""
    m = len(I)
    return [(l, deg + m - 1, (m, I)) for l in range(-components, components + 1)
            if delta_block_valid(l, m, components)]


def test_closed_form_placements_match_the_scans():
    for components in range(1, 13):
        for m in range(1, components + 1):
            I = fs(range(m))
            for deg in (0, 1, 2, 5):
                assert MONODROMY.place(I, deg, components) == \
                    list(scan_monodromy_place(I, deg, components))
                assert DELTA.place(I, deg, components) == \
                    scan_delta_place(I, deg, components)


# ---------------------------------------------------------------------------
# Complex documents against the reference readers
# ---------------------------------------------------------------------------

COMPLEX_DOCS = ("delta-sign-instance", "elliptic-deg-complex", "elliptic-hyb-complex")


def _loaded(doc, load=complex_from_doc):
    """repr of load(doc), which shows the type of every value and the order
    of every dict, or the message of its InputError."""
    try:
        return repr(load(doc))
    except InputError as exc:
        return f"InputError: {exc}"


def _loaded_by_the_reference(doc):
    return _loaded(doc, complex_reference.complex_from_doc)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_document_reads_as_the_reference_reads_it(name):
    from conftest import corpus_doc
    assert _loaded(corpus_doc(name)) == _loaded_by_the_reference(corpus_doc(name))


@pytest.mark.parametrize("seed", [1, 3, 9001])
def test_pages_inputs_read_as_the_reference_reads_them(tmp_path, seed):
    import workloads
    workloads.generate("pages", seed, str(tmp_path))
    complexes = 0
    for f in sorted(tmp_path.glob("inputs/*.json")):
        doc = json.loads(f.read_text())
        if "strata" in doc:
            complexes += 1
            assert _loaded(doc) == _loaded_by_the_reference(doc), f.name
    assert complexes


# single-edit values: wrong types, number spellings the entry rule rejects
# and accepts, containers where a scalar belongs, a Hodge distribution with
# a zero count, and matrices whose True or 1.0 follows a 1 read before it
EDIT_VALUES = (1.5, True, False, None, -1, 0, 7, "+1", " 1", "١", "1/0",
               "1/-2", "01", "-0", "2/4", "x", [], {}, ["0"], {"0": 1, "1": 0},
               [[1], [True]], [[1], [1.0]])


def _positions(obj, path):
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    for k, v in list(items):
        yield path + (k,)
        yield from _positions(v, path + (k,))


@st.composite
def single_edits(draw):
    """A hybrid or degeneration corpus complex with one edit in one of its
    strata, maps or pairings: one key or list item replaced, renamed,
    deleted or repeated (an extra index, row or object), or an extra key."""
    from conftest import corpus_doc
    doc = corpus_doc(draw(st.sampled_from(COMPLEX_DOCS)))
    part = draw(st.sampled_from([p for p in ("strata", "maps", "pairings") if p in doc]))
    top = (part, draw(st.integers(0, len(doc[part]) - 1)))
    path = draw(st.sampled_from([top, *_positions(doc[part][top[1]], top)]))
    *head, last = path
    container = functools.reduce(lambda o, k: o[k], head, doc)
    actions = ["set", "delete", "rename" if type(container) is dict else "repeat"]
    action = draw(st.sampled_from(actions + ["extra"] * (type(container[last]) is dict)))
    value = None
    if action == "set":
        siblings = tuple(container) if type(container) is list else ()
        value = draw(st.sampled_from(EDIT_VALUES + siblings))
    elif action == "rename":
        value = draw(st.sampled_from((last + "_", "0" + last, "-0", "02")))
    elif action == "extra":
        action, path, value = "set", path + ("extra",), 0
    return edit_document(doc, path, action, value)


@given(single_edits())
@settings(max_examples=400)
def test_a_single_edit_reads_as_the_reference_reads_it(doc):
    assert _loaded(doc) == _loaded_by_the_reference(doc)


# The first message of each edit that the loader rejects, as the reference
# readers give it.
PINNED_EDIT_ERRORS = {
    "float entry": "maps[0].matrix[0][1]: expected an int or a 'p/q' string, got 1.5",
    "bool entry": "maps[1].matrix[1][0]: expected an int or a 'p/q' string, got False",
    "bool entry after a 1": "maps[0].matrix[1][0]: expected an int or a 'p/q' string, got True",
    "plus entry": "maps[0].matrix[0][0]: expected an int or a 'p/q' string, got '+1'",
    "space entry": "maps[2].matrix[0][0]: expected an int or a 'p/q' string, got ' 1'",
    "arabic-indic entry":
        "maps[0].matrix[0][0]: expected an int or a 'p/q' string, got '١'",
    "zero denominator":
        "pairings[0].matrix[0][1]: expected an int or a 'p/q' string, got '1/0'",
    "negative denominator":
        "maps[2].matrix[1][1]: expected an int or a 'p/q' string, got '1/-2'",
    "repeated index": "strata[2].I[1]: repeats index 0",
    "negative index": "maps[1].from[0]: expected an int >= 0, got -1",
    "bool index": "strata[1].I[0]: expected an int, got True",
    "dims key 01": "strata[0].dims.01: key '01' must be written '1'",
    "dims key -0": "strata[2].dims.-0: key '-0' must be written '0'",
    "negative dim": "strata[5].dims.1: expected an int >= 0, got -1",
    # the label counts of a degree sum to its dim, 0 where dims lacks it
    "hodge label off the dims": "strata[0].hodge.1: the labels count 1, but dims gives 0",
    "hodge undercount": "strata[2].hodge.0: the labels count 1, but dims gives 2",
    "hodge overcount": "strata[2].hodge.0: the labels count 3, but dims gives 2",
    "renamed key": "maps[3].degree: missing",
    "dropped key": "pairings[1].matrix: missing",
    "extra key": "strata[4]: unknown key 'hodge_'",
    "repeated map": "maps[18]: repeats the kind, from, to and degree of an earlier map",
    "non-list row": "maps[0].matrix[1]: expected a list, got '0'",
    "ragged row": "maps[2].matrix: expected a 2x2 matrix by the declared dims",
    # a matrix with a zero side carries no entries (both read as valid once)
    "zero-side map": "maps[4].matrix: expected a 2x0 matrix by the declared dims",
    "zero-side pairing": "pairings[2].matrix: expected a 0x0 matrix by the declared dims",
}


@pytest.mark.parametrize("name", sorted(COMPLEX_EDITS))
def test_complex_edits_keep_their_first_message(name):
    from conftest import corpus_doc
    base, path, action, value = COMPLEX_EDITS[name]
    doc = edit_document(corpus_doc(base), path, action, value)
    expected = _loaded_by_the_reference(doc)
    assert _loaded(doc) == expected
    if name in PINNED_EDIT_ERRORS:
        assert expected == f"InputError: {PINNED_EDIT_ERRORS[name]}"
    else:
        assert not expected.startswith("InputError")


@pytest.mark.parametrize("name", ["elliptic-cubical-a", "elliptic-cubical-b"])
@pytest.mark.parametrize("matrix", [None, [[1], [True]], [[1], [1.0]], [["1"], [1]],
                                    [["2/4"], ["1/2"]], [["0"], ["01"]]])
def test_cubical_documents_read_as_the_reference_reads_them(name, matrix):
    # the first map's entries are read before the second map's matrix
    from conftest import corpus_doc
    doc = corpus_doc(name)
    if matrix is not None:
        doc["maps"][1]["matrix"] = matrix
    assert _loaded(doc, cubical_from_doc) == \
        _loaded(doc, complex_reference.cubical_from_doc)


@pytest.mark.parametrize("edit", ["missing dual map", "zero-side map"])
@pytest.mark.parametrize("action", ["pd", "delta"])
def test_pd_and_delta_refuse_a_missing_dual_and_a_zero_side_map(
        capsys, tmp_path, edit, action):
    from conftest import corpus_doc
    from lgmirror.cli import main
    base, path, how, value = COMPLEX_EDITS[edit]
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(edit_document(corpus_doc(base), path, how, value)))
    code = main(["ss", action, str(f)])
    err = capsys.readouterr().err
    if edit == "missing dual map":
        assert (code, err) == (2, "error: missing rho_dual map [0] -> [0, 1] at degree 1\n")
    else:
        assert (code, err) == (3, "cannot read input: maps[4].matrix: expected a 2x0 "
                                  "matrix by the declared dims\n")


def test_pd_refuses_a_dual_map_without_its_rho(elliptic_hyb_complex):
    del elliptic_hyb_complex.maps[("rho", fs([0, 1]), fs([1]), 0)]
    with pytest.raises(SpectralError, match=r"missing rho map \[0, 1\] -> \[1\] at degree 0"):
        check_poincare_duality(elliptic_hyb_complex)


@pytest.mark.parametrize("mode", ["smoothing", "central_fiber"])
@pytest.mark.parametrize("edit", ["hodge count 0"])
def test_pw_skips_a_hodge_label_with_no_stratum(capsys, tmp_path, edit, mode):
    # the label has no slice, so the table is the one of the unedited file
    from conftest import corpus_doc, corpus_path
    from lgmirror.cli import main
    base, path, how, value = COMPLEX_EDITS[edit]
    doc = edit_document(corpus_doc(base), path, how, value)
    data = complex_from_doc(doc)
    assert data.labels() == [0, 1] and sorted(slice_by_label(data)) == [0]
    f = tmp_path / "deg.json"
    f.write_text(json.dumps(doc))
    hyb = corpus_path("elliptic-hyb-complex")
    assert main(["ss", "pw", corpus_path(base), hyb, "--mode", mode]) == 0
    expected = capsys.readouterr()
    assert main(["ss", "pw", str(f), hyb, "--mode", mode]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("mode", ["smoothing", "central_fiber"])
@pytest.mark.parametrize("doc, message", [
    ("zero degree", "strata[2].hodge.2: the labels count 1, but dims gives 0"),
    ("hodge undercount", "strata[2].hodge.0: the labels count 1, but dims gives 2"),
    ("hodge overcount", "strata[2].hodge.0: the labels count 3, but dims gives 2")])
def test_pw_refuses_hodge_counts_off_the_dims(capsys, tmp_path, doc, message, mode):
    from conftest import corpus_doc, corpus_path
    from lgmirror.cli import main
    if doc == "zero degree":
        doc = HODGE_AT_A_ZERO_DEGREE
    else:
        base, path, how, value = COMPLEX_EDITS[doc]
        doc = edit_document(corpus_doc(base), path, how, value)
    f = tmp_path / "deg.json"
    f.write_text(json.dumps(doc))
    assert main(["ss", "pw", str(f), corpus_path("elliptic-hyb-complex"),
                 "--mode", mode]) == 3
    assert capsys.readouterr() == ("", f"cannot read input: {message}\n")


def test_monodromy_refuses_a_defaulted_gysin_of_the_wrong_shape(capsys, tmp_path):
    from lgmirror.cli import main
    f = tmp_path / "gysin.json"
    f.write_text(json.dumps(ASYMMETRIC_GYSIN))
    assert main(["ss", "monodromy", str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: gysin [0, 1]->[0] at degree 0: matrix is 2x1, expected 1x1\n")
