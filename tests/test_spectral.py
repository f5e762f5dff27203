import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from lgmirror.spectral import (
    DELTA,
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
    slice_by_label,
)

fs = frozenset


def with_twist(spec, kind, twist):
    """The spec with the twist of every `kind` map replaced."""
    return replace(spec, maps=tuple(
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
    assert page.check_abutment({0: 1, 1: 1, 2: 2}) == {}


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
    assert page.check_abutment({0: 1, 1: 2, 2: 1}) == {}
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
    assert page.check_abutment({0: 1, 1: 2, 2: 1}) == {}


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
    from lgmirror.spectral import cubical_from_doc
    b = cubical_from_doc(corpus_doc("elliptic-cubical-b"))
    a = cubical_from_doc(corpus_doc("elliptic-cubical-a"))
    rep = check_cubical_mirror(b, a)
    assert rep["ok"]
    assert sorted(d["b"] for d in rep["dimensions"]) == [1, 1, 2]


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
    rep = page.d2_vanishing_report()
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


def test_delta_page_entries_stay_fractions():
    # the dual twist carries sign (-1)^l with l < 0 on the left half
    from conftest import corpus_doc
    page = build_delta_E1(complex_from_doc(corpus_doc("delta-sign-instance")))
    assert any(p < 0 for (p, q) in page.diff)
    for mat in page.diff.values():
        assert all(isinstance(x, F) for row in mat for x in row)


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
