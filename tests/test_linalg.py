from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lgmirror.lattice import cone_generators
from lgmirror.linalg import det, integral_multiple, nullspace, rank, sign, solve


def test_sign_is_an_int_for_negative_exponents():
    for k in range(-7, 8):
        s = sign(k)
        assert type(s) is int
        assert s == (-1) ** abs(k)


def test_rank_rejects_a_float_entry():
    with pytest.raises(TypeError):
        rank([[F(1), F(0)], [F(0), 1.0]])


def test_integral_multiple_scales_by_the_lcm_of_denominators():
    m = integral_multiple([[F(1, 2), F(-1, 3)], [0, 2]])
    assert m == [[3, -2], [0, 12]]
    assert all(type(x) is int for row in m for x in row)


def test_solve_and_nullspace_reject_a_float_entry():
    with pytest.raises(TypeError):
        solve([[1, 0], [0, 2.0]], [1, 1])
    with pytest.raises(TypeError):
        solve([[1, 0], [0, 2]], [1, 0.5])
    with pytest.raises(TypeError):
        nullspace([[1, 0.5]])


def test_cone_kernel_rejects_an_entry_that_is_not_an_int():
    with pytest.raises(TypeError):
        cone_generators([(1, 0), (0, 1.0)], 2)
    with pytest.raises(TypeError):
        cone_generators([(1, 0)], 2, [(0, F(1))])


def test_det_rejects_an_entry_that_is_not_an_int():
    with pytest.raises(TypeError):
        det([[1, 0], [0, 1.0]])
    with pytest.raises(TypeError):
        det([[1, 0], [0, F(1, 2)]])


def _matrix(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def int_matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    # Few distinct entries make singular and rank-deficient matrices common.
    return draw(_matrix(rows, cols, st.integers(-3, 3)))


@given(int_matrices(square=True))
@settings(max_examples=100)
def test_det_agrees_with_sympy(A):
    assert det(A) == sympy.Matrix(A).det()
    assert type(det(A)) is int


@given(int_matrices())
@settings(max_examples=100)
def test_rank_agrees_with_sympy(A):
    assert rank(A) == sympy.Matrix(A).rank()


@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
             min_size=c, max_size=c), min_size=1, max_size=4)))
@settings(max_examples=60)
def test_rank_of_a_fraction_matrix_agrees_with_sympy(A):
    assert rank(A) == sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                     for x in row] for row in A]).rank()
