import itertools
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lgmirror.lattice import cone_generators
from lgmirror.linalg import (det, integer_kernel, integral_multiple, nullspace,
                             rank, sign, solve)


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


def _sym(A):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in A])


@st.composite
def rational_systems(draw):
    """(A, b): A a 1-4 x 1-4 matrix of ints or small Fractions, b either
    A x0 for a random x0 (consistent) or drawn at random."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3))
    A = draw(_matrix(rows, cols, entries))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
    return A, b


@given(rational_systems())
@settings(max_examples=100)
def test_solve_agrees_with_sympy(system):
    A, b = system
    x = solve(A, b)
    solutions = sympy.linsolve((_sym(A), _sym([b]).T))
    assert (x is None) == (solutions == sympy.EmptySet)
    if x is None:
        return
    assert all(type(c) is F for c in x)
    assert [sum(a * c for a, c in zip(row, x)) for row in A] == b
    # Free variables stay 0: x lives on the pivot columns of A.
    pivots = _sym(A).rref()[1]
    assert all(c == 0 for j, c in enumerate(x) if j not in pivots)


@given(int_matrices())
@settings(max_examples=100)
def test_nullspace_spans_the_sympy_nullspace(A):
    ours = nullspace(A)
    theirs = sympy.Matrix(A).nullspace()
    assert len(ours) == len(theirs) == len(A[0]) - sympy.Matrix(A).rank()
    assert all(type(c) is F for v in ours for c in v)
    assert all(sum(a * c for a, c in zip(row, v)) == 0 for row in A for v in ours)
    if ours:
        both = sympy.Matrix.hstack(*theirs, *(_sym([v]).T for v in ours))
        assert both.rank() == len(ours)


def _maximal_minor_gcd(K):
    g = 0
    for cols in itertools.combinations(range(len(K[0])), len(K)):
        g = gcd(g, int(sympy.Matrix([[row[j] for j in cols] for row in K]).det()))
    return g


@given(int_matrices())
@settings(max_examples=100)
def test_integer_kernel_is_the_saturated_kernel(A):
    K = integer_kernel(A)
    assert all(type(c) is int for v in K for c in v)
    assert all(sum(a * c for a, c in zip(row, v)) == 0 for row in A for v in K)
    assert len(K) == len(A[0]) - sympy.Matrix(A).rank()
    if K:
        # The gcd of the maximal minors is 1 exactly when the rows span a
        # saturated lattice: no integer kernel vector is left out.
        assert _maximal_minor_gcd(K) == 1


def test_integer_kernel_rejects_a_float_entry():
    with pytest.raises(TypeError):
        integer_kernel([[1, 0.5]])
