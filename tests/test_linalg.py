import itertools
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lgmirror import linalg
from lgmirror.lattice import cone_generators
from lgmirror.linalg import (det, integer_kernel, integral_multiple, mat_mul,
                             nullspace, rank, sign, solve)


def test_sign_is_an_int_for_negative_exponents():
    for k in range(-7, 8):
        s = sign(k)
        assert type(s) is int
        assert s == (-1) ** abs(k)


def test_rank_rejects_a_float_entry():
    with pytest.raises(TypeError):
        rank([[F(1), F(0)], [F(0), 1.0]])


def test_mat_mul_rejects_a_float_entry():
    with pytest.raises(TypeError):
        mat_mul([[1, 0.5]], [[1], [2]])
    with pytest.raises(TypeError):
        mat_mul([[F(1), 0]], [[2.0], [1]])
    with pytest.raises(TypeError):
        mat_mul([[1, 0.0]], [[1], [2]])     # a float zero too


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


# Sparse oracles: mostly-zero matrices up to 12 x 12, with empty rows and
# columns, reach the rows that rank leaves alone for several steps.

SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_matrices(draw, rows=None, cols=None, entries=st.integers(-3, 3),
                    min_rows=0):
    """A rows x cols matrix (each 0-12 unless given) with at most a third of
    its entries drawn nonzero; zeros keep the type of the entries."""
    rows = draw(st.integers(min_rows, 12)) if rows is None else rows
    cols = draw(st.integers(0, 12)) if cols is None else cols
    zero = draw(entries) * 0
    M = [[zero] * cols for _ in range(rows)]
    if rows and cols:
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for i, j in draw(st.lists(cells, max_size=rows * cols // 3 + 1)):
            M[i][j] = draw(entries)
    return M


@st.composite
def koszul_blocks(draw, entries):
    """A matrix shaped like a Koszul page differential: s x s blocks from the
    m-subsets of {0, ..., n-1} to the (m+1)-subsets, where the block of
    I inside J is c times the identity or a dense block, every other block
    zero."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, n - 1))
    s = draw(st.integers(1, 2))
    sources = list(itertools.combinations(range(n), m))
    targets = list(itertools.combinations(range(n), m + 1))
    zero = draw(entries) * 0
    M = [[zero] * (len(sources) * s) for _ in range(len(targets) * s)]
    for a, J in enumerate(targets):
        for b, I in enumerate(sources):
            if not set(I) < set(J):
                continue
            c = draw(entries) if draw(st.booleans()) else None
            for u in range(s):
                for v in range(s):
                    if c is None:
                        M[a * s + u][b * s + v] = draw(entries)
                    elif u == v:
                        M[a * s + u][b * s + v] = c
    return M


@st.composite
def full_first_column(draw, entries):
    """A sparse matrix with a nonzero in every row of its first column, so
    the Markowitz pivot (the column with the fewest nonzeros) is not the
    first column that the natural order would take."""
    cols = draw(st.integers(2, 12))
    M = draw(sparse_matrices(cols=cols, entries=entries, min_rows=2))
    for row in M:
        row[0] = draw(entries.filter(bool))
    return M


def dict_rows(A):
    """A as {column: entry} dict rows: with its zeros dropped, as a page
    differential holds it, and with them kept."""
    return ([{j: x for j, x in enumerate(row) if x} for row in A],
            [dict(enumerate(row)) for row in A])


def _products(entries):
    return st.tuples(st.integers(0, 12), st.integers(0, 12),
                     st.integers(0, 12)).flatmap(lambda s: st.tuples(
                         st.just(s), sparse_matrices(s[0], s[1], entries),
                         sparse_matrices(s[1], s[2], entries)))


def sympy_product(shape, A, B):
    """A B by sympy, as lists of rows; [] when there is no inner dimension,
    as mat_mul gives for an empty factor."""
    r, k, n = shape
    if not k:
        return []
    P = (sympy.Matrix(r, k, [x for row in A for x in row])
         * sympy.Matrix(k, n, [x for row in B for x in row]))
    return [[P[i, j] for j in range(n)] for i in range(r)]


@given(_products(st.integers(-3, 3)))
@settings(max_examples=100)
def test_sparse_mat_mul_agrees_with_sympy(shape_AB):
    shape, A, B = shape_AB
    product = mat_mul(A, B)
    assert product == sympy_product(shape, A, B)
    assert all(type(x) is int for row in product for x in row)


@given(_products(st.one_of(st.integers(-3, 3), SMALL_FRACTIONS)))
@settings(max_examples=100)
def test_sparse_mat_mul_of_fractions_agrees_with_sympy(shape_AB):
    shape, A, B = shape_AB
    product = mat_mul(A, B)
    assert product == sympy_product(shape, A, B)
    assert all(type(x) in (int, F) for row in product for x in row)


@st.composite
def common_factors(draw):
    """An int matrix whose rows share large common factors: each row of a
    sparse, Koszul-shaped or full-first-column matrix times a random int in
    [2, 10^6]."""
    entries = st.integers(-3, 3)
    A = draw(st.one_of(sparse_matrices(entries=entries), koszul_blocks(entries),
                       full_first_column(entries)))
    return [[k * x for x in row]
            for row, k in zip(A, draw(st.lists(st.integers(2, 10 ** 6),
                                               min_size=len(A), max_size=len(A))))]


FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@given(st.one_of(
    st.integers(1, 4).flatmap(lambda c: st.lists(
        st.lists(FRACTIONS, min_size=c, max_size=c), min_size=1, max_size=4)),
    koszul_blocks(FRACTIONS), full_first_column(FRACTIONS)))
@settings(max_examples=60)
def test_rank_of_a_fraction_matrix_agrees_with_sympy(A):
    expected = _sym(A).rank() if A and A[0] else 0
    assert rank(A) == expected
    assert [rank(rows) for rows in dict_rows(A)] == [expected, expected]


MIXED = st.one_of(st.integers(-3, 3), SMALL_FRACTIONS)


@given(st.one_of(sparse_matrices(entries=MIXED), koszul_blocks(MIXED),
                 full_first_column(MIXED), common_factors()))
@settings(max_examples=100)
def test_sparse_rank_agrees_with_sympy(A):
    expected = _sym(A).rank() if A and A[0] else 0
    assert rank(A) == expected
    assert [rank(rows) for rows in dict_rows(A)] == [expected, expected]


def rank_and_contents(A):
    """rank(A), and the content of each row that rank updated, in order."""
    contents = []

    def recording_gcd(*xs):
        contents.append(gcd(*xs))
        return contents[-1]

    with mock.patch.object(linalg, "gcd", recording_gcd):
        return rank(A), contents


def test_rank_divides_each_updated_row_by_its_content():
    # Pivot on row 0 at column 0: rows 1 and 2 become 999983 * 10^6 (5, 1)
    # and 7 * 10^6 (1, 7), stored as (5, 1) and (1, 7); pivoting on row 1
    # then leaves 5 * 7 - 1 * 1 = 34, not 34 * 999983 * 7 * 10^12.
    A = [[2 * 10 ** 6, 10 ** 6, 10 ** 6],
         [999983, 3 * 999983, 999983],
         [7, 7, 28]]
    assert rank_and_contents(A) == (3, [999983 * 10 ** 6, 7 * 10 ** 6, 34])


@given(common_factors())
@settings(max_examples=100)
def test_rank_divides_out_the_common_factors(A):
    found, contents = rank_and_contents(A)
    assert found == (sympy.Matrix(A).rank() if A and A[0] else 0)
    # The first row update combines two rows that still carry their factors
    # k and k', so its content is a multiple of k * k' > 1 unless the row
    # is cleared (content 0).
    nonzero = [g for g in contents if g]
    assert not nonzero or nonzero[0] > 1


@given(st.integers(0, 12).flatmap(lambda n: sparse_matrices(n, n)))
@settings(max_examples=100)
def test_sparse_det_agrees_with_sympy(A):
    assert det(A) == (sympy.Matrix(A).det() if A else 1)


@given(sparse_matrices(entries=st.one_of(st.integers(-3, 3), SMALL_FRACTIONS),
                       min_rows=1).filter(lambda A: A[0]),
       st.data())
@settings(max_examples=100)
def test_sparse_solve_agrees_with_sympy(A, data):
    b = data.draw(st.lists(st.sampled_from([0, 0, 1, -2]), min_size=len(A),
                           max_size=len(A)))
    x = solve(A, b)
    solutions = sympy.linsolve((_sym(A), _sym([b]).T))
    assert (x is None) == (solutions == sympy.EmptySet)
    if x is not None:
        assert [sum(a * c for a, c in zip(row, x)) for row in A] == b
