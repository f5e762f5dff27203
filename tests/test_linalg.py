import itertools
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lgmirror.lattice import cone_generators
from lgmirror.linalg import (_bareiss, det, integer_kernel, integral_multiple,
                             mat_mul, nullspace, rank, sign, solve)


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
# columns, reach the rows that elimination leaves alone for several steps.

def dense_mat_mul(A, B):
    """The textbook product, every entry a sum over all k."""
    if not A or not B:
        return []
    return [[sum(row[k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for row in A]


def dense_bareiss(M):
    """Bareiss elimination that updates every row below the pivot at every
    step; (pivot columns, last pivot times the sign of the row swaps)."""
    rows, cols = len(M), len(M[0])
    pivots, prev, sgn = [], 1, 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sgn = -sgn
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                M[i][j] = (M[r][c] * M[i][j] - M[i][c] * M[r][j]) // prev
            M[i][c] = 0
        prev = M[r][c]
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots, sgn * prev


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
                         sparse_matrices(s[0], s[1], entries),
                         sparse_matrices(s[1], s[2], entries)))


@given(_products(st.integers(-3, 3)))
@settings(max_examples=100)
def test_sparse_mat_mul_agrees_with_the_dense_product(AB):
    A, B = AB
    assert mat_mul(A, B) == dense_mat_mul(A, B)


@given(_products(st.one_of(st.integers(-3, 3), SMALL_FRACTIONS)))
@settings(max_examples=100)
def test_sparse_mat_mul_of_fractions_agrees_with_the_dense_product(AB):
    A, B = AB
    assert mat_mul(A, B) == dense_mat_mul(A, B)


@given(sparse_matrices(min_rows=1))
@settings(max_examples=200)
def test_lazy_bareiss_agrees_with_the_dense_elimination(A):
    lazy, dense = [list(row) for row in A], [list(row) for row in A]
    assert _bareiss(lazy) == dense_bareiss(dense)
    assert lazy == dense    # the echelon form that solve reads


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
                 full_first_column(MIXED)))
@settings(max_examples=100)
def test_sparse_rank_agrees_with_sympy(A):
    expected = _sym(A).rank() if A and A[0] else 0
    assert rank(A) == expected
    assert [rank(rows) for rows in dict_rows(A)] == [expected, expected]


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
