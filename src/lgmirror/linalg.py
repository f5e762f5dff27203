"""Exact integer and rational linear algebra.

Everything in this package runs over Z or Q; there is no floating point,
and rank, det, solve, mat_mul, nullspace and integer_kernel raise
TypeError on an entry that is neither int nor Fraction.  Matrices are plain
lists of rows of ints or Fractions, each row a list or, for rank, a
{column: entry} dict; vectors are tuples.

Three eliminations remain, one loop per question:

- rank asks only which rows are independent, of the page differentials:
  large, sparse (about 12% nonzero on the 7-component Koszul delta page)
  {column: nonzero int} dict rows.  It pivots in Markowitz order (Markowitz
  1957), the column with the fewest nonzeros among the rows not yet used as
  pivots, then the shortest row in it, which keeps the rows sparse; and it
  replaces each row with a nonzero in the pivot column by p * row - f * top,
  divided by the gcd of its entries.  By induction on the steps, each row
  is a nonzero multiple of the row that Bareiss (1968) would hold after the
  same steps, since both updates take the one combination, up to a factor,
  of a row and the pivot row that clears the pivot column; so it is, up to
  sign, the primitive part of the Bareiss row.  The zero patterns agree,
  Markowitz picks the same pivots, and the rank is the same.
  Every Bareiss entry is a minor of the input, bounded by Hadamard's
  inequality, and a primitive row is a Bareiss row divided by its content,
  so its entries are at most those minors and mostly far smaller.
- _bareiss answers det and solve, on the small dense lattice systems of the
  polytope and fan code.  It is the textbook fraction-free loop (Bareiss
  1968) in natural column order, every row below the pivot updated at every
  step and divided exactly by the previous pivot: det reads the last pivot,
  and solve reads the pivot columns of the echelon form (each row scaled to
  integers first) and back-substitutes in Fractions.
- _hermite, a Hermite reduction by unimodular row operations, answers every
  question over Z: integer_kernel gives the saturated kernel, and with it
  the affine-hull equations of lower-dimensional hulls only
  (lattice.convex_hull), the quotient map of partitions.central_frame and
  the saturated span of the common face there.  nullspace returns the
  integer_kernel basis.  Neither loop over Q keeps a unimodular transform,
  so neither can say which integer vectors lie in a span; the Hermite
  reduction has no Hadamard bound, and on dense random int matrices of size
  30 to 40 it takes about five times as long as Bareiss.

mat_mul is the plain row-times-column product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def sign(k):
    """(-1)^k as an int for every integer k.  The power operator gives a
    float for negative k (-1.0 at k = -3), and a float sign turns the
    matrices it scales into floats."""
    return -1 if k % 2 else 1


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(u, v):
    return sum(map(mul, u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def mat_mul(A, B):
    """The product A B, each entry the sum over k of A[i][k] * B[k][j];
    TypeError on an entry of either factor that is neither int nor
    Fraction."""
    if not A or not B:
        return []
    _exact(A, "mat_mul")
    _exact(B, "mat_mul")
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def integral_multiple(A):
    """A times the lcm of its entries' denominators: an int matrix with the
    same zero pattern, kernel and image."""
    den = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in A]


def _exact(A, who):
    """Raise TypeError on an entry that is neither int nor Fraction: a float
    would become a binary Fraction, or be floored, instead of failing."""
    for row in A:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"{who}: entry {x!r} is neither int nor Fraction")


def _int_rows(A, who):
    """A fresh copy of A with each row scaled to ints by the lcm of its own
    denominators (an int row is copied as it is); TypeError on an entry that
    is neither int nor Fraction."""
    out = []
    for row in A:
        if all(type(x) is int for x in row):
            out.append(list(row))
        else:
            _exact([row], who)
            out.append(integral_multiple([row])[0])
    return out


def _bareiss(M):
    """Fraction-free Gaussian elimination (Bareiss 1968) of an int matrix to
    row echelon form, in place.  Returns (pivot columns, d): for a square
    matrix of full rank d is its determinant, since every pivot divides the
    next exactly."""
    rows, cols = len(M), len(M[0])
    pivots, prev, sgn = [], 1, 1
    for c in range(cols):
        r = len(pivots)
        for i in range(r, rows):
            if M[i][c]:
                break
        else:
            continue
        if i != r:
            M[r], M[i] = M[i], M[r]
            sgn = -sgn
        top = M[r]
        p = top[c]
        for row in M[r + 1:]:
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots, sgn * prev


_INT = frozenset((int,))


def _sparse_int_rows(A):
    """Each row of A, a list of entries or a {column: entry} dict, as a fresh
    {column: nonzero int} dict, scaled to ints by the lcm of its own
    denominators; TypeError on an entry that is neither int nor Fraction."""
    out = []
    for row in A:
        items, values = ((row.items(), row.values()) if isinstance(row, dict)
                         else (enumerate(row), row))
        if _INT.issuperset(map(type, values)):
            out.append({j: x for j, x in items if x})
        else:
            _exact((values,), "rank")
            den = lcm(*(x.denominator for x in values))
            out.append({j: den // x.denominator * x.numerator for j, x in items if x})
    return out


def rank(A):
    """Rank of a matrix with int or Fraction entries, given as dense rows or
    as {column: entry} dict rows; any other entry type raises TypeError.
    Elimination on the nonzeros in Markowitz order, ties to the lowest
    column, then row, index, each updated row divided by its content (see
    the module docstring)."""
    rows = _sparse_int_rows(A)
    cols = {}           # column -> the unused rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
    found = 0
    while cols:
        fewest = min(map(len, cols.values()))
        c = min([j for j, hits in cols.items() if len(hits) == fewest])
        hits = cols.pop(c)
        r = min(hits, key=lambda i: (len(rows[i]), i))
        hits.remove(r)
        top = rows[r]
        rows[r] = None
        p = top.pop(c)
        for j in top:
            cols[j].discard(r)
        rest = top.items()
        for i in hits:
            row = rows[i]
            f = row.pop(c)
            new = {j: p * x for j, x in row.items() if j not in top}
            for j, y in rest:
                x = row.get(j)
                if x is None:
                    new[j] = -f * y
                    cols[j].add(i)
                elif v := p * x - f * y:
                    new[j] = v
                else:
                    cols[j].discard(i)
            g = gcd(*new.values())
            rows[i] = {j: x // g for j, x in new.items()} if g > 1 else new
        for j in top:
            if not cols[j]:
                del cols[j]
        found += 1
    return found


def det(A):
    """Determinant of a square int matrix; any other entry type raises
    TypeError (floor division would give a wrong value on a Fraction)."""
    if not A:
        return 1
    if not all(isinstance(x, int) for row in A for x in row):
        raise TypeError(f"det: {A!r} is not an int matrix")
    pivots, d = _bareiss([list(row) for row in A])
    return d if len(pivots) == len(A) else 0


def solve(A, b):
    """One solution x of A x = b over Q, or None if inconsistent.

    Each row of [A | b] is scaled to integers and brought to echelon form by
    _bareiss; the pivot columns are read off it and back-substituted in
    Fractions.  Free variables are set to 0.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = _int_rows([list(A[i]) + [b[i]] for i in range(rows)], "solve")
    x = [Fraction(0)] * cols
    if not rows:
        return tuple(x)
    pivots, _ = _bareiss(M)
    if pivots and pivots[-1] == cols:
        return None  # pivot in the augmented column
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        rest = sum(M[r][j] * x[j] for j in pivots[r + 1:])
        x[c] = Fraction(M[r][cols] - rest, M[r][c])
    return tuple(x)


def nullspace(A, cols=None):
    """Basis of {x in Q^cols : A x = 0} as a list of Fraction tuples: the
    integer_kernel basis."""
    if not A or not A[0]:
        if cols is None:
            cols = len(A[0]) if A else 0
        return [tuple(Fraction(int(i == j)) for j in range(cols))
                for i in range(cols)]
    return [tuple(Fraction(x) for x in v) for v in integer_kernel(A)]


def integer_kernel(A):
    """Basis of the saturated lattice {x in Z^n : A x = 0}, in Hermite form.

    Row-reduce [A^T | I] by unimodular row operations: the identity parts of
    the rows whose A^T part vanishes are a basis of the kernel lattice
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.3).
    """
    if not A:
        return []
    _exact(A, "integer_kernel")
    A = integral_multiple(A)
    m, n = len(A), len(A[0])
    M = _hermite([[A[i][j] for i in range(m)] + [int(i == j) for i in range(n)]
                  for j in range(n)])
    return [row[m:] for row in M if not any(row[:m])]


def _hermite(M):
    """Row Hermite normal form of an int matrix, in place (unimodular row
    operations only, pivots positive, entries above a pivot reduced)."""
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        # gcd out the column below r
        while True:
            nz = [i for i in range(r, rows) if M[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(M[i][c]))
            M[r], M[i0] = M[i0], M[r]
            done = True
            for i in range(r + 1, rows):
                if M[i][c] != 0:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c] != 0:
                        done = False
            if done:
                break
        if any(M[i][c] != 0 for i in range(r, rows)):
            if M[r][c] < 0:
                M[r] = [-x for x in M[r]]
            for i in range(r):
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
            if r == rows:
                break
    return M
