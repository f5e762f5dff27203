"""Exact integer and rational linear algebra.

Everything in this package runs over Z or Q; there is no floating point,
and rank, det, solve and nullspace raise TypeError on an entry that is
neither int nor Fraction.  Matrices are plain lists of lists (rows) of ints
or Fractions, vectors are tuples.  Rank and determinant share one
fraction-free integer elimination (Bareiss 1968), and integer_kernel reads
a saturated kernel basis off a unimodular Hermite reduction.  solve reduces
over Fraction for the few small systems left outside the polyhedral kernel
(lattice.cone_generators), which does every V/H conversion in integers;
nullspace has no caller in the package any more (bench/tracer.py wraps it).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def sign(k):
    """(-1)^k as an int for every integer k.  The power operator gives a
    float for negative k (-1.0 at k = -3), and a float sign turns the Fraction
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
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def mat_mul(A, B):
    if not A or not B:
        return []
    n = len(B)
    cols = len(B[0])
    return [[sum(row[k] * B[k][j] for k in range(n)) for j in range(cols)] for row in A]


def mat_vec(A, v):
    return tuple(dot(row, v) for row in A)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def is_zero_matrix(A):
    return all(x == 0 for row in A for x in row)


def integral_multiple(A):
    """A times the lcm of its entries' denominators: an int matrix with the
    same zero pattern, kernel and image, and much cheaper to multiply."""
    den = 1
    for row in A:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    return [[int(x * den) for x in row] for row in A]


def _exact(A, who):
    """Raise TypeError on an entry that is neither int nor Fraction: a float
    would become a binary Fraction, or be floored, instead of failing."""
    for row in A:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"{who}: entry {x!r} is neither int nor Fraction")


def _bareiss(M):
    """Fraction-free Gaussian elimination (Bareiss 1968) of an int matrix, in
    place.  Returns (rank, d): for a square matrix of full rank d is its
    determinant, since every pivot divides the next exactly."""
    rows, cols = len(M), len(M[0])
    r = 0
    prev = 1
    sgn = 1
    for c in range(cols):
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
        r += 1
        if r == rows:
            break
    return r, sgn * prev


def rank(A):
    """Rank of a matrix with int or Fraction entries; any other entry type
    raises TypeError."""
    if not A or not A[0]:
        return 0
    _exact(A, "rank")
    # Clear denominators row by row so the elimination stays in Z.
    return _bareiss([integral_multiple([row])[0] for row in A])[0]


def det(A):
    """Determinant of a square int matrix; any other entry type raises
    TypeError (floor division would give a wrong value on a Fraction)."""
    if not A:
        return 1
    if not all(isinstance(x, int) for row in A for x in row):
        raise TypeError(f"det: {A!r} is not an int matrix")
    r, d = _bareiss([list(row) for row in A])
    return d if r == len(A) else 0


def _echelonize(M):
    """Reduced row echelon form in place over Fraction; returns pivot columns."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def solve(A, b):
    """One solution x of A x = b over Q, or None if inconsistent.

    Under-determined systems return the solution with free variables set to 0.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    _exact(A, "solve")
    _exact([b], "solve")
    M = [[Fraction(A[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    pivots = _echelonize(M)
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            return None  # pivot in the augmented column
        x[c] = M[r][cols]
    # Rows below the pivots must be consistent.
    for i in range(len(pivots), rows):
        if M[i][cols] != 0:
            return None
    return tuple(x)


def nullspace(A, cols=None):
    """Basis of {x in Q^cols : A x = 0} as a list of Fraction tuples."""
    rows = len(A)
    if cols is None:
        cols = len(A[0]) if rows else 0
    if rows == 0 or cols == 0:
        return [tuple(Fraction(1) if i == j else Fraction(0) for j in range(cols))
                for i in range(cols)]
    _exact(A, "nullspace")
    M = [[Fraction(x) for x in row] for row in A]
    pivots = _echelonize(M)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -M[r][f]
        basis.append(tuple(v))
    return basis


def integer_kernel(A):
    """Basis of the saturated lattice {x in Z^n : A x = 0}, in Hermite form.

    Row-reduce [A^T | I] by unimodular row operations: the identity parts of
    the rows whose A^T part vanishes are a basis of the kernel lattice
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.3).
    """
    if not A:
        return []
    A = integral_multiple(A)
    m, n = len(A), len(A[0])
    M = hnf([[A[i][j] for i in range(m)] + [int(i == j) for i in range(n)]
             for j in range(n)])
    return [row[m:] for row in M if not any(row[:m])]


def hnf(A):
    """Row Hermite normal form (integer row ops only, pivots positive)."""
    M = [list(row) for row in A]
    if not M:
        return M
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


def snf_with_transforms(A):
    """Smith normal form: returns (U, D, V) with U A V = D, U and V unimodular."""
    D = [list(row) for row in A]
    m = len(D)
    n = len(D[0]) if m else 0
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i += q * row_j
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):  # col_i += q * col_j
        for row in D:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    while t < min(m, n):
        # find pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        clean = True
        for i in range(t + 1, m):
            if D[i][t] != 0:
                add_row(i, t, -(D[i][t] // D[t][t]))
                if D[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if D[t][j] != 0:
                add_col(j, t, -(D[t][j] // D[t][t]))
                if D[t][j] != 0:
                    clean = False
        if not clean:
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, D, V


def parse_fraction(s):
    """Parse 'p/q' or 'p' (or int) into a Fraction."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))


def format_fraction(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
