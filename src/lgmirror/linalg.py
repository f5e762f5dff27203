"""Exact integer and rational linear algebra.

Everything in this package runs over Z or Q; there is no floating point,
and rank, det, solve, nullspace and integer_kernel raise TypeError on an
entry that is neither int nor Fraction (mat_mul on such a nonzero entry).
Matrices are plain lists of rows of ints or Fractions, each row a list or,
for rank, a {column: entry} dict; vectors are tuples.

Three eliminations remain, each with one job:

- rank runs fraction-free Gaussian elimination (Bareiss 1968) on sparse
  rows, {column: nonzero int} dicts, with the pivot chosen in Markowitz
  order (Markowitz 1957): the column with the fewest nonzeros among the
  rows not yet used as pivots, then the shortest row in it.
- _bareiss, the same elimination on dense rows in natural column order,
  answers det and solve (which scales each row to integers, reads the
  pivot columns off the echelon form and back-substitutes in Fractions).
- _hermite, a Hermite reduction by unimodular row operations, answers every
  question over Z: integer_kernel gives the saturated kernel, and with it
  the affine-hull equations of lower-dimensional hulls only
  (lattice.convex_hull), the quotient map of partitions.central_frame and
  the saturated span of the common face there.  nullspace returns the
  integer_kernel basis.

rank and _bareiss differ in their inputs.  rank reads the differentials of
the spectral pages, which are large and sparse (about 12% nonzero on the
7-component Koszul delta page) and arrive as dict rows.  In natural order
the elimination fills them in, so a dict row costs more than a dense one;
in Markowitz order they stay sparse, and walking only the nonzeros pays.
det and solve read the 3 x 3 and 4 x 4 lattice systems of the polytope and
fan code, where a dense row takes less than half the time of a dict row,
and solve needs its pivots in column order.

Bareiss keeps no unimodular transform, so it cannot say which integer
vectors lie in a span.  Every intermediate entry of Bareiss is a minor of
the input, bounded by Hadamard's inequality; the Hermite reduction has no
such bound, and on dense random int matrices of size 30 to 40 it takes
about five times as long.

mat_mul collects the nonzeros of each row once and reads only those.  Both
Bareiss loops scale rows lazily.  Step k of the elimination, with pivot
p_k, replaces each row not yet used as a pivot by

    (p_k * row - row[c] * pivot row) / p_(k-1),

which for a row with row[c] = 0 is just row * p_k / p_(k-1).  Such a row is
left alone, and the loop records the step s that last updated it.
Over the skipped steps s+1, ..., k the factors telescope to p_k / p_s, so
when the row is next needed (it becomes the pivot row, or has a nonzero
entry in the pivot column) one multiply-and-divide by p_k / p_s brings it up
to date.  The division is exact: by Sylvester's identity the up-to-date
entries are minors of the input, hence integers, and they equal the stale
entries times p_k / p_s; this holds for any pivot order, since a run of
the elimination is the natural-order run on the matrix with its pivot rows
and columns moved first.  Scaling by a nonzero factor keeps zeros, so the
pivot search may read a stale row; the entry that multiplies the pivot row
must be read after the catch-up.  In _bareiss the pivots, the determinant
and the pivot rows (all that solve reads) are those of the dense loop, and
the rows below the rank are zero in both.
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
    """The product A B.  The nonzeros of each row B[k] are collected once,
    and a B[k] is added only for a nonzero entry a of A, so past one scan of
    A the work is the number of nonzero products; an entry of the product
    that no such product reaches is the int 0.  A nonzero entry that is
    neither int nor Fraction raises TypeError."""
    if not A or not B:
        return []
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in B]
    _exact([[x for _, x in nz] for nz in nonzeros], "mat_mul")
    cols = len(B[0])
    out = []
    for row in A:
        acc = [0] * cols
        for a, nz in zip(row, nonzeros):
            if a:
                if not isinstance(a, (int, Fraction)):
                    raise TypeError(f"mat_mul: entry {a!r} is neither int nor Fraction")
                for j, x in nz:
                    acc[j] += a * x
        out.append(acc)
    return out


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
    next exactly.

    A row whose entry in the pivot column is 0 is left alone; stage[i] is
    the number of steps row i has been through, and the row is brought up
    to date when next needed (see the module docstring)."""
    rows, cols = len(M), len(M[0])
    pivots = []
    steps = [1]          # steps[t]: the pivot of the t-th step; steps[0] = 1
    stage = [0] * rows
    sgn = 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            stage[r], stage[piv] = stage[piv], stage[r]
            sgn = -sgn
        prev = steps[r]
        for i in range(r, rows):
            row = M[i]
            if row[c] == 0:
                continue
            if stage[i] != r:    # catch up: times p_r / p_s, exactly
                s = steps[stage[i]]
                row[c:] = [x * prev // s for x in row[c:]]
            stage[i] = r + 1
            if i == r:
                p, top = row[c], row
                continue
            f = row[c]          # read after the catch-up
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[c] = 0
        steps.append(p)
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots, sgn * steps[-1]


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
    Fraction-free elimination on the nonzeros in Markowitz order, ties to
    the lowest column, then row, index (see the module docstring)."""
    rows = _sparse_int_rows(A)
    cols = {}           # column -> the unused rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
    found, prev = 0, 1
    last = [1] * len(rows)  # the pivot of the step that last updated each row
    while cols:
        fewest = min(map(len, cols.values()))
        c = min([j for j, hits in cols.items() if len(hits) == fewest])
        hits = cols.pop(c)
        r = min(hits, key=lambda i: (len(rows[i]), i))
        hits.remove(r)
        top, s = rows[r], last[r]
        rows[r] = None
        if s != prev:       # catch up: times prev / s, exactly
            top = {j: x * prev // s for j, x in top.items()}
        p = top.pop(c)
        for j in top:
            cols[j].discard(r)
        rest = top.items()
        for i in hits:
            # (p * row - f * top) / prev on the caught-up row, which an
            # entry outside top reaches as p * x / s
            row, s = rows[i], last[i]
            f = row.pop(c)
            if s != prev:
                f = f * prev // s
            new = {j: p * x // s for j, x in row.items() if j not in top}
            for j, y in rest:
                x = row.get(j)
                if x is None:
                    new[j] = -f * y // prev
                    cols[j].add(i)
                else:
                    if s != prev:
                        x = x * prev // s
                    v = (p * x - f * y) // prev
                    if v:
                        new[j] = v
                    else:
                        cols[j].discard(i)
            rows[i] = new
            last[i] = p
        for j in top:
            if not cols[j]:
                del cols[j]
        found, prev = found + 1, p
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
