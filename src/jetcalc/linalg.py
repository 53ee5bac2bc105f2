"""Exact linear algebra over the rationals.

Matrices are lists of rows of exact scalars, each read through
`poly._as_fraction`; results are Fractions, except that `matmul`
returns the entries' kind: ints for int matrices, Fractions for
Fraction ones.  One elimination kernel sits under everything:
`Echelon`, the reduced row echelon form of a row space grown one row at
a time.  It takes dense rows or sparse `{column: value}`
rows and works fraction-free: each pivot row is a primitive int row over
one positive int pivot, and Fractions appear only where the RREF is read.
A caller reads pivots, ranks, dense RREF rows and nullspaces off the
`Echelon`, and keeps it to test many vectors against one span with
`contains`.  `rank`, `solve` and `invert` are one-call forms of it;
`solve` eliminates the matrix beside all of its right-hand sides at once.
`determinant` is the Leibniz expansion instead: it only multiplies and
adds, so it also takes `Poly` entries.  With exact rationals there are no
tolerance decisions anywhere.
"""

from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import gcd, lcm

from .multiindex import _sign
from .poly import Poly, _as_fraction

_FAST = (int, Fraction)  # the entry types an elimination reads as they are


def _int_row(vector):
    """A dense or {column: value} row as {column: int}, its nonzero
    entries times the lcm of their denominators."""
    row = {}
    for c, x in vector.items() if isinstance(vector, dict) else enumerate(vector):
        # convert before testing: the string "0" is truthy; a bool goes to the gate
        if type(x) not in _FAST:
            x = _as_fraction(x)
        if x:
            row[c] = x
    den = reduce(lcm, [x.denominator for x in row.values()], 1)
    return {c: x.numerator * (den // x.denominator) for c, x in row.items()}


def _combine(s, row, f, tail):
    """row = s * row - f * tail in place, dropping entries that cancel."""
    if s != 1:
        for c in row:
            row[c] *= s
    for c, x in tail.items():
        y = row.get(c, 0) - f * x
        if y:
            row[c] = y
        else:
            del row[c]


def _primitive(d, row):
    """(d, row) divided by the gcd of d and the row's entries, d > 0."""
    g = reduce(gcd, row.values(), abs(d))
    if d < 0:
        g = -g
    return (d, row) if g == 1 else (d // g, {c: x // g for c, x in row.items()})


class Echelon:
    """Reduced row echelon form of the span of the rows added so far.

    Each pivot column maps to (d, tail): the RREF row has 1 at the pivot
    and x / d at each column c of tail, which lists the entries right of
    the pivot outside every pivot column.  d > 0 and the ints d, *tail
    share no factor, so the pair is unique.  A new row is reduced on the
    existing pivots by cross-multiplication, its smallest remaining
    column becomes a pivot, and that column is cleared from the other
    rows.  The result is the unique RREF of the span, whatever order the
    rows come in.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows=()):
        self._rows = {}
        for v in rows:
            self.add_row(v)

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        return sorted(self._rows)

    def _reduce(self, row):
        """A nonzero multiple of the int row minus its span part."""
        rows = self._rows
        for p in [c for c in row if c in rows]:
            f = row.pop(p)
            d, tail = rows[p]
            g = gcd(f, d)
            _combine(d // g, row, f // g, tail)
        return row

    def contains(self, vector):
        """True iff the vector lies in the span."""
        return not self._reduce(_int_row(vector))

    def add_row(self, vector):
        """Add a vector to the span; True iff it raised the rank."""
        row = self._reduce(_int_row(vector))
        if not row:
            return False
        q = min(row)
        pv, row = _primitive(row.pop(q), row)
        rows = self._rows
        for p, (d, tail) in rows.items():
            f = tail.get(q)
            if f is not None:
                h = gcd(f, pv)
                _combine(pv // h, tail, f // h, row)
                del tail[q]
                rows[p] = _primitive(d * (pv // h), tail)
        rows[q] = (pv, row)
        return True

    def dense_rows(self, width):
        """The nonzero RREF rows, in pivot order, as dense lists."""
        out = []
        for p in sorted(self._rows):
            d, tail = self._rows[p]
            r = [Fraction(0)] * width
            r[p] = Fraction(1)
            for c, x in tail.items():
                r[c] = Fraction(x, d)
            out.append(r)
        return out

    def nullspace(self, width):
        """Basis of the vectors of length width orthogonal to every row,
        one per free column in increasing order."""
        free = [c for c in range(width) if c not in self._rows]
        index = {c: i for i, c in enumerate(free)}
        basis = [[Fraction(0)] * width for _ in free]
        for i, c in enumerate(free):
            basis[i][c] = Fraction(1)
        for p, (d, tail) in self._rows.items():
            for c, x in tail.items():
                basis[index[c]][p] = Fraction(-x, d)
        return basis


def rank(matrix):
    return Echelon(matrix).rank


def solve(matrix, rhs, width):
    """Solutions x of matrix @ x = b, one for each b in rhs, from one
    elimination of [matrix | b_1 ... b_m].  The matrix rows are dense or
    {column: value} over width unknowns; each b is dense or {row: value}.
    Returns one entry per b: None if inconsistent, else the solution with
    every free variable 0."""
    rows = [dict(row) if isinstance(row, dict) else dict(enumerate(row)) for row in matrix]
    for j, b in enumerate(rhs):
        for i, x in b.items() if isinstance(b, dict) else enumerate(b):
            rows[i][width + j] = x
    pivots = Echelon(rows)._rows
    # a row pivoted right of the unknowns reads 0 = c != 0 for each b it touches
    bad = set()
    for p, (_, tail) in pivots.items():
        if p >= width:
            bad |= {p, *tail}
    out = []
    for j in range(width, width + len(rhs)):
        if j in bad:
            out.append(None)
            continue
        x = [Fraction(0)] * width
        for p, (d, tail) in pivots.items():
            if p < width:
                x[p] = Fraction(tail.get(j, 0), d)
        out.append(x)
    return out


def matmul(a, b):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik == 0:
                continue
            for j in range(cols):
                out[i][j] += aik * b[k][j]
    return out


def invert(matrix):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(matrix)
    ech = Echelon({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(matrix))
    if ech.pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in ech.dense_rows(2 * n)]


def determinant(matrix):
    """The Leibniz expansion: the sum over permutations p of
    sign(p) * prod_i matrix[i][p(i)], skipping a product at its first
    zero entry.  It only multiplies and adds, so the entries may be exact
    scalars (the result is a Fraction) or `Poly`s (the result is a Poly).

    It costs m! products for an m x m matrix, which its uses can afford:
    forms evaluate r x r minors with r <= n <= 4, and the tests go up to
    5 x 5.
    """
    if not matrix:
        return Fraction(1)
    rows = [[x if isinstance(x, (Fraction, Poly)) else _as_fraction(x) for x in row] for row in matrix]
    total = rows[0][0] * 0  # the zero of the entries' kind
    for perm in permutations(range(len(rows))):
        term = None
        for i, j in enumerate(perm):
            x = rows[i][j]
            if not x:
                break
            term = x if term is None else term * x
        else:
            total = total - term if _sign(perm) < 0 else total + term
    return total
