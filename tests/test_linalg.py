import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from jetcalc.linalg import Echelon, determinant, invert, matmul, rank, solve


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matvec(a, v):
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def rand_matrix(rows, cols, rng):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_invert_round_trip():
    rng = random.Random(2)
    done = 0
    while done < 15:
        a = rand_matrix(4, 4, rng)
        try:
            inv = invert(a)
        except ValueError:
            continue
        assert matmul(a, inv) == identity(4)
        assert matmul(inv, a) == identity(4)
        done += 1


def test_matmul_returns_the_entries_kind():
    """Int matrices multiply to ints, Fraction matrices to Fractions."""
    rng = random.Random(3)
    for _ in range(10):
        a = [[rng.choice([-2, -1, 1, 3]) for _ in range(3)] for _ in range(2)]
        b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        product = matmul(a, b)
        assert all(type(x) is int for row in product for x in row)
        fa = [[Fraction(x, 2) for x in row] for row in a]
        fb = [[Fraction(x, 3) for x in row] for row in b]
        product_f = matmul(fa, fb)
        assert all(type(x) is Fraction for row in product_f for x in row)
        assert product_f == [[Fraction(x, 6) for x in row] for row in product]


def test_nullspace_vectors_annihilate():
    rng = random.Random(4)
    for _ in range(15):
        a = rand_matrix(3, 5, rng)
        basis = Echelon(a).nullspace(5)
        assert len(basis) == 5 - rank(a)
        for v in basis:
            assert all(x == 0 for x in matvec(a, v))


def test_solve_consistency():
    rng = random.Random(6)
    for _ in range(15):
        a = rand_matrix(4, 3, rng)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        b = matvec(a, x)
        [sol] = solve(a, [b], 3)
        assert sol is not None
        assert matvec(a, sol) == b


def test_solve_detects_inconsistency():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    b = [Fraction(0), Fraction(1)]
    assert solve(a, [b], 2) == [None]


def test_determinant_multiplicative():
    rng = random.Random(8)
    for _ in range(10):
        a = rand_matrix(3, 3, rng)
        b = rand_matrix(3, 3, rng)
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


def test_rank_rref_agree():
    rng = random.Random(10)
    for _ in range(10):
        a = rand_matrix(4, 6, rng)
        ech = Echelon(a)
        nonzero = sum(1 for row in ech.dense_rows(6) if any(x != 0 for x in row))
        assert nonzero == rank(a) == len(ech.pivots)


def test_same_row_space():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    c = [[Fraction(1), Fraction(0)]]
    # the RREF of a span is unique, so equal spans have equal echelons
    assert Echelon(a).dense_rows(2) == Echelon(b).dense_rows(2)
    assert Echelon(a).dense_rows(2) != Echelon(c).dense_rows(2)


# ---------------------------------------------------------------------------
# differential tests: the echelon kernel against sympy's DomainMatrix


def to_domain(matrix, cols):
    rows = [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in matrix]
    return DomainMatrix(rows, (len(rows), cols), QQ)


def from_domain(dm):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]


def sympy_rref(matrix, cols):
    reduced, pivots = to_domain(matrix, cols).rref()
    return from_domain(reduced), list(pivots)


# str and int entries exercise the conversion (the string "0" is truthy)
ENTRIES = st.one_of(
    st.just(0),
    st.just("0"),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.sampled_from(["1", "-2", "1/2", "-3/4"]),
)


@st.composite
def matrices(draw):
    # empty, wide and tall shapes; half the matrices mostly zeros, so that
    # sparse rows, zero rows and zero columns all occur
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just(0), ENTRIES)
    else:
        entry = ENTRIES
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)], cols


@settings(max_examples=300, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_kernel_matches_sympy(case, rnd):
    matrix, cols = case
    want_rows, want_pivots = sympy_rref(matrix, cols)
    ech = Echelon(matrix)
    assert ech.pivots == want_pivots
    # sympy keeps the zero rows of the RREF at the end; the echelon drops them
    got_rows = ech.dense_rows(cols)
    assert got_rows == want_rows[: len(want_pivots)]
    assert not any(x for row in want_rows[len(want_pivots) :] for x in row)
    assert all(isinstance(x, Fraction) for row in got_rows for x in row)
    assert ech.rank == rank(matrix) == len(want_pivots) == to_domain(matrix, cols).rank()
    want_null = from_domain(to_domain(matrix, cols).nullspace()) if matrix else identity(cols)
    assert ech.nullspace(cols) == want_null
    # the RREF does not depend on the order the rows arrive in
    shuffled = matrix[:]
    rnd.shuffle(shuffled)
    again = Echelon(shuffled)
    assert (again.dense_rows(cols), again.pivots) == (got_rows, want_pivots)


@st.composite
def systems(draw):
    """A matrix, its width and up to four right-hand sides: arbitrary,
    consistent by construction (matrix @ x) or zero; the matrix rows and
    the right-hand sides are given sparse half of the time."""
    matrix, cols = draw(matrices())
    rhs = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["any", "image", "zero"]))
        if kind == "any":
            rhs.append([draw(ENTRIES) for _ in matrix])
        elif kind == "image":
            rhs.append(matvec(matrix, [draw(st.integers(-2, 2)) for _ in range(cols)]))
        else:
            rhs.append([0] * len(matrix))
    if draw(st.booleans()):
        matrix = [{c: x for c, x in enumerate(row) if Fraction(x)} for row in matrix]
        rhs = [{i: x for i, x in enumerate(b) if Fraction(x)} for b in rhs]
    return matrix, cols, rhs


def _dense(vector, length):
    if isinstance(vector, dict):
        return [vector.get(i, 0) for i in range(length)]
    return list(vector)


# an inconsistent column before a consistent one, so that a pivot lands
# right of the unknowns; a column made inconsistent by that pivot row
# alone; a zero column; no rows; width 0
@example(([[1, 0], [1, 0]], 2, [[0, 1], [1, 1], [0, 2], [0, 0]]))
@example(([{0: 1}, {0: 1}], 2, [{1: 1}, {0: 1, 1: 1}, {1: 2}, {}]))
@example(([], 3, [[], []]))
@example(([[], []], 0, [[0, 0], [0, "1/2"], ["0", 0]]))
@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_matches_sympy(case):
    matrix, cols, rhs = case
    dense = [_dense(row, cols) for row in matrix]
    got = solve(matrix, rhs, cols)
    assert len(got) == len(rhs)
    for b, x in zip(rhs, got):
        # sympy solves each right-hand side on its own
        b = _dense(b, len(matrix))
        augmented = [row + [c] for row, c in zip(dense, b)]
        reduced, pivots = sympy_rref(augmented, cols + 1)
        if cols in pivots:
            assert x is None
            continue
        # the particular solution with every free variable zero
        want = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            want[p] = reduced[r][cols]
        assert x == want
        assert all(type(v) is Fraction for v in x)
        assert matvec(dense, x) == [Fraction(c) for c in b]


def test_kernel_edge_shapes():
    empty = Echelon([])
    assert (empty.rank, empty.pivots, empty.dense_rows(0)) == (0, [], [])
    assert rank([]) == 0
    assert Echelon([[], []]).dense_rows(0) == [] and Echelon([[], []]).pivots == []
    assert Echelon([[0, "0"]]).nullspace(2) == identity(2)
    halves = Echelon([["0", "0"], ["2", "1"]])
    assert (halves.dense_rows(2), halves.pivots) == ([[1, Fraction(1, 2)]], [0])
    assert not Echelon([]).contains([1, 0])
    assert Echelon([]).contains(["0", 0])
    assert solve([], [[]], 2) == [[0, 0]] and solve([[1, 0]], [], 2) == []
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1


def test_determinant_of_rational_strings():
    assert determinant([["1/2", "0"], ["0", "2"]]) == 1


def test_determinant_of_polys_commutes_with_evaluation():
    from jetcalc.poly import random_poly

    rng = random.Random(14)
    for _ in range(3):
        a = [[random_poly(2, rng, 2) for _ in range(3)] for _ in range(3)]
        det = determinant(a)
        for _ in range(3):
            pt = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-3, 3)))
            assert det.evaluate(pt) == determinant([[p.evaluate(pt) for p in row] for row in a])


def test_determinant_matches_sympy():
    rng = random.Random(12)
    for size in range(1, 6):
        for _ in range(5):
            a = rand_matrix(size, size, rng)
            assert determinant(a) == Fraction(str(to_domain(a, size).det()))


def test_subspace_contains_agrees_with_rank_test():
    from jetcalc.jets import vector_slots
    from jetcalc.lie_solutions import LinearJetSubspace

    rng = random.Random(14)
    n, k = 2, 2
    width = len(vector_slots(n, k))
    for dim in range(0, width + 1, 3):
        basis = []
        span = Echelon()
        while len(basis) < dim:
            v = [Fraction(rng.choice((0, 0, 1, -2)), rng.randint(1, 3)) for _ in range(width)]
            if span.add_row(v):
                basis.append(v)
        sub = LinearJetSubspace(n, k, (0, 0), basis)
        for _ in range(20):
            if basis and rng.random() < 0.5:
                v = [sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(width)]
            else:
                v = [Fraction(rng.choice((0, 0, 0, 1, -1))) for _ in range(width)]
            old = rank(basis + [v]) == dim
            assert sub.contains(v) == old


# ---------------------------------------------------------------------------
# differential tests: the fraction-free echelon against the Fraction one it
# replaced, kept here as the oracle


def _oracle_sparse(vector):
    """Nonzero entries of a dense vector as {column: Fraction}."""
    row = {}
    for c, x in enumerate(vector):
        x = Fraction(x)
        if x:
            row[c] = x
    return row


def _oracle_subtract(row, f, tail):
    """row -= f * tail in place, dropping entries that cancel."""
    for c, x in tail.items():
        y = row.get(c, 0) - f * x
        if y:
            row[c] = y
        else:
            row.pop(c, None)


class FractionEchelon:
    """The RREF kept as {pivot: tail} with Fraction tails and pivot 1."""

    def __init__(self, rows=()):
        self.rows = {}
        for v in rows:
            self.add_row(v)

    def _reduce(self, row):
        for p in [c for c in row if c in self.rows]:
            _oracle_subtract(row, row.pop(p), self.rows[p])
        return row

    def add_row(self, vector):
        row = self._reduce(_oracle_sparse(vector))
        if not row:
            return False
        q = min(row)
        pv = row.pop(q)
        row = {c: x / pv for c, x in row.items()}
        for tail in self.rows.values():
            f = tail.pop(q, None)
            if f is not None:
                _oracle_subtract(tail, f, row)
        self.rows[q] = row
        return True

    def dense_rows(self, width):
        out = []
        for p in sorted(self.rows):
            r = [Fraction(0)] * width
            r[p] = Fraction(1)
            for c, x in self.rows[p].items():
                r[c] = x
            out.append(r)
        return out

    def nullspace(self, width):
        free = [c for c in range(width) if c not in self.rows]
        basis = [[Fraction(int(c == f)) for c in range(width)] for f in free]
        for p, tail in self.rows.items():
            for c, x in tail.items():
                basis[free.index(c)][p] = -x
        return basis


def oracle_solve(matrix, rhs):
    ncols = len(matrix[0])
    ech = FractionEchelon(list(row) + [b] for row, b in zip(matrix, rhs))
    if ncols in ech.rows:
        return None
    x = [Fraction(0)] * ncols
    for p, tail in ech.rows.items():
        x[p] = tail.get(ncols, Fraction(0))
    return x


def oracle_invert(matrix):
    n = len(matrix)
    ech = FractionEchelon(list(row) + e for row, e in zip(matrix, identity(n)))
    if sorted(ech.rows)[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech.dense_rows(2 * n)]


BIG = 10**60

# numerators and denominators up to 10^60 of both signs (a Fraction moves
# the sign of its denominator to the numerator), rational strings, and
# zeros of every kind
BIG_ENTRIES = st.one_of(
    st.just(0),
    st.just("0"),
    st.just(Fraction(0)),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG) | st.integers(-BIG, -1)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.sampled_from(["1", "-2", "1/2", "-3/4", " 5 "]),
    st.integers(-3, 3),
)


@st.composite
def rich_matrices(draw, square=False):
    """Matrices with big and string entries, zero and duplicate rows, in
    a shuffled row order; half of them mostly zeros."""
    cols = draw(st.integers(1, 6))
    rows = cols if square else draw(st.integers(1, 6))
    entry = BIG_ENTRIES
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just("0"), BIG_ENTRIES)
    matrix = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if not square:
        for _ in range(draw(st.integers(0, 2))):
            matrix.append(list(draw(st.sampled_from(matrix))))
        for _ in range(draw(st.integers(0, 2))):
            matrix.append([draw(st.sampled_from([0, "0", Fraction(0)])) for _ in range(cols)])
        matrix = draw(st.permutations(matrix))
    return matrix


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=200, deadline=None)
@given(rich_matrices(), st.data())
def test_fraction_free_kernel_matches_fraction_oracle(matrix, data):
    cols = len(matrix[0])
    ech, oracle = Echelon(matrix), FractionEchelon(matrix)
    got = ech.dense_rows(cols)
    assert (got, ech.pivots) == (oracle.dense_rows(cols), sorted(oracle.rows))
    assert _all_fractions(got)
    null = ech.nullspace(cols)
    assert null == oracle.nullspace(cols)
    assert _all_fractions(null)
    rhs = [[data.draw(BIG_ENTRIES) for _ in matrix] for _ in range(data.draw(st.integers(1, 3)))]
    xs = solve(matrix, rhs, cols)
    assert xs == [oracle_solve(matrix, b) for b in rhs]
    assert all(x is None or _all_fractions([x]) for x in xs)
    # the same rows as sparse {column: value} dicts, in another order
    sparse = [{c: v for c, v in enumerate(row) if data.draw(st.booleans()) or Fraction(v)}
              for row in data.draw(st.permutations(matrix))]
    again = Echelon(sparse)
    assert (again.dense_rows(cols), again.pivots) == (got, ech.pivots)
    assert again.nullspace(cols) == null
    other = data.draw(rich_matrices())
    if len(other[0]) == cols:
        assert (Echelon(other).dense_rows(cols) == got) == (
            FractionEchelon(other).rows == oracle.rows
        )


@settings(max_examples=100, deadline=None)
@given(rich_matrices(square=True))
def test_fraction_free_invert_matches_fraction_oracle(matrix):
    want = oracle_invert(matrix)
    if want is None:
        with pytest.raises(ValueError):
            invert(matrix)
        return
    got = invert(matrix)
    assert got == want
    assert _all_fractions(got)
