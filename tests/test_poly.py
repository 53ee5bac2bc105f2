import random
from fractions import Fraction

import pytest

from jetcalc.poly import Poly


def rand_poly(n, rng, degree=3):
    coeffs = {}
    from jetcalc.multiindex import multi_indices

    for alpha in multi_indices(n, degree):
        c = rng.randint(-5, 5)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 4))
    return Poly(n, coeffs)


def test_arithmetic_against_evaluation():
    rng = random.Random(11)
    for _ in range(25):
        p = rand_poly(2, rng)
        q = rand_poly(2, rng)
        pt = (Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3))
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_diff_product_rule():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(2, rng)
        q = rand_poly(2, rng)
        for j in range(2):
            assert (p * q).diff(j) == p.diff(j) * q + p * q.diff(j)


def test_derivative_value_is_a_derivative_not_a_taylor_coefficient():
    # p = x^3: third derivative value is 6, not the coefficient 1
    p = Poly.monomial(1, (3,))
    assert p.derivative_value((3,), (Fraction(0),)) == 6
    assert p.derivative_value((2,), (Fraction(1),)) == 6


def test_compose_truncates_consistently():
    # (x^2) o (x + x^2) = x^2 + 2x^3 + x^4, truncated at degree 3
    p = Poly.monomial(1, (2,))
    s = Poly.monomial(1, (1,)) + Poly.monomial(1, (2,))
    out = p.compose([s], 3)
    assert out == Poly(1, {(2,): Fraction(1), (3,): Fraction(2)})


def test_compose_evaluation_consistency_below_truncation():
    rng = random.Random(3)
    p = rand_poly(1, rng, degree=2)
    s = rand_poly(1, rng, degree=2)
    full = p.compose([s], 10)  # high enough to avoid truncation
    pt = (Fraction(1, 2),)
    assert full.evaluate(pt) == p.evaluate((s.evaluate(pt),))


def test_constants_hash_like_their_scalars():
    # equal objects must collapse in one set
    assert len({Poly.const(2, 1), 1, Fraction(1)}) == 1
    assert len({Poly.zero(3), 0, Fraction(0)}) == 1
    assert len({Poly.const(2, "1/2"), Fraction(1, 2)}) == 1
    assert {Poly.variable(2, 0), Poly.variable(2, 0) + 0} == {Poly.variable(2, 0)}


def _to_sympy(p, xs):
    import sympy

    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[x**e for x, e in zip(xs, alpha)])
            for alpha, c in p.coeffs.items()
        ),
        sympy.Integer(0),
    )


def test_compose_against_sympy_expand():
    """Differential oracle: Poly.compose equals sympy's expand of the
    substituted polynomial with every degree above the truncation dropped,
    also for substitutions with constant terms and for monomials of self
    above the truncation degree."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2718)
    for trial in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        max_degree = rng.randint(0, 3)
        p = rand_poly(n, rng, degree=max_degree + rng.randint(0, 2))
        subs = [rand_poly(m, rng, degree=2) for _ in range(n)]
        if trial % 2:
            subs[0] = subs[0] + Poly.const(m, rng.randint(1, 3))
        xs = sympy.symbols(f"x0:{n}")
        ys = sympy.symbols(f"y0:{m}")
        full = sympy.expand(
            _to_sympy(p, xs).xreplace({x: _to_sympy(s, ys) for x, s in zip(xs, subs)})
        )
        expected = {
            mono: Fraction(int(c.p), int(c.q))
            for mono, c in sympy.Poly(full, *ys).terms()
            if sum(mono) <= max_degree and c != 0
        }
        assert p.compose(subs, max_degree) == Poly(m, expected)
