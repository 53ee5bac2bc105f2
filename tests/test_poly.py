import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc.multiindex import add, order
from jetcalc.poly import Poly, PowerTable, _pack, _unpack


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


# Fraction oracles: the {monomial: Fraction} kernels that Poly used before
# it kept integer numerators over one denominator.


def _oracle_addmul_into(acc, c, p, q):
    """Add c * p * q into acc; p, q and acc are {monomial: Fraction} dicts."""
    for m1, c1 in p.items():
        if c != 1:
            c1 = c1 * c
        for m2, c2 in q.items():
            m = add(m1, m2)
            old = acc.get(m)
            acc[m] = c1 * c2 if old is None else old + c1 * c2


def _oracle_mul_truncated(p, q, max_degree):
    right = sorted((order(m2), m2, c2) for m2, c2 in q.items())
    out = {}
    for m1, c1 in p.items():
        room = max_degree - order(m1)
        for d2, m2, c2 in right:
            if d2 > room:
                break
            m = add(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return out


def _oracle_compose(p, subs, m, max_degree):
    """sum c_alpha s^alpha over the terms of p, for substitutions s in m
    variables, each power a chain of truncated products."""
    out = {}
    for alpha, c in p.items():
        power = {(0,) * m: Fraction(1)}
        for j, e in enumerate(alpha):
            for _ in range(e):
                power = _oracle_mul_truncated(power, subs[j], max_degree)
        for mono, v in power.items():
            out[mono] = out.get(mono, 0) + c * v
    return out


_BIG = 10**30
# numerators and denominators of both signs, some of them above 10^30
_COEFF = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(_BIG**2), _BIG**2)),
    st.sampled_from([1, 2, -3, 6, -7, _BIG, -(_BIG + 7), 3**70, -(2**101)]),
)


def _poly_dicts(n, max_exp=2):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n), _COEFF, max_size=5
    ).map(lambda d: {m: c for m, c in d.items() if c})


@st.composite
def _weighted_products(draw):
    """(n, terms) with terms (c, u, v) of {monomial: Fraction} dicts;
    the last term, when there is more than one, cancels the first."""
    n = draw(st.integers(1, 2))
    terms = draw(
        st.lists(st.tuples(_COEFF, _poly_dicts(n), _poly_dicts(n)), min_size=1, max_size=4)
    )
    if len(terms) > 1:
        c, u, v = terms[0]
        terms[-1] = (-c, u, v)
    return n, terms


@settings(max_examples=150, deadline=None)
@given(_weighted_products())
def test_sum_of_products_matches_fraction_oracle(case):
    n, terms = case
    acc = {}
    for c, u, v in terms:
        _oracle_addmul_into(acc, c, u, v)
    got = Poly.sum_of_products(n, [(c, Poly(n, u), Poly(n, v)) for c, u, v in terms])
    assert got == Poly(n, acc)
    assert got.coeffs == {m: c for m, c in acc.items() if c}
    c, u, v = terms[0]
    u, v = Poly(n, u), Poly(n, v)
    cancelled = Poly.sum_of_products(n, [(c, u, v), (c, v, u), (-2 * c, u, v)])
    assert cancelled == Poly.zero(n) == 0 and not cancelled.coeffs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2), st.integers(0, 4), st.data())
def test_mul_truncated_and_product_match_fraction_oracle(n, max_degree, data):
    p, q = data.draw(_poly_dicts(n)), data.draw(_poly_dicts(n))
    truncated = _oracle_mul_truncated(p, q, max_degree)
    assert Poly(n, p).mul_truncated(Poly(n, q), max_degree) == Poly(n, truncated)
    full = {}
    _oracle_addmul_into(full, 1, p, q)
    assert Poly(n, p) * Poly(n, q) == Poly(n, full)
    # p * q - q * p cancels to zero in every coefficient
    assert Poly(n, p) * Poly(n, q) - Poly(n, q) * Poly(n, p) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 3), st.data())
def test_power_table_compose_matches_fraction_oracle(n, m, max_degree, data):
    p = data.draw(_poly_dicts(n))
    subs = [data.draw(_poly_dicts(m, max_exp=1)) for _ in range(n)]
    table = PowerTable([Poly(m, s) for s in subs], max_degree)
    assert table.compose(Poly(n, p)) == Poly(m, _oracle_compose(p, subs, m, max_degree))


def test_one_polynomial_by_several_routes_is_one_value():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    product = (x + half) * (y - third)
    total = x * y - x * third + y * half - Fraction(1, 6)
    rebuilt = Poly(2, product.coeffs)
    parsed = Poly(2, {(1, 1): "1", (1, 0): "-2/6", (0, 1): "3/6", (0, 0): Fraction(-2, 12)})
    routes = [product, total, rebuilt, parsed, product.compose([x, y], 2)]
    assert all(r == product for r in routes)
    assert len({hash(r) for r in routes}) == 1
    # hash values are those of the {monomial: Fraction} view
    assert hash(product) == hash((2, frozenset(product.coeffs.items())))
    assert Poly(2, {(1, 0): Fraction(2, 4)}) == Poly(2, {(1, 0): Fraction(1, 2)})


def test_constant_from_cancellation_equals_its_scalar():
    x = Poly.variable(2, 0)
    c = (x + Fraction(7, 3)) - x
    assert c == Fraction(7, 3) and hash(c) == hash(Fraction(7, 3))
    assert c.constant_term() == Fraction(7, 3) and c.degree() == 0
    z = (x * 3 + Fraction(1, 2)) - (x * 3 + Fraction(1, 2))
    assert z == 0 and hash(z) == hash(0) and z == Poly.zero(2)
    assert (x * Fraction(1, 3)) * 3 == x
    assert {c, Fraction(7, 3)} == {c}


@pytest.mark.parametrize("bad", [1.5, "a", None, [1]])
def test_unsupported_operand_raises_type_error(bad):
    x = Poly.variable(2, 0)
    for op in (
        lambda: x + bad,
        lambda: bad + x,
        lambda: x - bad,
        lambda: bad - x,
        lambda: x * bad,
        lambda: bad * x,
    ):
        with pytest.raises(TypeError):
            op()
    assert x != bad


@pytest.mark.parametrize(
    "coeffs, error",
    [
        ({(0, -1): 1}, ValueError),
        ({(0, 0.5): 1}, ValueError),
        ({(0, True): 1}, ValueError),
        ({(0, 0): True}, TypeError),
        ({(0, 0): 1.5}, TypeError),
        ({(0, 0, 0): 1}, ValueError),
    ],
    ids=["negative-exponent", "float-exponent", "bool-exponent", "bool-coefficient",
         "float-coefficient", "wrong-dimension"],
)
def test_constructor_rejects_what_is_not_a_polynomial(coeffs, error):
    with pytest.raises(error):
        Poly(2, coeffs)


def test_public_constructors_reject_bool_and_negative_exponents():
    with pytest.raises(TypeError):
        Poly.const(2, True)
    with pytest.raises(ValueError):
        Poly.monomial(2, (1, -1))
    assert Poly.monomial(2, [1, 0], "1/2") == Poly.variable(2, 0) * Fraction(1, 2)


# the exact-scalar gate


def _gated_entries():
    """(id, call of one scalar x) for every public entry that takes scalars."""
    from jetcalc.arrows import Arrow
    from jetcalc.forms import FormKR
    from jetcalc.jets import FunctionJetPoint, VectorJetPoint, jet_product_sum
    from jetcalc.lie_equations import Christoffel, StructureJet
    from jetcalc.liealg import FiniteLieAlgebra, LieModule
    from jetcalc.linalg import Echelon, determinant, invert, rank, solve

    one = FunctionJetPoint(1, 1, (0,), {(0,): 1})
    return [
        ("poly", lambda x: Poly(1, {(0,): x})),
        ("jet-point", lambda x: FunctionJetPoint(1, 1, (x,))),
        ("jet-slot", lambda x: VectorJetPoint(1, 1, (0,), {(0, (1,)): x})),
        ("jet-scale", lambda x: one.scale(x)),
        ("jet-product-weight", lambda x: jet_product_sum({(): [(x, one, one)]})),
        ("arrow-point", lambda x: Arrow(1, 1, (x,), (0,), {(0, (1,)): 1})),
        ("arrow-slot", lambda x: Arrow(1, 1, (0,), (0,), {(0, (1,)): x})),
        ("form-point", lambda x: FormKR(1, 1, 0, point=(x,))),
        ("structure-jet-point", lambda x: StructureJet("metric", 1, 0, (x,), {(0, 0, (0,)): 1})),
        ("structure-jet-slot", lambda x: StructureJet("metric", 1, 0, (0,), {(0, 0, (0,)): x})),
        ("christoffel", lambda x: Christoffel(1, {(0, 0, 0): x})),
        ("lie-algebra", lambda x: FiniteLieAlgebra(2, {(0, 1, 0): x, (1, 0, 0): -1})),
        ("lie-module", lambda x: LieModule(FiniteLieAlgebra(1), 1, [[[x]]])),
        ("echelon", lambda x: Echelon([[x, 1]])),
        ("rank", lambda x: rank([[x, 1]])),
        ("nullspace", lambda x: Echelon([[x, 1]]).nullspace(2)),
        ("solve", lambda x: solve([[x]], [[1]], 1)),
        ("solve-rhs", lambda x: solve([{0: 1}], [{0: x}], 1)),
        ("invert", lambda x: invert([[x]])),
        ("determinant", lambda x: determinant([[x]])),
    ]


@pytest.mark.parametrize("entry", _gated_entries(), ids=lambda e: e[0])
@pytest.mark.parametrize("x", [0.5, True, Decimal("0.5")], ids=["float", "bool", "decimal"])
def test_every_scalar_entry_rejects_inexact_scalars(entry, x):
    with pytest.raises(TypeError, match="not an exact scalar"):
        entry[1](x)


def test_determinant_returns_the_kind_of_its_entries():
    from jetcalc.linalg import determinant

    for exact, value in (([[2, 1], [1, 1]], 1), ([["2", "1/2"], [2, "3/2"]], 2)):
        d = determinant(exact)
        assert type(d) is Fraction and d == value
    x = Poly.variable(1, 0)
    d = determinant([[x, 1], [1, x]])
    assert isinstance(d, Poly) and d == x * x - 1


def test_rational_string_past_the_exponent_bound_overflows_at_once():
    for text in ("1e10000000", "-2.5E-10000000", "1e4301"):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="4300"):
            Poly(1, {(0,): text})
        assert time.perf_counter() - start < 2
    assert Poly(1, {(0,): "1e4300"}) == Poly(1, {(0,): 10**4300})
    assert Poly(1, {(0,): "1e-4300"}).constant_term() == Fraction(1, 10**4300)


# packed monomial keys


_TOP = 2**16 - 1  # the largest degree a packed key holds


@st.composite
def _monomials(draw, n):
    """A multi-index in n variables of degree at most _TOP, its exponents
    drawn from anywhere in the 16-bit range."""
    left = draw(st.integers(0, _TOP))
    exps = []
    for _ in range(n - 1):
        exps.append(draw(st.integers(0, left)))
        left -= exps[-1]
    return tuple(draw(st.permutations(exps + [draw(st.integers(0, left))])))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_monomials(n), _monomials(n))))
def test_packed_keys_round_trip_and_sort_in_graded_lex_order(pair):
    a, b = pair
    n = len(a)
    assert _unpack(n, _pack(a)) == a and _unpack(n, _pack(b)) == b
    assert _pack((0,) * n) == 0
    assert (_pack(a) < _pack(b)) == ((order(a), a) < (order(b), b))
    if order(a) + order(b) <= _TOP:
        assert _pack(a) + _pack(b) == _pack(add(a, b))


def test_products_up_to_the_field_bound_succeed():
    """Degrees summing to 2^16 - 1 fill the degree field and the exponent
    fields without carrying into a neighbour."""
    a = Poly.monomial(2, (40000, 0), 3)
    b = Poly(2, {(0, 25535): 1, (1, 0): 2})
    full = Poly(2, {(40000, 25535): 3, (40001, 0): 6})
    acc = {}
    a.addmul_into(acc, 1, b)
    assert {_unpack(2, m): c for m, c in acc.items()} == {(40000, 25535): 3, (40001, 0): 6}
    assert a * b == full and (a * b).degree() == _TOP
    assert a.mul_truncated(b, _TOP) == full
    assert a.mul_truncated(b, 40001) == Poly.monomial(2, (40001, 0), 6)
    assert a.mul_truncated(b, 40000) == 0
    subs = [Poly.monomial(2, (32767, 0)), Poly.monomial(2, (0, 32768), "1/2")]
    table = PowerTable(subs, _TOP)
    assert table.compose(Poly.monomial(2, (1, 1), 4)) == Poly.monomial(2, (32767, 32768), 2)
    assert Poly.monomial(1, (_TOP,)).diff(0) == Poly.monomial(1, (_TOP - 1,), _TOP)


def test_degrees_past_the_field_bound_raise_overflow_error():
    a = Poly.monomial(2, (40000, 0))
    b = Poly.monomial(2, (0, 25536))
    half = Poly.monomial(2, (0, 32768))
    for product in (
        lambda: a * b,
        lambda: Poly.sum_of_products(2, [(1, b, a)]),
        lambda: a.addmul_into({}, 1, b),
        lambda: a.mul_truncated(b, 3),
        lambda: PowerTable([a, half], _TOP).compose(Poly.monomial(2, (0, 2))),
        lambda: Poly.monomial(2, (32768, 32768)),
        lambda: Poly(1, {(_TOP + 1,): 1}),
    ):
        with pytest.raises(OverflowError, match=str(_TOP)):
            product()


_FIXED_REPRS = [
    (Poly.zero(2), "0"),
    (Poly.const(1, Fraction(-7, 3)), "-7/3"),
    (
        Poly(2, {(0, 1): 1, (1, 0): "1/2", (0, 0): -2, (2, 0): 3, (1, 1): 1}),
        "-2 + x1 + 1/2*x0 + x0*x1 + 3*x0^2",
    ),
    (
        (Poly.variable(3, 0) + Poly.variable(3, 1) * Fraction(2, 3) - 1)
        * (Poly.variable(3, 2) - Poly.variable(3, 0)) * 3,
        "-3*x2 + 3*x0 + 2*x1*x2 + 3*x0*x2 + -2*x0*x1 + -3*x0^2",
    ),
    (
        Poly(3, {(0, 0, 2): 1, (0, 1, 1): -1, (1, 0, 1): Fraction(5, 4), (0, 2, 0): 1,
                 (2, 0, 0): 7}),
        "x2^2 + -1*x1*x2 + x1^2 + 5/4*x0*x2 + 7*x0^2",
    ),
    (
        Poly(4, {(0, 0, 0, 9): 1, (9, 0, 0, 0): -1, (1, 2, 3, 3): "1/9"}),
        "x3^9 + 1/9*x0*x1^2*x2^3*x3^3 + -1*x0^9",
    ),
]


@pytest.mark.parametrize("p, text", _FIXED_REPRS)
def test_repr_hash_and_equality_keep_their_tuple_semantics(p, text):
    """repr lists terms in graded lex order; hash and == read the
    {monomial: Fraction} view, and constants equal their scalars."""
    assert repr(p) == text
    assert Poly(p.n, p.coeffs) == p and hash(Poly(p.n, p.coeffs)) == hash(p)
    if p.degree() <= 0:
        c = p.constant_term()
        assert p == c and hash(p) == hash(c)
        assert (p == int(c)) == (c.denominator == 1)
    else:
        assert hash(p) == hash((p.n, frozenset(p.coeffs.items())))
        assert p != p.constant_term() and p != 0


@pytest.mark.parametrize("j", [-1, 2])
def test_diff_rejects_a_variable_outside_the_chart(j):
    with pytest.raises(IndexError):
        Poly.variable(2, 0).diff(j)
