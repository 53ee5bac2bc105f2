import copy as copy_module
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc.arrows import (
    Arrow,
    compose_arrows,
    invert_arrow,
    pushforward_function_jet,
    pushforward_function_jets,
    pushforward_vector_jet,
    pushforward_vector_jets,
)
from jetcalc.jets import (
    FunctionJetPoint,
    VectorJetPoint,
    function_slots,
    jet_product,
    prolong_function,
    prolong_vector_field,
    vector_slots,
)
from jetcalc.linalg import determinant
from jetcalc.multiindex import multi_indices, unit
from jetcalc.poly import Poly


def rand_point(n, rng):
    return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))


def rand_poly(n, degree, rng):
    coeffs = {}
    for alpha in multi_indices(n, degree):
        c = rng.randint(-2, 2)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 2))
    return Poly(n, coeffs)


def rand_map_arrow(n, degree, k, source, rng):
    """A random polynomial map of degree <= degree with invertible
    Jacobian at source, and its k-arrow there."""
    while True:
        comps = [rand_poly(n, degree, rng) for _ in range(n)]
        try:
            return comps, Arrow.from_polynomial_map(comps, k, source)
        except ValueError:
            continue


def rand_arrow(n, k, source, rng):
    """A random arrow with invertible linear part, built from a random
    polynomial map of degree <= k."""
    return rand_map_arrow(n, k, k, source, rng)[1]


def test_one_variable_chain_rule_worked_example():
    # g(x) = 2x + x^2 at 0, f(u) = 3u + 2u^2 at g(0) = 0:
    # (f o g)'(0) = 3*2 = 6, (f o g)''(0) = 3*2 + 2*2*4 = 22
    g = Arrow.from_polynomial_map(
        [Poly(1, {(1,): Fraction(2), (2,): Fraction(1)})], 2, (Fraction(0),)
    )
    f = Arrow.from_polynomial_map(
        [Poly(1, {(1,): Fraction(3), (2,): Fraction(2)})], 2, (Fraction(0),)
    )
    fg = compose_arrows(f, g)
    assert fg.slot(0, (1,)) == 6
    assert fg.slot(0, (2,)) == 3 * 2 + 2 * 2 * 2 * 2


def test_one_variable_inverse_worked_example():
    # a(x) = 2x + x^2: inverse derivative 1/2, second derivative -1/4
    a = Arrow.from_polynomial_map(
        [Poly(1, {(1,): Fraction(2), (2,): Fraction(1)})], 2, (Fraction(0),)
    )
    inv = invert_arrow(a)
    assert inv.slot(0, (1,)) == Fraction(1, 2)
    assert inv.slot(0, (2,)) == Fraction(-1, 4)


def test_groupoid_laws_randomized():
    """Associativity, identities, and inverses on 500 random arrows."""
    rng = random.Random(20240917)
    trials = 0
    while trials < 500:
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        p = rand_point(n, rng)
        a = rand_arrow(n, k, p, rng)
        b = rand_arrow(n, k, a.target, rng)
        c = rand_arrow(n, k, b.target, rng)
        # associativity
        assert compose_arrows(c, compose_arrows(b, a)) == compose_arrows(
            compose_arrows(c, b), a
        )
        # identities
        assert compose_arrows(a, Arrow.identity(n, k, p)) == a
        assert compose_arrows(Arrow.identity(n, k, a.target), a) == a
        # inverses
        inv = invert_arrow(a)
        assert inv.source == a.target and inv.target == a.source
        assert compose_arrows(inv, a) == Arrow.identity(n, k, p)
        assert compose_arrows(a, inv) == Arrow.identity(n, k, a.target)
        trials += 1


def test_composition_agrees_with_polynomial_composition():
    """Chain-rule oracle: the arrow of a composite map equals the
    composite of the arrows."""
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 2)
        k = rng.randint(2, 3)
        p = rand_point(n, rng)
        a = rand_arrow(n, k, p, rng)
        b = rand_arrow(n, k, a.target, rng)
        amap = [
            d + Poly.const(n, t)
            for d, t in zip(a.displacement_polynomials(), a.target)
        ]
        amap = [comp.compose(
            [Poly.monomial(n, tuple(1 if t == j else 0 for t in range(n)))
             + Poly.const(n, -p[j]) for j in range(n)], 3 * k)
            for comp in amap]
        bdisp = b.displacement_polynomials()
        bmap = [
            d.compose(
                [ai + Poly.const(n, -b.source[j]) for j, ai in enumerate(amap)],
                3 * k,
            )
            + Poly.const(n, t)
            for d, t in zip(bdisp, b.target)
        ]
        direct = Arrow.from_polynomial_map(bmap, k, p)
        assert direct == compose_arrows(b, a)


def test_function_pushforward_is_algebra_map():
    rng = random.Random(9)
    for _ in range(10):
        n, k = 2, 2
        p = rand_point(n, rng)
        a = rand_arrow(n, k, p, rng)
        f = prolong_function(
            Poly(n, {al: Fraction(rng.randint(-3, 3)) for al in multi_indices(n, 2)}),
            k,
        ).at(p)
        g = prolong_function(
            Poly(n, {al: Fraction(rng.randint(-3, 3)) for al in multi_indices(n, 2)}),
            k,
        ).at(p)
        lhs = pushforward_function_jet(a, jet_product(f, g))
        rhs = jet_product(
            pushforward_function_jet(a, f), pushforward_function_jet(a, g)
        )
        assert lhs.as_vector() == rhs.as_vector()


def test_vector_pushforward_functorial():
    rng = random.Random(13)
    for _ in range(10):
        n, k = 2, 2
        p = rand_point(n, rng)
        a = rand_arrow(n, k + 1, p, rng)
        b = rand_arrow(n, k + 1, a.target, rng)
        comps = [
            Poly(n, {al: Fraction(rng.randint(-2, 2)) for al in multi_indices(n, 2)})
            for _ in range(n)
        ]
        x = prolong_vector_field(comps, k).at(p)
        via_both = pushforward_vector_jet(b, pushforward_vector_jet(a, x))
        direct = pushforward_vector_jet(compose_arrows(b, a), x)
        assert via_both.as_vector() == direct.as_vector()


def test_identity_pushforward_fixes_jets():
    rng = random.Random(17)
    n, k = 2, 2
    p = rand_point(n, rng)
    comps = [
        Poly(n, {al: Fraction(rng.randint(-2, 2)) for al in multi_indices(n, 2)})
        for _ in range(n)
    ]
    x = prolong_vector_field(comps, k).at(p)
    out = pushforward_vector_jet(Arrow.identity(n, k + 1, p), x)
    assert out.as_vector() == x.as_vector()


def _oracle_cases(seed):
    """30 random cases (n, k, f, f o A, p, a): a quadratic map A with its
    (k+1)-arrow a at p, and a cubic function f."""
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        p = rand_point(n, rng)
        comps, a = rand_map_arrow(n, 2, k + 1, p, rng)
        f = rand_poly(n, 3, rng)
        yield n, k, f, f.compose(comps, 3 * 2), p, a  # f o A exactly: degree <= 6


def test_function_pushforward_against_composite_jets():
    """Independent oracle: the arrow of A carries j^k_p(f o A) to j^k_q f,
    q = A(p), with both jets prolonged from exact polynomials."""
    for n, k, f, f_of_a, p, a in _oracle_cases(23):
        got = pushforward_function_jet(a.project(k), prolong_function(f_of_a, k).at(p))
        assert got == prolong_function(f, k).at(a.target)


def test_vector_pushforward_against_derivation_identity():
    """Independent oracle: Y = A_* X satisfies (Y f) o A = X (f o A), so
    sum_i j^k_q(Y_i) * j^k_q(d_i f) is the pushforward of j^k_p(X (f o A))."""
    rng = random.Random(29)
    for n, k, f, f_of_a, p, a in _oracle_cases(29):
        field = [rand_poly(n, 2, rng) for _ in range(n)]
        y = pushforward_vector_jet(a, prolong_vector_field(field, k).at(p))
        q = a.target
        lhs = FunctionJetPoint(n, k, q)
        for i in range(n):
            y_i = FunctionJetPoint(
                n, k, q, {alpha: y.slot(i, alpha) for alpha in multi_indices(n, k)}
            )
            lhs = lhs + jet_product(y_i, prolong_function(f.diff(i), k).at(q))
        x_f = sum((x * f_of_a.diff(j) for j, x in enumerate(field)), Poly.zero(n))
        assert lhs == pushforward_function_jet(a.project(k), prolong_function(x_f, k).at(p))


def test_pushforwards_of_order_zero_jets():
    """Order 0: a function value and a vector are carried by the value
    at the target and by the Jacobian."""
    comps = [Poly(2, {(1, 0): 2, (0, 2): 1}), Poly(2, {(0, 1): 3, (1, 1): 1, (0, 0): 1})]
    p = (Fraction(1), Fraction(-1))
    a = Arrow.from_polynomial_map(comps, 1, p)
    f = FunctionJetPoint(2, 0, p, {(0, 0): Fraction(5)})
    assert pushforward_function_jet(a, f) == FunctionJetPoint(2, 0, a.target, {(0, 0): 5})
    x = prolong_vector_field([Poly.const(2, 1), Poly.const(2, 2)], 0).at(p)
    y = pushforward_vector_jet(a, x)
    jac = a.linear_part()
    assert [y.slot(i, (0, 0)) for i in range(2)] == [jac[i][0] + 2 * jac[i][1] for i in range(2)]


def test_inverse_against_sympy_series_reversion():
    """Differential oracle in one variable: the inverse displacement is
    sympy's reversion of the displacement series."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.ring_series import rs_series_reversion
    from sympy.polys.rings import ring

    ring_uv, u, v = ring("u, v", QQ)
    rng = random.Random(1789)
    for _ in range(20):
        k = rng.randint(1, 6)
        a = rand_arrow(1, k, rand_point(1, rng), rng)
        series = ring_uv(0)
        for (e,), c in a.displacement_polynomials()[0].coeffs.items():
            series += QQ(c.numerator, c.denominator) * u**e
        reversion = rs_series_reversion(series, u, k + 1, v)
        expected = Poly(
            1,
            {(e,): Fraction(int(c.numerator), int(c.denominator))
             for (_, e), c in reversion.items()},
        )
        assert invert_arrow(a).displacement_polynomials()[0] == expected


_small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def _arrow_triples(draw):
    """Three chained arrows c, b, a (n <= 2, k <= 3) with small rational
    slots; a linear part is drawn until it is invertible."""
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    point = tuple(draw(_small) for _ in range(n))
    arrows = []
    for _ in range(3):
        target = tuple(draw(_small) for _ in range(n))
        linear = draw(
            st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)
            .filter(lambda rows: determinant(rows) != 0)
        )
        coeffs = {(i, unit(n, j)): linear[i][j] for i in range(n) for j in range(n)}
        for alpha in multi_indices(n, k, k_min=2):
            for i in range(n):
                coeffs[(i, alpha)] = draw(_small)
        arrows.append(Arrow(n, k, point, target, coeffs))
        point = target
    a, b, c = arrows
    return c, b, a


@settings(max_examples=60, deadline=None)
@given(_arrow_triples())
def test_groupoid_laws_property(triple):
    """Associativity, identities and inverses, as a shrinking property."""
    c, b, a = triple
    n, k = a.n, a.k
    assert compose_arrows(c, compose_arrows(b, a)) == compose_arrows(compose_arrows(c, b), a)
    assert compose_arrows(a, Arrow.identity(n, k, a.source)) == a
    assert compose_arrows(Arrow.identity(n, k, a.target), a) == a
    inv = invert_arrow(a)
    assert compose_arrows(inv, a) == Arrow.identity(n, k, a.source)
    assert compose_arrows(a, inv) == Arrow.identity(n, k, a.target)
    assert invert_arrow(inv) == a
    # the line above reads the link; invert an unlinked copy to check the involution
    assert invert_arrow(Arrow(inv.n, inv.k, inv.source, inv.target, inv.coeffs)) == a


@pytest.mark.parametrize(
    "slot",
    [
        (7, (1, 1)),  # no component 7
        (0, (2, -1)),  # negative exponent
        (0, (1, 1, 0)),  # three variables at n = 2
        (0, (0, 0)),  # order 0 is the target, not a slot
        (0, (2, 2)),  # above the arrow order
    ],
)
def test_arrow_rejects_a_key_that_is_not_a_slot(slot):
    coeffs = {(0, (1, 0)): 1, (1, (0, 1)): 1, slot: 1}
    with pytest.raises(ValueError, match="is not a slot"):
        Arrow(2, 3, (0, 0), (0, 0), coeffs)


def _linked_setup():
    """A nonlinear 3-arrow at n = 2 with a vector 2-jet and a function
    3-jet at its source."""
    comps = [
        Poly(2, {(1, 0): 1, (0, 1): 2, (2, 0): 1, (1, 2): -1}),
        Poly(2, {(0, 1): 1, (1, 1): 3, (0, 3): 1}),
    ]
    p = (Fraction(1), Fraction(-1, 2))
    a = Arrow.from_polynomial_map(comps, 3, p)
    x = prolong_vector_field([Poly(2, {(0, 2): 1, (1, 0): 2}), Poly(2, {(1, 1): -1})], 2).at(p)
    f = prolong_function(Poly(2, {(3, 0): 1, (0, 1): -2, (1, 1): 1}), 3).at(p)
    return a, x, f


def _copy(a):
    return Arrow(a.n, a.k, a.source, a.target, a.coeffs)


def _counting_inversions(monkeypatch):
    import jetcalc.arrows

    real = jetcalc.arrows.invert_arrow
    calls = []

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(jetcalc.arrows, "invert_arrow", counting)
    return calls


def test_pushforwards_along_a_linked_pair_invert_nothing(monkeypatch):
    """After invert_arrow(a), pushforwards along a and along its inverse
    read the link and agree with pushforwards along unlinked copies."""
    a, x, f = _linked_setup()
    inv = invert_arrow(a)
    x1 = pushforward_vector_jet(_copy(a), x)
    f1 = pushforward_function_jet(_copy(a), f)
    x2 = pushforward_vector_jet(_copy(inv), x1)
    expected = [x1, f1, x2, pushforward_function_jet(_copy(inv), f1)]
    calls = _counting_inversions(monkeypatch)
    got = [
        pushforward_vector_jet(a, x),
        pushforward_function_jet(a, f),
        pushforward_vector_jet(inv, x1),
        pushforward_function_jet(inv, f1),
    ]
    assert calls == []
    assert got == expected
    assert got[2] == x and got[3] == f
    assert invert_arrow(inv) is a and invert_arrow(a) is inv


def test_dropping_an_arrow_frees_it_and_its_inverse_without_the_collector():
    """The inverse links back weakly: with the cyclic collector off, the
    last reference to an arrow takes its linked inverse with it."""
    gc.disable()
    try:
        a, _, _ = _linked_setup()
        inv = invert_arrow(a)
        back = invert_arrow(inv)
        assert back is a
        probes = [weakref.ref(a), weakref.ref(inv)]
        del a, inv, back
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()


def test_an_inverse_whose_arrow_is_gone_inverts_again(monkeypatch):
    a, x, _ = _linked_setup()
    twin = _copy(a)
    inv = invert_arrow(a)
    x1 = pushforward_vector_jet(a, x)
    probe = weakref.ref(a)
    del a
    assert probe() is None
    calls = _counting_inversions(monkeypatch)
    assert pushforward_vector_jet(inv, x1) == x
    assert calls == [inv]
    again = invert_arrow(inv)
    assert again == twin and invert_arrow(again) is inv


def test_arrow_table_is_read_only_and_links_keep_equality():
    a, _, _ = _linked_setup()
    with pytest.raises(TypeError):
        a.coeffs[(0, (1, 0))] = Fraction(5)
    copy = _copy(a)
    inv = invert_arrow(a)
    assert a == copy and hash(a) == hash(copy)
    assert invert_arrow(copy) == inv and hash(invert_arrow(copy)) == hash(inv)
    assert invert_arrow(copy) is not inv
    for clone in (pickle.loads(pickle.dumps(a)), copy_module.deepcopy(a)):
        assert clone == a and hash(clone) == hash(a)
        assert invert_arrow(clone) == inv and invert_arrow(clone) is not inv


def _rand_jet(kind, slots, n, k, p, rng):
    """A jet of the given kind with random small rational slot values."""
    return kind(n, k, p, {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in slots(n, k)})


def test_batch_pushforwards_agree_with_single_jets():
    """Seeded batches, function jets of mixed orders up to the arrow's,
    equal the single-jet pushforwards along an unlinked copy."""
    rng = random.Random(59)
    for _ in range(8):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        p = rand_point(n, rng)
        a = rand_arrow(n, k + 1, p, rng)
        xs = [_rand_jet(VectorJetPoint, vector_slots, n, k, p, rng) for _ in range(4)]
        fs = [
            _rand_jet(FunctionJetPoint, function_slots, n, rng.randint(0, k + 1), p, rng)
            for _ in range(4)
        ]
        assert pushforward_vector_jets(a, xs) == [pushforward_vector_jet(_copy(a), x) for x in xs]
        assert pushforward_function_jets(a, fs) == [
            pushforward_function_jet(_copy(a), f) for f in fs
        ]


def _counting_displacements(monkeypatch):
    real = Arrow.displacement_polynomials
    calls = []

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(Arrow, "displacement_polynomials", counting)
    return calls


def test_a_batch_inverts_once_and_builds_each_table_once(monkeypatch):
    """Five jets along a fresh arrow invert it once; besides the
    inversion's own read of A, a vector batch reads two displacements (C
    and DA) and a function batch one, and a batch along the now linked
    arrow inverts nothing."""
    a, x, f = _linked_setup()
    rng = random.Random(61)
    xs = [x] + [_rand_jet(VectorJetPoint, vector_slots, 2, 2, a.source, rng) for _ in range(4)]
    fs = [f] + [_rand_jet(FunctionJetPoint, function_slots, 2, 3, a.source, rng) for _ in range(4)]
    inversions = _counting_inversions(monkeypatch)
    displacements = _counting_displacements(monkeypatch)
    pushforward_vector_jets(a, xs)
    assert len(inversions) == 1 and len(displacements) <= 3
    inversions.clear()
    displacements.clear()
    pushforward_vector_jets(a, xs)
    assert inversions == [] and len(displacements) <= 2
    displacements.clear()
    pushforward_function_jets(a, fs)
    assert inversions == [] and len(displacements) <= 1


def test_an_empty_batch_inverts_nothing(monkeypatch):
    a, _, _ = _linked_setup()
    inversions = _counting_inversions(monkeypatch)
    displacements = _counting_displacements(monkeypatch)
    assert pushforward_vector_jets(a, []) == []
    assert pushforward_function_jets(a, []) == []
    assert inversions == [] and displacements == []


def _bad_jets(n, k, p):
    """For an arrow of order k+1 at p with n variables: per kind, jets
    failing the checks from the i-th on (type, dimension, order, source),
    each with the exception and message the check raises."""
    q = tuple(c + 1 for c in p)
    far = (Fraction(7),)
    vector = [
        (FunctionJetPoint(1, 0, far), TypeError, "expected a vector jet point value"),
        (VectorJetPoint(1, 0, far), ValueError, "dimension mismatch"),
        (VectorJetPoint(n, k - 1, q), ValueError, "arrow order must exceed jet order by one"),
        (VectorJetPoint(n, k, q), ValueError, "jet is not based at the arrow source"),
    ]
    function = [
        (VectorJetPoint(1, 0, far), TypeError, "expected a function jet point value"),
        (FunctionJetPoint(1, k + 2, far), ValueError, "dimension mismatch"),
        (FunctionJetPoint(n, k + 2, q), ValueError, "arrow order must be at least the jet order"),
        (FunctionJetPoint(n, k, q), ValueError, "jet is not based at the arrow source"),
    ]
    return vector, function


def test_a_bad_jet_anywhere_in_a_batch_raises_the_single_jet_error(monkeypatch):
    """The checks run in the order type, dimension, order, source; a bad
    jet at any position of a batch raises what the single-jet call
    raises, before anything is inverted."""
    a, x, f = _linked_setup()
    vector, function = _bad_jets(2, 2, a.source)
    inversions = _counting_inversions(monkeypatch)
    cases = [
        (pushforward_vector_jet, pushforward_vector_jets, x, vector),
        (pushforward_function_jet, pushforward_function_jets, f, function),
    ]
    for single, batch, good, bad_jets in cases:
        for bad, error, message in bad_jets:
            with pytest.raises(error) as raised:
                single(a, bad)
            assert str(raised.value) == message
            for i in range(4):
                jets = [good] * 3
                jets.insert(i, bad)
                with pytest.raises(error) as raised:
                    batch(a, jets)
                assert str(raised.value) == message
    assert inversions == []
