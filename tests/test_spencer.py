import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc.forms import basis_section
from jetcalc.jets import (
    FunctionJetPoint,
    FunctionJetSection,
    VectorJetPoint,
    VectorJetSection,
    basis_bracket,
    is_holonomic,
    prolong_function,
    prolong_vector_field,
    vector_slots,
)
from jetcalc.liealg import jet_group_algebra, validate_lie_algebra
from jetcalc.multiindex import (
    add,
    multi_binomial,
    multi_indices,
    order,
    sub,
    sub_indices,
    unit,
)
from jetcalc.poly import Poly
from jetcalc.spencer import (
    algebraic_action_star,
    algebraic_bracket,
    basis_action,
    isotropy_bracket,
    jet_action,
    spencer_bracket,
    spencer_operator,
)


def rand_poly(n, rng, degree=2):
    coeffs = {}
    for alpha in multi_indices(n, degree):
        c = rng.randint(-3, 3)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 2))
    return Poly(n, coeffs)


def rand_vector_section(n, k, rng, degree=2):
    return VectorJetSection(
        n, k, {slot: rand_poly(n, rng, degree) for slot in vector_slots(n, k)}
    )


def rand_function_section(n, k, rng, degree=2):
    return FunctionJetSection(
        n, k, {alpha: rand_poly(n, rng, degree) for alpha in multi_indices(n, k)}
    )


def classical_bracket(x_comps, y_comps):
    n = len(x_comps)
    return [
        sum(
            (
                x_comps[a] * y_comps[i].diff(a)
                - y_comps[a] * x_comps[i].diff(a)
                for a in range(n)
            ),
            Poly.zero(n),
        )
        for i in range(n)
    ]


def test_spencer_operator_kills_holonomic():
    rng = random.Random(1)
    for _ in range(10):
        comps = [rand_poly(2, rng), rand_poly(2, rng)]
        section = prolong_vector_field(comps, 3)
        d = spencer_operator(section)
        assert all(p.is_zero() for p in d)
        f = prolong_function(rand_poly(2, rng), 3)
        assert all(p.is_zero() for p in spencer_operator(f))


def test_spencer_operator_slot_formula():
    rng = random.Random(2)
    x = rand_vector_section(2, 2, rng)
    d = spencer_operator(x)
    for j in range(2):
        part = d[j]
        for i, alpha in vector_slots(2, 1):
            expected = x.slot(i, alpha).diff(j) - x.slot(
                i, tuple(a + b for a, b in zip(alpha, unit(2, j)))
            )
            assert part.slot(i, alpha) == expected


def test_algebraic_bracket_drops_one_order():
    rng = random.Random(3)
    x = rand_vector_section(2, 2, rng)
    y = rand_vector_section(2, 2, rng)
    br = algebraic_bracket(x, y)
    assert br.k == 1


def test_spencer_bracket_extends_the_classical_bracket():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 2)
        xc = [rand_poly(n, rng) for _ in range(n)]
        yc = [rand_poly(n, rng) for _ in range(n)]
        x = prolong_vector_field(xc, 2)
        y = prolong_vector_field(yc, 2)
        expected = prolong_vector_field(classical_bracket(xc, yc), 2)
        got = spencer_bracket(x, y)
        assert all(
            got.slot(i, a) == expected.slot(i, a) for i, a in vector_slots(n, 2)
        )


def test_spencer_bracket_lift_independent():
    rng = random.Random(5)
    for _ in range(20):
        x = rand_vector_section(2, 2, rng)
        y = rand_vector_section(2, 2, rng)
        a = spencer_bracket(x, y, lift_policy="zero")
        b = spencer_bracket(x, y, lift_policy="random", rng=rng)
        assert all(a.slot(i, al) == b.slot(i, al) for i, al in vector_slots(2, 2))


def test_spencer_bracket_antisymmetry_and_jacobi():
    rng = random.Random(6)
    for _ in range(5):
        x = rand_vector_section(2, 2, rng)
        y = rand_vector_section(2, 2, rng)
        z = rand_vector_section(2, 2, rng)
        xy = spencer_bracket(x, y)
        yx = spencer_bracket(y, x)
        assert all(
            xy.slot(i, a) == -yx.slot(i, a) for i, a in vector_slots(2, 2)
        )
        total = spencer_bracket(xy, z)
        total = total + spencer_bracket(spencer_bracket(y, z), x)
        total = total + spencer_bracket(spencer_bracket(z, x), y)
        assert all(p.is_zero() for p in total.coeffs.values())


def test_jet_action_leibniz_and_representation():
    from jetcalc.jets import jet_product

    rng = random.Random(7)
    for _ in range(5):
        x = rand_vector_section(2, 2, rng)
        y = rand_vector_section(2, 2, rng)
        f = rand_function_section(2, 2, rng)
        g = rand_function_section(2, 2, rng)
        lhs = jet_action(x, jet_product(f, g))
        rhs = jet_product(jet_action(x, f), g) + jet_product(f, jet_action(x, g))
        assert all(
            lhs.slot(a) == rhs.slot(a) for a in multi_indices(2, 2)
        )
        br = spencer_bracket(x, y)
        lhs2 = jet_action(br, f)
        rhs2 = jet_action(x, jet_action(y, f)) - jet_action(y, jet_action(x, f))
        assert all(lhs2.slot(a) == rhs2.slot(a) for a in multi_indices(2, 2))


def test_jet_action_on_holonomic_is_directional_derivative():
    rng = random.Random(8)
    for _ in range(5):
        comps = [rand_poly(2, rng), rand_poly(2, rng)]
        p = rand_poly(2, rng)
        x = prolong_vector_field(comps, 2)
        f = prolong_function(p, 2)
        xf = comps[0] * p.diff(0) + comps[1] * p.diff(1)
        got = jet_action(x, f)
        expected = prolong_function(xf, 2)
        assert all(got.slot(a) == expected.slot(a) for a in multi_indices(2, 2))


def test_isotropy_bracket_closes_at_full_order():
    rng = random.Random(9)
    for _ in range(10):
        coeffs_x = {}
        coeffs_y = {}
        for i, alpha in vector_slots(2, 2, min_order=1):
            coeffs_x[(i, alpha)] = Fraction(rng.randint(-3, 3))
            coeffs_y[(i, alpha)] = Fraction(rng.randint(-3, 3))
        x = VectorJetPoint(2, 2, (0, 0), coeffs_x)
        y = VectorJetPoint(2, 2, (0, 0), coeffs_y)
        br = isotropy_bracket(x, y)
        assert br.k == 2
        assert all(br.slot(i, (0, 0)) == 0 for i in range(2))


def test_jet_group_bracket_matches_truncated_field_bracket():
    """One-variable oracle: [x^a d, x^b d] = (b - a) x^(a+b-1) d, with
    monomials of degree above k truncated away in the order-k fibers."""
    g = jet_group_algebra(1, 3)
    slots = g.slots  # [(0,(1,)), (0,(2,)), (0,(3,))]

    def field_index(power):
        # slot (0, (a,)) holds the a-th derivative of x^a/a! ... the
        # basis jet with a 1 in slot (0,(a,)) is the jet of x^a / a!
        return slots.index((0, (power,)))

    from math import factorial

    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            u = [Fraction(0)] * g.dim
            v = [Fraction(0)] * g.dim
            u[field_index(a)] = Fraction(factorial(a))  # jet of x^a
            v[field_index(b)] = Fraction(factorial(b))  # jet of x^b
            out = g.bracket(u, v)
            c = a + b - 1
            expected = [Fraction(0)] * g.dim
            if c <= 3:
                expected[field_index(c)] = (b - a) * Fraction(factorial(c))
            assert out == expected


def test_jet_group_jacobi_and_liealg_export():
    for n, k in ((1, 3), (2, 2)):
        g = jet_group_algebra(n, k)
        ok, witness = validate_lie_algebra(g.dim, g.structure)
        assert ok and witness is None
        finite = g.finite_lie_algebra()  # validates on construction
        assert finite.dim == g.dim


def isotropy_bracket_table(g):
    """Structure constants of the jet group algebra from the jet-level
    bracket of its basis jets."""

    def basis_jet(idx):
        return VectorJetPoint(g.n, g.k, (0,) * g.n, {g.slots[idx]: Fraction(1)})

    table = {}
    for p in range(g.dim):
        for q in range(p + 1, g.dim):
            br = isotropy_bracket(basis_jet(p), basis_jet(q))
            for r, (i, alpha) in enumerate(g.slots):
                c = br.slot(i, alpha)
                if c != 0:
                    table[(p, q, r)] = c
                    table[(q, p, r)] = -c
    return table


def test_jet_group_closed_form_matches_isotropy_bracket():
    for n, k_max in ((1, 6), (2, 4), (3, 2)):
        for k in range(1, k_max + 1):
            g = jet_group_algebra(n, k)
            assert g.structure == isotropy_bracket_table(g), (n, k)


def reference_bracket(x, y, k):
    """{X,Y}^i_alpha up to order k, term by term with one product per
    term, over the terms whose slots exist at the order of the inputs."""
    n = x.n
    out = {}
    for i, alpha in vector_slots(n, k):
        total = 0
        for beta in sub_indices(alpha):
            c = multi_binomial(alpha, beta)
            for a in range(n):
                up = add(sub(alpha, beta), unit(n, a))
                if order(up) <= x.k:
                    total = total + c * x.slot(a, beta) * y.slot(i, up)
                    total = total - c * y.slot(a, beta) * x.slot(i, up)
        out[(i, alpha)] = total
    return out


def reference_action(x, f):
    """sum_{beta<=alpha} C(alpha,beta) xi^a_beta f_{(alpha-beta)+e_a}, term
    by term with one product per term."""
    n = x.n
    out = {}
    for alpha in multi_indices(n, x.k):
        total = 0
        for beta in sub_indices(alpha):
            for a in range(n):
                up = add(sub(alpha, beta), unit(n, a))
                total = total + multi_binomial(alpha, beta) * x.slot(a, beta) * f.slot(up)
        out[alpha] = total
    return out


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def slot_formula_inputs(n, k, rng):
    """(X, Y, f, U, V) twice: as non-holonomic polynomial sections and as
    jets at a point, with X, Y of order k, f of order k+1 and U, V of
    order k with vanishing order-0 part."""
    degree = 2 if n < 3 else 1
    iso = vector_slots(n, k, min_order=1)
    sections = (
        rand_vector_section(n, k, rng, degree),
        rand_vector_section(n, k, rng, degree),
        rand_function_section(n, k + 1, rng, degree),
        VectorJetSection(n, k, {s: rand_poly(n, rng, degree) for s in iso}),
        VectorJetSection(n, k, {s: rand_poly(n, rng, degree) for s in iso}),
    )
    point = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))[:n]

    def vector_point(slots):
        return VectorJetPoint(n, k, point, {s: rand_fraction(rng) for s in slots})

    points = (
        vector_point(vector_slots(n, k)),
        vector_point(vector_slots(n, k)),
        FunctionJetPoint(
            n, k + 1, point, {a: rand_fraction(rng) for a in multi_indices(n, k + 1)}
        ),
        vector_point(iso),
        vector_point(iso),
    )
    return sections, points


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_slot_formulas_against_term_by_term_reference(n, k):
    """The accumulating bracket and Leibniz action equal one product per
    term, on sections whose slots are not derivatives of each other (the
    holonomic oracles cannot see a wrong non-holonomic term) and at a
    point."""
    sections, points = slot_formula_inputs(n, k, random.Random(100 + 10 * n + k))
    assert not any(is_holonomic(jet)[0] for jet in sections)
    for x, y, f, u, v in (sections, points):
        assert algebraic_bracket(x, y).coeffs == reference_bracket(x, y, k - 1)
        assert isotropy_bracket(u, v).coeffs == reference_bracket(u, v, k)
        assert algebraic_action_star(x, f).coeffs == reference_action(x, f)


@pytest.mark.parametrize(
    "n, k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
)
def test_basis_closed_forms_match_generic_action_and_bracket(n, k):
    """On the constant basis sections, order 0 included, the closed forms
    equal the generic jet action and Spencer bracket."""
    f = rand_function_section(n, k, random.Random(200 + 10 * n + k))
    basis = {s: basis_section(n, k, s) for s in vector_slots(n, k)}
    for s, e_s in basis.items():
        assert basis_action(s, f) == jet_action(e_s, f), s
        for t, e_t in basis.items():
            closed = VectorJetSection(n, k, basis_bracket(s, t, k))
            assert closed == spencer_bracket(e_s, e_t), (s, t)


def closed_form_basis_bracket(s, t, k):
    """[e_s, e_t] by its closed form, sum and binomial computed per use:
    sign * C(x+y-e_u, x) e_(v, x+y-e_u) for (u, x), (v, y) = s, t and
    t, s, kept when y_u > 0, x has order >= 1 and |x| + |y| <= k + 1."""
    out = {}
    for (u, x), (v, y), sign in ((s, t, 1), (t, s, -1)):
        if y[u] and order(x) and order(x) + order(y) <= k + 1:
            c = sub(add(x, y), unit(len(x), u))
            out[(v, c)] = out.get((v, c), 0) + sign * multi_binomial(c, x)
    return {slot: c for slot, c in out.items() if c}


@pytest.mark.parametrize(
    "n, k", [(1, 4), (2, 3), (3, 2), (2, 4), (3, 3), (2, 6), (3, 4), (4, 3), (1, 6)]
)
def test_basis_bracket_matches_the_closed_form(n, k):
    """The `leibniz` table scan equals the closed form on every ordered
    pair of slots of g_k, order 0 included."""
    slots = vector_slots(n, k)
    for s in slots:
        for t in slots:
            assert basis_bracket(s, t, k) == closed_form_basis_bracket(s, t, k), (s, t)


@st.composite
def sparse_algebroid_inputs(draw):
    """(n, k, X, Y, f) for n, k <= 3: two vector jet sections and a
    function jet section with a few nonzero slots, each a small polynomial
    of degree at most 2 with rational coefficients."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    monomials = multi_indices(n, 2)
    scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def section(cls, slots):
        chosen = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
        polys = [
            Poly(n, draw(st.dictionaries(st.sampled_from(monomials), scalars, max_size=3)))
            for _ in chosen
        ]
        return cls(n, k, dict(zip(chosen, polys)))

    vector = vector_slots(n, k)
    return (n, k, section(VectorJetSection, vector), section(VectorJetSection, vector),
            section(FunctionJetSection, multi_indices(n, k)))


@settings(max_examples=100, deadline=None)
@given(sparse_algebroid_inputs())
def test_action_and_bracket_expand_over_the_constant_basis(inputs):
    """J_k T is a Lie algebroid with anchor rho(X) = sum_a X^(a,0) d_a,
    and the basis closed forms are its structure:
    X f = sum_s X^s (e_s f), and
    [X, Y] = sum_{s,t} X^s Y^t [e_s, e_t] + sum_t rho(X)(Y^t) e_t
             - sum_s rho(Y)(X^s) e_s."""
    n, k, x, y, f = inputs
    zero = (0,) * n
    action = FunctionJetSection(n, k)
    for s, xs in x.coeffs.items():
        action = action + basis_action(s, f).scale(xs)
    assert jet_action(x, f) == action

    def rho(z, p):
        return sum((z.coeffs[(a, zero)] * p.diff(a) for a in range(n)), Poly.zero(n))

    bracket = {s: Poly.zero(n) for s in vector_slots(n, k)}
    for s, xs in x.coeffs.items():
        for t, yt in y.coeffs.items():
            for slot, c in basis_bracket(s, t, k).items():
                bracket[slot] = bracket[slot] + xs * yt * c
    for t, yt in y.coeffs.items():
        bracket[t] = bracket[t] + rho(x, yt)
    for s, xs in x.coeffs.items():
        bracket[s] = bracket[s] - rho(y, xs)
    assert spencer_bracket(x, y) == VectorJetSection(n, k, bracket)
