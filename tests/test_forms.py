import random
from fractions import Fraction

import pytest

from jetcalc.arrows import Arrow
from jetcalc.forms import (
    FormKR,
    basis_section,
    arrow_transform_form,
    arrow_transform_form_at,
    eval_form,
    exterior_derivative,
    filtration_tag,
    form_at,
    interior_product,
    kr_membership,
    lie_derivative,
    local_exactness_check,
    relative_membership,
    theta_closed_under_product,
    theta_structure_algebra,
    wedge,
)
from jetcalc.jets import (
    FunctionJetSection,
    VectorJetSection,
    function_slots,
    jet_product,
    prolong_function,
    prolong_vector_field,
    vector_slots,
)
from jetcalc.multiindex import multi_indices
from jetcalc.poly import Poly


def rand_poly(n, rng, degree=2):
    coeffs = {}
    for alpha in multi_indices(n, degree):
        c = rng.randint(-3, 3)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 2))
    return Poly(n, coeffs)


def rand_function_section(n, k, rng, degree=2):
    return FunctionJetSection(
        n, k, {a: rand_poly(n, rng, degree) for a in multi_indices(n, k)}
    )


def rand_vector_section(n, k, rng, degree=2):
    return VectorJetSection(
        n, k, {s: rand_poly(n, rng, degree) for s in vector_slots(n, k)}
    )


def rand_form(n, k, r, rng, degree=2):
    from itertools import combinations

    coeffs = {}
    for key in combinations(vector_slots(n, k), r):
        coeffs[key] = rand_function_section(n, k, rng, degree)
    return FormKR(n, k, r, coeffs)


def test_wedge_of_zero_forms_is_jet_product():
    rng = random.Random(1)
    for _ in range(5):
        f = rand_function_section(2, 2, rng)
        g = rand_function_section(2, 2, rng)
        w = wedge(FormKR.from_function_section(f), FormKR.from_function_section(g))
        expected = jet_product(f, g)
        assert w.coefficient(()) == expected


def test_order_zero_derivative_matches_classical_de_rham():
    """At jet order 0 the calculus collapses to ordinary forms; d is the
    classical exterior derivative with the 1/(r+1) normalization."""
    rng = random.Random(2)
    z = (0, 0)
    for _ in range(10):
        f = rand_poly(2, rng)
        form = FormKR.from_function_section(FunctionJetSection(2, 0, {z: f}))
        df = exterior_derivative(form)
        for i in range(2):
            assert df.coefficient(((i, z),)).slot(z) == f.diff(i)
        a = rand_poly(2, rng)
        b = rand_poly(2, rng)
        one_form = FormKR(
            2,
            0,
            1,
            {
                ((0, z),): FunctionJetSection(2, 0, {z: a}),
                ((1, z),): FunctionJetSection(2, 0, {z: b}),
            },
        )
        d1 = exterior_derivative(one_form)
        got = d1.coefficient(((0, z), (1, z))).slot(z)
        assert got + got == b.diff(0) - a.diff(1)


def test_d_squared_zero_on_zero_forms():
    rng = random.Random(3)
    for k in (1, 2):
        for _ in range(10):
            f = rand_function_section(2, k, rng)
            ddf = exterior_derivative(
                exterior_derivative(FormKR.from_function_section(f))
            )
            assert ddf.is_zero()


def test_d_squared_zero_on_one_forms():
    rng = random.Random(4)
    for _ in range(3):
        omega = rand_form(3, 1, 1, rng, degree=1)
        assert exterior_derivative(exterior_derivative(omega)).is_zero()


def test_derivative_is_tensorial_in_the_arguments():
    """The value of d-omega on arbitrary argument sections matches the
    intrinsic formula, although the coefficients were computed from
    constant basis extensions only."""
    from jetcalc.forms import _intrinsic_value

    rng = random.Random(5)
    for _ in range(20):
        r = rng.randint(0, 1)
        n = 2 if r == 0 else 3
        omega = rand_form(n, 1, r, rng, degree=1)
        domega = exterior_derivative(omega)
        args = [rand_vector_section(n, 1, rng, degree=1) for _ in range(r + 1)]
        assert eval_form(domega, args) == _intrinsic_value(omega, args)
    # degree 2 at n = 3: the bracket terms leave a nonempty rest of the key
    for _ in range(2):
        omega = rand_form(3, 1, 2, rng, degree=1)
        args = [rand_vector_section(3, 1, rng, degree=1) for _ in range(3)]
        assert eval_form(exterior_derivative(omega), args) == _intrinsic_value(omega, args)


def test_cartan_homotopy_identity():
    rng = random.Random(6)
    for _ in range(3):
        x = rand_vector_section(3, 1, rng, degree=1)
        omega = rand_form(3, 1, 1, rng, degree=1)
        lhs = lie_derivative(x, omega)
        rhs = interior_product(x, exterior_derivative(omega)) + exterior_derivative(
            interior_product(x, omega)
        )
        assert lhs == rhs


def test_lie_derivative_commutes_with_d():
    rng = random.Random(7)
    for _ in range(3):
        x = rand_vector_section(3, 1, rng, degree=1)
        omega = rand_form(3, 1, 1, rng, degree=1)
        assert lie_derivative(x, exterior_derivative(omega)) == exterior_derivative(
            lie_derivative(x, omega)
        )


def test_interior_product_squares_to_zero():
    rng = random.Random(8)
    for _ in range(5):
        x = rand_vector_section(2, 1, rng, degree=1)
        omega = rand_form(2, 1, 2, rng, degree=1)
        assert interior_product(x, interior_product(x, omega)).is_zero()


def test_graded_leibniz_and_commutativity():
    rng = random.Random(9)
    for _ in range(3):
        f = FormKR.from_function_section(rand_function_section(3, 1, rng, 1))
        alpha = rand_form(3, 1, 1, rng, 1)
        beta = rand_form(3, 1, 1, rng, 1)
        # degree (0,1)
        lhs = exterior_derivative(wedge(f, alpha))
        rhs = wedge(exterior_derivative(f), alpha) + wedge(
            f, exterior_derivative(alpha)
        )
        assert lhs == rhs
        # graded commutativity in odd degree
        assert wedge(alpha, beta) == wedge(beta, alpha).scale(Fraction(-1))
        # degree (1,1)
        lhs2 = exterior_derivative(wedge(alpha, beta))
        rhs2 = wedge(exterior_derivative(alpha), beta) - wedge(
            alpha, exterior_derivative(beta)
        )
        assert lhs2 == rhs2


def test_membership_and_filtration_tag():
    rng = random.Random(10)
    # a coefficient on an order-2 slot pair whose values live at order 2
    # only is compatible; pushing values to order 0 breaks membership
    n, k = 2, 2
    key = ((0, (0, 2)),)
    good = FormKR(
        n,
        k,
        1,
        {key: FunctionJetSection(n, k, {(0, 2): rand_poly(n, rng)})},
    )
    assert kr_membership(good, 1)
    bad = FormKR(
        n,
        k,
        1,
        {key: FunctionJetSection(n, k, {(0, 0): Poly.const(n, 1)})},
    )
    assert not kr_membership(bad, 1)
    zero_low = FormKR(
        n,
        k,
        1,
        {((0, (0, 0)),): FunctionJetSection(n, k, {(0, 2): Poly.const(n, 1)})},
    )
    assert filtration_tag(zero_low) == 1


def test_d_preserves_membership():
    rng = random.Random(11)
    n, k = 2, 2
    for _ in range(5):
        coeffs = {}
        from itertools import combinations

        for key in combinations(vector_slots(n, k), 1):
            max_order = max(sum(a) for _, a in key)
            sec = {}
            for a in multi_indices(n, k):
                if sum(a) >= max_order:
                    sec[a] = rand_poly(n, rng, 1)
            coeffs[key] = FunctionJetSection(n, k, sec)
        omega = FormKR(n, k, 1, coeffs)
        for m in range(k + 1):
            assert kr_membership(omega, m)
            assert kr_membership(exterior_derivative(omega), m)


def test_local_exactness_low_spots():
    # order-0 complex: classical polynomial de Rham, fully exact with a
    # one-dimensional constant kernel in degree 0
    rep0 = local_exactness_check(2, 0, 0, 2)
    assert rep0["kernel_dimension"] == 1  # constants only
    rep1 = local_exactness_check(2, 0, 1, 2)
    assert rep1["all_exact"]
    # first-order interior spot
    rep = local_exactness_check(2, 1, 1, 2)
    assert rep["all_exact"]
    assert rep["closed_dimension"] == 21


def test_local_exactness_top_spot_has_honest_cokernel():
    # the top spot of the one-variable order-1 complex is not exact;
    # the probe must report that rather than claim success
    rep = local_exactness_check(1, 1, 1, 1)
    assert not rep["all_exact"]
    assert rep["exact_count"] < rep["closed_dimension"]


@pytest.mark.parametrize(
    "n, k, r, degree", [(2, 0, 0, 2), (2, 1, 0, 1), (2, 0, 1, 2), (2, 1, 1, 2), (1, 1, 1, 1), (2, 0, 2, 1)]
)
def test_local_exactness_primitives_and_closed_forms(n, k, r, degree):
    """Below the top degree every reported closed form (or r = 0 kernel
    form) is closed, and every reported primitive differentiates to its
    closed form."""
    rep = local_exactness_check(n, k, r, degree)
    if r == 0:
        assert rep["kernel_basis"]
        assert all(exterior_derivative(f).is_zero() for f in rep["kernel_basis"])
        return
    assert rep["results"]
    for res in rep["results"]:
        omega = res["closed_form"]
        if r < n:
            assert exterior_derivative(omega).is_zero()
        assert res["exact"] == (res["primitive"] is not None)
        if res["exact"]:
            assert exterior_derivative(res["primitive"]) == omega


def test_local_exactness_eliminates_once_for_all_closed_forms(monkeypatch):
    """The probe builds one echelon for the closed forms and one for
    [d_0 | B], whatever the number of closed forms."""
    from jetcalc.linalg import Echelon

    built, real_init = [], Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", lambda self, *a: built.append(1) or real_init(self, *a))
    rep = local_exactness_check(2, 1, 1, 2)
    assert rep["closed_dimension"] == 21 and rep["all_exact"]
    assert len(built) <= 2


def test_theta_full_fiber_leaves_only_constants():
    n, k = 2, 1
    spanning = [basis_section(n, k, s) for s in vector_slots(n, k)]
    basis = theta_structure_algebra(spanning, n, k, 2)
    assert len(basis) == 1
    sec = basis[0]
    assert sec.slot((0, 0)).diff(0).is_zero() and sec.slot((0, 0)).diff(1).is_zero()
    assert theta_closed_under_product(spanning, basis, n, k, 2)


def test_theta_slice_tangent_fields_contains_prolonged_functions():
    n, k = 2, 1
    spanning = [
        basis_section(n, k, s) for s in vector_slots(n, k) if s[0] == 0
    ]
    basis = theta_structure_algebra(spanning, n, k, 2)
    assert len(basis) == 6
    assert theta_closed_under_product(spanning, basis, n, k, 2)
    # prolonged jets of functions of the transverse variable lie inside
    from jetcalc.linalg import rank

    def flatten(sections):
        keys = sorted(
            {
                (a, m)
                for sec in sections
                for a in sec.coeffs
                for m in sec.coeffs[a].coeffs
            }
        )
        pos = {key: i for i, key in enumerate(keys)}
        rows = []
        for sec in sections:
            v = [Fraction(0)] * len(pos)
            for a, poly in sec.coeffs.items():
                for m, c in poly.coeffs.items():
                    v[pos[(a, m)]] = c
            rows.append(v)
        return rows

    for p in (Poly.monomial(2, (0, 1)), Poly.monomial(2, (0, 2))):
        jet = prolong_function(p, k)
        vectors = flatten(basis + [jet])
        rows, target = vectors[:-1], vectors[-1]
        assert rank(rows + [target]) == rank(rows)


def test_arrow_transform_identity_and_composition():
    from jetcalc.arrows import compose_arrows

    rng = random.Random(12)
    n, k = 2, 1
    p = (Fraction(0), Fraction(0))
    omega = rand_form(n, k, 1, rng, degree=1)
    ident = Arrow.identity(n, k + 1, p)
    assert arrow_transform_form_at(ident, omega) == form_at(omega, p)
    # transform along a composite equals transforming twice
    a = Arrow.from_polynomial_map(
        [
            Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}),
            Poly(2, {(0, 1): Fraction(1)}),
        ],
        k + 1,
        p,
    )
    got = arrow_transform_form_at(a, omega)
    assert got.point == a.target


def test_relative_membership_of_x0_and_dx0():
    """x0 and dx0 are annihilated by d/dx1 (Lie derivative and interior
    product); d/dx0 moves x0 and contracts dx0 to 1."""
    n, k = 2, 2
    x0 = FormKR.from_function_section(prolong_function(Poly.variable(n, 0), k))
    d0 = prolong_vector_field([Poly.const(n, 1), Poly.zero(n)], k)
    d1 = prolong_vector_field([Poly.zero(n), Poly.const(n, 1)], k)
    for omega in (x0, exterior_derivative(x0)):
        assert relative_membership(omega, [])
        assert relative_membership(omega, [d1])
        assert not relative_membership(omega, [d1, d0])


def test_arrow_transform_form_over_a_family():
    rng = random.Random(31)
    n, k = 2, 1
    omega = rand_form(n, k, 1, rng, degree=1)
    points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-1, 2))]
    arrows = [Arrow.identity(n, k + 1, p) for p in points]
    assert arrow_transform_form(arrows, omega) == {p: form_at(omega, p) for p in points}


def _transform_by_public_pushforwards(arrow, omega):
    """Reference: the transform of a form with every pushforward made by
    the public functions, one jet at a time."""
    from itertools import combinations

    from jetcalc.arrows import invert_arrow, pushforward_function_jet, pushforward_vector_jet
    from jetcalc.jets import VectorJetPoint

    n, k, r = omega.n, omega.k, omega.r
    inv = invert_arrow(arrow)
    omega_q = form_at(omega, arrow.source)
    slots = vector_slots(n, k)
    pulled = {
        s: pushforward_vector_jet(inv, VectorJetPoint(n, k, arrow.target, {s: Fraction(1)}))
        for s in slots
    }
    out = {
        key: pushforward_function_jet(arrow, eval_form(omega_q, [pulled[s] for s in key]))
        for key in combinations(slots, r)
    }
    return FormKR(n, k, r, out, arrow.target)


def test_arrow_transform_inverts_each_arrow_once(monkeypatch):
    """A 1-form transform at n = 2, k = 1 over two nonlinear arrows calls
    invert_arrow once per arrow, builds at most 4 displacements per arrow
    (DA once for all pulled jets, not once per jet) and agrees with the
    transform built from the public pushforwards."""
    import jetcalc.arrows
    import jetcalc.forms

    rng = random.Random(41)
    n, k = 2, 1
    omega = rand_form(n, k, 1, rng, degree=1)
    maps = [
        [Poly(2, {(1, 0): 1, (0, 1): 1, (2, 0): 1}), Poly(2, {(0, 1): 1, (1, 1): 1})],
        [Poly(2, {(1, 0): 2, (0, 2): 1}), Poly(2, {(1, 0): 1, (0, 1): -1, (1, 1): 1})],
    ]
    points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-1, 2))]
    arrows = [Arrow.from_polynomial_map(m, k + 1, p) for m, p in zip(maps, points)]
    expected = {a.target: _transform_by_public_pushforwards(a, omega) for a in arrows}
    real = jetcalc.arrows.invert_arrow
    real_displacement = Arrow.displacement_polynomials
    calls = []
    displacements = []

    def counting(a):
        calls.append(a)
        return real(a)

    def counting_displacement(a):
        displacements.append(a)
        return real_displacement(a)

    monkeypatch.setattr(jetcalc.arrows, "invert_arrow", counting)
    monkeypatch.setattr(Arrow, "displacement_polynomials", counting_displacement)
    assert arrow_transform_form(arrows, omega) == expected
    assert len(calls) <= len(arrows)
    assert len(displacements) <= 4 * len(arrows)


def test_eval_form_commutes_with_form_at():
    """Evaluating a section form and then taking the value at a point is
    evaluating the form at that point on the arguments' values there."""
    rng = random.Random(53)
    for n in (2, 3):
        k = 1
        for r in range(1, n + 1):
            omega = rand_form(n, k, r, rng, degree=1)
            args = [rand_vector_section(n, k, rng, degree=1) for _ in range(r)]
            p = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
            at_p = form_at(omega, p)
            assert at_p.point == p
            assert eval_form(at_p, [x.at(p) for x in args]) == eval_form(omega, args).at(p)


def test_form_kinds_are_validated_and_kept_apart():
    from jetcalc.jets import FunctionJetPoint

    n, k = 2, 1
    p, q = (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))
    s0, s1 = vector_slots(n, k)[:2]
    at_p = FunctionJetPoint(n, k, p, {(0, 0): 1})
    mismatch = "jet kind, dimension, order or base point mismatch"
    with pytest.raises(ValueError, match=mismatch):
        FormKR(n, k, 1, {(s0,): at_p})  # a point value in a section form
    with pytest.raises(ValueError, match=mismatch):
        FormKR(n, k, 1, {(s0,): at_p}, q)  # a value at another point
    with pytest.raises(ValueError, match="strictly increasing"):
        FormKR(n, k, 2, {(s1, s0): at_p}, p)  # an unsorted key
    with pytest.raises(ValueError, match="arity mismatch"):
        FormKR(n, k, 2, {(s0,): at_p}, p)  # a key of the wrong size
    with pytest.raises(ValueError, match="is not a tuple of fiber slots of order at most 1"):
        FormKR(n, k, 1, {((0, (2, 0)),): at_p}, p)  # a slot above order k
    one = FormKR(n, k, 1, {(s0,): at_p}, p)
    assert FormKR(n, k, 1, {(s0,): at_p}, [0, 1]) == one
    section = FormKR(n, k, 1, {(s0,): FunctionJetSection(n, k, {(0, 0): Poly.const(n, 1)})})
    assert form_at(section, p) == one
    assert section != one and one != form_at(section, q)
    assert len({one, form_at(section, p), section}) == 2
    with pytest.raises(ValueError, match="argument order/dimension/base point mismatch"):
        eval_form(one, [basis_section(n, k, s0).at(q)])  # argument at another point


# Reference formulas: d, i_Y and the wedge written slot tuple by slot
# tuple with jet + and scale, as they were before d read the shared
# Chevalley-Eilenberg term list; kept as the oracles of the operators.


def _reference_signed_coefficient(omega, slots):
    """Coefficient on an arbitrary slot tuple, sorted and signed: (sign,
    coefficient), sign 0 when a slot repeats."""
    from itertools import combinations

    slot_pos = {s: i for i, s in enumerate(vector_slots(omega.n, omega.k))}
    pos = [slot_pos[s] for s in slots]
    if len(set(pos)) != len(pos):
        return 0, omega._zero()
    c = omega.coeffs.get(tuple(s for _, s in sorted(zip(pos, slots))))
    sign = -1 if sum(a > b for a, b in combinations(pos, 2)) % 2 else 1
    return sign, omega._zero() if c is None else c


def _reference_exterior_derivative(omega):
    from itertools import combinations

    from jetcalc.jets import basis_bracket
    from jetcalc.spencer import basis_action

    n, k, r = omega.n, omega.k, omega.r
    slots = vector_slots(n, k)
    if r == 0:
        f = omega.coefficient(())
        return FormKR(n, k, 1, {(s,): basis_action(s, f) for s in slots})
    out = {}
    for key in combinations(slots, r + 1):
        total = FunctionJetSection(n, k)
        for i in range(r + 1):
            sign, sec = _reference_signed_coefficient(omega, key[:i] + key[i + 1 :])
            if sign != 0 and not sec.is_zero():
                term = basis_action(key[i], sec)
                total = total + (term if sign * (-1) ** i > 0 else -term)
        for i, j in combinations(range(r + 1), 2):
            rest = tuple(key[m] for m in range(r + 1) if m not in (i, j))
            for u, c in basis_bracket(key[i], key[j], k).items():
                sign, sec = _reference_signed_coefficient(omega, (u,) + rest)
                if sign != 0 and not sec.is_zero():
                    total = total + sec.scale(c * sign * (-1) ** (i + j))
        total = total.scale(Fraction(1, r + 1))
        if not total.is_zero():
            out[key] = total
    return FormKR(n, k, r + 1, out)


def _reference_wedge(w, t):
    from itertools import combinations
    from math import factorial

    from jetcalc.jets import jet_product_sum

    n, k, p, q = w.n, w.k, w.r, t.r
    factor = Fraction(factorial(p) * factorial(q), factorial(p + q))
    out = {}
    for key in combinations(vector_slots(n, k), p + q) if p + q else [()]:
        terms = []
        for positions in combinations(range(p + q), p):
            a_key = tuple(key[i] for i in positions)
            b_key = tuple(key[i] for i in range(p + q) if i not in positions)
            sec_a, sec_b = w.coeffs.get(a_key), t.coeffs.get(b_key)
            if sec_a is None or sec_b is None or sec_a.is_zero() or sec_b.is_zero():
                continue
            inversions = sum(pos - idx for idx, pos in enumerate(positions))
            terms.append((factor if inversions % 2 == 0 else -factor, sec_a, sec_b))
        if terms:
            total = jet_product_sum({key: terms})[key]
            if not total.is_zero():
                out[key] = total
    return FormKR(n, k, p + q, out, w.point)


def _reference_interior_product(y_section, omega):
    from itertools import combinations

    n, k, r = omega.n, omega.k, omega.r
    slots = vector_slots(n, k)
    out = {}
    for key in combinations(slots, r - 1) if r > 1 else [()]:
        total = FunctionJetSection(n, k)
        for s in slots:
            ypoly = y_section.slot(*s)
            if ypoly.is_zero():
                continue
            sign, sec = _reference_signed_coefficient(omega, (s,) + tuple(key))
            if sign == 0 or sec.is_zero():
                continue
            term = sec.scale(ypoly)
            total = total + (term if sign > 0 else -term)
        total = total.scale(Fraction(r))
        if not total.is_zero():
            out[key] = total
    return FormKR(n, k, r - 1, out)


def _sparse_form(n, k, r, rng):
    """A seeded form with about half of its coefficients zero or absent."""
    omega = rand_form(n, k, r, rng, degree=1)
    if r == 0:
        return omega
    coeffs = {}
    for key, c in omega.coeffs.items():
        draw = rng.random()
        if draw < 0.5:
            coeffs[key] = c if draw < 0.4 else FunctionJetSection(n, k)
    return FormKR(n, k, r, coeffs)


def _same_coefficients(a, b):
    """Equal forms with the same nonzero keys stored, zero keys dropped."""
    return a == b and {key for key, c in a.coeffs.items() if not c.is_zero()} == {
        key for key, c in b.coeffs.items() if not c.is_zero()
    }


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_operators_match_the_reference_formulas(n, k):
    """d for every degree r < n, i_Y for every 1 <= r < n and the wedge of
    degrees p, q <= 1 equal the slot-by-slot reference formulas on seeded
    forms, some coefficients zero or absent."""
    rng = random.Random(100 * n + k)
    for r in range(n):
        omega = _sparse_form(n, k, r, rng)
        assert _same_coefficients(exterior_derivative(omega), _reference_exterior_derivative(omega))
        if r:
            y = rand_vector_section(n, k, rng, degree=1)
            assert _same_coefficients(
                interior_product(y, omega), _reference_interior_product(y, omega)
            )
    for p in (0, 1):
        for q in (0, 1):
            w, t = _sparse_form(n, k, p, rng), _sparse_form(n, k, q, rng)
            assert _same_coefficients(wedge(w, t), _reference_wedge(w, t))


@pytest.mark.parametrize("n, k", [(1, 0), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_forms_store_no_zero_coefficient_and_equal_forms_hash_equal(n, k):
    """The constructor drops a zero coefficient, so every operator result,
    cancellations included, stores only nonzero coefficients, and equal
    forms, however built, have the same coefficient dict and hash."""
    from itertools import combinations

    rng = random.Random(300 + 10 * n + k)
    zero, slots = FunctionJetSection(n, k), vector_slots(n, k)
    x = rand_vector_section(n, k, rng, degree=1)
    constant = VectorJetSection(n, k, {s: Poly.const(n, 1) for s in slots})
    p = (Fraction(1, 2),) * n
    for r in range(n + 1):
        keys = list(combinations(slots, r))
        explicit = FormKR(n, k, r, {key: zero for key in keys})
        assert explicit.coeffs == {} and explicit.is_zero()
        assert explicit == FormKR(n, k, r) and hash(explicit) == hash(FormKR(n, k, r))
        omega = _sparse_form(n, k, r, rng)
        padded = FormKR(n, k, r, {**{key: zero for key in keys}, **omega.coeffs})
        assert padded.coeffs == omega.coeffs and hash(padded) == hash(omega)
        assert omega - omega == explicit and hash(omega - omega) == hash(explicit)
        at_p = form_at(omega, p)
        assert at_p == form_at(padded, p) and hash(at_p) == hash(form_at(padded, p))
        results = [omega + omega, omega - omega, omega.scale(0), at_p - at_p]
        results += [omega.project(m) for m in range(k + 1)]
        results += [lie_derivative(x, omega), lie_derivative(constant, omega)]
        if r < n:
            results.append(exterior_derivative(omega))
            if r + 1 < n:
                results.append(exterior_derivative(exterior_derivative(omega)))
        if r:
            results.append(interior_product(x, omega))
        for q in range(n - r + 1):
            t = _sparse_form(n, k, q, rng)
            results += [wedge(omega, t), wedge(at_p, form_at(t, p))]
            if r % 2 and q % 2:  # odd forms anticommute: the sum cancels
                results.append(wedge(omega, t) + wedge(t, omega))
        for form in results:
            assert not any(c.is_zero() for c in form.coeffs.values())
        assert results[1].coeffs == results[2].coeffs == results[3].coeffs == {}


def test_wedge_of_forms_at_a_point_is_the_value_of_the_section_wedge():
    rng = random.Random(61)
    n, k = 2, 1
    p, q = (Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(2))
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w, t = rand_form(n, k, a, rng, degree=1), rand_form(n, k, b, rng, degree=1)
        at_p = wedge(form_at(w, p), form_at(t, p))
        assert at_p.point == p
        assert at_p == form_at(wedge(w, t), p)
        for other in (form_at(t, q), t):
            with pytest.raises(ValueError, match="base point mismatch"):
                wedge(form_at(w, p), other)


def test_section_operators_reject_a_form_at_a_point():
    """d, i_Y and L_Y act on section forms (and i_Y, L_Y on vector jet
    sections) only: a form or a vector jet at a point gets one ValueError
    that says so."""
    from functools import partial

    rng = random.Random(62)
    n, k = 2, 1
    p = (Fraction(1), Fraction(-1, 2))
    for r in (0, 1):
        at_p = form_at(rand_form(n, k, r, rng, degree=1), p)
        x = rand_vector_section(n, k, rng, degree=1)
        for op in (exterior_derivative, partial(interior_product, x), partial(lie_derivative, x)):
            with pytest.raises(ValueError, match="needs a section form"):
                op(at_p)
    section = rand_form(n, k, 1, rng, degree=1)
    for op in (interior_product, lie_derivative):
        with pytest.raises(ValueError, match="needs a section form and vector sections"):
            op(x.at(p), section)
