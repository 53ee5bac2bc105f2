"""Bracket calculus on jets: algebraic bracket, Spencer operator,
Spencer bracket, the action of vector jets on function jets, and the
classical bracket of polynomial vector fields (`bracket_fields`), the
oracle of the Spencer bracket of their prolongations.  The constant
basis sections e_s of g_k, with a single slot equal to 1, act in closed
form (`basis_action`) and bracket by the layout's `leibniz` table
(`jets.basis_bracket`, whose constants `liealg.JetGroupAlgebra` holds);
`jet_action` and `spencer_bracket` are their oracle.

The bracket and the action share one Leibniz formula, `_leibniz_terms`,
for jet sections and jets at a point alike: it lists the terms of each
output slot, reading their slots and binomials from the `leibniz` table
of the output's function layout, and the jet's `_summed` adds them up.

The Spencer operator measures the failure of a section to be holonomic;
the Spencer bracket corrects the algebraic bracket by Spencer terms so
that it closes at the same order and satisfies the Jacobi identity.  D
has one slot formula, `_spencer_slots`: `spencer_operator` builds its
parts from it, and `spencer_bracket` and `jet_action` add its terms,
with the Leibniz terms of the lifts, into one sum per output slot.
"""

from .jets import slot_layout
from .poly import Poly, random_poly


def bracket_fields(x_comps, y_comps):
    """Bracket of polynomial vector fields, componentwise."""
    n = len(x_comps)
    return [
        Poly.sum_of_products(n, [
            (sign, p[a], q[i].diff(a))
            for sign, p, q in ((1, x_comps, y_comps), (-1, y_comps, x_comps))
            for a in range(n)
        ])
        for i in range(n)
    ]


def _leibniz_terms(slot_terms, x_jet, f_values, k, sign=1, i=None):
    """Add sign times the terms of (X f)_alpha, |alpha| <= k, to
    slot_terms[alpha], or to slot_terms[(i, alpha)] when f is the i-th
    component of a vector jet; f_values maps gamma to f_gamma.
    (X f)_alpha = sum_{beta<=alpha} C(alpha,beta) xi^a_beta f_{(alpha-beta)+e_a}:
    for each nonzero xi^a_beta the order-k `leibniz` table lists alpha,
    the source slot and the binomial, and only nonzero sources are kept
    (a source above the order of f_values is absent, hence zero)."""
    table = slot_layout("function", x_jet.n, k).leibniz
    for slot, u in x_jet.coeffs.items():
        if u:
            for alpha, gamma, c in table.get(slot, ()):
                v = f_values.get(gamma)
                if v:
                    term = (sign * c, u, v)
                    slot_terms.setdefault(alpha if i is None else (i, alpha), []).append(term)


def _bracket_terms(x_jet, y_jet, k):
    """The terms of the slots of order <= k of the jet-level bracket formula
    {X,Y}^i_alpha = sum_{beta<=alpha} C(alpha,beta)
        (xi^a_beta eta^i_{(alpha-beta)+e_a} - eta^a_beta xi^i_{(alpha-beta)+e_a}),
    that is X(eta^i) - Y(xi^i), over the terms whose slots exist at the
    order of the inputs."""
    x_jet._check(y_jet)
    slot_terms = {}
    for i in range(x_jet.n):
        for sign, p, q in ((1, x_jet, y_jet), (-1, y_jet, x_jet)):
            component = {gamma: v for (j, gamma), v in q.coeffs.items() if j == i}
            _leibniz_terms(slot_terms, p, component, k, sign, i)
    return slot_terms


def _bracket_slots(x_jet, y_jet, k):
    """The jet-level bracket formula at order k (see `_bracket_terms`)."""
    return x_jet._summed(k, _bracket_terms(x_jet, y_jet, k))


def algebraic_bracket(x_jet, y_jet):
    """The pointwise bracket on jets, dropping one order.

    Obtained by formally differentiating the classical bracket formula
    and substituting slots.
    """
    if x_jet.k < 1:
        raise ValueError("algebraic bracket needs order at least 1")
    return _bracket_slots(x_jet, y_jet, x_jet.k - 1)


def isotropy_bracket(x_jet, y_jet):
    """The bracket of J_{k,0}: jets with vanishing order-0 part.

    Because the order-0 parts vanish, the algebraic bracket formula
    closes at full order k (every slot of order k+1 is multiplied by an
    order-0 slot, which is zero).
    """
    x_jet._check(y_jet)
    z = (0,) * x_jet.n
    for a in range(x_jet.n):
        if x_jet.slot(a, z) != 0 or y_jet.slot(a, z) != 0:
            raise ValueError("isotropy bracket needs vanishing order-0 part")
    return _bracket_slots(x_jet, y_jet, x_jet.k)


def _spencer_slots(section, j):
    """Part j of D(section), slot by slot: (s, d_j (slot s), slot s raised
    by e_j) over the slots s of order below the section's, in layout
    order; the slot of the part is the difference of the last two."""
    coeffs = section.coeffs
    return [
        (s, coeffs[s].diff(j), coeffs[up])
        for (s, a), up in section.layout.raised.items()
        if a == j
    ]


def spencer_operator(section):
    """D: J_{k+1} -> T* tensor J_k and g_{k+1} -> T* tensor g_k, as the
    list of its n parts: part j is the jet of order k with slot
    s = d_j (slot s) - (slot s raised by e_j)."""
    if section.k < 1:
        raise ValueError("Spencer operator needs order at least 1")
    return [
        section.like(section.k - 1, {s: dj - up for s, dj, up in _spencer_slots(section, j)})
        for j in range(section.n)
    ]


def _lift(section, lift_policy, rng=None):
    """Lift a section by one order, with zero or seeded random new slots."""
    if lift_policy == "zero":
        return section.lift(section.k + 1)
    if lift_policy == "random":
        if rng is None:
            raise ValueError("random lift needs an rng")
        new = [s for s in section.lift(section.k + 1).coeffs if s not in section.coeffs]
        return section.lift(
            section.k + 1, {s: random_poly(section.n, rng, 2) for s in new}
        )
    raise ValueError(f"unknown lift policy {lift_policy!r}")


def _contraction_terms(slot_terms, x_section, lifted, sign=1):
    """Add sign times the terms of i(X^(0)) D(lifted), the contraction of
    D with the order-0 part of X: xi^a_0 (d_a lifted_s - lifted_{s+e_a})
    in slot s, for each nonzero xi^a_0 and nonzero slot value."""
    zero = (0,) * x_section.n
    for a in range(x_section.n):
        xi = x_section.coeffs[(a, zero)]
        if xi:
            for s, da, up in _spencer_slots(lifted, a):
                if da:
                    slot_terms.setdefault(s, []).append((sign, xi, da))
                if up:
                    slot_terms.setdefault(s, []).append((-sign, xi, up))


def spencer_bracket(x_section, y_section, lift_policy="zero", rng=None):
    """The bracket on g_k sections: algebraic bracket of arbitrary lifts
    plus Spencer corrections, i(X^(0)) D(Y') - i(Y^(0)) D(X'), each output
    slot one sum over the terms of all three.  Independent of the lifts
    (the lifted slots enter the Leibniz and the Spencer terms, and cancel
    in the sum); satisfies Jacobi."""
    if (x_section.n, x_section.k) != (y_section.n, y_section.k):
        raise ValueError("jet order/dimension mismatch")
    x_lift = _lift(x_section, lift_policy, rng)
    y_lift = _lift(y_section, lift_policy, rng)
    slot_terms = _bracket_terms(x_lift, y_lift, x_section.k)
    _contraction_terms(slot_terms, x_section, y_lift)
    _contraction_terms(slot_terms, y_section, x_lift, -1)
    return x_section._summed(x_section.k, slot_terms)


def algebraic_action_star(x_section, f_section):
    """The Leibniz action of g_k on J_{k+1}: slot alpha =
    sum_{beta<=alpha} C(alpha,beta) xi^a_beta f_{(alpha-beta)+e_a}."""
    if x_section.n != f_section.n or f_section.k != x_section.k + 1:
        raise ValueError("need orders k and k+1")
    slot_terms = {}
    _leibniz_terms(slot_terms, x_section, f_section.coeffs, x_section.k)
    return f_section._summed(x_section.k, slot_terms)


def jet_action(x_section, f_section):
    """X f for a vector jet section X and function jet section f of equal
    order: the Leibniz action on the zero lift f' plus the Spencer
    correction i(X^(0)) D(f'), each output slot one sum."""
    if (x_section.n, x_section.k) != (f_section.n, f_section.k):
        raise ValueError("jet order/dimension mismatch")
    f_lift = f_section.lift(f_section.k + 1)
    slot_terms = {}
    _leibniz_terms(slot_terms, x_section, f_lift.coeffs, x_section.k)
    _contraction_terms(slot_terms, x_section, f_lift)
    return f_section._summed(f_section.k, slot_terms)


def basis_action(slot, f_section):
    """jet_action(e_s, f) for the constant basis section e_s of g_k with
    the single slot s = (i, b) equal to 1, in closed form: slot alpha is
    d_i f_alpha when b = 0, C(alpha,b) f_{alpha-b+e_i} when 0 < b <= alpha,
    and 0 otherwise (the Spencer term cancels the lifted slot when b = 0).
    For b != 0 the terms are the entries of the `leibniz` table of f's
    layout at slot s whose source is nonzero."""
    i, b = slot
    fs = f_section.coeffs
    if not any(b):
        out = {alpha: p.diff(i) for alpha, p in fs.items()}
    else:
        out = {alpha: fs[src] * c for alpha, src, c in f_section.layout.leibniz[slot] if fs[src]}
    return f_section.like(f_section.k, out)
