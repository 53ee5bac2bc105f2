"""Bracket calculus on jets: algebraic bracket, Spencer operator,
Spencer bracket, the action of vector jets on function jets, and the
Lie algebra of the isotropy jet group, a `FiniteLieAlgebra` whose
structure constants are the closed-form brackets of the truncated
monomial fields x^alpha/alpha! d_i (`isotropy_bracket` of the basis jets
gives the same table).  The constant basis sections e_s of g_k, with a
single slot equal to 1, act and bracket in closed form (`basis_action`,
`basis_bracket`); `jet_action` and `spencer_bracket` are their oracle.

The bracket and the action share one Leibniz formula, `_leibniz_terms`,
for jet sections and jets at a point alike: it lists the terms of each
output slot and the jet's `_summed` adds them up.

The Spencer operator measures the failure of a section to be holonomic;
the Spencer bracket corrects the algebraic bracket by Spencer terms so
that it closes at the same order and satisfies the Jacobi identity.
"""

from fractions import Fraction
from itertools import combinations

from .jets import vector_slots
from .liealg import FiniteLieAlgebra
from .multiindex import (
    add,
    multi_binomial,
    order,
    sub,
    unit,
)
from .poly import random_poly


class CovectorIndexedSection:
    """A section of T* tensor J_k or T* tensor g_k: one jet section per
    covector slot j = 0..n-1."""

    __slots__ = ("n", "k", "parts")

    def __init__(self, n, k, parts):
        if len(parts) != n:
            raise ValueError("need one part per covector slot")
        self.n = n
        self.k = k
        self.parts = list(parts)

    def part(self, j):
        return self.parts[j]

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def project(self, m):
        return CovectorIndexedSection(self.n, m, [p.project(m) for p in self.parts])

    def __eq__(self, other):
        return (
            isinstance(other, CovectorIndexedSection)
            and (self.n, self.k) == (other.n, other.k)
            and self.parts == other.parts
        )

    def __sub__(self, other):
        return CovectorIndexedSection(
            self.n, self.k, [a - b for a, b in zip(self.parts, other.parts)]
        )


def _leibniz_terms(slot_terms, x_jet, f_values, k, sign=1, i=None):
    """Add sign times the terms of (X f)_alpha, |alpha| <= k, to
    slot_terms[alpha], or to slot_terms[(i, alpha)] when f is the i-th
    component of a vector jet; f_values maps gamma to f_gamma.
    (X f)_alpha = sum_{beta<=alpha} C(alpha,beta) xi^a_beta f_{(alpha-beta)+e_a}:
    only nonzero slots are visited, xi^a_beta and f_gamma with gamma_a > 0
    giving the term of alpha = beta + gamma - e_a."""
    units = [unit(x_jet.n, a) for a in range(x_jet.n)]
    right = [(gamma, order(gamma), v) for gamma, v in f_values.items() if v]
    for (a, beta), u in x_jet.coeffs.items():
        if not u:
            continue
        room = k + 1 - order(beta)
        for gamma, d, v in right:
            if gamma[a] and d <= room:
                alpha = sub(add(beta, gamma), units[a])
                term = (sign * multi_binomial(alpha, beta), u, v)
                slot_terms.setdefault(alpha if i is None else (i, alpha), []).append(term)


def _bracket_slots(x_jet, y_jet, k):
    """Slots of order <= k of the jet-level bracket formula
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
    return x_jet._summed(k, slot_terms)


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


def spencer_operator(section):
    """D: J_{k+1} -> T* tensor J_k and g_{k+1} -> T* tensor g_k, with
    slot (j; s) = d_j (slot s) - (slot s raised by e_j)."""
    if section.k < 1:
        raise ValueError("Spencer operator needs order at least 1")
    low = section.project(section.k - 1)
    parts = [
        low.like(
            low.k,
            {
                s: p.diff(j) - section.coeffs[section.raised(s, j)]
                for s, p in low.coeffs.items()
            },
        )
        for j in range(section.n)
    ]
    return CovectorIndexedSection(section.n, low.k, parts)


def _lift(section, lift_policy, rng=None, degree=2):
    """Lift a section by one order, with zero or seeded random new slots."""
    if lift_policy == "zero":
        return section.lift(section.k + 1)
    if lift_policy == "random":
        if rng is None:
            raise ValueError("random lift needs an rng")
        new = [s for s in section.lift(section.k + 1).coeffs if s not in section.coeffs]
        return section.lift(
            section.k + 1, {s: random_poly(section.n, rng, degree) for s in new}
        )
    raise ValueError(f"unknown lift policy {lift_policy!r}")


def _contract_with_order0(x_section, covector):
    """i(X^(0)) applied to a covector-indexed section: sum_a xi^a_0 part_a."""
    zero = (0,) * x_section.n
    first = covector.part(0)
    slot_terms = {}
    for a, part in enumerate(covector.parts):
        xi = x_section.slot(a, zero)
        if xi:
            for s, v in part.coeffs.items():
                if v:
                    slot_terms.setdefault(s, []).append((1, xi, v))
    return first._summed(first.k, slot_terms)


def spencer_bracket(x_section, y_section, lift_policy="zero", rng=None):
    """The bracket on g_k sections: algebraic bracket of arbitrary lifts
    plus Spencer corrections.  Independent of the lifts; satisfies Jacobi.
    """
    if (x_section.n, x_section.k) != (y_section.n, y_section.k):
        raise ValueError("jet order/dimension mismatch")
    x_lift = _lift(x_section, lift_policy, rng)
    y_lift = _lift(y_section, lift_policy, rng)
    main = algebraic_bracket(x_lift, y_lift)
    dx = spencer_operator(x_lift)
    dy = spencer_operator(y_lift)
    return main + _contract_with_order0(x_section, dy) - _contract_with_order0(y_section, dx)


def algebraic_action_star(x_section, f_section):
    """The Leibniz action of g_k on J_{k+1}: slot alpha =
    sum_{beta<=alpha} C(alpha,beta) xi^a_beta f_{(alpha-beta)+e_a}."""
    if x_section.n != f_section.n or f_section.k != x_section.k + 1:
        raise ValueError("need orders k and k+1")
    slot_terms = {}
    _leibniz_terms(slot_terms, x_section, f_section.coeffs, x_section.k)
    return f_section._summed(x_section.k, slot_terms)


def jet_action(x_section, f_section, lift_policy="zero", rng=None):
    """X f for a vector jet section X and function jet section f of equal
    order: the Leibniz action on a lift plus the Spencer correction."""
    if (x_section.n, x_section.k) != (f_section.n, f_section.k):
        raise ValueError("jet order/dimension mismatch")
    f_lift = _lift(f_section, lift_policy, rng)
    main = algebraic_action_star(x_section, f_lift)
    df = spencer_operator(f_lift)
    return main + _contract_with_order0(x_section, df)


def basis_action(slot, f_section):
    """jet_action(e_s, f) for the constant basis section e_s of g_k with
    the single slot s = (i, b) equal to 1, in closed form: slot alpha is
    d_i f_alpha when b = 0, C(alpha,b) f_{alpha-b+e_i} when 0 < b <= alpha,
    and 0 otherwise (the Spencer term cancels the lifted slot when b = 0)."""
    i, b = slot
    e = unit(f_section.n, i)
    fs = f_section.coeffs
    if not order(b):
        out = {alpha: p.diff(i) for alpha, p in fs.items()}
    else:
        out = {
            alpha: fs[add(sub(alpha, b), e)] * multi_binomial(alpha, b)
            for alpha in fs
            if all(x >= y for x, y in zip(alpha, b))
        }
    return f_section.like(f_section.k, out)


def basis_bracket(s, t, k):
    """[e_s, e_t] of two constant basis sections of g_k, s = (i, a) and
    t = (j, b), in closed form as {slot: nonzero int}:
        C(a+b-e_i, a) e_(j, a+b-e_i) - C(a+b-e_j, b) e_(i, a+b-e_j).
    A term is dropped above order k, when it needs b_i = 0 (a_j = 0 for
    the second), and when the other slot, a (b), has order 0: there the
    Spencer term cancels it.  On order >= 1 slots these are the structure
    constants of the isotropy jet algebra."""
    out = {}
    for (u, x), (v, y), sign in ((s, t, 1), (t, s, -1)):
        # sign * C(x+y-e_u, x) e_(v, x+y-e_u)
        if y[u] and order(x) and order(x) + order(y) <= k + 1:
            c = sub(add(x, y), unit(len(x), u))
            out[(v, c)] = out.get((v, c), 0) + sign * multi_binomial(c, x)
    return {slot: c for slot, c in out.items() if c}


class JetGroupAlgebra(FiniteLieAlgebra):
    """The Lie algebra of the isotropy jet group at a point: basis slots
    (i, alpha) with 1 <= |alpha| <= k, the k-jets of the fields
    x^alpha/alpha! d_i, antisymmetry and Jacobi checked on construction."""

    __slots__ = ("n", "k", "slots")

    def __init__(self, n, k, check=True):
        if k < 1:
            raise ValueError("order must be at least 1")
        self.n = n
        self.k = k
        self.slots = vector_slots(n, k, min_order=1)
        super().__init__(len(self.slots), self._structure_constants(), check=check)

    def _structure_constants(self):
        """[x^a/a! d_i, x^b/b! d_j] = `basis_bracket((i, a), (j, b), k)`,
        the bracket of the basis jets with a single slot equal to 1."""
        pos = {s: r for r, s in enumerate(self.slots)}
        table = {}
        for (p, s), (q, t) in combinations(enumerate(self.slots), 2):
            out = {pos[u]: c for u, c in basis_bracket(s, t, self.k).items()}
            for r in sorted(out):
                table[(p, q, r)] = Fraction(out[r])
                table[(q, p, r)] = -Fraction(out[r])
        return table

    def finite_lie_algebra(self):
        """This algebra: it is a FiniteLieAlgebra, checked on construction."""
        return self


def jet_group_algebra(n, k):
    return JetGroupAlgebra(n, k)
