"""Bracket calculus on jets: algebraic bracket, Spencer operator,
Spencer bracket, the action of vector jets on function jets, and the
Lie algebra of the isotropy jet group, a `FiniteLieAlgebra` whose
structure constants are the closed-form brackets of the truncated
monomial fields x^alpha/alpha! d_i (`isotropy_bracket` of the basis jets
gives the same table).

The Spencer operator measures the failure of a section to be holonomic;
the Spencer bracket corrects the algebraic bracket by Spencer terms so
that it closes at the same order and satisfies the Jacobi identity.
"""

from fractions import Fraction
from itertools import combinations

from .jets import FunctionJetSection, vector_slots
from .liealg import FiniteLieAlgebra
from .multiindex import (
    add,
    factorial,
    multi_binomial,
    multi_indices,
    order,
    sub,
    sub_indices,
    unit,
)
from .poly import Poly


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


def _bracket_slots(x_jet, y_jet, k):
    """Slots of order <= k of the jet-level bracket formula
    {X,Y}^i_alpha = sum_{beta<=alpha} C(alpha,beta)
        (xi^a_beta eta^i_{(alpha-beta)+e_a} - eta^a_beta xi^i_{(alpha-beta)+e_a}),
    over the terms whose slots exist at the order of the inputs."""
    x_jet._check(y_jet)
    n = x_jet.n
    out = {}
    for alpha in multi_indices(n, k):
        for i in range(n):
            total = 0
            for beta in sub_indices(alpha):
                c = multi_binomial(alpha, beta)
                rest = sub(alpha, beta)
                for a in range(n):
                    up = add(rest, unit(n, a))
                    if order(up) > x_jet.k:
                        continue
                    total = total + c * (
                        x_jet.slot(a, beta) * y_jet.slot(i, up)
                        - y_jet.slot(a, beta) * x_jet.slot(i, up)
                    )
            out[(i, alpha)] = total
    return x_jet.like(k, out)


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
            section.k + 1, {s: _random_poly(section.n, rng, degree) for s in new}
        )
    raise ValueError(f"unknown lift policy {lift_policy!r}")


def _random_poly(n, rng, degree):
    return Poly(
        n,
        {
            alpha: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for alpha in multi_indices(n, degree)
            if rng.random() < 0.5
        },
    )


def _contract_with_order0(x_section, covector):
    """i(X^(0)) applied to a covector-indexed section: sum_a xi^a_0 part_a."""
    n = x_section.n
    zero = (0,) * n
    result = None
    for a in range(n):
        term = covector.part(a).scale(x_section.slot(a, zero))
        result = term if result is None else result + term
    return result


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
    n, k = x_section.n, x_section.k
    out = {}
    for alpha in multi_indices(n, k):
        total = Poly.zero(n)
        for beta in sub_indices(alpha):
            c = multi_binomial(alpha, beta)
            rest = sub(alpha, beta)
            for a in range(n):
                total = total + c * (
                    x_section.slot(a, beta) * f_section.slot(add(rest, unit(n, a)))
                )
        out[alpha] = total
    return FunctionJetSection(n, k, out)


def jet_action(x_section, f_section, lift_policy="zero", rng=None):
    """X f for a vector jet section X and function jet section f of equal
    order: the Leibniz action on a lift plus the Spencer correction."""
    if (x_section.n, x_section.k) != (f_section.n, f_section.k):
        raise ValueError("jet order/dimension mismatch")
    f_lift = _lift(f_section, lift_policy, rng)
    main = algebraic_action_star(x_section, f_lift)
    df = spencer_operator(f_lift)
    return main + _contract_with_order0(x_section, df)


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
        """[x^a/a! d_i, x^b/b! d_j]
            = (b_i x^(a+b-e_i) d_j - a_j x^(a+b-e_j) d_i) / (a! b!),
        truncated at order k; x^c is c! times the basis field of slot c."""
        n, k = self.n, self.k
        pos = {s: r for r, s in enumerate(self.slots)}
        table = {}
        for (p, (i, a)), (q, (j, b)) in combinations(enumerate(self.slots), 2):
            out = {}
            for u, s, t, v, sign in ((i, a, b, j, 1), (j, b, a, i, -1)):
                # sign * x^s d_u(x^t) d_v, in units of 1/(a! b!)
                if t[u] and order(s) + order(t) <= k + 1:
                    c = sub(add(s, t), unit(n, u))
                    r = pos[(v, c)]
                    out[r] = out.get(r, 0) + sign * t[u] * factorial(c)
            scale = factorial(a) * factorial(b)
            for r in sorted(out):
                if out[r]:
                    table[(p, q, r)] = Fraction(out[r], scale)
                    table[(q, p, r)] = -Fraction(out[r], scale)
        return table

    def finite_lie_algebra(self):
        """This algebra: it is a FiniteLieAlgebra, checked on construction."""
        return self


def jet_group_algebra(n, k):
    return JetGroupAlgebra(n, k)
