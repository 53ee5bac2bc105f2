"""Jet-order exterior calculus: (k,r)-forms, the exterior derivative,
wedge product, interior product and Lie derivative.  The probes built
on them (membership and filtration tags, structure algebras, the arrow
action on forms, the local-exactness probe) are `form_probes`', so the
identity suites of the CLI compile none of them.

A form of degree r at order k is an r-linear alternating map taking r
vector k-jets to a function k-jet, stored through its nonzero
coefficients on strictly increasing tuples of fiber basis slots: the
constructor drops a zero coefficient, so no operator filters zeros and
equality is a dict compare.  One type, `FormKR`,
holds both kinds of form, as the jet classes do: a section form has
function jet sections as coefficients, a form at a base point has
function jets at that point.  `eval_form`, the one function here that
needs linear algebra, imports `linalg` when it runs, so the identity
suites of the CLI load no linear algebra.

On the constant basis a section form is a Chevalley-Eilenberg cochain
of the Lie algebroid J_k T, d its differential by `multiindex.ce_terms`;
`lie_derivative`, `eval_form` and `_intrinsic_value` stay generic: oracles.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial as int_factorial

from .jets import (
    FunctionJetPoint,
    FunctionJetSection,
    VectorJetSection,
    basis_bracket,
    jet_product_sum,
    slot_layout,
)
from .multiindex import _sign, ce_terms, order
from .poly import Poly, _as_fraction
from .spencer import basis_action, jet_action, spencer_bracket


def basis_section(n, k, slot):
    """The constant section with a single fiber slot equal to 1."""
    return VectorJetSection(n, k, {slot: Poly.const(n, 1)})


class FormKR:
    """A (k,r)-form: coefficients on strictly increasing slot tuples.

    With `point` None (a section form) each coefficient is a
    FunctionJetSection of order k; with a base point (a form at a point)
    each is a FunctionJetPoint of order k at that point.  Evaluation on
    r vector jets of the same kind is multilinear and alternating with
    values in the order-k function jets.  Only nonzero coefficients are
    stored (degree 0 keeps its function jet under the empty tuple, the
    zero form keeps nothing); `coefficient` reads any key, zero included.
    """

    __slots__ = ("n", "k", "r", "point", "coeffs")

    def __init__(self, n, k, r, coeffs=None, point=None):
        if not 0 <= r:
            raise ValueError("form degree must be non-negative")
        self.n = n
        self.k = k
        self.r = r
        self.point = None if point is None else tuple(_as_fraction(x) for x in point)
        slot_pos = slot_layout("vector", n, k).pos
        zero = self._zero()
        table = {}
        for key, c in (coeffs or {}).items():
            key = tuple((i, tuple(a)) for i, a in key)
            if len(key) != r:
                raise ValueError("coefficient tuple arity mismatch")
            pos = [slot_pos.get(s) for s in key]
            if None in pos:
                raise ValueError(f"{key} is not a tuple of fiber slots of order at most {k}")
            if any(b <= a for a, b in zip(pos, pos[1:])):
                raise ValueError("slot tuple must be strictly increasing")
            zero._check(c)
            if not c.is_zero():
                table[key] = c
        self.coeffs = table

    @classmethod
    def from_function_section(cls, section):
        return cls(section.n, section.k, 0, {(): section})

    def _zero(self):
        """The zero coefficient: a function jet section, or a function
        jet at the base point."""
        if self.point is None:
            return FunctionJetSection(self.n, self.k)
        return FunctionJetPoint(self.n, self.k, self.point)

    def _like(self, k, coeffs):
        """A form of the same kind, dimension, degree and base point."""
        return FormKR(self.n, k, self.r, coeffs, self.point)

    def coefficient(self, key):
        c = self.coeffs.get(tuple((i, tuple(a)) for i, a in key))
        return self._zero() if c is None else c

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other, self.r)
        zero = self._zero()
        return self._like(
            self.k,
            {
                key: self.coeffs.get(key, zero) + other.coeffs.get(key, zero)
                for key in set(self.coeffs) | set(other.coeffs)
            },
        )

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return self._like(self.k, {key: v.scale(c) for key, v in self.coeffs.items()})

    def _shape(self):
        return (self.n, self.k, self.r, self.point)

    def __eq__(self, other):
        if not isinstance(other, FormKR):
            return NotImplemented
        return self._shape() == other._shape() and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self._shape(), frozenset(self.coeffs.items())))

    def project(self, m):
        """Projection pi_{k,m} on the output values, re-read at order m.

        The result evaluates arguments only through their order-m slots,
        which is exactly the (k,r) membership condition at m; projection
        of a member is again a form of the lower order.
        """
        if not 0 <= m <= self.k:
            raise ValueError("projection order out of range")
        return self._like(
            m,
            {
                key: c.project(m)
                for key, c in self.coeffs.items()
                if all(order(alpha) <= m for _, alpha in key)
            },
        )

    def _check(self, other, r):
        """Raise unless other is a degree-r form of this n, k and point."""
        if (self.n, self.k, r, self.point) != other._shape():
            raise ValueError("form degree/order/dimension/base point mismatch")

    def __repr__(self):
        at = "" if self.point is None else f", at={self.point}"
        return f"FormKR(n={self.n}, k={self.k}, r={self.r}{at}, {self.coeffs})"


def eval_form(omega, args):
    """Evaluate a form on r vector jets of its kind (sections, or jets at
    its base point); multilinear, alternating.  Each coefficient is
    scaled by the minor of the arguments on its slot tuple."""
    from .linalg import determinant

    if len(args) != omega.r:
        raise ValueError(f"form of degree {omega.r} takes {omega.r} arguments")
    for x in args:
        if (x.n, x.k, x.point) != (omega.n, omega.k, omega.point):
            raise ValueError("argument order/dimension/base point mismatch")
    result = omega._zero()
    for key, c in omega.coeffs.items():
        det = determinant([[x.slot(i, alpha) for x in args] for (i, alpha) in key])
        if det:
            result = result + c.scale(det)
    return result


def _intrinsic_value(omega, args):
    """Right-hand side of the intrinsic exterior-derivative formula on
    r+1 argument sections, including the 1/(r+1) normalization."""
    r = omega.r
    n, k = omega.n, omega.k
    total = FunctionJetSection(n, k)
    for i in range(r + 1):
        rest = args[:i] + args[i + 1 :]
        value = eval_form(omega, rest)
        term = jet_action(args[i], value)
        total = total + (term if i % 2 == 0 else -term)
    for i in range(r + 1):
        for j in range(i + 1, r + 1):
            br = spencer_bracket(args[i], args[j])
            rest = [br] + [args[m] for m in range(r + 1) if m not in (i, j)]
            term = eval_form(omega, rest)
            total = total + (term if (i + j) % 2 == 0 else -term)
    return total.scale(Fraction(1, r + 1))


def _sections_only(name, omega, *vector_sections):
    if any(x.point is not None for x in (omega, *vector_sections)):
        raise ValueError(f"{name} needs a section form and vector sections, not values at a point")
    if any((y.n, y.k) != (omega.n, omega.k) for y in vector_sections):
        raise ValueError("order/dimension mismatch")


def exterior_derivative(omega):
    """d: degree r to degree r+1, same jet order.

    d is the Chevalley-Eilenberg differential of the Lie algebroid J_k T
    on its constant basis sections e_s, weighted 1/(r+1): the intrinsic
    formula, tensorial, on the basis.  For r >= 1 a coefficient sums the
    terms of `multiindex.ce_terms`, as `liealg` does, on layout positions
    (`basis_action`, `basis_bracket`), each output slot in one sum.
    """
    _sections_only("exterior_derivative", omega)
    n, k, r = omega.n, omega.k, omega.r
    if r >= n:
        raise ValueError("complex is truncated at degree n")
    layout = slot_layout("vector", n, k)
    slots, pos = layout.slots, layout.pos
    if r == 0:
        return FormKR(n, k, 1, {(s,): basis_action(s, omega.coefficient(())) for s in slots})

    def bracket(x, y):
        return {pos[z]: c for z, c in basis_bracket(slots[x], slots[y], k).items()}

    coeffs = {tuple(pos[s] for s in key): c for key, c in omega.coeffs.items()}
    weight, one, zero = Fraction(1, r + 1), Poly.const(n, 1), omega._zero()
    out = {}
    for okey in combinations(range(len(slots)), r + 1):
        slot_terms = {}
        for x, key, c in ce_terms(okey, bracket):
            sec = coeffs.get(key)
            if sec is not None:
                c *= weight
                for alpha, v in (sec if x is None else basis_action(slots[x], sec)).coeffs.items():
                    if v:
                        slot_terms.setdefault(alpha, []).append((c, v, one))
        out[tuple(slots[x] for x in okey)] = zero._summed(k, slot_terms)
    return FormKR(n, k, r + 1, out)


def wedge(w, t):
    """Wedge product, normalized so that the degree-0 case is the jet
    product and d is a graded derivation.  Each pair of nonzero
    coefficients on disjoint keys, signed by the shuffle that sorts the
    keys together, is one term of its output key's sum: one
    `jet_product_sum` call takes every output key."""
    w._check(t, t.r)
    n, k, p, q = w.n, w.k, w.r, t.r
    if p + q > n:
        raise ValueError("wedge degree exceeds the complex truncation")
    factor = Fraction(int_factorial(p) * int_factorial(q), int_factorial(p + q))
    signed = {1: factor, -1: -factor}
    pos = slot_layout("vector", n, k).pos
    right = [(key, [pos[s] for s in key], c) for key, c in t.coeffs.items()]
    terms = {}
    for a_key, a in w.coeffs.items():
        for b_key, b_pos, b in right:
            both = [pos[s] for s in a_key] + b_pos
            if len(set(both)) == p + q:
                key = tuple(s for _, s in sorted(zip(both, a_key + b_key)))
                terms.setdefault(key, []).append((signed[_sign(both)], a, b))
    return FormKR(n, k, p + q, jet_product_sum(terms), w.point)


def interior_product(y_section, omega):
    """i_Y: degree r to degree r-1, with the degree of the input form as
    the normalization factor: (i_Y omega)(rest) = r sum_s Y^s omega(e_s,
    rest), scattered from omega's nonzero keys, each output slot one sum."""
    _sections_only("interior_product", omega, y_section)
    r, zero = omega.r, omega._zero()
    if r == 0:
        raise ValueError("interior product needs positive degree")
    terms = {}
    for key, sec in omega.coeffs.items():
        for p, s in enumerate(key):
            y = y_section.coeffs[s]
            if y:
                slot_terms = terms.setdefault(key[:p] + key[p + 1 :], {})
                for alpha, v in sec.coeffs.items():
                    if v:
                        slot_terms.setdefault(alpha, []).append((-r if p % 2 else r, y, v))
    out = {key: zero._summed(omega.k, slot_terms) for key, slot_terms in terms.items()}
    return FormKR(omega.n, omega.k, r - 1, out)


def lie_derivative(y_section, omega):
    """L_Y: degree-preserving; satisfies the homotopy identity
    L = d i + i d and commutes with d."""
    _sections_only("lie_derivative", omega, y_section)
    n, k, r = omega.n, omega.k, omega.r
    slots = slot_layout("vector", n, k).slots
    out = {}
    for key in combinations(slots, r):
        total = jet_action(y_section, omega.coefficient(key))
        for i in range(r):
            br = spencer_bracket(y_section, basis_section(n, k, key[i]))
            rest = [basis_section(n, k, s) for s in key]
            rest[i] = br
            total = total - eval_form(omega, rest)
        out[key] = total
    return FormKR(n, k, r, out)
