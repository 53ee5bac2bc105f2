"""Jet-order exterior calculus: (k,r)-forms, the exterior derivative,
wedge product, interior product and Lie derivative, filtration and
relative-cochain membership, structure algebras, the arrow action on
forms, and a local-exactness probe.

A form of degree r at order k is an r-linear alternating map taking r
vector k-jets to a function k-jet, stored through its nonzero
coefficients on strictly increasing tuples of fiber basis slots: the
constructor drops a zero coefficient, so no operator filters zeros and
equality is a dict compare.  One type, `FormKR`,
holds both kinds of form, as the jet classes do: a section form has
function jet sections as coefficients, a form at a base point has
function jets at that point.  The four functions that need linear
algebra import `linalg` when they run, as the arrow action imports
`arrows`, so the identity suites of the CLI load neither.

On the constant basis a section form is a Chevalley-Eilenberg cochain
of the Lie algebroid J_k T, d its differential by `multiindex.ce_terms`;
`lie_derivative`, `eval_form` and `_intrinsic_value` stay generic: oracles.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import factorial as int_factorial

from .jets import (
    FunctionJetPoint,
    FunctionJetSection,
    VectorJetPoint,
    VectorJetSection,
    basis_bracket,
    jet_product,
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


def kr_membership(omega, m):
    """Whether the order-m projection of the output depends only on the
    order-m slots of the arguments.

    By multilinearity this holds iff every coefficient attached to a
    tuple containing a slot of order > m projects to zero at order m.
    """
    if not 0 <= m <= omega.k:
        raise ValueError("membership order out of range")
    for key, sec in omega.coeffs.items():
        if all(order(alpha) <= m for _, alpha in key):
            continue
        low = sec.project(m)
        if not low.is_zero():
            return False
    return True


def filtration_tag(omega):
    """Largest m such that all output projections of order <= m vanish,
    i.e. membership of the kernel filtration at level m+1; -1 if none."""
    best = -1
    for m in range(omega.k + 1):
        if all(sec.project(m).is_zero() for sec in omega.coeffs.values()):
            best = m
        else:
            break
    return best


def relative_membership(omega, spanning_sections):
    """Relative-cochain test: L_X omega = 0 and i_X omega = 0 for every
    X in a spanning family of the subalgebra fibers."""
    for x in spanning_sections:
        if (x.n, x.k) != (omega.n, omega.k):
            raise ValueError("order/dimension mismatch")
        if not lie_derivative(x, omega).is_zero():
            return False
        if omega.r >= 1 and not interior_product(x, omega).is_zero():
            return False
    return True


def theta_structure_algebra(spanning_sections, n, k, poly_degree):
    """Basis of the function jet sections annihilated by the jet action
    of every member of a spanning family, with coefficient polynomials
    of total degree <= poly_degree."""
    from .linalg import Echelon

    layout = _form_basis(n, k, 0, poly_degree)
    matrix = []
    for x in spanning_sections:
        if (x.n, x.k) != (n, k):
            raise ValueError("order/dimension mismatch")
        # each slot of X f sums products of a coefficient of X with one of f
        top = poly_degree + max(0, max(p.degree() for p in x.coeffs.values()))
        # on degree 0, L_X is the jet action of X on the coefficient
        matrix += _matrix_of(
            partial(lie_derivative, x), n, k, 0, layout, _form_basis(n, k, 0, top)
        )
    kernel = Echelon(matrix).nullspace(len(layout))
    return [_vector_to_form(n, k, 0, layout, v).coefficient(()) for v in kernel]


def theta_closed_under_product(spanning_sections, basis_sections, n, k, poly_degree):
    """Verify the structure algebra is closed under the jet product.

    Pairwise products of the basis (coefficient degree <= poly_degree)
    double the coefficient degree, so membership is re-solved in the
    structure algebra computed at twice the degree bound.
    """
    from .linalg import Echelon

    if not basis_sections:
        return True
    layout = _form_basis(n, k, 0, 2 * poly_degree)

    def flatten(f):
        return _form_to_vector(FormKR.from_function_section(f), layout)

    span = Echelon(
        flatten(f) for f in theta_structure_algebra(spanning_sections, n, k, 2 * poly_degree)
    )
    return all(
        span.contains(flatten(jet_product(f, g)))
        for i, f in enumerate(basis_sections)
        for g in basis_sections[i:]
    )


def form_at(omega, point):
    """The value of a section form at a base point: a form at that point."""
    return FormKR(
        omega.n, omega.k, omega.r, {key: c.at(point) for key, c in omega.coeffs.items()}, point
    )


def arrow_transform_form_at(arrow, omega):
    """The transformed form at the arrow's target point.

    (g omega)(X_1..X_r)(p) transports the arguments backwards along the
    arrow and the value forwards; needs an arrow of order k+1.
    """
    from .arrows import invert_arrow, pushforward_function_jets, pushforward_vector_jets

    n, k, r = omega.n, omega.k, omega.r
    if arrow.n != n or arrow.k != k + 1:
        raise ValueError("need an arrow of order k+1")
    p = arrow.target
    slots = slot_layout("vector", n, k).slots
    units = [VectorJetPoint(n, k, p, {s: Fraction(1)}) for s in slots]
    pulled = dict(zip(slots, pushforward_vector_jets(invert_arrow(arrow), units)))
    omega_q = form_at(omega, arrow.source)
    keys = list(combinations(slots, r))
    values = [eval_form(omega_q, [pulled[s] for s in key]) for key in keys]
    return FormKR(n, k, r, dict(zip(keys, pushforward_function_jets(arrow, values))), p)


def arrow_transform_form(arrows, omega):
    """Pointwise transform over a family of arrows: one form at each
    arrow target."""
    return {a.target: arrow_transform_form_at(a, omega) for a in arrows}


def _form_basis(n, k, r, poly_degree):
    """Coordinate layout (key, a, m) for degree-r section forms with
    coefficient polynomials of total degree <= poly_degree: coefficient
    key, function slot a, monomial m (a function slot of order poly_degree).
    The layout maps each coordinate to its index, in index order.

    Only filtration-compatible coordinates are kept: a coefficient
    attached to a tuple whose largest argument-slot order is M may only
    populate output slots of order >= M (exactly the condition that every
    order-m projection of the output reads only the order-m argument
    slots).  On degree 0 every coordinate is kept.
    """
    keys = list(combinations(slot_layout("vector", n, k).slots, r)) if r else [()]
    fslots = slot_layout("function", n, k).slots
    monos = slot_layout("function", n, poly_degree).slots
    layout = {}
    for key in keys:
        max_arg = max((order(alpha) for _, alpha in key), default=0)
        for a in fslots:
            if order(a) < max_arg:
                continue
            for m in monos:
                layout[key, a, m] = len(layout)
    return layout


def _form_to_vector(omega, layout):
    """The form's nonzero coordinates on the layout, as {index: value}."""
    v = {}
    for key, sec in omega.coeffs.items():
        for a, poly in sec.coeffs.items():
            for m, c in poly.terms():
                coord = (key, a, m)
                if coord not in layout:
                    raise ValueError("form exceeds the coordinate layout")
                v[layout[coord]] = c
    return v


def _vector_to_form(n, k, r, layout, v):
    coeffs = {}
    for (key, a, m), c in zip(layout, v):
        if c:
            coeffs.setdefault(key, {}).setdefault(a, {})[m] = c
    return FormKR(n, k, r, {
        key: FunctionJetSection(n, k, {a: Poly(n, p) for a, p in sec.items()})
        for key, sec in coeffs.items()
    })


def _matrix_of(op, n, k, r, in_layout, out_layout):
    """Matrix of a linear map on degree-r section forms between two
    coordinate layouts, as sparse {column: value} rows: column j is the
    image of the form whose single coordinate, the j-th of in_layout, is 1."""
    rows = [{} for _ in out_layout]
    for j, (key, a, m) in enumerate(in_layout):
        sec = FunctionJetSection(n, k, {a: Poly.monomial(n, m, 1)})
        for i, c in _form_to_vector(op(FormKR(n, k, r, {key: sec})), out_layout).items():
            rows[i][j] = c
    return rows


def local_exactness_check(n, k, r, poly_degree):
    """Solvability probe for d at one level of the complex.

    For a basis of d-closed degree-r forms with coefficient polynomial
    degree <= poly_degree, attempts to solve d eta = omega with eta of
    degree r-1 and coefficient degree <= poly_degree + 1 (for r >= 1).
    For r = 0 reports the kernel dimension of d instead.
    """
    from .linalg import Echelon, solve

    if r > n:
        raise ValueError("complex is truncated at degree n")
    in_layout = _form_basis(n, k, r, poly_degree)
    matrix = []  # top of the complex: d is zero, every form is closed
    if r < n:
        out_layout = _form_basis(n, k, r + 1, poly_degree)  # d never raises the degree
        matrix = _matrix_of(exterior_derivative, n, k, r, in_layout, out_layout)
    closed = Echelon(matrix).nullspace(len(in_layout))
    closed_forms = [_vector_to_form(n, k, r, in_layout, v) for v in closed]
    if r == 0:
        return {
            "n": n,
            "k": k,
            "r": 0,
            "poly_degree": poly_degree,
            "kernel_dimension": len(closed),
            "kernel_basis": closed_forms,
        }
    prev_layout = _form_basis(n, k, r - 1, poly_degree + 1)
    target_layout = _form_basis(n, k, r, poly_degree + 1)
    prev_matrix = _matrix_of(exterior_derivative, n, k, r - 1, prev_layout, target_layout)
    rhs = [_form_to_vector(omega, target_layout) for omega in closed_forms]
    solutions = solve(prev_matrix, rhs, len(prev_layout))
    results = [
        {
            "closed_form": omega,
            "exact": sol is not None,
            "primitive": None if sol is None else _vector_to_form(n, k, r - 1, prev_layout, sol),
        }
        for omega, sol in zip(closed_forms, solutions)
    ]
    solvable = sum(sol is not None for sol in solutions)
    return {
        "n": n,
        "k": k,
        "r": r,
        "poly_degree": poly_degree,
        "closed_dimension": len(closed),
        "exact_count": solvable,
        "all_exact": solvable == len(closed),
        "results": results,
    }
