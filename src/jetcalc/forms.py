"""Jet-order exterior calculus: (k,r)-forms, the exterior derivative,
wedge product, interior product and Lie derivative, filtration and
relative-cochain membership, structure algebras, the arrow action on
forms, and a local-exactness probe.

A form of degree r at order k is an r-linear alternating map taking r
vector k-jets to a function k-jet, stored through its coefficients on
strictly increasing tuples of fiber basis slots.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial as int_factorial

from .arrows import _pushforward_function, _pushforward_vector, invert_arrow
from .jets import (
    FunctionJetPoint,
    FunctionJetSection,
    VectorJetPoint,
    VectorJetSection,
    function_slots,
    jet_product,
    jet_product_sum,
    vector_slots,
)
from .linalg import Echelon, determinant, nullspace, solve
from .multiindex import multi_indices, order
from .poly import Poly, PowerTable, _as_fraction
from .spencer import basis_action, basis_bracket, jet_action, spencer_bracket


def _sign(seq):
    """Sign of the permutation that sorts seq (distinct entries): -1 for
    an odd number of inversions, else 1."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


def basis_section(n, k, slot):
    """The constant section with a single fiber slot equal to 1."""
    return VectorJetSection(n, k, {slot: Poly.const(n, 1)})


class FormKR:
    """A (k,r)-form: coefficients on strictly increasing slot tuples.

    Each coefficient is a FunctionJetSection of order k; evaluation on r
    vector jet sections is multilinear and alternating with values in
    the order-k function jets.  Degree 0 is a single function jet
    section stored under the empty tuple.
    """

    __slots__ = ("n", "k", "r", "coeffs", "_slot_pos")

    def __init__(self, n, k, r, coeffs=None):
        if not 0 <= r:
            raise ValueError("form degree must be non-negative")
        self.n = n
        self.k = k
        self.r = r
        slots = vector_slots(n, k)
        self._slot_pos = {s: i for i, s in enumerate(slots)}
        table = {}
        if r == 0:
            table[()] = FunctionJetSection(n, k)
        if coeffs:
            for key, sec in coeffs.items():
                key = tuple((i, tuple(a)) for i, a in key) if r else tuple(key)
                if len(key) != r:
                    raise ValueError("coefficient tuple arity mismatch")
                pos = [self._slot_pos[s] for s in key]
                if any(b <= a for a, b in zip(pos, pos[1:])):
                    raise ValueError("slot tuple must be strictly increasing")
                if (sec.n, sec.k) != (n, k):
                    raise ValueError("coefficient order/dimension mismatch")
                table[key] = sec
        self.coeffs = table

    @classmethod
    def from_function_section(cls, section):
        return cls(section.n, section.k, 0, {(): section})

    def coefficient(self, key):
        key = tuple((i, tuple(a)) for i, a in key) if self.r else ()
        return self.coeffs.get(key, FunctionJetSection(self.n, self.k))

    def signed_coefficient(self, slots):
        """Coefficient on an arbitrary slot tuple: sorts and signs.

        Returns (sign, section); sign 0 when a slot repeats.
        """
        pos = [self._slot_pos[s] for s in slots]
        if len(set(pos)) != len(pos):
            return 0, FunctionJetSection(self.n, self.k)
        key = tuple(s for _, s in sorted(zip(pos, slots)))
        return _sign(pos), self.coeffs.get(key, FunctionJetSection(self.n, self.k))

    def is_zero(self):
        return all(sec.is_zero() for sec in self.coeffs.values())

    def __add__(self, other):
        self._check(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return FormKR(
            self.n,
            self.k,
            self.r,
            {
                key: self.coeffs.get(key, FunctionJetSection(self.n, self.k))
                + other.coeffs.get(key, FunctionJetSection(self.n, self.k))
                for key in keys
            },
        )

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return FormKR(
            self.n, self.k, self.r, {key: sec.scale(c) for key, sec in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, FormKR):
            return NotImplemented
        if (self.n, self.k, self.r) != (other.n, other.k, other.r):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = FunctionJetSection(self.n, self.k)
        return all(
            self.coeffs.get(key, zero) == other.coeffs.get(key, zero) for key in keys
        )

    def __hash__(self):
        nz = frozenset(
            (key, sec) for key, sec in self.coeffs.items() if not sec.is_zero()
        )
        return hash((self.n, self.k, self.r, nz))

    def project(self, m):
        """Projection pi_{k,m} on the output values, re-read at order m.

        The result evaluates arguments only through their order-m slots,
        which is exactly the (k,r) membership condition at m; projection
        of a member is again a form of the lower order.
        """
        if not 0 <= m <= self.k:
            raise ValueError("projection order out of range")
        out = {}
        for key, sec in self.coeffs.items():
            if any(order(alpha) > m for _, alpha in key):
                continue
            out[key] = sec.project(m)
        return FormKR(self.n, m, self.r, out)

    def _check(self, other):
        if (self.n, self.k, self.r) != (other.n, other.k, other.r):
            raise ValueError("form degree/order/dimension mismatch")

    def __repr__(self):
        nz = {key: sec for key, sec in self.coeffs.items() if not sec.is_zero()}
        return f"FormKR(n={self.n}, k={self.k}, r={self.r}, {nz})"


def _poly_det(rows):
    """Determinant of a small matrix of polynomials, by permutation expansion."""
    m = len(rows)
    n = rows[0][0].n
    total = Poly.zero(n)
    for perm in permutations(range(m)):
        term = None
        ok = True
        for i, j in enumerate(perm):
            p = rows[i][j]
            if p.is_zero():
                ok = False
                break
            term = p if term is None else term * p
        if not ok:
            continue
        total = total + (term if _sign(perm) == 1 else -term)
    return total


def eval_form(omega, args):
    """Evaluate a form on r vector jet sections; multilinear, alternating."""
    if len(args) != omega.r:
        raise ValueError(f"form of degree {omega.r} takes {omega.r} arguments")
    for x in args:
        if (x.n, x.k) != (omega.n, omega.k):
            raise ValueError("argument order/dimension mismatch")
    n, k = omega.n, omega.k
    if omega.r == 0:
        return omega.coeffs[()]
    result = FunctionJetSection(n, k)
    for key, sec in omega.coeffs.items():
        if sec.is_zero():
            continue
        rows = [[x.slot(i, alpha) for x in args] for (i, alpha) in key]
        det = _poly_det(rows)
        if det.is_zero():
            continue
        result = result + sec.scale(det)
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


def exterior_derivative(omega):
    """d: degree r to degree r+1, same jet order.

    Coefficients are the intrinsic formula evaluated on the constant
    basis sections e_s; the result is well defined because the formula
    is tensorial in its arguments.  On basis sections every piece has a
    closed form: e_s acts by `basis_action`, two of them bracket to
    `basis_bracket`, and omega on basis sections is a signed coefficient.
    """
    n, k, r = omega.n, omega.k, omega.r
    if r >= n:
        raise ValueError("complex is truncated at degree n")
    slots = vector_slots(n, k)
    if r == 0:
        f = omega.coeffs[()]
        return FormKR(n, k, 1, {(s,): basis_action(s, f) for s in slots})
    out = {}
    for key in combinations(slots, r + 1):
        total = FunctionJetSection(n, k)
        for i in range(r + 1):
            sign, sec = omega.signed_coefficient(key[:i] + key[i + 1 :])
            if sign != 0 and not sec.is_zero():
                term = basis_action(key[i], sec)
                total = total + (term if sign * (-1) ** i > 0 else -term)
        for i, j in combinations(range(r + 1), 2):
            rest = tuple(key[m] for m in range(r + 1) if m not in (i, j))
            for u, c in basis_bracket(key[i], key[j], k).items():
                sign, sec = omega.signed_coefficient((u,) + rest)
                if sign != 0 and not sec.is_zero():
                    total = total + sec.scale(c * sign * (-1) ** (i + j))
        total = total.scale(Fraction(1, r + 1))
        if not total.is_zero():
            out[key] = total
    return FormKR(n, k, r + 1, out)


def wedge(w, t):
    """Wedge product, normalized so that the degree-0 case is the jet
    product and d is a graded derivation."""
    if (w.n, w.k) != (t.n, t.k):
        raise ValueError("form order/dimension mismatch")
    n, k = w.n, w.k
    p, q = w.r, t.r
    if p + q > n:
        raise ValueError("wedge degree exceeds the complex truncation")
    factor = Fraction(int_factorial(p) * int_factorial(q), int_factorial(p + q))
    slots = vector_slots(n, k)
    out = {}
    for key in combinations(slots, p + q) if p + q else [()]:
        terms = []
        for positions in combinations(range(p + q), p):
            a_key = tuple(key[i] for i in positions)
            b_key = tuple(key[i] for i in range(p + q) if i not in positions)
            sec_a = w.coeffs.get(a_key)
            sec_b = t.coeffs.get(b_key)
            if sec_a is None or sec_b is None:
                continue
            if sec_a.is_zero() or sec_b.is_zero():
                continue
            inversions = sum(pos - idx for idx, pos in enumerate(positions))
            terms.append((factor if inversions % 2 == 0 else -factor, sec_a, sec_b))
        if terms:
            total = jet_product_sum(terms)
            if not total.is_zero():
                out[key] = total
    return FormKR(n, k, p + q, out)


def interior_product(y_section, omega):
    """i_Y: degree r to degree r-1, with the degree of the input form as
    the normalization factor."""
    if (y_section.n, y_section.k) != (omega.n, omega.k):
        raise ValueError("order/dimension mismatch")
    if omega.r == 0:
        raise ValueError("interior product needs positive degree")
    n, k, r = omega.n, omega.k, omega.r
    slots = vector_slots(n, k)
    out = {}
    for key in combinations(slots, r - 1) if r > 1 else [()]:
        total = FunctionJetSection(n, k)
        for s in slots:
            ypoly = y_section.slot(*s)
            if ypoly.is_zero():
                continue
            sign, sec = omega.signed_coefficient((s,) + tuple(key))
            if sign == 0 or sec.is_zero():
                continue
            term = sec.scale(ypoly)
            total = total + (term if sign > 0 else -term)
        total = total.scale(Fraction(r))
        if not total.is_zero():
            out[key] = total
    return FormKR(n, k, r - 1, out)


def lie_derivative(y_section, omega):
    """L_Y: degree-preserving; satisfies the homotopy identity
    L = d i + i d and commutes with d."""
    if (y_section.n, y_section.k) != (omega.n, omega.k):
        raise ValueError("order/dimension mismatch")
    n, k, r = omega.n, omega.k, omega.r
    if r == 0:
        return FormKR.from_function_section(jet_action(y_section, omega.coeffs[()]))
    slots = vector_slots(n, k)
    out = {}
    for key in combinations(slots, r):
        sec = omega.coeffs.get(key, FunctionJetSection(n, k))
        total = jet_action(y_section, sec)
        for i in range(r):
            br = spencer_bracket(y_section, basis_section(n, k, key[i]))
            rest = [basis_section(n, k, s) for s in key]
            rest[i] = br
            total = total - eval_form(omega, rest)
        if not total.is_zero():
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
        if omega.r == 0:
            if not jet_action(x, omega.coeffs[()]).is_zero():
                return False
    return True


def theta_structure_algebra(spanning_sections, n, k, poly_degree):
    """Basis of the function jet sections annihilated by the jet action
    of every member of a spanning family, with coefficient polynomials
    of total degree <= poly_degree."""
    fslots = function_slots(n, k)
    monos = multi_indices(n, poly_degree)
    unknowns = [(a, m) for a in fslots for m in monos]
    col = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for xi, x in enumerate(spanning_sections):
        if (x.n, x.k) != (n, k):
            raise ValueError("order/dimension mismatch")
        for a, m in unknowns:
            basis = FunctionJetSection(n, k, {a: Poly.monomial(n, m, 1)})
            image = jet_action(x, basis)
            # record the column of the action matrix
            for out_a, poly in image.coeffs.items():
                for out_m, c in poly.coeffs.items():
                    rows.append(((xi, out_a, out_m), (a, m), c))
    row_keys = sorted({rk for rk, _, _ in rows})
    row_pos = {rk: i for i, rk in enumerate(row_keys)}
    matrix = [[Fraction(0)] * len(unknowns) for _ in row_keys]
    for rk, u, c in rows:
        matrix[row_pos[rk]][col[u]] += c
    kernel = nullspace(matrix, cols=len(unknowns))
    basis_sections = []
    for vec in kernel:
        coeffs = {}
        for (a, m), i in col.items():
            if vec[i] != 0:
                coeffs[a] = coeffs.get(a, Poly.zero(n)) + Poly.monomial(n, m, vec[i])
        basis_sections.append(FunctionJetSection(n, k, coeffs))
    return basis_sections


def theta_closed_under_product(spanning_sections, basis_sections, n, k, poly_degree):
    """Verify the structure algebra is closed under the jet product.

    Pairwise products double the coefficient degree, so membership is
    re-solved in the structure algebra computed at twice the degree
    bound of the given basis.
    """
    if not basis_sections:
        return True
    big_basis = theta_structure_algebra(
        spanning_sections, n, k, 2 * poly_degree
    )
    products = []
    for i, f in enumerate(basis_sections):
        for g in basis_sections[i:]:
            products.append(jet_product(f, g))
    fslots = function_slots(n, k)
    all_monos = set()
    for sec in big_basis + products:
        for poly in sec.coeffs.values():
            all_monos.update(poly.coeffs)
    monos = sorted(all_monos)
    pos = {
        (a, m): j
        for j, (a, m) in enumerate((a, m) for a in fslots for m in monos)
    }

    def flatten(sec):
        v = [Fraction(0)] * len(pos)
        for a, poly in sec.coeffs.items():
            for m, c in poly.coeffs.items():
                v[pos[(a, m)]] = c
        return v

    span = Echelon(flatten(sec) for sec in big_basis)
    return all(span.contains(flatten(prod)) for prod in products)


class FormAtPoint:
    """A form evaluated at one base point: coefficients are function jet
    point values on increasing slot tuples."""

    __slots__ = ("n", "k", "r", "point", "coeffs", "_slot_pos")

    def __init__(self, n, k, r, point, coeffs=None):
        self.n = n
        self.k = k
        self.r = r
        self.point = tuple(_as_fraction(x) for x in point)
        self._slot_pos = {s: i for i, s in enumerate(vector_slots(n, k))}
        table = {}
        if r == 0:
            table[()] = FunctionJetPoint(n, k, point)
        if coeffs:
            for key, val in coeffs.items():
                key = tuple((i, tuple(a)) for i, a in key) if r else tuple(key)
                table[key] = val
        self.coeffs = table

    def evaluate(self, args):
        if len(args) != self.r:
            raise ValueError("arity mismatch")
        if self.r == 0:
            return self.coeffs[()]
        result = FunctionJetPoint(self.n, self.k, self.point)
        for key, val in self.coeffs.items():
            rows = [[x.slot(i, alpha) for x in args] for (i, alpha) in key]
            det = determinant(rows)
            if det != 0:
                result = result + val.scale(det)
        return result

    def __eq__(self, other):
        if not isinstance(other, FormAtPoint):
            return NotImplemented
        if (self.n, self.k, self.r, self.point) != (
            other.n,
            other.k,
            other.r,
            other.point,
        ):
            return False
        zero = FunctionJetPoint(self.n, self.k, self.point)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            self.coeffs.get(key, zero) == other.coeffs.get(key, zero) for key in keys
        )

    def __hash__(self):
        return hash((self.n, self.k, self.r, self.point))

    def __repr__(self):
        return f"FormAtPoint(n={self.n}, k={self.k}, r={self.r}, at={self.point})"


def form_at(omega, point):
    """Pointwise value of a form at a base point."""
    return FormAtPoint(
        omega.n,
        omega.k,
        omega.r,
        point,
        {key: sec.at(point) for key, sec in omega.coeffs.items()},
    )


def arrow_transform_form_at(arrow, omega):
    """The transformed form at the arrow's target point.

    (g omega)(X_1..X_r)(p) transports the arguments backwards along the
    arrow and the value forwards; needs an arrow of order k+1.
    """
    k = omega.k
    if arrow.n != omega.n or arrow.k != k + 1:
        raise ValueError("need an arrow of order k+1")
    n, r = omega.n, omega.r
    p = arrow.target
    q = arrow.source
    inv = invert_arrow(arrow)
    # the one inversion serves both ways: the inverse of inv is the arrow
    back = PowerTable(arrow.displacement_polynomials(), k)
    forward = PowerTable(inv.displacement_polynomials(), k)
    omega_q = form_at(omega, q)
    slots = vector_slots(n, k)
    pulled = {
        s: _pushforward_vector(inv, VectorJetPoint(n, k, p, {s: Fraction(1)}), back)
        for s in slots
    }
    out = {}
    for key in combinations(slots, r) if r else [()]:
        val_q = omega_q.evaluate([pulled[s] for s in key])
        out[key] = _pushforward_function(arrow, val_q, forward)
    return FormAtPoint(n, k, r, p, out)


def arrow_transform_form(arrows, omega):
    """Pointwise transform over a family of arrows: one FormAtPoint per
    arrow target."""
    return {a.target: arrow_transform_form_at(a, omega) for a in arrows}


def _form_basis(n, k, r, poly_degree, members_only=True):
    """Coordinate layout for degree-r forms with coefficient polynomials
    of total degree <= poly_degree.

    With members_only, only filtration-compatible coordinates are kept:
    a coefficient attached to a tuple whose largest argument-slot order
    is M may only populate output slots of order >= M (exactly the
    condition that every order-m projection of the output reads only the
    order-m argument slots).
    """
    slots = vector_slots(n, k)
    keys = list(combinations(slots, r)) if r else [()]
    fslots = function_slots(n, k)
    monos = multi_indices(n, poly_degree)
    layout = []
    for key in keys:
        max_arg = max((order(alpha) for _, alpha in key), default=0)
        for a in fslots:
            if members_only and order(a) < max_arg:
                continue
            layout.extend((key, a, m) for m in monos)
    return layout


def _form_to_vector(omega, layout):
    pos = {coord: i for i, coord in enumerate(layout)}
    v = [Fraction(0)] * len(layout)
    for key, sec in omega.coeffs.items():
        for a, poly in sec.coeffs.items():
            for m, c in poly.coeffs.items():
                coord = (key, a, m)
                if coord not in pos:
                    raise ValueError("form exceeds the coordinate layout")
                v[pos[coord]] = c
    return v


def _vector_to_form(n, k, r, layout, v):
    coeffs = {}
    for coord, c in zip(layout, v):
        if c == 0:
            continue
        key, a, m = coord
        sec = coeffs.setdefault(key, {})
        sec[a] = sec.get(a, Poly.zero(n)) + Poly.monomial(n, m, c)
    return FormKR(
        n, k, r, {key: FunctionJetSection(n, k, sec) for key, sec in coeffs.items()}
    )


def _d_matrix(n, k, r, in_degree, out_degree):
    """Matrix of d from degree-r forms (coefficient degree <= in_degree)
    to degree-(r+1) forms (coefficient degree <= out_degree), as columns."""
    in_layout = _form_basis(n, k, r, in_degree)
    out_layout = _form_basis(n, k, r + 1, out_degree)
    columns = []
    for coord in in_layout:
        key, a, m = coord
        sec = FunctionJetSection(n, k, {a: Poly.monomial(n, m, 1)})
        basis_form = (
            FormKR.from_function_section(sec)
            if r == 0
            else FormKR(n, k, r, {key: sec})
        )
        columns.append(_form_to_vector(exterior_derivative(basis_form), out_layout))
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(len(out_layout))]
    return matrix, in_layout, out_layout


def local_exactness_check(n, k, r, poly_degree):
    """Solvability probe for d at one level of the complex.

    For a basis of d-closed degree-r forms with coefficient polynomial
    degree <= poly_degree, attempts to solve d eta = omega with eta of
    degree r-1 and coefficient degree <= poly_degree + 1 (for r >= 1).
    For r = 0 reports the kernel dimension of d instead.
    """
    if r == 0:
        matrix, in_layout, _ = _d_matrix(n, k, 0, poly_degree, poly_degree)
        kernel = nullspace(matrix, cols=len(in_layout))
        return {
            "n": n,
            "k": k,
            "r": 0,
            "poly_degree": poly_degree,
            "kernel_dimension": len(kernel),
            "kernel_basis": [
                _vector_to_form(n, k, 0, in_layout, v) for v in kernel
            ],
        }
    if r > n:
        raise ValueError("complex is truncated at degree n")
    if r == n:
        # top of the complex: every form is closed
        in_layout = _form_basis(n, k, r, poly_degree)
        closed = [
            [Fraction(1) if i == j else Fraction(0) for i in range(len(in_layout))]
            for j in range(len(in_layout))
        ]
    else:
        matrix, in_layout, _ = _d_matrix(n, k, r, poly_degree, poly_degree)
        closed = nullspace(matrix, cols=len(in_layout))
    prev_matrix, prev_layout, target_layout = _d_matrix(
        n, k, r - 1, poly_degree + 1, poly_degree + 1
    )
    # closed vectors live in the degree <= poly_degree layout; re-embed
    # them in the solve target layout
    target_pos = {coord: i for i, coord in enumerate(target_layout)}
    results = []
    solvable = 0
    for v in closed:
        omega = _vector_to_form(n, k, r, in_layout, v)
        rhs = [Fraction(0)] * len(target_layout)
        for coord, c in zip(in_layout, v):
            rhs[target_pos[coord]] = c
        sol = solve(prev_matrix, rhs)
        ok = sol is not None
        solvable += ok
        results.append(
            {
                "closed_form": omega,
                "exact": ok,
                "primitive": None
                if sol is None
                else _vector_to_form(n, k, r - 1, prev_layout, sol),
            }
        )
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
