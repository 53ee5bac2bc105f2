"""Probes of the jet-order form complex that no command runs: (k,r)
membership and filtration tags, relative-cochain membership, theta
structure algebras, the arrow action on forms, and the local-exactness
probe.

The operators they probe are `forms`' (d, wedge, interior product, Lie
derivative); these functions read forms through their coefficients and
the coordinate layouts below, and import `linalg` or `arrows` when they
run.  A layout flattens degree-r section forms with coefficient
polynomials of bounded degree into coordinate vectors, so the linear
maps of the complex become sparse matrices (`_matrix_of`).
"""

from fractions import Fraction
from functools import partial
from itertools import combinations

from .forms import FormKR, eval_form, exterior_derivative, interior_product, lie_derivative
from .jets import FunctionJetSection, VectorJetPoint, jet_product, slot_layout
from .multiindex import order
from .poly import Poly


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
