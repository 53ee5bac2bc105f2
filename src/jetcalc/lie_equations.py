"""Linear Lie equations at a base point: Killing and symplectic
systems built from structure jets, prolongation/surjectivity reports,
Levi-Civita extraction with the unique second-order completion,
anchor-exactness checks, bracket closure, and conjugation of systems by
arrows."""

from fractions import Fraction

from .arrows import _inverse_table, _pushforward_vector
from .jets import vector_slots
from .linalg import Echelon, invert, nullspace, rank
from .multiindex import (
    add,
    is_natural,
    multi_binomial,
    multi_indices,
    order,
    sub,
    sub_indices,
    unit,
)
from .poly import Poly, _as_fraction


class StructureJet:
    """Jet of a metric or 2-form at a base point.

    Coefficients c[(i, j, alpha)] are the derivative values of the
    component functions; symmetric in (i, j) for metrics, antisymmetric
    for 2-forms (stored on i < j).  Component indices must lie in
    0..n-1 and alpha must list n naturals; anything else raises
    ValueError.
    """

    __slots__ = ("kind", "n", "order", "point", "coeffs")

    def __init__(self, kind, n, order_, point, coeffs):
        if kind not in ("metric", "two_form"):
            raise ValueError("kind must be 'metric' or 'two_form'")
        self.kind = kind
        self.n = n
        self.order = order_
        self.point = tuple(_as_fraction(x) for x in point)
        table = {}
        for (i, j, alpha), c in coeffs.items():
            if not all(is_natural(x) and x < n for x in (i, j)):
                raise ValueError(f"component indices {i!r}, {j!r} not in 0..{n - 1}")
            alpha = tuple(alpha)
            if len(alpha) != n or not all(is_natural(a) for a in alpha):
                raise ValueError(f"multi-index {list(alpha)!r} must list {n} naturals")
            if order(alpha) > order_:
                raise ValueError("slot exceeds the declared jet order")
            c = _as_fraction(c)
            if kind == "metric":
                key = (min(i, j), max(i, j), alpha)
                if key in table and table[key] != c:
                    raise ValueError("inconsistent symmetric entries")
                table[key] = c
            else:
                if i == j:
                    if c != 0:
                        raise ValueError("2-form diagonal must vanish")
                    continue
                key = (min(i, j), max(i, j), alpha)
                v = c if i < j else -c
                if key in table and table[key] != v:
                    raise ValueError("inconsistent antisymmetric entries")
                table[key] = v
        self.coeffs = table

    @classmethod
    def from_polynomial_matrix(cls, kind, polys, order_, point):
        """Structure jet of a polynomial component matrix at a point."""
        n = len(polys)
        point = tuple(_as_fraction(x) for x in point)
        coeffs = {}
        for i in range(n):
            for j in range(n):
                for alpha in multi_indices(n, order_):
                    c = polys[i][j].derivative_value(alpha, point)
                    if c != 0:
                        coeffs[(i, j, alpha)] = c
        return cls(kind, n, order_, point, coeffs)

    def slot(self, i, j, alpha):
        alpha = tuple(alpha)
        if order(alpha) > self.order:
            raise ValueError(f"slot {alpha} exceeds jet order {self.order}")
        key = (min(i, j), max(i, j), alpha)
        c = self.coeffs.get(key, Fraction(0))
        if self.kind == "two_form" and i > j:
            return -c
        return c

    def order0_matrix(self):
        return [
            [self.slot(i, j, (0,) * self.n) for j in range(self.n)]
            for i in range(self.n)
        ]

    def is_invertible(self):
        try:
            invert(self.order0_matrix())
        except ValueError:
            return False
        return True

    def is_closed(self):
        """For 2-forms: whether the cyclic sum of first derivatives of
        every component vanishes, at all slot orders the jet can see."""
        if self.kind != "two_form":
            raise ValueError("closedness applies to 2-forms")
        n = self.n
        for alpha in multi_indices(n, self.order - 1):
            for i in range(n):
                for j in range(i + 1, n):
                    for l in range(j + 1, n):
                        total = (
                            self.slot(j, l, add(alpha, unit(n, i)))
                            - self.slot(i, l, add(alpha, unit(n, j)))
                            + self.slot(i, j, add(alpha, unit(n, l)))
                        )
                        if total != 0:
                            return False
        return True


class LinearJetSubspace:
    """A subspace of the order-k vector-jet fiber at a point, presented
    by a basis in the canonical slot coordinates."""

    __slots__ = ("n", "k", "point", "basis", "_span")

    def __init__(self, n, k, point, basis):
        self.n = n
        self.k = k
        self.point = tuple(_as_fraction(x) for x in point)
        width = len(vector_slots(n, k))
        for v in basis:
            if len(v) != width:
                raise ValueError("basis vector has wrong fiber dimension")
        # the echelon of the independence check answers every contains
        self._span = Echelon()
        for v in basis:
            if not self._span.add_row(v):
                raise ValueError("basis is linearly dependent")
        self.basis = [list(v) for v in basis]

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vector):
        return self._span.contains(vector)

    def contains_jet(self, jet_point):
        return self.contains(jet_point.as_vector())

    def jets(self):
        from .jets import vector_point_from_coords

        return [
            vector_point_from_coords(self.n, self.k, self.point, v)
            for v in self.basis
        ]


def _lie_derivative_rows(structure, k):
    """Equation rows of the prolonged infinitesimal invariance system
    L_X (structure) = 0 on the order-k fiber, one row per component pair
    and derivative multi-index of order <= k-1."""
    n = structure.n
    if k < 1:
        raise ValueError("system order must be at least 1")
    if structure.order < k:
        raise ValueError(
            f"structure jet of order {structure.order} cannot support order {k}"
        )
    if not structure.is_invertible():
        raise ValueError("structure is singular at the base point")
    slots = vector_slots(n, k)
    pos = {s: i for i, s in enumerate(slots)}
    pairs = (
        [(i, j) for i in range(n) for j in range(i, n)]
        if structure.kind == "metric"
        else [(i, j) for i in range(n) for j in range(i + 1, n)]
    )
    rows = []
    for alpha in multi_indices(n, k - 1):
        for i, j in pairs:
            row = [Fraction(0)] * len(slots)
            for beta in sub_indices(alpha):
                c = multi_binomial(alpha, beta)
                rest = sub(alpha, beta)
                for a in range(n):
                    # transport term xi^a d_a g_ij, differentiated
                    s = structure.slot(i, j, add(rest, unit(n, a)))
                    if s:
                        row[pos[(a, beta)]] += c * s
                    # frame terms g_aj d_i xi^a and g_ia d_j xi^a
                    s = structure.slot(a, j, rest)
                    if s:
                        row[pos[(a, add(beta, unit(n, i)))]] += c * s
                    s = structure.slot(i, a, rest)
                    if s:
                        row[pos[(a, add(beta, unit(n, j)))]] += c * s
            rows.append(row)
    return rows


def killing_system(g, k):
    """Linear equations for metric-preserving vector jets of order k."""
    if g.kind != "metric":
        raise ValueError("killing_system needs a metric structure jet")
    return _lie_derivative_rows(g, k)


def symplectic_system(omega, k, require_closed=False):
    """Linear equations for 2-form-preserving vector jets of order k."""
    if omega.kind != "two_form":
        raise ValueError("symplectic_system needs a 2-form structure jet")
    if omega.n % 2 != 0:
        raise ValueError("nondegenerate 2-forms need even dimension")
    if require_closed and not omega.is_closed():
        raise ValueError("2-form jet is not closed to the available order")
    return _lie_derivative_rows(omega, k)


def solve_system(structure, k):
    """Solution subspace of the invariance system on the order-k fiber."""
    rows = (
        killing_system(structure, k)
        if structure.kind == "metric"
        else symplectic_system(structure, k)
    )
    width = len(vector_slots(structure.n, k))
    basis = nullspace(rows, cols=width)
    return LinearJetSubspace(structure.n, k, structure.point, basis)


def restrict_projection(sub, m):
    """Image of a subspace under pi_{k,m}, with the projection's rank
    and kernel dimension on the subspace."""
    low_slots = vector_slots(sub.n, m)
    slots = vector_slots(sub.n, sub.k)
    keep = [i for i, s in enumerate(slots) if s in set(low_slots)]
    images = [[v[i] for i in keep] for v in sub.basis]
    rk = rank(images) if images else 0
    return images, rk, sub.dim - rk


def prolongation_report(structure, k_max):
    """Solution dimensions and restricted-projection surjectivity for
    orders 1..k_max; formal-integrability evidence only, up to the
    probed order."""
    return _prolongation(structure, k_max)[0]


def _prolongation(structure, k_max):
    """The prolongation report and the order-k_max solution subspace."""
    orders = []
    prev = None
    for k in range(1, k_max + 1):
        sub = solve_system(structure, k)
        entry = {"k": k, "dim": sub.dim}
        if prev is not None:
            images, rk, ker = restrict_projection(sub, k - 1)
            onto = rk == prev.dim
            entry.update(
                {
                    "projection_rank": rk,
                    "kernel_dim": ker,
                    "surjective": onto,
                    "bijective": onto and ker == 0,
                }
            )
            if images and not all(prev.contains(v) for v in images):
                raise AssertionError("projection left the lower solution space")
        orders.append(entry)
        prev = sub
    report = {
        "kind": structure.kind,
        "n": structure.n,
        "k_max": k_max,
        "orders": orders,
    }
    return report, prev


class Christoffel:
    """Symbols gamma[(i, j, k)], symmetric in the lower pair (j, k)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = {}
        for (i, j, k), c in coeffs.items():
            c = _as_fraction(c)
            key = (i, min(j, k), max(j, k))
            if key in self.coeffs and self.coeffs[key] != c:
                raise ValueError("symbols not symmetric in the lower pair")
            self.coeffs[key] = c

    def value(self, i, j, k):
        return self.coeffs.get((i, min(j, k), max(j, k)), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Christoffel):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return self.n == other.n and all(
            self.coeffs.get(k, Fraction(0)) == other.coeffs.get(k, Fraction(0))
            for k in keys
        )

    def __repr__(self):
        nz = {k: c for k, c in self.coeffs.items() if c}
        return f"Christoffel(n={self.n}, {nz})"


def levi_civita(g):
    """The unique symmetric metric connection, from the metric 1-jet."""
    if g.kind != "metric":
        raise ValueError("levi_civita needs a metric structure jet")
    if g.order < 1:
        raise ValueError("need the metric 1-jet")
    n = g.n
    ginv = invert(g.order0_matrix())
    coeffs = {}
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                total = Fraction(0)
                for a in range(n):
                    total += ginv[i][a] * (
                        g.slot(a, j, unit(n, k))
                        + g.slot(a, k, unit(n, j))
                        - g.slot(j, k, unit(n, a))
                    )
                coeffs[(i, j, k)] = total / 2
    return Christoffel(n, coeffs)


def killing_order2_completion(g, low_coords):
    """Second-order slots of a Killing 2-jet, as the unique completion
    of its order-<=1 part.

    Differentiating the invariance equation once and symmetrizing (the
    same index trick that produces the Levi-Civita symbols) solves for
    g_ia xi^a_jk in closed form.  Returns xi^i_jk as a table
    (i, alpha) -> value for |alpha| = 2.
    """
    n = g.n
    if g.order < 2:
        raise ValueError("need the metric 2-jet (extend by zero if flat)")
    slots1 = vector_slots(n, 1)
    pos = {s: i for i, s in enumerate(slots1)}
    z = (0,) * n

    def xi(a, alpha):
        return low_coords[pos[(a, tuple(alpha))]]

    def r_term(i, j, k):
        total = Fraction(0)
        for a in range(n):
            total -= xi(a, z) * g.slot(i, j, add(unit(n, a), unit(n, k)))
            total -= xi(a, unit(n, k)) * g.slot(i, j, unit(n, a))
            total -= g.slot(a, j, unit(n, k)) * xi(a, unit(n, i))
            total -= g.slot(i, a, unit(n, k)) * xi(a, unit(n, j))
        return total

    ginv = invert(g.order0_matrix())
    table = {}
    for j in range(n):
        for k in range(j, n):
            alpha = add(unit(n, j), unit(n, k))
            # lowered[a] = g_ab xi^b_{jk}, by the symmetrization trick
            lowered = [
                (r_term(a, j, k) + r_term(a, k, j) - r_term(j, k, a)) / 2
                for a in range(n)
            ]
            for i in range(n):
                table[(i, alpha)] = sum(
                    (ginv[i][a] * lowered[a] for a in range(n)), Fraction(0)
                )
    return table


def atiyah_exactness(sub):
    """Anchor surjectivity onto the tangent fiber and the kernel
    dimension identity for a solution subspace."""
    n = sub.n
    anchor = [v[:n] for v in sub.basis]
    anchor_rank = rank(anchor) if anchor else 0
    kernel_dim = sub.dim - anchor_rank
    return {
        "dim": sub.dim,
        "anchor_rank": anchor_rank,
        "anchor_surjective": anchor_rank == n,
        "kernel_dim": kernel_dim,
        "exact": anchor_rank == n and kernel_dim == sub.dim - n,
    }


def linear_solution_sections(structure, k):
    """Polynomial (affine) vector fields spanning the solutions of a
    constant-coefficient structure's order-1 system, prolonged to order
    k.  Only valid when all order->=1 structure slots vanish."""
    n = structure.n
    for (i, j, alpha), c in structure.coeffs.items():
        if order(alpha) >= 1 and c != 0:
            raise ValueError("structure is not constant-coefficient")
    from .jets import prolong_vector_field

    sub = solve_system(structure, 1)
    slots1 = vector_slots(n, 1)
    sections = []
    for v in sub.basis:
        comps = []
        for i in range(n):
            p = Poly.zero(n)
            for idx, (c_i, alpha) in enumerate(slots1):
                if c_i != i or v[idx] == 0:
                    continue
                if order(alpha) == 0:
                    p = p + Poly.const(n, v[idx])
                else:
                    j = alpha.index(1)
                    p = p + Poly.monomial(n, unit(n, j), v[idx])
            comps.append(p)
        sections.append(prolong_vector_field(comps, k))
    return sections


def bracket_closure_check(sections, sub):
    """Whether Spencer brackets of the spanning sections land in the
    solution subspace at its base point."""
    from .spencer import spencer_bracket

    for i, x in enumerate(sections):
        for y in sections[i:]:
            br = spencer_bracket(x, y).at(sub.point)
            if not sub.contains_jet(br):
                return False
    return True


def ad_transform_subspace(arrow, sub):
    """Conjugated solution subspace: pushforward of each basis jet along
    an arrow of order k+1 based at the subspace's point."""
    if arrow.source != sub.point:
        raise ValueError("arrow is not based at the subspace point")
    if arrow.n != sub.n or arrow.k != sub.k + 1:
        raise ValueError("need an arrow of order k+1")
    back = _inverse_table(arrow, sub.k)
    pushed = [_pushforward_vector(arrow, jet, back).as_vector() for jet in sub.jets()]
    return LinearJetSubspace(sub.n, sub.k, arrow.target, pushed)


def subspaces_equal(a, b):
    if (a.n, a.k, a.point) != (b.n, b.k, b.point):
        return False
    if a.dim != b.dim:
        return False
    return all(a.contains(v) for v in b.basis)
