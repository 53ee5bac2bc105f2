"""Linear Lie equations at a base point: Killing and symplectic
systems built from structure jets, prolongation/surjectivity reports
read as pivot counts of one echelon of the invariance rows, Levi-Civita
extraction with the unique second-order completion, anchor-exactness
checks, bracket closure, and conjugation of systems by arrows.
Levi-Civita and the Killing completion share one Koszul formula, `_koszul`;
every slot sum and binomial is read from the `jets.slot_layout` tables."""

from fractions import Fraction
from functools import reduce
from math import lcm

from .jets import prolong_function, prolong_vector_field, slot_layout
from .linalg import Echelon, determinant, invert
from .multiindex import is_natural, order, unit
from .poly import Poly, _as_fraction


class StructureJet:
    """Jet of a metric or 2-form at a base point.

    Coefficients c[(i, j, alpha)] are the derivative values of the
    component functions; symmetric in (i, j) for metrics, antisymmetric
    for 2-forms (stored on i < j).  Component indices must lie in
    0..n-1 and alpha must list n naturals; anything else raises
    ValueError.  Only nonzero values are stored, once the given entries
    are checked against each other; `slot` reads any slot.
    """

    __slots__ = ("kind", "n", "order", "point", "coeffs")

    def __init__(self, kind, n, order_, point, coeffs):
        if kind not in ("metric", "two_form"):
            raise ValueError("kind must be 'metric' or 'two_form'")
        self.kind = kind
        self.n = n
        self.order = order_
        self.point = tuple(_as_fraction(x) for x in point)
        if len(self.point) != n:
            raise ValueError("base point dimension mismatch")
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
            if kind == "two_form" and i == j:
                if c != 0:
                    raise ValueError("2-form diagonal must vanish")
                continue
            key = (min(i, j), max(i, j), alpha)
            v = -c if kind == "two_form" and i > j else c
            if table.get(key, v) != v:
                word = "symmetric" if kind == "metric" else "antisymmetric"
                raise ValueError(f"inconsistent {word} entries")
            table[key] = v
        self.coeffs = {key: v for key, v in table.items() if v}

    @classmethod
    def from_polynomial_matrix(cls, kind, polys, order_, point):
        """Structure jet of a polynomial component matrix at a point."""
        n = len(polys)
        coeffs = {}
        for i in range(n):
            for j in range(n):
                for alpha, c in prolong_function(polys[i][j], order_).at(point).coeffs.items():
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
        return determinant(self.order0_matrix()) != 0

    def is_closed(self):
        """For 2-forms: whether the cyclic sum of first derivatives of
        every component vanishes, at all slot orders the jet can see."""
        if self.kind != "two_form":
            raise ValueError("closedness applies to 2-forms")
        n, raised = self.n, slot_layout("function", self.n, self.order).raised
        for alpha in slot_layout("function", n, self.order - 1).slots:
            for i in range(n):
                for j in range(i + 1, n):
                    for l in range(j + 1, n):
                        total = (
                            self.slot(j, l, raised[alpha, i])
                            - self.slot(i, l, raised[alpha, j])
                            + self.slot(i, j, raised[alpha, l])
                        )
                        if total != 0:
                            return False
        return True


class LinearJetSubspace:
    """A subspace of the order-k vector-jet fiber at a point, presented
    by a spanning set in the canonical slot coordinates: its basis is the
    vectors that raise the rank, in the order given.  The subspace keeps
    the echelon (RREF) of its span, which answers `contains` and
    `restrict_projection`."""

    __slots__ = ("n", "k", "point", "basis", "_span")

    def __init__(self, n, k, point, basis):
        self.n = n
        self.k = k
        self.point = tuple(_as_fraction(x) for x in point)
        if len(self.point) != n:
            raise ValueError("base point dimension mismatch")
        width = len(slot_layout("vector", n, k).slots)
        if any(len(v) != width for v in basis):
            raise ValueError("basis vector has wrong fiber dimension")
        self._span = Echelon()
        self.basis = [list(v) for v in basis if self._span.add_row(v)]

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
    L_X (structure) = 0 on the order-k fiber, one per multi-index alpha,
    |alpha| <= k-1 in function slot order, and component pair.  Rows are
    sparse {column: int}: the system is linear in the structure, whose
    slots are scaled by the lcm of their denominators.  A row reads fiber
    slots of order <= |alpha| + 1, which come first in the fiber, so the
    order-(k-1) system is a prefix of the order-k one.  A row is three jet
    products, each with a structure slot rest as left factor: the terms
    (beta, alpha, C(alpha, rest)) are the order-(k-1) `products[rest]`."""
    n = structure.n
    if k < 1:
        raise ValueError("system order must be at least 1")
    if structure.order < k:
        raise ValueError(
            f"structure jet of order {structure.order} cannot support order {k}"
        )
    if not structure.is_invertible():
        raise ValueError("structure is singular at the base point")
    pos, raised = slot_layout("vector", n, k).pos, slot_layout("function", n, k).raised
    lower = slot_layout("function", n, k - 1)
    den = reduce(lcm, [c.denominator for c in structure.coeffs.values()], 1)
    sign = 1 if structure.kind == "metric" else -1
    # the nonzero slots as ints: g(u, v, gamma) listed under (u, gamma),
    # and g(i, j, rest + e_a) under (i, j, rest) for the transport term
    first, transport, at_slot = {}, {}, {}
    for (i, j, gamma), c in structure.coeffs.items():
        c = c.numerator * (den // c.denominator)
        first.setdefault((i, gamma), []).append((j, c))
        if i != j:
            first.setdefault((j, gamma), []).append((i, sign * c))
        at_slot.setdefault(gamma, []).append((i, j, c))
    for (rest, a), gamma in raised.items():
        for i, j, c in at_slot.get(gamma, ()):
            transport.setdefault((i, j, rest), []).append((a, c))
    pairs = [(i, j) for i in range(n) for j in range(i + (sign < 0), n)]
    rows = {(alpha, pair): {} for alpha in lower.slots for pair in pairs}
    for i, j in pairs:
        for rest in lower.slots:
            hits = (transport.get((i, j, rest)), first.get((j, rest)), first.get((i, rest)))
            if not any(hits):
                continue
            # d^alpha of xi^a d_a g_ij + g_aj d_i xi^a + g_ia d_j xi^a, with
            # d^rest on g and d^beta on xi; g_aj = sign * g_ja
            for beta, alpha, c in lower.products[rest]:
                row = rows[alpha, (i, j)]
                shifts = ((beta, c), (raised[beta, i], sign * c), (raised[beta, j], c))
                for slots, (b, f) in zip(hits, shifts):
                    for a, x in slots or ():
                        col = pos[a, b]
                        row[col] = row.get(col, 0) + f * x
    return [{col: x for col, x in row.items() if x} for row in rows.values()]


def killing_system(g, k):
    """Sparse equation rows for metric-preserving vector jets of order k."""
    if g.kind != "metric":
        raise ValueError("killing_system needs a metric structure jet")
    return _lie_derivative_rows(g, k)


def symplectic_system(omega, k, require_closed=False):
    """Sparse equation rows for 2-form-preserving vector jets of order k."""
    if omega.kind != "two_form":
        raise ValueError("symplectic_system needs a 2-form structure jet")
    if omega.n % 2 != 0:
        raise ValueError("nondegenerate 2-forms need even dimension")
    if require_closed and not omega.is_closed():
        raise ValueError("2-form jet is not closed to the available order")
    return _lie_derivative_rows(omega, k)


def _system(structure, k):
    """The Killing or symplectic rows, as the structure's kind asks."""
    system = killing_system if structure.kind == "metric" else symplectic_system
    return system(structure, k)


def solve_system(structure, k):
    """Solution subspace of the invariance system on the order-k fiber."""
    width = len(slot_layout("vector", structure.n, k).slots)
    basis = Echelon(_system(structure, k)).nullspace(width)
    return LinearJetSubspace(structure.n, k, structure.point, basis)


def restrict_projection(sub, m):
    """Image of a subspace under pi_{k,m}, 0 <= m <= k, with the
    projection's rank and kernel dimension on the subspace.  The order-m
    slots are a prefix of the order-k ones, so an RREF row of the span
    with its pivot in that prefix keeps an independent image and every
    other row projects to zero: the rank is the count of such pivots."""
    if not 0 <= m <= sub.k:
        raise ValueError(f"projection order {m} out of range 0..{sub.k}")
    width = len(slot_layout("vector", sub.n, m).slots)
    rk = sum(p < width for p in sub._span.pivots)
    return [v[:width] for v in sub.basis], rk, sub.dim - rk


def prolongation_report(structure, k_max):
    """Solution dimensions and restricted-projection surjectivity for
    orders 1..k_max; formal-integrability evidence only, up to the
    probed order."""
    return _prolongation(structure, k_max)[0]


def _prolongation(structure, k_max):
    """The prolongation report and the anchor report at order k_max.
    The order-k system is a prefix of the order-k_max one, so one echelon
    grows by the rows of |alpha| = k-1 at each order k.  Its columns are
    negated, so each pivot is its row's highest slot, and the rows
    pivoted among the order-m slots span the equations on those slots
    alone, the annihilator of the order-m image of R_k: the image rank is
    the order-m width less their count, and m = k gives dim R_k."""
    n = structure.n
    rows = _system(structure, k_max)
    widths = [len(slot_layout("vector", n, m).slots) for m in range(k_max + 1)]
    per_alpha = len(rows) // len(slot_layout("function", n, k_max - 1).slots)
    equations, orders, done = Echelon(), [], 0

    def image_rank(m):
        return widths[m] - sum(-p < widths[m] for p in equations.pivots)

    for k in range(1, k_max + 1):
        top = per_alpha * len(slot_layout("function", n, k - 1).slots)
        for row in rows[done:top]:
            equations.add_row({-c: x for c, x in row.items()})
        done = top
        entry = {"k": k, "dim": image_rank(k)}
        if k > 1:
            rk, prev = image_rank(k - 1), orders[-1]["dim"]
            if rk > prev:  # the order-(k-1) rows are among the order-k ones
                raise AssertionError("projection left the lower solution space")
            ker = entry["dim"] - rk
            entry.update(projection_rank=rk, kernel_dim=ker, surjective=rk == prev,
                         bijective=rk == prev and ker == 0)
        orders.append(entry)
    report = {"kind": structure.kind, "n": n, "k_max": k_max, "orders": orders}
    return report, _anchor(n, orders[-1]["dim"], image_rank(0))


class Christoffel:
    """Symbols gamma[(i, j, k)], symmetric in the lower pair (j, k),
    stored on j <= k.  Only nonzero symbols are stored, once the given
    entries are checked for symmetry; `value` reads any symbol."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        table = {}
        for (i, j, k), c in coeffs.items():
            c = _as_fraction(c)
            key = (i, min(j, k), max(j, k))
            if table.get(key, c) != c:
                raise ValueError("symbols not symmetric in the lower pair")
            table[key] = c
        self.coeffs = {key: c for key, c in table.items() if c}

    def value(self, i, j, k):
        return self.coeffs.get((i, min(j, k), max(j, k)), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Christoffel):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Christoffel(n={self.n}, {self.coeffs})"


def _koszul(g, r):
    """{(i, j, k): sum_a g^{ia} (r(a, j, k) + r(a, k, j) - r(j, k, a)) / 2}
    for j <= k, g^{ia} the inverse of the metric's order-0 matrix: the
    unique solution x, symmetric in (j, k), of
    g_ab x^b_jk + g_jb x^b_ak = r(a, j, k) for an r symmetric in (a, j)."""
    n = g.n
    ginv = invert(g.order0_matrix())
    out = {}
    for j in range(n):
        for k in range(j, n):
            lowered = [(r(a, j, k) + r(a, k, j) - r(j, k, a)) / 2 for a in range(n)]
            for i in range(n):
                out[(i, j, k)] = sum((ginv[i][a] * lowered[a] for a in range(n)), Fraction(0))
    return out


def levi_civita(g):
    """The unique symmetric metric connection, from the metric 1-jet."""
    if g.kind != "metric":
        raise ValueError("levi_civita needs a metric structure jet")
    if g.order < 1:
        raise ValueError("need the metric 1-jet")
    return Christoffel(g.n, _koszul(g, lambda a, j, k: g.slot(a, j, unit(g.n, k))))


def killing_order2_completion(g, low_coords):
    """Second-order slots of a Killing 2-jet, as the unique completion
    of its order-<=1 part.

    Differentiating the invariance equation once gives
    g_ia xi^a_jk + g_ja xi^a_ik = r(i, j, k), and `_koszul` solves it
    for xi^i_jk, as it solves for the Levi-Civita symbols.  Returns
    xi^i_jk as a table (i, alpha) -> value for |alpha| = 2.
    """
    n = g.n
    if g.order < 2:
        raise ValueError("need the metric 2-jet (extend by zero if flat)")
    xi = dict(zip(slot_layout("vector", n, 1).slots, low_coords))
    z, raised = (0,) * n, slot_layout("function", n, 2).raised

    def r_term(i, j, k):
        total = Fraction(0)
        for a in range(n):
            total -= xi[a, z] * g.slot(i, j, raised[unit(n, a), k])
            total -= xi[a, unit(n, k)] * g.slot(i, j, unit(n, a))
            total -= g.slot(a, j, unit(n, k)) * xi[a, unit(n, i)]
            total -= g.slot(i, a, unit(n, k)) * xi[a, unit(n, j)]
        return total

    return {(i, raised[unit(n, j), k]): c for (i, j, k), c in _koszul(g, r_term).items()}


def _anchor(n, dim, rk):
    """Anchor surjectivity onto the tangent fiber and the kernel dimension
    identity, for a solution space of dimension dim whose order-0
    projection has rank rk."""
    ker = dim - rk
    return {"dim": dim, "anchor_rank": rk, "anchor_surjective": rk == n,
            "kernel_dim": ker, "exact": rk == n and ker == dim - n}


def atiyah_exactness(sub):
    """`_anchor` of a solution subspace: its order-0 slots are the tangent fiber."""
    return _anchor(sub.n, sub.dim, restrict_projection(sub, 0)[1])


def linear_solution_sections(structure, k):
    """Polynomial (affine) vector fields spanning the solutions of a
    constant-coefficient structure's order-1 system, prolonged to order
    k.  Only valid when all order->=1 structure slots vanish."""
    n = structure.n
    if any(order(alpha) >= 1 for _, _, alpha in structure.coeffs):
        raise ValueError("structure is not constant-coefficient")
    sub = solve_system(structure, 1)
    slots1 = slot_layout("vector", n, 1).slots
    sections = []
    for v in sub.basis:
        # an order-0 or order-1 slot value is the coefficient of x^alpha
        comps = [
            Poly(n, {alpha: c for (c_i, alpha), c in zip(slots1, v) if c_i == i})
            for i in range(n)
        ]
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
    from .arrows import pushforward_vector_jets

    if arrow.source != sub.point:
        raise ValueError("arrow is not based at the subspace point")
    if arrow.n != sub.n or arrow.k != sub.k + 1:
        raise ValueError("need an arrow of order k+1")
    pushed = [x.as_vector() for x in pushforward_vector_jets(arrow, sub.jets())]
    return LinearJetSubspace(sub.n, sub.k, arrow.target, pushed)


def subspaces_equal(a, b):
    same_fiber = (a.n, a.k, a.point, a.dim) == (b.n, b.k, b.point, b.dim)
    return same_fiber and all(a.contains(v) for v in b.basis)
