"""Solutions of the linear Lie equations of `lie_equations` as
subspaces of the vector-jet fiber at a point: `LinearJetSubspace`, the
nullspace of `invariance_system` (`solve_system`) and its restricted
projections, the prolongation and anchor-exactness reports read off it,
bracket closure, conjugation by arrows, and the affine solution fields
of a constant structure.  Beside them the Levi-Civita connection and the
unique second-order completion of a Killing jet, which share one Koszul
formula, `_koszul`.

The `prolong` command runs `lie_equations._prolongation` on the
invariance rows alone; nothing here is on its path."""

from fractions import Fraction

from .jets import prolong_vector_field, slot_layout, vector_point_from_coords
from .lie_equations import _anchor, _prolongation, invariance_system
from .linalg import Echelon, invert
from .multiindex import order, unit
from .poly import Poly, _as_fraction


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
        return [
            vector_point_from_coords(self.n, self.k, self.point, v)
            for v in self.basis
        ]


def solve_system(structure, k):
    """Solution subspace of the invariance system on the order-k fiber."""
    width = len(slot_layout("vector", structure.n, k).slots)
    basis = Echelon(invariance_system(structure, k)).nullspace(width)
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
