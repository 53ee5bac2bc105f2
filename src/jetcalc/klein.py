"""Realized Lie algebras of polynomial vector fields: the isotropy
filtration by vanishing order at a base point (its dimensions read as
ranks, its ghost the one nullspace), the order of the realization, the
jet-evaluation homomorphism, and the projective examples.

Jet evaluation at the base point is linear in the abstract vector, so
every function that evaluates reads one table of basis jets
(`basis_jets`).  A realization keeps the table of the highest order
asked for, and lower orders are its prefixes (vector jet slots are
ordered by order): the filtration and the homomorphism check of one
`klein` run prolong each basis field once."""

from fractions import Fraction
from functools import partial

from .jets import prolong_vector_field, slot_layout, vector_point_from_coords
from .liealg import FiniteLieAlgebra
from .linalg import Echelon, rank
from .multiindex import unit
from .poly import Poly, _as_fraction
from .spencer import algebraic_bracket, bracket_fields


class RealizedLieAlgebra:
    """An abstract Lie algebra together with polynomial vector fields
    realizing its basis on a chart, anchored at a base point."""

    __slots__ = ("algebra", "fields", "n", "point", "_jets")

    def __init__(self, algebra, fields, point, check=True):
        if len(fields) != algebra.dim:
            raise ValueError("one field per abstract basis element")
        self.algebra = algebra
        self.fields = [list(f) for f in fields]
        self.n = len(fields[0])
        for f in self.fields:
            if len(f) != self.n or any(p.n != self.n for p in f):
                raise ValueError("field component dimension mismatch")
        self.point = tuple(_as_fraction(x) for x in point)
        self._jets = []  # the highest-order basis jets built so far
        if check:
            ok, witness = validate_realization(self)
            if not ok:
                raise ValueError(f"realization is not a homomorphism: {witness}")

    def combination(self, coords):
        """The polynomial field realizing an abstract coefficient vector."""
        return [
            sum((f[i] * c for f, c in zip(self.fields, coords) if c), Poly.zero(self.n))
            for i in range(self.n)
        ]

    def jet_at_point(self, coords, k):
        """Order-k jet of the realized field at the base point, in
        fiber coordinates."""
        section = prolong_vector_field(self.combination(coords), k)
        return section.at(self.point).as_vector()

    def basis_jets(self, k):
        """The order-k jets at the base point of the basis fields, one row
        per basis element; the order-m jets, m <= k, are the prefixes of
        the length of the order-m vector slot layout.  The table of the
        highest order asked for is kept, and each call returns fresh
        prefixes of it."""
        width = len(slot_layout("vector", self.n, k).slots)
        if not self._jets or len(self._jets[0]) < width:
            g = self.algebra
            self._jets = [self.jet_at_point(g.basis_vector(b), k) for b in range(g.dim)]
        return [v[:width] for v in self._jets]

    def is_transitive(self):
        values = [
            [p.evaluate(self.point) for p in f] for f in self.fields
        ]
        return rank(values) == self.n


def validate_realization(a):
    """Whether the realization is a Lie algebra homomorphism; returns
    (ok, witness) with the offending basis pair on failure."""
    dim = a.algebra.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            direct = bracket_fields(a.fields[i], a.fields[j])
            image = a.combination(
                a.algebra.bracket(a.algebra.basis_vector(i), a.algebra.basis_vector(j))
            )
            if any(p != q for p, q in zip(direct, image)):
                return False, (i, j)
    return True, None


def isotropy_filtration(a):
    """Dimensions of the decreasing chain h_k of abstract elements whose
    realized fields vanish to order k at the base point, with the
    stabilization order and the ghost (the stable subspace).

    h_k is the left kernel of the order-k basis jets.  One echelon of
    the jet table's slot columns, grown by each order's columns, gives
    dim h_k as dim less its rank.  A polynomial field of degree <= deg
    vanishes iff its order-deg jet at a point does, so h_deg is the
    realization kernel: the chain reaches it by the fields' degree and
    stabilizes exactly where it first does; a dip below it after that
    raises.  The chain is nested, so equal ranks from the stabilization
    order on give one RREF: the nullspace at order deg+1 is the ghost,
    which is cross-checked to be an ideal.
    """
    dim = a.algebra.dim
    deg = max([0] + [p.degree() for f in a.fields for p in f])
    columns = list(zip(*a.basis_jets(deg + 1)))
    span, dims, done = Echelon(), [], 0
    for k in range(deg + 2):
        width = len(slot_layout("vector", a.n, k).slots)
        for column in columns[done:width]:
            span.add_row(column)
        done = width
        dims.append(dim - span.rank)
    order = dims.index(dims[deg])
    if any(d != dims[deg] for d in dims[order:]):
        raise AssertionError("filtration dipped below the realization kernel")
    ghost = span.nullspace(dim)
    ghost_span = Echelon(ghost)
    for b in range(dim):
        for g in ghost:
            br = a.algebra.bracket(a.algebra.basis_vector(b), g)
            if not ghost_span.contains(br):
                raise AssertionError("ghost is not an ideal")
    return {
        "dims": dims[: order + 2],
        "order": order,
        "stabilized": True,
        "ghost_dim": len(ghost),
        "ghost_basis": ghost,
    }


def sigma_homomorphism_check(a, m):
    """Whether jet evaluation at the base point intertwines the abstract
    bracket with the algebraic bracket on jets (which drops one order).
    Passing at order m implies passing at every lower order: projecting
    the jets projects their algebraic bracket."""
    if m < 1:
        raise ValueError("order must be at least 1")
    g = a.algebra
    # the jet at the point is linear in the abstract vector, so the basis
    # jets serve every pair; their prefixes are the order-(m-1) jets
    table = a.basis_jets(m)
    jets = [vector_point_from_coords(a.n, m, a.point, v) for v in table]
    lower = [v[: len(slot_layout("vector", a.n, m - 1).slots)] for v in table]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            direct = [Fraction(0)] * len(lower[0])
            for b, c in g.bracket_row(i, j).items():
                direct = [x + c * y for x, y in zip(direct, lower[b])]
            if algebraic_bracket(jets[i], jets[j]).as_vector() != direct:
                return False
    return True


def sigma_injective(a, m):
    """Whether jet evaluation of order m is injective on the abstract
    algebra."""
    return rank(a.basis_jets(m)) == a.algebra.dim


def realized_jet_family(a, k_max):
    """Solution-style subspaces spanned by the realized jets at the base
    point, for orders 1..k_max: each order's basis jets go in as its
    spanning set, whose rank-raising jets become the basis."""
    from .lie_equations import LinearJetSubspace

    table = a.basis_jets(k_max)
    return [
        LinearJetSubspace(a.n, k, a.point, [v[: len(slot_layout("vector", a.n, k).slots)] for v in table])
        for k in range(1, k_max + 1)
    ]


def klein_order_of_system(family, k_max):
    """Least order m such that every higher restricted projection in the
    family is bijective; reports non-stabilization honestly."""
    from .lie_equations import restrict_projection

    if len(family) < k_max:
        raise ValueError("family must cover orders 1..k_max")
    bijective_from = None
    for m in range(k_max - 1, 0, -1):
        sub_hi = family[m]
        sub_lo = family[m - 1]
        _, rk, ker = restrict_projection(sub_hi, m)
        if rk == sub_lo.dim and ker == 0:
            bijective_from = m
        else:
            break
    return {"order": bijective_from, "stabilized": bijective_from is not None, "k_max": k_max}


def _antisymmetrize(structure):
    """Fill in the reversed-pair structure constants."""
    out = {}
    for (i, j, k), c in structure.items():
        out[(i, j, k)] = c
        out[(j, i, k)] = -c
    return out


def build_affine_example():
    """The affine line: constant and linear fields on one variable."""
    algebra = FiniteLieAlgebra(2, _antisymmetrize({(0, 1, 0): 1}))
    fields = [[Poly.monomial(1, (d,))] for d in range(2)]  # d/dx and x d/dx
    return RealizedLieAlgebra(algebra, fields, (Fraction(0),))


def build_projective_line_example():
    """The projective line: the span of d/dx, x d/dx, x^2 d/dx."""
    structure = {(0, 1, 0): 1, (0, 2, 1): 2, (1, 2, 2): 1}
    algebra = FiniteLieAlgebra(3, _antisymmetrize(structure))
    fields = [[Poly.monomial(1, (d,))] for d in range(3)]
    return RealizedLieAlgebra(algebra, fields, (Fraction(0),))


def build_projective_example(n):
    """The full linear algebra of the (n+1)-dimensional space, realized
    by the fractional-linear fields on the standard n-dimensional chart:
    the basis cell (u, v) acts by x_v d/d x_u for u, v < n, the last
    column gives translations, the last row the degree-two fields
    -x_v sum_a x_a d/d x_a, and the corner the radial field."""
    if n < 1:
        raise ValueError("chart dimension must be at least 1")
    m = n + 1
    cells = [(u, v) for u in range(m) for v in range(m)]
    pos = {c: i for i, c in enumerate(cells)}
    structure = {}
    for p, (u, v) in enumerate(cells):
        for q, (w, z) in enumerate(cells):
            if q <= p:
                continue
            out = {}
            if v == w:
                out[(u, z)] = out.get((u, z), 0) + 1
            if z == u:
                out[(w, v)] = out.get((w, v), 0) - 1
            for cell, c in out.items():
                if c != 0:
                    structure[(p, q, pos[cell])] = c
    algebra = FiniteLieAlgebra(m * m, _antisymmetrize(structure))
    e = partial(unit, n)
    radial = [Poly.monomial(n, e(a)) for a in range(n)]
    fields = []
    for u, v in cells:
        if u < n and v < n:
            comps = [Poly.zero(n) for _ in range(n)]
            comps[u] = Poly.monomial(n, e(v))
        elif u < n and v == n:
            comps = [Poly.zero(n) for _ in range(n)]
            comps[u] = Poly.const(n, 1)
        elif u == n and v < n:
            comps = [
                Poly.monomial(n, e(v), -1) * radial_component
                for radial_component in radial
            ]
        else:
            comps = [Poly.monomial(n, e(a), -1) for a in range(n)]
        # the flow construction yields an anti-homomorphism; negate to
        # land in the stated structure constants
        fields.append([-p for p in comps])
    return RealizedLieAlgebra(algebra, fields, (Fraction(0),) * n)
