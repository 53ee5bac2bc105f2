"""k-arrows: k-jets of local diffeomorphisms with a source and a target.

An Arrow stores the Taylor data of the underlying diffeomorphism as
derivative values c[(i, alpha)] for 1 <= |alpha| <= k; the |alpha| = 0
data is the target point.  Every operation works in local coordinates,
u = x - source and v = y - target, where the arrow is its displacement
A(u) = sum_alpha c[(i, alpha)] / alpha! * u^alpha, a truncated power
series without constant term.  Slot values and Taylor coefficients
differ only by the factor alpha!, and `_taylor` / `_slot_values` are
the one conversion between them.  On that single Taylor path:

- composition is the truncated series composition B(A(u));
- inversion solves C(A(u)) = u degree by degree;
- a function jet f is carried to F(C(v)), and a vector jet X to
  (DA . X)(C(v)), where F and X are local Taylor polynomials at the
  source and C is the displacement of the inverse arrow.

One `poly.PowerTable` serves a substitution: every component composed
into A, L^{-1} or C shares its truncated powers.  The batch pushforwards
`pushforward_vector_jets` and `pushforward_function_jets` carry many
jets along one arrow through one table on C (and one DA for vectors);
the single-jet functions are batches of one.

Each arrow pair is inverted once: `invert_arrow(a)` links a to its
inverse (`_inverse`) and the inverse back to a by a weak reference,
since the truncated inverse of the inverse is the arrow, and every
pushforward reads C from that link, inverting an unlinked arrow first.
An arrow keeps its inverse alive but not the other way round, so a pair
is freed as soon as the last reference to the arrow is dropped, with no
cycle left for the garbage collector; an inverse whose arrow is gone
inverts again when asked.  A pushforward or
`forms.arrow_transform_form_at` along an unlinked arrow links it too.
The slot table `coeffs` is a read-only view; the other fields of an
arrow must not be reassigned either, or its link goes stale.  Pickling
or copying an arrow drops its link.
"""

import weakref
from fractions import Fraction
from types import MappingProxyType

from .linalg import determinant, invert as mat_invert
from .multiindex import factorial, order, unit
from .poly import Poly, PowerTable, _as_fraction
from .jets import FunctionJetPoint, VectorJetPoint, prolong_vector_field, slot_layout


def _taylor(n, values):
    """The local Taylor polynomial of derivative values {alpha: value}:
    the coefficient of u^alpha is value / alpha!."""
    return Poly(n, {alpha: v / factorial(alpha) for alpha, v in values.items()})


def _slot_values(p):
    """Inverse of `_taylor`: the derivative values {alpha: alpha! * coefficient}."""
    return {alpha: c * factorial(alpha) for alpha, c in p.terms()}


def _taylor_components(n, table):
    """One local Taylor polynomial per component of an (i, alpha) slot table."""
    parts = [{} for _ in range(n)]
    for (i, alpha), v in table.items():
        parts[i][alpha] = v
    return [_taylor(n, part) for part in parts]


def _component_slots(polys):
    """Inverse of `_taylor_components`."""
    return {(i, alpha): v for i, p in enumerate(polys) for alpha, v in _slot_values(p).items()}


class Arrow:
    __slots__ = ("n", "k", "source", "target", "coeffs", "_inverse", "__weakref__")

    def __init__(self, n, k, source, target, coeffs=None):
        if n <= 0:
            raise ValueError("chart dimension must be positive")
        if k < 1:
            raise ValueError("arrow order must be at least 1")
        self.n = n
        self.k = k
        self.source = tuple(_as_fraction(x) for x in source)
        self.target = tuple(_as_fraction(x) for x in target)
        if len(self.source) != n or len(self.target) != n:
            raise ValueError("point dimension mismatch")
        table = dict.fromkeys(slot_layout("vector", n, k, min_order=1).slots, Fraction(0))
        for (i, alpha), c in (coeffs or {}).items():
            s = (i, tuple(alpha))
            if s not in table:
                raise ValueError(f"{s} is not a slot of order at most {k}")
            table[s] = _as_fraction(c)
        self.coeffs = MappingProxyType(table)
        self._inverse = None
        if determinant(self.linear_part()) == 0:
            raise ValueError("linear part of arrow is singular")

    @classmethod
    def identity(cls, n, k, point):
        coeffs = {(i, unit(n, i)): Fraction(1) for i in range(n)}
        return cls(n, k, point, point, coeffs)

    @classmethod
    def from_polynomial_map(cls, components, k, source):
        """Arrow induced by a polynomial map with invertible Jacobian at
        source: the map's k-jet there, whose order-0 slots are the target."""
        jet = prolong_vector_field(components, k).at(source)
        target = jet.project(0).as_vector()
        coeffs = {s: c for s, c in jet.coeffs.items() if order(s[1])}
        return cls(jet.n, k, jet.point, target, coeffs)

    def slot(self, i, alpha):
        return self.coeffs[(i, tuple(alpha))]

    def linear_part(self):
        return [
            [self.coeffs[(i, unit(self.n, j))] for j in range(self.n)]
            for i in range(self.n)
        ]

    def project(self, m):
        if not 1 <= m <= self.k:
            raise ValueError(f"arrow projection order {m} out of range 1..{self.k}")
        return Arrow(
            self.n,
            m,
            self.source,
            self.target,
            {s: c for s, c in self.coeffs.items() if order(s[1]) <= m},
        )

    def displacement_polynomials(self):
        """The components of A(u), the map minus its target in powers of u."""
        return _taylor_components(self.n, self.coeffs)

    def __reduce__(self):
        return (Arrow, (self.n, self.k, self.source, self.target, dict(self.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, Arrow)
            and (self.n, self.k, self.source, self.target) ==
            (other.n, other.k, other.source, other.target)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.k, self.source, self.target, frozenset(self.coeffs.items())))

    def __repr__(self):
        nz = {s: c for s, c in self.coeffs.items() if c}
        return (
            f"Arrow(n={self.n}, k={self.k}, {self.source}->{self.target}, {nz})"
        )


def compose_arrows(b, a):
    """The composite arrow b o a (first a, then b)."""
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError("arrow order/dimension mismatch")
    if a.target != b.source:
        raise ValueError("arrows do not chain: target(a) != source(b)")
    on_a = PowerTable(a.displacement_polynomials(), a.k)
    comp = [on_a.compose(p) for p in b.displacement_polynomials()]
    return Arrow(a.n, a.k, a.source, b.target, _component_slots(comp))


def invert_arrow(a):
    """The inverse arrow, solved degree by degree from C(A(u)) = u.

    C starts as L^{-1}, the inverse of the linear part, and the running
    composite C(A(u)) is kept.  At degree d >= 2 its degree-d part R_d is
    the residual; the new layer -R_d(L^{-1} v) added to C cancels it, and
    only that layer's composite with A is added to the running sum.
    a keeps the result and the result a weak link back; later calls
    return the linked inverse while it lives.
    """
    inv = _linked(a)
    if inv is not None:
        return inv
    n, k = a.n, a.k
    on_a = PowerTable(a.displacement_polynomials(), k)
    linv = mat_invert(a.linear_part())
    lin = [Poly(n, {unit(n, j): linv[i][j] for j in range(n)}) for i in range(n)]
    on_linv = PowerTable(lin, k)
    c_parts = list(lin)
    running = [on_a.compose(c) for c in lin]
    for d in range(2, k + 1):
        layers = [on_linv.compose(-r.homogeneous(d)) for r in running]
        c_parts = [c + layer for c, layer in zip(c_parts, layers)]
        if d < k:  # the last layer's composite is never read
            running = [r + on_a.compose(layer) for r, layer in zip(running, layers)]
    inv = Arrow(n, k, a.target, a.source, _component_slots(c_parts))
    a._inverse, inv._inverse = inv, weakref.ref(a)
    return inv


def _linked(a):
    """The inverse a is linked to; None if a is unlinked, or is an inverse
    whose arrow is gone."""
    link = a._inverse
    return link() if isinstance(link, weakref.ref) else link


def _inverse_table(a, k):
    """The power table of C(v), the inverse displacement, truncated at
    degree k, from a's linked inverse (inverting a once if unlinked)."""
    return PowerTable((_linked(a) or invert_arrow(a)).displacement_polynomials(), k)


def pushforward_vector_jets(a, x_jets):
    """Carry a list of vector k-jets along an arrow of order k+1, each to
    the k-jet of (DA . X)(C(v)) at the target.  Every jet is checked
    first; one table on C and one DA serve the batch."""
    for x_jet in x_jets:
        if not isinstance(x_jet, VectorJetPoint):
            raise TypeError("expected a vector jet point value")
        if a.n != x_jet.n:
            raise ValueError("dimension mismatch")
        if a.k != x_jet.k + 1:
            raise ValueError("arrow order must exceed jet order by one")
        if a.source != x_jet.point:
            raise ValueError("jet is not based at the arrow source")
    if not x_jets:
        return []
    n, k = a.n, a.k - 1
    back = _inverse_table(a, k)
    da = [[ai.diff(j) for j in range(n)] for ai in a.displacement_polynomials()]
    out = []
    for x_jet in x_jets:
        xi = _taylor_components(n, x_jet.coeffs)
        eta = []
        for row in da:
            dxi = sum((d.mul_truncated(x, k) for d, x in zip(row, xi)), Poly.zero(n))
            eta.append(back.compose(dxi))
        out.append(VectorJetPoint(n, k, a.target, _component_slots(eta)))
    return out


def pushforward_function_jets(a, f_jets):
    """Carry a list of function jets, each to the jet of f o a^{-1}, F(C(v)),
    at its own order (an algebra map for the jet product).  Every jet is
    checked first; one table on C, at the highest order, serves the batch."""
    for f_jet in f_jets:
        if not isinstance(f_jet, FunctionJetPoint):
            raise TypeError("expected a function jet point value")
        if a.n != f_jet.n:
            raise ValueError("dimension mismatch")
        if a.k < f_jet.k:
            raise ValueError("arrow order must be at least the jet order")
        if a.source != f_jet.point:
            raise ValueError("jet is not based at the arrow source")
    if not f_jets:
        return []
    back = _inverse_table(a, max(f_jet.k for f_jet in f_jets))
    out = []
    for f_jet in f_jets:
        g = _slot_values(back.compose(_taylor(a.n, f_jet.coeffs)))
        kept = {alpha: v for alpha, v in g.items() if order(alpha) <= f_jet.k}
        out.append(FunctionJetPoint(a.n, f_jet.k, a.target, kept))
    return out


def pushforward_vector_jet(a, x_jet):
    """`pushforward_vector_jets` of one jet."""
    return pushforward_vector_jets(a, [x_jet])[0]


def pushforward_function_jet(a, f_jet):
    """`pushforward_function_jets` of one jet."""
    return pushforward_function_jets(a, [f_jet])[0]
