"""Jets of functions and vector fields on a single chart.

Every jet is one slot table, `coeffs`, that maps each slot of order at
most k to a value.  There are two slot layouts: a function jet has one
slot per multi-index alpha, a vector jet one slot (i, alpha) per
component i and multi-index alpha.  A jet section stores a coefficient
`Poly` in each slot; a jet at a base point stores a `Fraction`.  The
four classes below are the four combinations and share everything but
their slot layout and the methods particular to them.

Slots are derivative *values* (f_alpha stands for the value of the
alpha-th derivative), not Taylor coefficients, and a section is not
required to be holonomic: the slot f_{alpha+e_j} need not equal the
derivative of the slot f_alpha.
"""

from fractions import Fraction

from .multiindex import (
    add,
    multi_binomial,
    multi_indices,
    order,
    unit,
)
from .poly import Poly, _as_fraction


def function_slots(n, k):
    """Slots of J_k(M): multi-indices |alpha| <= k in graded lex order."""
    return multi_indices(n, k)


def vector_slots(n, k, min_order=0):
    """Slots (i, alpha) of the g_k fiber, ordered by (|alpha|, alpha, i)."""
    return [
        (i, alpha)
        for alpha in multi_indices(n, k, k_min=min_order)
        for i in range(n)
    ]


class _JetTable:
    """The slot table shared by all jets: `coeffs` holds every slot of
    order <= k, in layout order.  A section (`_section`) holds Poly
    values and its `point` is None; a jet at a point holds Fractions."""

    __slots__ = ("n", "k", "point", "coeffs")
    _section = False

    def __init__(self, n, k, point, coeffs=None):
        if n <= 0:
            raise ValueError("chart dimension must be positive")
        if k < 0:
            raise ValueError("jet order must be non-negative")
        if not self._section:
            point = tuple(_as_fraction(x) for x in point)
            if len(point) != n:
                raise ValueError("base point dimension mismatch")
        self.n = n
        self.k = k
        self.point = point
        zero = Poly.zero(n) if self._section else Fraction(0)
        table = dict.fromkeys(self._slots(n, k), zero)
        for s, v in (coeffs or {}).items():
            if s not in table:
                raise ValueError(f"{s} is not a slot of order at most {k}")
            if not self._section:
                v = _as_fraction(v)
            elif not isinstance(v, Poly):
                v = Poly.const(n, v)
            table[s] = v
        self.coeffs = table

    def _summed(self, k, slot_terms):
        """A jet of this kind at order k whose slot s is the sum of
        c * u * v over slot_terms[s], a list of (c, u, v): an int or
        Fraction weight c and two slot values of this kind.  A section
        adds every product of a slot into one coefficient dict and builds
        one Poly from it; slots without terms are zero."""
        out = {}
        for s, terms in slot_terms.items():
            if not self._section:
                out[s] = sum((u * v * c for c, u, v in terms), Fraction(0))
                continue
            acc = {}
            for c, u, v in terms:
                u.addmul_into(acc, c, v)
            out[s] = Poly(self.n, acc)
        return self.like(k, out)

    def like(self, k, coeffs):
        """A jet of the same kind, dimension and base point at order k."""
        jet = object.__new__(type(self))
        _JetTable.__init__(jet, self.n, k, self.point, coeffs)
        return jet

    def project(self, m):
        if not 0 <= m <= self.k:
            raise ValueError(f"projection order {m} out of range 0..{self.k}")
        return self.like(m, {s: self.coeffs[s] for s in self._slots(self.n, m)})

    def lift(self, m, top_slots=None):
        """Reinterpret at order m >= k; new slots zero unless supplied."""
        if m < self.k:
            raise ValueError("lift target below current order")
        top_slots = top_slots or {}
        if any(s in self.coeffs for s in top_slots):
            raise ValueError("lift may only set new slots")
        return self.like(m, {**self.coeffs, **top_slots})

    def is_zero(self):
        return not any(self.coeffs.values())

    def as_vector(self):
        return list(self.coeffs.values())

    def __add__(self, other):
        self._check(other)
        return self.like(self.k, {s: v + other.coeffs[s] for s, v in self.coeffs.items()})

    def __sub__(self, other):
        self._check(other)
        return self.like(self.k, {s: v - other.coeffs[s] for s, v in self.coeffs.items()})

    def __neg__(self):
        return self.like(self.k, {s: -v for s, v in self.coeffs.items()})

    def scale(self, c):
        """Multiply every slot by c: a rational, or a Poly for a section."""
        return self.like(self.k, {s: v * c for s, v in self.coeffs.items()})

    def _shape(self):
        return (type(self), self.n, self.k, self.point)

    def __eq__(self, other):
        return (
            isinstance(other, _JetTable)
            and self._shape() == other._shape()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.k, self.point, frozenset(self.coeffs.items())))

    def _check(self, other):
        if self._shape() != other._shape():
            raise ValueError("jet kind, dimension, order or base point mismatch")

    def __repr__(self):
        at = "" if self.point is None else f", at={self.point}"
        nz = {s: v for s, v in self.coeffs.items() if v}
        return f"{type(self).__name__}(n={self.n}, k={self.k}{at}, {nz})"


class _FunctionLayout:
    """Slots alpha, one per multi-index."""

    __slots__ = ()
    _slots = staticmethod(function_slots)

    @staticmethod
    def raised(alpha, j):
        """The slot one derivative d_j above the slot alpha."""
        return add(alpha, unit(len(alpha), j))

    def slot(self, alpha):
        return self.coeffs[tuple(alpha)]


class _VectorLayout:
    """Slots (i, alpha), one per component and multi-index."""

    __slots__ = ()
    _slots = staticmethod(vector_slots)

    @staticmethod
    def raised(slot, j):
        """The slot one derivative d_j above the slot (i, alpha)."""
        i, alpha = slot
        return (i, add(alpha, unit(len(alpha), j)))

    def slot(self, i, alpha):
        return self.coeffs[(i, tuple(alpha))]


class FunctionJetSection(_FunctionLayout, _JetTable):
    """Element of J_k(M) over the chart: slot table alpha -> Poly."""

    __slots__ = ()
    _section = True

    def __init__(self, n, k, coeffs=None):
        super().__init__(n, k, None, coeffs)

    def at(self, point):
        return FunctionJetPoint(
            self.n, self.k, point, {a: p.evaluate(point) for a, p in self.coeffs.items()}
        )


class VectorJetSection(_VectorLayout, _JetTable):
    """Section of g_k(M) = J_k(T(M)): slot table (i, alpha) -> Poly."""

    __slots__ = ()
    _section = True

    def __init__(self, n, k, coeffs=None):
        super().__init__(n, k, None, coeffs)

    def at(self, point):
        return VectorJetPoint(
            self.n, self.k, point, {s: p.evaluate(point) for s, p in self.coeffs.items()}
        )


class FunctionJetPoint(_FunctionLayout, _JetTable):
    """A function jet evaluated at a base point: slot table alpha -> Fraction."""

    __slots__ = ()


class VectorJetPoint(_VectorLayout, _JetTable):
    """A vector jet evaluated at a base point: slot table (i, alpha) -> Fraction."""

    __slots__ = ()


def vector_point_from_coords(n, k, point, coords):
    slots = vector_slots(n, k)
    if len(coords) != len(slots):
        raise ValueError("coordinate vector length mismatch")
    return VectorJetPoint(n, k, point, dict(zip(slots, coords)))


def prolong_function(f, k):
    """The holonomic k-jet section of a polynomial function."""
    return FunctionJetSection(
        f.n, k, {alpha: f.diff_multi(alpha) for alpha in multi_indices(f.n, k)}
    )


def prolong_vector_field(components, k):
    """The holonomic k-jet section of a polynomial vector field."""
    n = components[0].n
    if len(components) != n:
        raise ValueError("need one component per chart dimension")
    coeffs = {}
    for i, comp in enumerate(components):
        for alpha in multi_indices(n, k):
            coeffs[(i, alpha)] = comp.diff_multi(alpha)
    return VectorJetSection(n, k, coeffs)


def jet_product(f, g):
    """The product on J_k(M): (f*g)_alpha = sum C(alpha,beta) f_beta g_{alpha-beta}."""
    return jet_product_sum([(1, f, g)])


def jet_product_sum(terms):
    """sum c * (f*g) over the terms (c, f, g): jets of one kind and shape
    and int or Fraction weights c, each slot accumulated once over every
    term (a wedge product is such a signed sum).  Only the nonzero slots
    f_beta and g_gamma are visited, each pair adding to slot beta+gamma."""
    first = terms[0][1]
    k = first.k
    slot_terms = {}
    for c, f, g in terms:
        first._check(f)
        first._check(g)
        right = [(gamma, order(gamma), v) for gamma, v in g.coeffs.items() if v]
        for beta, u in f.coeffs.items():
            if not u:
                continue
            room = k - order(beta)
            for gamma, d, v in right:
                if d <= room:
                    alpha = add(beta, gamma)
                    weight = c * multi_binomial(alpha, beta)
                    slot_terms.setdefault(alpha, []).append((weight, u, v))
    return first._summed(k, slot_terms)


def jet_unit(n, k):
    """j_k(1), the unit for the jet product."""
    return FunctionJetSection(n, k, {(0,) * n: Poly.const(n, 1)})


def is_holonomic(section):
    """Check that the slot raised by e_j is d_j of the slot, for every
    slot of order < k of a function or vector jet section.

    Returns (True, None) or (False, (j, first_violating_slot)).
    """
    if section.k == 0:
        return True, None
    for s, p in section.project(section.k - 1).coeffs.items():
        for j in range(section.n):
            if section.coeffs[section.raised(s, j)] != p.diff(j):
                return False, (j, s)
    return True, None
