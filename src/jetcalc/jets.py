"""Jets of functions and vector fields on a single chart.

Every jet is one slot table, `coeffs`, that maps each slot of order at
most k to a value: a function jet has one slot per multi-index alpha, a
vector jet one slot (i, alpha) per component i and multi-index alpha.
`slot_layout` builds one layout per (kind, n, k, min_order) and caches
it; every module reads its slots there, and a function layout's
`products` and `leibniz` tables hold the index arithmetic of the jet
product, of the Leibniz action and of the bracket of constant basis
sections (`basis_bracket`): sums of slots and binomials, built once on
first use.  Prolongation takes one `diff` per slot along `raised`.  A
jet section stores a coefficient `Poly` in each slot; a jet at a base
point stores a `Fraction`.  The four classes below are the four
combinations and share everything but their slot kind and the methods
particular to them.

The public constructors, and so `lift`, check each slot against the
layout and gate each value and the base point; they take input from
outside.  `like` is the kernel path of the jet operations: their tables
are keyed by the layout already, so it re-checks nothing but that no
slot lies off the layout.

Slots are derivative *values* (f_alpha stands for the value of the
alpha-th derivative), not Taylor coefficients, and a section is not
required to be holonomic: the slot f_{alpha+e_j} need not equal the
derivative of the slot f_alpha.
"""

from fractions import Fraction
from types import MappingProxyType

from .multiindex import (
    add,
    multi_binomial,
    multi_indices,
    order,
    unit,
)
from .poly import Poly, _as_fraction


class SlotLayout:
    """The slots of one (kind, n, k, min_order) `key` in layout order, the
    read-only map `pos` from slot to position, and the read-only map
    `raised` from (slot, j), |slot| < k, to the slot d_j above it.  A
    function layout of min_order 0 also gives two read-only tables, each
    built on first use and kept: `products`, read by the jet product,
    and `leibniz`, read by the Leibniz action and `basis_bracket`."""

    __slots__ = ("key", "slots", "pos", "raised", "_products", "_leibniz")

    def __init__(self, key, slots, raised):
        self.key, self.slots, self.raised = key, slots, MappingProxyType(raised)
        self.pos = MappingProxyType({s: i for i, s in enumerate(slots)})
        self._products = self._leibniz = None

    @property
    def products(self):
        """beta -> ((gamma, beta+gamma, C(beta+gamma, beta)), ...) over
        |beta| + |gamma| <= k: the terms f_beta g_gamma of a jet product."""
        if self._products is None:
            self._products = self._grouped(lambda b, d, alpha, c: [(b, (d, alpha, c))])
        return self._products

    @property
    def leibniz(self):
        """(a, beta) -> ((alpha, alpha-beta+e_a, C(alpha, beta)), ...) over
        alpha >= beta, |alpha| <= k: the terms xi^a_beta f_{alpha-beta+e_a}
        of the Leibniz action on slot alpha (sources reach order k + 1)."""
        if self._leibniz is None:
            units = [(a, unit(self.key[1], a)) for a in range(self.key[1])]
            self._leibniz = self._grouped(
                lambda b, d, alpha, c: [((a, b), (alpha, add(d, e), c)) for a, e in units]
            )
        return self._leibniz

    def _grouped(self, entries):
        """The read-only map from each key of entries(beta, delta, alpha,
        C(alpha, beta)), alpha = beta + delta over the slot pairs with
        |beta| + |delta| <= k, to the tuple of its entries in delta order."""
        kind, _, k, min_order = self.key
        if kind != "function" or min_order:
            raise ValueError("slot tables need a function layout of min_order 0")
        end = {order(s): i + 1 for i, s in enumerate(self.slots)}  # order m: slots[:end[m]]
        table = {}
        for beta in self.slots:
            for delta in self.slots[: end[k - order(beta)]]:
                alpha = add(beta, delta)
                for key, entry in entries(beta, delta, alpha, multi_binomial(alpha, beta)):
                    table.setdefault(key, []).append(entry)
        return MappingProxyType({key: tuple(values) for key, values in table.items()})


_LAYOUTS = {}  # cli.LIMITS bounds n and k, so the cache needs no eviction


def slot_layout(kind, n, k, min_order=0):
    """The cached `SlotLayout` of the "function" slots alpha (graded lex)
    or the "vector" slots (i, alpha) (by (|alpha|, alpha, i)) of order
    min_order..k; each order-m layout is a prefix of the order-k one."""
    key = (kind, n, k, min_order)
    if key not in _LAYOUTS:
        if kind == "function":
            slots = tuple(multi_indices(n, k, k_min=min_order))
            units = list(enumerate(unit(n, j) for j in range(n)))
            raised = {(a, j): add(a, e) for a in slots if order(a) < k for j, e in units}
        elif kind == "vector":
            f = slot_layout("function", n, k, min_order)
            slots = tuple((i, a) for a in f.slots for i in range(n))
            raised = {((i, a), j): (i, b) for (a, j), b in f.raised.items() for i in range(n)}
        else:
            raise ValueError(f"unknown slot kind {kind!r}")
        _LAYOUTS[key] = SlotLayout(key, slots, raised)
    return _LAYOUTS[key]


def function_slots(n, k):
    """Slots of J_k(M): multi-indices |alpha| <= k in graded lex order."""
    return list(slot_layout("function", n, k).slots)


def vector_slots(n, k, min_order=0):
    """Slots (i, alpha) of the g_k fiber, ordered by (|alpha|, alpha, i)."""
    return list(slot_layout("vector", n, k, min_order).slots)


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
        self.n, self.k, self.point = n, k, point
        coeffs = coeffs or {}
        if self._section:
            coeffs = {s: v if isinstance(v, Poly) else Poly.const(n, v) for s, v in coeffs.items()}
        else:
            coeffs = {s: _as_fraction(v) for s, v in coeffs.items()}
        self.coeffs = self._table(k, coeffs)

    def _table(self, k, coeffs):
        """The order-k table of this kind: zero but for coeffs, which must lie on the layout."""
        layout = slot_layout(self._kind, self.n, k)
        # the jet has checked n, so its zero Poly skips the validating constructor
        zero = Poly._canon(self.n, {}, 1) if self._section else Fraction(0)
        table = dict.fromkeys(layout.slots, zero)
        table.update(coeffs)
        if len(table) != len(layout.slots):
            off = next(s for s in coeffs if s not in layout.pos)
            raise ValueError(f"{off} is not a slot of order at most {k}")
        return table

    @property
    def layout(self):
        """The shared `SlotLayout` of this jet's kind, dimension and order."""
        return slot_layout(self._kind, self.n, self.k)

    def _summed(self, k, slot_terms):
        """A jet of this kind at order k whose slot s is the sum of
        c * u * v over slot_terms[s], a list of (c, u, v): an int or
        Fraction weight c and two slot values of this kind.  A section
        slot is one `Poly.sum_of_products`: every product is an integer
        multiply-add into one numerator dict over the lcm of the terms'
        denominators, reduced once.  Slots without terms are zero."""
        if self._section:
            return self.like(k, {
                s: Poly.sum_of_products(self.n, terms) for s, terms in slot_terms.items()
            })
        return self.like(k, {
            s: sum((u * v * c for c, u, v in terms), Fraction(0))
            for s, terms in slot_terms.items()
        })

    def like(self, k, coeffs):
        """A jet of the same kind, dimension and base point at order k, on the
        kernel path: coeffs holds slot values of this kind, not gated again."""
        jet = object.__new__(type(self))
        jet.n, jet.k, jet.point = self.n, k, self.point
        jet.coeffs = jet._table(k, coeffs)
        return jet

    def project(self, m):
        if not 0 <= m <= self.k:
            raise ValueError(f"projection order {m} out of range 0..{self.k}")
        slots = slot_layout(self._kind, self.n, m).slots
        return self.like(m, {s: self.coeffs[s] for s in slots})

    def lift(self, m, top_slots=None):
        """Reinterpret at order m >= k; new slots zero unless supplied."""
        if m < self.k:
            raise ValueError("lift target below current order")
        top_slots = top_slots or {}
        if any(s in self.coeffs for s in top_slots):
            raise ValueError("lift may only set new slots")
        jet = object.__new__(type(self))  # new slots come from outside: the checking path
        _JetTable.__init__(jet, self.n, m, self.point, {**self.coeffs, **top_slots})
        return jet

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
        if not (self._section and isinstance(c, Poly)):
            c = _as_fraction(c)
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
    _kind = "function"

    def slot(self, alpha):
        return self.coeffs[tuple(alpha)]


class _VectorLayout:
    """Slots (i, alpha), one per component and multi-index."""

    __slots__ = ()
    _kind = "vector"

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
    slots = slot_layout("vector", n, k).slots
    if len(coords) != len(slots):
        raise ValueError("coordinate vector length mismatch")
    return VectorJetPoint(n, k, point, dict(zip(slots, coords)))


def _derivatives(p, k):
    """{alpha: d^alpha p} for |alpha| <= k, one `diff` per slot along `raised`."""
    out = {(0,) * p.n: p}
    for (alpha, j), up in slot_layout("function", p.n, k).raised.items():
        if up not in out:
            out[up] = out[alpha].diff(j)
    return out


def prolong_function(f, k):
    """The holonomic k-jet section of a polynomial function."""
    return FunctionJetSection(f.n, k, _derivatives(f, k))


def prolong_vector_field(components, k):
    """The holonomic k-jet section of a polynomial vector field."""
    n = components[0].n
    if len(components) != n:
        raise ValueError("need one component per chart dimension")
    coeffs = {(i, a): d for i, p in enumerate(components) for a, d in _derivatives(p, k).items()}
    return VectorJetSection(n, k, coeffs)


def jet_product(f, g):
    """The product on J_k(M): (f*g)_alpha = sum C(alpha,beta) f_beta g_{alpha-beta}."""
    return jet_product_sum({(): [(1, f, g)]})[()]


def jet_product_sum(terms):
    """{key: sum c * (f*g) over terms[key]} for terms mapping each key to a
    nonempty list of (c, f, g): function jets of one shape and int or
    Fraction weights c (a wedge is such a family of signed sums).  Each
    output slot is one sum; each distinct operand's nonzero slots are
    listed once per call, paired by the layout's `products` table, and
    each distinct weight c * C(beta+gamma, beta) is computed once."""
    if not terms:
        return {}
    first = next(iter(terms.values()))[0][1]
    products, nonzero, weights, out = first.layout.products, {}, {}, {}
    for key, key_terms in terms.items():
        slot_terms = {}
        for c, f, g in key_terms:
            c = c if type(c) is int else _as_fraction(c)
            for jet in (f, g):
                if id(jet) not in nonzero:  # the terms keep each operand, and so its id, alive
                    first._check(jet)
                    nonzero[id(jet)] = {s: v for s, v in jet.coeffs.items() if v}
            right = nonzero[id(g)]
            scaled = weights.setdefault((c.numerator, c.denominator), {})
            for beta, u in nonzero[id(f)].items():
                for gamma, alpha, b in products[beta]:
                    v = right.get(gamma)
                    if v is not None:
                        w = scaled.get(b)
                        if w is None:
                            w = scaled[b] = c * b
                        slot_terms.setdefault(alpha, []).append((w, u, v))
        out[key] = first._summed(first.k, slot_terms)
    return out


def basis_bracket(s, t, k):
    """[e_s, e_t] of two constant basis sections of g_k, s = (i, a) and
    t = (j, b), as {slot: nonzero int}:
        C(a+b-e_i, a) e_(j, a+b-e_i) - C(a+b-e_j, b) e_(i, a+b-e_j).
    The first term is the entry of the order-k `leibniz[s]` whose source
    is b, the second that of `leibniz[t]` whose source is a; a term is
    absent above order k and when b_i = 0 (a_j = 0), and is dropped when
    a (b) has order 0: there the Spencer term cancels it.  On order >= 1
    slots these are the structure constants of the isotropy jet algebra."""
    leibniz = slot_layout("function", len(s[1]), k).leibniz
    out = {}
    for (u, x), (v, y), sign in ((s, t, 1), (t, s, -1)):
        if any(x):
            for alpha, source, c in leibniz[u, x]:
                if source == y:
                    out[v, alpha] = out.get((v, alpha), 0) + sign * c
                    break
    return {slot: c for slot, c in out.items() if c}


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
    raised = section.layout.raised
    for s, p in section.project(section.k - 1).coeffs.items():
        for j in range(section.n):
            if section.coeffs[raised[s, j]] != p.diff(j):
                return False, (j, s)
    return True, None
