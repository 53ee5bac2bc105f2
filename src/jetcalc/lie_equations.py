"""Linear Lie equations at a base point: `invariance_system`, the rows
of the order-k Lie equation L_X omega = 0 of any structure jet omega (a
metric gives the Killing system, a 2-form the symplectic one), and the
prolongation/surjectivity and anchor reports read as pivot counts of one
echelon of those rows (`_prolongation`, what the `prolong` command runs).
Every slot sum and binomial is read from the `jets.slot_layout` tables.
The solution spaces as subspaces, with the reports read off them,
Levi-Civita and the Killing completion are `lie_solutions`'."""

from fractions import Fraction
from functools import reduce
from math import lcm

from .jets import prolong_function, slot_layout
from .linalg import Echelon, determinant
from .multiindex import is_natural, order
from .poly import _as_fraction, _shown


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
                raise ValueError(f"component indices {_shown(i)}, {_shown(j)} not in 0..{n - 1}")
            alpha = tuple(alpha)
            if len(alpha) != n or not all(is_natural(a) for a in alpha):
                raise ValueError(f"multi-index {_shown(list(alpha))} must list {n} naturals")
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


def invariance_system(structure, k):
    """Equation rows of the order-k Lie equation of a structure jet: the
    prolonged infinitesimal invariance system L_X (structure) = 0 on the
    order-k fiber, Killing for a metric and symplectic for a 2-form, with
    the sign of L_X read off the kind.  One row per multi-index alpha,
    |alpha| <= k-1 in function slot order, and component pair.  Rows are
    sparse {column: int}: the system is linear in the structure, whose
    slots are scaled by the lcm of their denominators.  A row reads fiber
    slots of order <= |alpha| + 1, which come first in the fiber, so the
    order-(k-1) system is a prefix of the order-k one.  A row is three jet
    products, each with a structure slot rest as left factor: the terms
    (beta, alpha, C(alpha, rest)) are the order-(k-1) `products[rest]`."""
    n = structure.n
    if structure.kind == "two_form" and n % 2 != 0:
        raise ValueError("nondegenerate 2-forms need even dimension")
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


def _prolongation(structure, k_max):
    """The prolongation report and the anchor report at order k_max.
    The order-k system is a prefix of the order-k_max one, so one echelon
    grows by the rows of |alpha| = k-1 at each order k.  Its columns are
    negated, so each pivot is its row's highest slot, and the rows
    pivoted among the order-m slots span the equations on those slots
    alone, the annihilator of the order-m image of R_k: the image rank is
    the order-m width less their count, and m = k gives dim R_k."""
    n = structure.n
    rows = invariance_system(structure, k_max)
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


def _anchor(n, dim, rk):
    """Anchor surjectivity onto the tangent fiber and the kernel dimension
    identity, for a solution space of dimension dim whose order-0
    projection has rank rk."""
    ker = dim - rk
    return {"dim": dim, "anchor_rank": rk, "anchor_surjective": rk == n,
            "kernel_dim": ker, "exact": rk == n and ker == dim - n}
