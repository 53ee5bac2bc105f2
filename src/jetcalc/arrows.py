"""k-arrows: k-jets of local diffeomorphisms with a source and a target.

An Arrow stores the Taylor data of the underlying diffeomorphism as
derivative values c[(i, alpha)] for 1 <= |alpha| <= k; the |alpha| = 0
data is the target point.  Composition is truncated composition of the
Taylor polynomials (multivariate chain rule up to order k) and
inversion solves the triangular system order by order.
"""

from fractions import Fraction

from .linalg import invert as mat_invert
from .multiindex import factorial, multi_indices, order, unit
from .poly import Poly, _as_fraction
from .jets import FunctionJetPoint, VectorJetPoint


class Arrow:
    __slots__ = ("n", "k", "source", "target", "coeffs")

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
        table = {
            (i, alpha): Fraction(0)
            for alpha in multi_indices(n, k, k_min=1)
            for i in range(n)
        }
        if coeffs:
            for (i, alpha), c in coeffs.items():
                alpha = tuple(alpha)
                if not 1 <= order(alpha) <= k:
                    raise ValueError(f"arrow slot {alpha} out of range")
                table[(i, alpha)] = _as_fraction(c)
        self.coeffs = table
        if not self._linear_part_invertible():
            raise ValueError("linear part of arrow is singular")

    @classmethod
    def identity(cls, n, k, point):
        coeffs = {(i, unit(n, i)): Fraction(1) for i in range(n)}
        return cls(n, k, point, point, coeffs)

    @classmethod
    def from_polynomial_map(cls, components, k, source):
        """Arrow induced by a polynomial map with invertible Jacobian at source."""
        n = components[0].n
        source = tuple(_as_fraction(x) for x in source)
        target = tuple(c.evaluate(source) for c in components)
        coeffs = {}
        for i, comp in enumerate(components):
            for alpha in multi_indices(n, k, k_min=1):
                coeffs[(i, alpha)] = comp.derivative_value(alpha, source)
        return cls(n, k, source, target, coeffs)

    def slot(self, i, alpha):
        return self.coeffs[(i, tuple(alpha))]

    def linear_part(self):
        return [
            [self.coeffs[(i, unit(self.n, j))] for j in range(self.n)]
            for i in range(self.n)
        ]

    def _linear_part_invertible(self):
        try:
            mat_invert(self.linear_part())
        except ValueError:
            return False
        return True

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
        """Components of the map minus its target, in powers of (x - source)."""
        out = []
        for i in range(self.n):
            p = Poly.zero(self.n)
            for alpha in multi_indices(self.n, self.k, k_min=1):
                c = self.coeffs[(i, alpha)]
                if c != 0:
                    p = p + Poly.monomial(self.n, alpha, c / factorial(alpha))
            out.append(p)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Arrow)
            and (self.n, self.k, self.source, self.target) ==
            (other.n, other.k, other.source, other.target)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.k, self.source, self.target, frozenset(self.coeffs.items())))

    def is_identity(self):
        return self == Arrow.identity(self.n, self.k, self.source)

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
    n, k = a.n, a.k
    da = a.displacement_polynomials()  # u = A(x) - y0 in powers of x - x0
    db = b.displacement_polynomials()  # B(y) - z0 in powers of y - y0
    coeffs = {}
    for i in range(n):
        comp = db[i].compose(da, k)  # powers of x - x0, truncated at degree k
        for alpha in multi_indices(n, k, k_min=1):
            c = comp.coeffs.get(alpha, Fraction(0))
            coeffs[(i, alpha)] = c * factorial(alpha)
    return Arrow(n, k, a.source, b.target, coeffs)


def invert_arrow(a):
    """The inverse arrow, solved degree by degree from C(A(x)) = x."""
    n, k = a.n, a.k
    da = a.displacement_polynomials()
    linv = mat_invert(a.linear_part())
    # unknown inverse displacement C(u), built as homogeneous layers
    c_parts = [
        sum(
            (Poly.monomial(n, unit(n, j), linv[i][j]) for j in range(n)),
            Poly.zero(n),
        )
        for i in range(n)
    ]
    for d in range(2, k + 1):
        residual = []
        for i in range(n):
            comp = c_parts[i].compose(da, d)
            target = Poly.variable(n, i)
            residual.append(
                Poly(
                    n,
                    {
                        m: v
                        for m, v in (target - comp).coeffs.items()
                        if order(m) == d
                    },
                )
            )
        # C_d(L x) = residual_d(x), so C_d(u) = residual_d(L^{-1} u)
        lin_subs = [
            sum(
                (Poly.monomial(n, unit(n, j), linv[i][j]) for j in range(n)),
                Poly.zero(n),
            )
            for i in range(n)
        ]
        for i in range(n):
            c_parts[i] = c_parts[i] + residual[i].compose(lin_subs, d)
    coeffs = {}
    for i in range(n):
        for alpha in multi_indices(n, k, k_min=1):
            c = c_parts[i].coeffs.get(alpha, Fraction(0))
            coeffs[(i, alpha)] = c * factorial(alpha)
    return Arrow(n, k, a.target, a.source, coeffs)


def _inverse_map_polynomials(a):
    """Polynomial components of a^{-1} around the target, in chart coordinates."""
    inv = invert_arrow(a)
    n = a.n
    comps = []
    disp = inv.displacement_polynomials()
    for i in range(n):
        shifted_vars = [
            Poly.variable(n, j) - a.target[j] for j in range(n)
        ]
        p = disp[i].compose(shifted_vars, a.k) + inv.target[i]
        comps.append(p)
    return comps


def pushforward_vector_jet(a, x_jet):
    """Transport a vector k-jet along an arrow of order k+1.

    Computed on the holonomic Taylor representative: the pushforward of
    the polynomial field by the arrow's polynomial map, re-jetted at the
    target.  The result depends only on the jet data.
    """
    if not isinstance(x_jet, VectorJetPoint):
        raise TypeError("expected a vector jet point value")
    if a.n != x_jet.n:
        raise ValueError("dimension mismatch")
    if a.k != x_jet.k + 1:
        raise ValueError("arrow order must exceed jet order by one")
    if a.source != x_jet.point:
        raise ValueError("jet is not based at the arrow source")
    n, k = a.n, x_jet.k
    xi = x_jet.taylor_field()  # polynomials in chart coordinates
    # map components A(x) in chart coordinates
    shifted = [Poly.variable(n, j) - a.source[j] for j in range(n)]
    amap = [
        a.displacement_polynomials()[i].compose(shifted, a.k) + a.target[i]
        for i in range(n)
    ]
    ainv = _inverse_map_polynomials(a)
    # eta(y) = (DA . xi)(A^{-1}(y)), re-jetted at the target
    coeffs = {}
    for i in range(n):
        jac_dot_xi = Poly.zero(n)
        for j in range(n):
            jac_dot_xi = jac_dot_xi + amap[i].diff(j) * xi[j]
        # only the k-jet at the target matters; shift A^{-1} around target
        eta = _compose_around(jac_dot_xi, ainv, a.target, k)
        for alpha in multi_indices(n, k):
            coeffs[(i, alpha)] = eta.derivative_value(alpha, a.target)
    return VectorJetPoint(n, k, a.target, coeffs)


def _compose_around(f, gmap, base, k):
    """k-jet-sufficient composition f(g(y)) around y = base.

    Substitutes the degree-k expansions in powers of (y - base) and
    truncates, which is enough to read off derivatives at base.
    """
    n = f.n
    g_shift = [g.shift(base).truncate(k) for g in gmap]  # in powers of (y - base)
    f_at = f.shift([g.evaluate(base) for g in gmap])
    g_disp = [
        g - Poly.const(n, g.constant_term()) for g in g_shift
    ]
    comp = f_at.compose(g_disp, k)  # in powers of (y - base), truncated
    back = [Poly.variable(n, j) - base[j] for j in range(n)]
    return comp.compose(back, k)


def pushforward_function_jet(a, f_jet):
    """Transport a function k-jet at the arrow source to the target.

    The result is the k-jet of f o a^{-1}; an algebra homomorphism for
    the jet product.
    """
    if not isinstance(f_jet, FunctionJetPoint):
        raise TypeError("expected a function jet point value")
    if a.n != f_jet.n:
        raise ValueError("dimension mismatch")
    if a.k < f_jet.k:
        raise ValueError("arrow order must be at least the jet order")
    if a.source != f_jet.point:
        raise ValueError("jet is not based at the arrow source")
    n, k = a.n, f_jet.k
    ainv = _inverse_map_polynomials(a)
    f_poly = f_jet.taylor_polynomial()
    g = _compose_around(f_poly, ainv, a.target, k)
    return FunctionJetPoint(
        n,
        k,
        a.target,
        {alpha: g.derivative_value(alpha, a.target) for alpha in multi_indices(n, k)},
    )
