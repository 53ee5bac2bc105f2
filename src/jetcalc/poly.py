"""Multivariate polynomials over exact rationals.

Coefficients are `fractions.Fraction`; monomials are multi-index tuples.
Zero coefficients are never stored.  Values are treated as immutable:
every operation returns a fresh Poly, except the one accumulator,
`p.addmul_into(acc, c, q)`.  It adds c*p*q in place into `acc`, a plain
{monomial: coefficient} dict that the caller owns, and writes nothing
else: a sum of many products fills one dict and becomes one Poly at the
end, `Poly(n, acc)`, which also drops the entries that cancelled.
"""

from fractions import Fraction

from .multiindex import add, multi_indices, order, unit


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class Poly:
    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        if n <= 0:
            raise ValueError("chart dimension must be positive")
        self.n = n
        clean = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = _as_fraction(c)
                if c != 0:
                    if len(mono) != n:
                        raise ValueError("monomial dimension mismatch")
                    clean[tuple(mono)] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: _as_fraction(c)})

    @classmethod
    def variable(cls, n, j):
        return cls(n, {unit(n, j): Fraction(1)})

    @classmethod
    def monomial(cls, n, alpha, c=1):
        return cls(n, {tuple(alpha): _as_fraction(c)})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((order(m) for m in self.coeffs), default=-1)

    def constant_term(self):
        return self.coeffs.get((0,) * self.n, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return isinstance(other, Poly) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if self.coeffs.keys() <= {(0,) * self.n}:
            return hash(self.constant_term())
        return hash((self.n, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] - c if m in out else -c
        return Poly(self.n, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.n, {m: c * other for m, c in self.coeffs.items()})
        out = {}
        self.addmul_into(out, 1, other)
        return Poly(self.n, out)

    __rmul__ = __mul__

    def addmul_into(self, acc, c, other):
        """Add c * self * other into acc, in place: acc is a plain
        {monomial: Fraction} dict owned by the caller, c an int or
        Fraction weight.  Neither Poly changes; cancelled entries stay in
        acc as zeros until `Poly(n, acc)` drops them."""
        self._check(other)
        if not other.coeffs:
            return
        right = other.coeffs.items()
        get = acc.get
        for m1, c1 in self.coeffs.items():
            if c != 1:
                c1 = c1 * c
            for m2, c2 in right:
                m = add(m1, m2)
                old = get(m)
                acc[m] = c1 * c2 if old is None else old + c1 * c2

    def mul_truncated(self, other, max_degree):
        """Product with all monomials of total degree > max_degree dropped."""
        self._check(other)
        right = sorted((order(m2), m2, c2) for m2, c2 in other.coeffs.items())
        out = {}
        for m1, c1 in self.coeffs.items():
            room = max_degree - order(m1)
            for d2, m2, c2 in right:
                if d2 > room:
                    break
                m = add(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.n, out)

    def diff(self, j):
        """Partial derivative with respect to variable j (0-based)."""
        out = {}
        for m, c in self.coeffs.items():
            if m[j] > 0:
                dm = list(m)
                dm[j] -= 1
                out[tuple(dm)] = c * m[j]
        return Poly(self.n, out)

    def diff_multi(self, alpha):
        p = self
        for j, a in enumerate(alpha):
            for _ in range(a):
                p = p.diff(j)
        return p

    def evaluate(self, point):
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        point = [_as_fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.coeffs.items():
            term = c
            for x, e in zip(point, m):
                term *= x**e
            total += term
        return total

    def derivative_value(self, alpha, point):
        """Value of the alpha-th partial derivative at a point."""
        return self.diff_multi(alpha).evaluate(point)

    def compose(self, substitutions, max_degree):
        """Substitute substitutions[j] for variable j, truncating at max_degree.

        All substitution polynomials share one chart dimension, which may
        differ from self.n.
        """
        if len(substitutions) != self.n:
            raise ValueError("need one substitution per variable")
        return PowerTable(substitutions, max_degree).compose(self)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("chart dimension mismatch")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=lambda m: (order(m), m)):
            c = self.coeffs[m]
            mono = "*".join(
                f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in enumerate(m) if e
            )
            parts.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(parts)


class PowerTable:
    """The powers s^alpha of one substitution s = (s_0, ..., s_{n-1}, n >= 1),
    with every degree above max_degree dropped.

    Each entry is one truncated product of a smaller one, s^(alpha - e_j) * s_j,
    built when first needed and kept for every polynomial composed through
    the table.  Truncating a factor never changes the low degrees of a
    product, so substitutions may have constant terms.
    """

    __slots__ = ("subs", "max_degree", "entries")

    def __init__(self, substitutions, max_degree):
        self.subs = list(substitutions)
        self.max_degree = max_degree
        self.entries = {(0,) * len(self.subs): Poly.const(self.subs[0].n, 1)}

    def power(self, alpha):
        """s^alpha, truncated at max_degree."""
        entries = self.entries
        missing = []
        while alpha not in entries:
            # peel one factor off the last variable that occurs
            j = max(i for i, e in enumerate(alpha) if e)
            missing.append((alpha, j))
            alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        t = entries[alpha]
        for beta, j in reversed(missing):
            t = t.mul_truncated(self.subs[j], self.max_degree)
            entries[beta] = t
        return t

    def compose(self, p):
        """p(s_0, ..., s_{n-1}) truncated at max_degree: the sum of
        c_alpha s^alpha over the terms of p."""
        if p.n != len(self.subs):
            raise ValueError("need one substitution per variable")
        out = {}
        for alpha, c in p.coeffs.items():
            for m, v in self.power(alpha).coeffs.items():
                out[m] = out.get(m, 0) + c * v
        return Poly(self.subs[0].n, out)


def random_poly(n, rng, degree):
    """A seeded random polynomial of degree at most `degree`: for each
    monomial in graded lex order, draw an integer c in [-4, 4] from the
    `random.Random` rng and, when c is nonzero, a denominator in [1, 3]."""
    coeffs = {}
    for alpha in multi_indices(n, degree):
        c = rng.randint(-4, 4)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 3))
    return Poly(n, coeffs)
