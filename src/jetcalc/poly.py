"""Multivariate polynomials over exact rationals.

A Poly keeps integer numerators over one positive integer denominator:
`_num` maps each monomial with a nonzero coefficient to its int
numerator, and `_den` is the denominator.  The pair is in lowest terms,
so zero is `({}, 1)` and equal polynomials have equal fields.  Values
are treated as immutable.  A monomial x^e in n variables is one int key
of 16-bit fields: the total degree |e| on top, then e_0, ..., e_{n-1},
so (0, ..., 0) is 0, key order is graded lex order and a product of
monomials is the sum of their keys.  No field carries while degrees stay
below 2^16: the constructor, and each product kernel for the sum of its
factors' degrees, raises OverflowError from degree 2^16 on.  Fractions
and tuples appear only at the boundary: the constructor takes tuple
monomials and exact-scalar coefficients, and `coeffs` (a read-only
{monomial: Fraction} view), `terms`, `constant_term`, `evaluate` and
`repr` give them back.  The kernels run
on ints.  The one accumulator, `addmul_into`, adds w times the product
of two numerator dicts into a {monomial: int} dict whose denominator the
caller keeps; `sum_of_products` adds many weighted products over the lcm
of their denominators that way.

`_as_fraction` is the library's one exact-scalar gate, through which
every entry converts a caller's scalar: a Fraction, an int that is not
a bool, or a rational string ("-3/4", "0.25", "1e-3").  Anything else,
a float, bool or Decimal, raises TypeError.  A string whose decimal
exponent exceeds 4300 in magnitude raises OverflowError, since the time
`Fraction` takes to build that power of ten grows over tenfold per digit.
`_as_exact` is the gate's normal form for entries that keep integral
scalars as ints: an int passes unchanged, anything else goes through the
gate and comes back as an int when its denominator is 1.
"""

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from types import MappingProxyType

from .multiindex import is_natural, unit

_BITS = 16
_MASK = (1 << _BITS) - 1  # the largest degree, and exponent, a key can hold
_MAX_EXPONENT = 4300  # the bound on a rational string's decimal exponent
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _shown(value):
    """The repr of value, cut short after 40 characters: how an error
    message names a value that may be as long as its input."""
    shown = repr(value)
    return shown if len(shown) <= 40 else f"{shown[:40]}..."


def _check_degree(d):
    if d > _MASK:
        raise OverflowError(
            f"degree {_shown(d)} exceeds {_MASK}, the bound of a 16-bit monomial field"
        )
    return d


def _pack(mono):
    """The key of a multi-index tuple."""
    key = _check_degree(sum(mono))
    for e in mono:
        key = key << _BITS | e
    return key


def _unpack(n, key):
    """The multi-index tuple of a key in n variables."""
    return tuple((key >> _BITS * (n - 1 - j)) & _MASK for j in range(n))


def _as_fraction(x):
    """The exact-scalar gate: x as a Fraction (see the module docstring)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise OverflowError(f"{_shown(x)}: decimal exponent past {_MAX_EXPONENT}")
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def _as_exact(x):
    """x through the gate, as an int when it is integral (a bool is not
    an int here: it reaches the gate and raises)."""
    if type(x) is int:
        return x
    c = _as_fraction(x)
    return c.numerator if c.denominator == 1 else c


class Poly:
    __slots__ = ("n", "_num", "_den")

    def __init__(self, n, coeffs=None):
        if n <= 0:
            raise ValueError("chart dimension must be positive")
        clean = {}
        for mono, c in (coeffs or {}).items():
            c = _as_fraction(c)
            if c:
                mono = tuple(mono)
                if len(mono) != n or not all(map(is_natural, mono)):
                    raise ValueError(f"{mono} is not a monomial in {n} variables")
                clean[_pack(mono)] = c
        den = reduce(lcm, (c.denominator for c in clean.values()), 1)
        self.n, self._den = n, den
        self._num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}

    @classmethod
    def _canon(cls, n, num, den):
        """The Poly num / den of an int dict num (kept if it can be) and an
        int den > 0: zero entries dropped, reduced to lowest terms.  (The
        gcd and lcm folds use reduce: gcd(*values) would leave argument
        tuples of every length in the interpreter's free lists.)"""
        g = reduce(gcd, num.values(), den)
        if g != 1 or 0 in num.values():
            num, den = {m: c // g for m, c in num.items() if c}, den // g
        p = object.__new__(cls)
        p.n, p._num, p._den = n, num, den
        return p

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, j):
        return cls(n, {unit(n, j): 1})

    @classmethod
    def monomial(cls, n, alpha, c=1):
        return cls(n, {tuple(alpha): c})

    @property
    def coeffs(self):
        """Read-only {monomial: Fraction} view of the nonzero coefficients."""
        return MappingProxyType(dict(self.terms()))

    def terms(self):
        """The (monomial, Fraction coefficient) pairs of the nonzero terms."""
        return ((_unpack(self.n, m), Fraction(c, self._den)) for m, c in self._num.items())

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(self._num) >> _BITS * self.n if self._num else -1

    def homogeneous(self, d):
        """The part of total degree d."""
        part = {m: c for m, c in self._num.items() if m >> _BITS * self.n == d}
        return Poly._canon(self.n, part, self._den)

    def constant_term(self):
        return Fraction(self._num.get(0, 0), self._den)

    def _operand(self, other):
        """other as a Poly of this chart; None for a type Poly does not support."""
        if isinstance(other, (int, Fraction)):
            return Poly._canon(self.n, {0: other.numerator}, other.denominator)
        if isinstance(other, Poly):
            self._check(other)
            return other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._operand(other)
        return isinstance(other, Poly) and (self.n, self._den, self._num) == (
            other.n, other._den, other._num)

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if self._num.keys() <= {0}:
            return hash(self.constant_term())
        return hash((self.n, frozenset(self.terms())))

    def _combine(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        out = dict(self._num) if s == 1 else {m: c * s for m, c in self._num.items()}
        get = out.get
        for m, c in other._num.items():
            out[m] = get(m, 0) + c * t
        return Poly._canon(self.n, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canon(self.n, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a, b = other.numerator, other.denominator
            return Poly._canon(self.n, {m: c * a for m, c in self._num.items()}, self._den * b)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly.sum_of_products(self.n, [(1, self, other)])

    __rmul__ = __mul__

    def addmul_into(self, acc, w, other):
        """Add w * (numerators of self) * (numerators of other) into acc, in
        place, for an int w: acc is a plain {key: int} dict over a
        denominator the caller keeps, D say, so this adds c * self * other
        for w = c * D / (den self * den other).  Cancelled entries stay in
        acc as zeros until `_canon` drops them."""
        self._check(other)
        _check_degree(self.degree() + other.degree())
        right = list(other._num.items())
        get = acc.get
        for m1, c1 in self._num.items():
            c1 *= w
            for m2, c2 in right:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2

    @staticmethod
    def sum_of_products(n, terms):
        """sum c * u * v over the terms (c, u, v), int or Fraction weights c
        and Polys u, v of chart n, over D, the lcm of the terms'
        denominators: each term is one `addmul_into` of weight c * D / den."""
        dens = [c.denominator * u._den * v._den for c, u, v in terms]
        den = reduce(lcm, dens, 1)
        acc = {}
        for (c, u, v), d in zip(terms, dens):
            u.addmul_into(acc, c.numerator * (den // d), v)
        return Poly._canon(n, acc, den)

    def mul_truncated(self, other, max_degree):
        """Product with all monomials of total degree > max_degree dropped."""
        self._check(other)
        _check_degree(self.degree() + other.degree())
        limit = (max_degree + 1) << _BITS * self.n  # the least key of degree > max_degree
        right = sorted(other._num.items())
        out = {}
        get = out.get
        for m1, c1 in self._num.items():
            room = limit - m1
            for m2, c2 in right:
                if m2 >= room:
                    break
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return Poly._canon(self.n, out, self._den * other._den)

    def diff(self, j):
        """Partial derivative with respect to variable j (0-based)."""
        if not 0 <= j < self.n:
            raise IndexError(f"no variable {j} in {self.n} variables")
        shift = _BITS * (self.n - 1 - j)
        drop = (1 << shift) + (1 << _BITS * self.n)  # e_j and one degree
        out = {}
        for m, c in self._num.items():
            e = (m >> shift) & _MASK
            if e:
                out[m - drop] = c * e
        return Poly._canon(self.n, out, self._den)

    def evaluate(self, point):
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        point = [_as_fraction(x) for x in point]
        total = sum(c * prod(map(pow, point, _unpack(self.n, m))) for m, c in self._num.items())
        return Fraction(total) / self._den

    def compose(self, substitutions, max_degree):
        """Substitute substitutions[j] for variable j, truncating at
        max_degree; the substitutions share one chart, maybe not self's."""
        return PowerTable(substitutions, max_degree).compose(self)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("chart dimension mismatch")

    def __repr__(self):
        parts = []
        for m in sorted(self._num):
            c = Fraction(self._num[m], self._den)
            exps = enumerate(_unpack(self.n, m))
            mono = "*".join(f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in exps if e)
            parts.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(parts) or "0"


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
        self.entries = {0: Poly.const(self.subs[0].n, 1)}

    def power(self, alpha):
        """s^alpha for the key alpha of a monomial, truncated at max_degree."""
        entries = self.entries
        n = len(self.subs)
        missing = []
        while alpha not in entries:
            # peel one factor off the last variable that occurs, the lowest nonzero field
            field = ((alpha & -alpha).bit_length() - 1) // _BITS
            missing.append((alpha, n - 1 - field))
            alpha -= (1 << _BITS * field) + (1 << _BITS * n)
        t = entries[alpha]
        for beta, j in reversed(missing):
            t = t.mul_truncated(self.subs[j], self.max_degree)
            entries[beta] = t
        return t

    def compose(self, p):
        """p(s_0, ..., s_{n-1}) truncated at max_degree: the sum of
        c_alpha s^alpha over the terms of p, over the lcm of the powers'
        denominators times p's."""
        if p.n != len(self.subs):
            raise ValueError("need one substitution per variable")
        powers = [(c, self.power(alpha)) for alpha, c in p._num.items()]
        den = reduce(lcm, (t._den for _, t in powers), 1)
        out = {}
        get = out.get
        for c, t in powers:
            w = c * (den // t._den)
            for m, v in t._num.items():
                out[m] = get(m, 0) + w * v
        return Poly._canon(self.subs[0].n, out, p._den * den)


def random_poly(n, rng, degree):
    """A seeded random polynomial of degree at most `degree`: for each
    monomial in graded lex order, draw an integer c in [-4, 4] from the
    `random.Random` rng and, when c is nonzero, a denominator in [1, 3].
    The monomials are the order-`degree` function slots of `jets`; the
    draws are ints, so they go straight to the kernel form over the lcm
    of the drawn denominators."""
    from .jets import slot_layout

    draws = {}
    for alpha in slot_layout("function", n, degree).slots:
        c = rng.randint(-4, 4)
        if c:
            draws[_pack(alpha)] = (c, rng.randint(1, 3))
    den = reduce(lcm, (d for _, d in draws.values()), 1)
    return Poly._canon(n, {m: c * (den // d) for m, (c, d) in draws.items()}, den)
