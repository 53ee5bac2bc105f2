"""Reference arithmetic that the tests check the library against and
the library itself never calls: multi-index differences and the
sub-indices of a multi-index in graded lex order, and repeated partial
derivatives of a polynomial with their values at a point.  The library
reads the same arithmetic off the `jets.slot_layout` tables."""


def sub(alpha, beta):
    """alpha - beta; raises ValueError if any entry would be negative."""
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(x < 0 for x in out):
        raise ValueError(f"{beta} does not divide {alpha}")
    return out


def grlex_key(alpha):
    return (sum(alpha), alpha)


def sub_indices(alpha):
    """All beta with 0 <= beta <= alpha (componentwise), graded lex."""
    out = [()]
    for a in alpha:
        out = [beta + (b,) for beta in out for b in range(a + 1)]
    out.sort(key=grlex_key)
    return out


def diff_multi(p, alpha):
    """The partial derivative d^alpha of the polynomial p."""
    for j, a in enumerate(alpha):
        for _ in range(a):
            p = p.diff(j)
    return p


def derivative_value(p, alpha, point):
    """Value of the alpha-th partial derivative of p at a point."""
    return diff_multi(p, alpha).evaluate(point)
