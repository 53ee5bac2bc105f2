"""Multi-index combinatorics over a fixed chart dimension.

A multi-index is a tuple of n non-negative integers.  All basis
enumerations in the library use graded lexicographic order (by total
order first, then lexicographic), produced by :func:`multi_indices`.
"""

import operator
from itertools import combinations_with_replacement
from math import comb


def is_natural(x):
    """Whether x is a natural number (an int, not a bool, at least 0)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def order(alpha):
    """Total order |alpha| = sum of exponents."""
    return sum(alpha)


def unit(n, j):
    """The multi-index e_j of length n."""
    return tuple(1 if i == j else 0 for i in range(n))


def add(alpha, beta):
    return tuple(map(operator.add, alpha, beta))


def sub(alpha, beta):
    """alpha - beta; raises ValueError if any entry would be negative."""
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(x < 0 for x in out):
        raise ValueError(f"{beta} does not divide {alpha}")
    return out


def grlex_key(alpha):
    return (sum(alpha), alpha)


def multi_indices(n, k_max, k_min=0):
    """All multi-indices of length n with k_min <= |alpha| <= k_max, graded lex."""
    if n <= 0:
        raise ValueError("chart dimension must be positive")
    out = []
    for d in range(k_min, k_max + 1):
        level = []
        for bars in combinations_with_replacement(range(n), d):
            alpha = [0] * n
            for b in bars:
                alpha[b] += 1
            level.append(tuple(alpha))
        level.sort()
        out.extend(level)
    return out


def sub_indices(alpha):
    """All beta with 0 <= beta <= alpha (componentwise), graded lex."""
    out = [()]
    for a in alpha:
        out = [beta + (b,) for beta in out for b in range(a + 1)]
    out.sort(key=grlex_key)
    return out


def multi_binomial(alpha, beta):
    """Product of componentwise binomials C(alpha_i, beta_i), as an int.

    Zero when beta exceeds alpha in any component.
    """
    if len(alpha) != len(beta):
        raise ValueError("multi-index dimension mismatch")
    result = 1
    for a, b in zip(alpha, beta):
        if b > a:
            return 0
        result *= comb(a, b)
    return result


def factorial(alpha):
    """alpha! = product of component factorials."""
    result = 1
    for a in alpha:
        for m in range(2, a + 1):
            result *= m
    return result
