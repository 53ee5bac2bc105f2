"""Multi-index combinatorics over a fixed chart dimension.

A multi-index is a tuple of n non-negative integers.  All basis
enumerations in the library use graded lexicographic order (by total
order first, then lexicographic), produced by :func:`multi_indices`.
Alternating keys are strictly increasing tuples: `_sign` and
`_insert_sorted` sort them with a sign, and `ce_terms` is the one
Chevalley-Eilenberg formula, of `liealg` cochains and `forms` alike.
"""

import operator
from itertools import combinations, combinations_with_replacement
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


def _sign(seq):
    """Sign of the permutation that sorts seq (distinct entries): -1 for
    an odd number of inversions, else 1."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


def _insert_sorted(k, rest):
    """Insert index k into a strictly increasing tuple; returns the
    sorted tuple and the alternation sign, or (None, 0) on repetition."""
    if k in rest:
        return None, 0
    pos = 0
    while pos < len(rest) and rest[pos] < k:
        pos += 1
    return rest[:pos] + (k,) + rest[pos:], -1 if pos % 2 else 1


def ce_terms(key, bracket):
    """The terms of (d w)(x_0..x_r) = sum_p (-1)^p x_p . w(..^x_p..)
    + sum_{p<q} (-1)^(p+q) w([x_p, x_q], ..^x_p..^x_q..) at a strictly
    increasing key, bracket(x, y) = [x, y] as {z: c}: (x_p, key without
    x_p, (-1)^p) per action term, then (None, key, signed c) per c."""
    terms = [(x, key[:p] + key[p + 1 :], -1 if p % 2 else 1) for p, x in enumerate(key)]
    for p, q in combinations(range(len(key)), 2):
        rest = key[:p] + key[p + 1 : q] + key[q + 1 :]
        for z, c in bracket(key[p], key[q]).items():
            merged, sign = _insert_sorted(z, rest)
            if merged is not None:
                terms.append((None, merged, c if sign == (-1) ** (p + q) else -c))
    return terms
