from fractions import Fraction
from itertools import permutations
from math import comb

from jetcalc.multiindex import (
    _insert_sorted,
    _sign,
    add,
    ce_terms,
    factorial,
    multi_binomial,
    multi_indices,
    order,
    sub,
    sub_indices,
    unit,
)


def test_multi_indices_graded_lex_order():
    idx = multi_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_multi_indices_count():
    # stars and bars: C(n + k, n) indices of order <= k
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            assert len(multi_indices(n, k)) == comb(n + k, n)


def test_multi_indices_min_order():
    idx = multi_indices(2, 2, k_min=1)
    assert (0, 0) not in idx
    assert all(1 <= order(a) <= 2 for a in idx)


def test_unit_add_sub():
    assert unit(3, 1) == (0, 1, 0)
    assert add((1, 0, 2), (0, 1, 1)) == (1, 1, 3)
    assert sub((1, 1, 3), (0, 1, 1)) == (1, 0, 2)


def test_sub_indices_are_componentwise_bounded():
    alpha = (2, 1)
    subs = sub_indices(alpha)
    assert len(subs) == 6
    for beta in subs:
        assert all(0 <= b <= a for a, b in zip(alpha, beta))


def test_multi_binomial_matches_scalar_binomials():
    alpha, beta = (3, 2), (1, 2)
    expected = Fraction(comb(3, 1) * comb(2, 2))
    assert multi_binomial(alpha, beta) == expected


def test_binomial_row_sums():
    # sum over beta <= gamma of C(gamma, beta) equals 2^|gamma|
    for gamma in ((2, 2), (3, 0), (1, 2)):
        total = sum(multi_binomial(gamma, b) for b in sub_indices(gamma))
        assert total == 2 ** order(gamma)


def test_factorial_of_multi_index():
    assert factorial((3, 2)) == 12


def test_sign_matches_the_cycle_parity():
    # a permutation of m items with c cycles is a product of m - c transpositions
    for m in range(6):
        items = [3 * i * i - 7 for i in range(m)]  # distinct, increasing, not 0..m-1
        for seq in permutations(items):
            target = [items.index(x) for x in seq]  # position -> sorted position
            seen, cycles = set(), 0
            for start in range(m):
                if start not in seen:
                    cycles += 1
                    x = start
                    while x not in seen:
                        seen.add(x)
                        x = target[x]
            assert _sign(seq) == (-1) ** (m - cycles), seq


def test_insert_sorted_and_ce_terms():
    """One index goes into a strictly increasing key with the sign of
    the sort; the Chevalley-Eilenberg terms at a key list the action
    terms first, then each bracket constant on its sorted, signed key,
    constants whose index is already in the rest dropped."""
    assert _insert_sorted(2, (0, 3)) == ((0, 2, 3), -1)
    assert _insert_sorted(0, (1, 3)) == ((0, 1, 3), 1)
    assert _insert_sorted(3, (0, 3)) == (None, 0)
    table = {(0, 1): {3: 5, 2: 4}, (1, 2): {3: 7}}
    assert ce_terms((0, 1, 2), lambda x, y: table.get((x, y), {})) == [
        (0, (1, 2), 1), (1, (0, 2), -1), (2, (0, 1), 1), (None, (2, 3), 5), (None, (0, 3), 7)
    ]
    assert ce_terms((4,), lambda x, y: {}) == [(4, (), 1)]
