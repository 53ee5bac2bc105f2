import random
from fractions import Fraction
from math import lcm

import pytest

from jetcalc.arrows import Arrow
from jetcalc.jets import vector_slots
from jetcalc.lie_equations import (
    Christoffel,
    LinearJetSubspace,
    StructureJet,
    _prolongation,
    ad_transform_subspace,
    atiyah_exactness,
    bracket_closure_check,
    killing_order2_completion,
    killing_system,
    levi_civita,
    linear_solution_sections,
    prolongation_report,
    restrict_projection,
    solve_system,
    subspaces_equal,
    symplectic_system,
)
from jetcalc.linalg import Echelon, invert, rank
from jetcalc.multiindex import add, multi_binomial, multi_indices, sub, sub_indices, unit
from jetcalc.poly import Poly


ZERO2 = (Fraction(0), Fraction(0))


def flat_metric(order=4):
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    return StructureJet.from_polynomial_matrix(
        "metric", [[one, zero], [zero, one]], order, ZERO2
    )


def sphere_metric():
    # order-3 slots at 0 of 4 delta_ij / (1 + x1^2 + x2^2)^2
    d = Poly(
        2, {(0, 0): Fraction(4), (2, 0): Fraction(-8), (0, 2): Fraction(-8)}
    )
    zero = Poly.zero(2)
    return StructureJet.from_polynomial_matrix(
        "metric", [[d, zero], [zero, d]], 3, ZERO2
    )


def generic_metric():
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    g22 = one + Poly.monomial(2, (2, 0)) + Poly.monomial(2, (3, 0))
    return StructureJet.from_polynomial_matrix(
        "metric", [[one, zero], [zero, g22]], 3, ZERO2
    )


def standard_symplectic(order=3):
    return StructureJet("two_form", 2, order, ZERO2, {(0, 1, (0, 0)): 1})


def rand_metric_jet(rng, n=2, order=2):
    while True:
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                coeffs[(i, j, (0,) * n)] = Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )
        for i in range(n):
            for j in range(i, n):
                for a in range(n):
                    al = tuple(1 if t == a else 0 for t in range(n))
                    coeffs[(i, j, al)] = Fraction(
                        rng.randint(-2, 2), rng.randint(1, 2)
                    )
        g = StructureJet("metric", n, order, (0,) * n, coeffs)
        if g.is_invertible():
            return g


def test_flat_metric_dimensions_and_bijectivity():
    rep = prolongation_report(flat_metric(), 4)
    assert [e["dim"] for e in rep["orders"]] == [3, 3, 3, 3]
    assert all(e["bijective"] for e in rep["orders"][1:])


def test_sphere_metric_dimensions_and_surjectivity():
    rep = prolongation_report(sphere_metric(), 3)
    assert [e["dim"] for e in rep["orders"]] == [3, 3, 3]
    assert all(e["surjective"] for e in rep["orders"][1:])


def test_generic_metric_projection_fails_by_rank():
    rep = prolongation_report(generic_metric(), 3)
    assert [e["dim"] for e in rep["orders"]] == [3, 3, 2]
    assert rep["orders"][1]["surjective"]
    last = rep["orders"][2]
    assert not last["surjective"]
    assert last["projection_rank"] == 2  # strictly below dim 3 below


def test_standard_symplectic_dimensions():
    rep = prolongation_report(standard_symplectic(), 3)
    assert [e["dim"] for e in rep["orders"]] == [5, 9, 14]
    assert all(e["surjective"] for e in rep["orders"][1:])


def test_nonclosed_two_form_fails_second_order_surjectivity():
    omega = StructureJet(
        "two_form",
        4,
        2,
        (0,) * 4,
        {
            (0, 1, (0, 0, 0, 0)): 1,
            (2, 3, (0, 0, 0, 0)): 1,
            (2, 3, (1, 0, 0, 0)): 1,
        },
    )
    assert not omega.is_closed()
    with pytest.raises(ValueError):
        symplectic_system(omega, 1, require_closed=True)
    rep = prolongation_report(omega, 2)
    assert not rep["orders"][1]["surjective"]


def test_closed_two_form_passes_closedness_gate():
    omega = standard_symplectic()
    assert omega.is_closed()
    rows = symplectic_system(omega, 1, require_closed=True)
    assert rows  # system exists


def test_killing_system_needs_metric_jet_of_matching_order():
    g = flat_metric(order=1)
    with pytest.raises(ValueError):
        killing_system(g, 2)


def test_structure_jet_rejects_malformed_slots():
    # the constructor validates, so library callers get a ValueError too
    for key in [(5, 0, (0, 0)), (0, 1, (-1, 0)), (0, 1, (True, 0)), (0, 1, ("a", 0)), (0, 1, (0,))]:
        with pytest.raises(ValueError):
            StructureJet("metric", 2, 2, ZERO2, {(0, 0, (0, 0)): 1, key: 1})
    for point in [(0,), (0, 0, 0)]:
        with pytest.raises(ValueError, match="base point dimension mismatch"):
            StructureJet("metric", 2, 2, point, {(0, 0, (0, 0)): 1, (1, 1, (0, 0)): 1})


def test_structure_jets_and_christoffel_symbols_store_no_zero():
    """Zero entries are checked against their mirror entries, then dropped:
    only nonzero values are stored, and `slot`/`value` read them as 0."""
    g = StructureJet("metric", 2, 1, ZERO2, {
        (0, 0, (0, 0)): 1, (1, 1, (0, 0)): 1, (0, 1, (0, 0)): 0, (1, 0, (0, 0)): 0,
        (0, 0, (1, 0)): Fraction(0),
    })
    assert g.coeffs == {(0, 0, (0, 0)): 1, (1, 1, (0, 0)): 1}
    assert g.slot(1, 0, (0, 0)) == 0 and g.slot(0, 0, (1, 0)) == 0
    assert flat_metric(order=2).coeffs == g.coeffs
    omega = StructureJet("two_form", 2, 1, ZERO2, {
        (0, 0, (0, 0)): 0, (1, 0, (0, 0)): -1, (0, 1, (1, 0)): 0, (1, 0, (1, 0)): 0,
    })
    assert omega.coeffs == {(0, 1, (0, 0)): 1} and omega.slot(1, 0, (1, 0)) == 0
    with pytest.raises(ValueError, match="inconsistent symmetric"):
        StructureJet("metric", 2, 1, ZERO2, {(0, 1, (0, 0)): 0, (1, 0, (0, 0)): 1})
    with pytest.raises(ValueError, match="inconsistent antisymmetric"):
        StructureJet("two_form", 2, 1, ZERO2, {(0, 1, (0, 0)): 1, (1, 0, (0, 0)): 0})
    gamma = Christoffel(2, {(0, 0, 1): 0, (0, 1, 0): 0, (1, 1, 1): 2, (1, 0, 0): Fraction(0)})
    assert gamma.coeffs == {(1, 1, 1): 2} and gamma.value(0, 1, 0) == 0
    assert gamma == Christoffel(2, {(1, 1, 1): 2})
    assert gamma != Christoffel(3, {(1, 1, 1): 2})
    with pytest.raises(ValueError, match="not symmetric in the lower pair"):
        Christoffel(2, {(0, 0, 1): 0, (0, 1, 0): 1})
    assert levi_civita(g).coeffs == {}


def test_subspace_rejects_malformed_input():
    width = len(vector_slots(2, 1))
    with pytest.raises(ValueError, match="base point dimension mismatch"):
        LinearJetSubspace(2, 1, (0, 0, 0), [[1] + [0] * (width - 1)])
    with pytest.raises(ValueError, match="base point dimension mismatch"):
        LinearJetSubspace(2, 1, (0,), [])
    with pytest.raises(ValueError, match="basis vector has wrong fiber dimension"):
        LinearJetSubspace(2, 1, ZERO2, [[1] * width, [1] * (width + 1)])


def test_spanning_set_keeps_its_rank_raising_vectors_in_order():
    width = len(vector_slots(2, 1))
    e = [[Fraction(int(i == j)) for j in range(width)] for i in range(width)]
    u = [a + 2 * b for a, b in zip(e[1], e[4])]
    spanning = [
        e[1], [2 * x for x in e[1]], u, [0] * width, e[4],
        [a - b for a, b in zip(u, e[1])], e[0], [a + b for a, b in zip(e[0], u)],
    ]
    sub = LinearJetSubspace(2, 1, ZERO2, spanning)
    assert sub.basis == [e[1], u, e[0]]
    assert sub.dim == rank(spanning) == 3
    assert all(sub.contains(v) for v in spanning)
    assert not any(sub.contains(e[i]) for i in (2, 3, 5))
    assert not sub.contains([a + b for a, b in zip(e[4], e[5])])
    assert subspaces_equal(sub, LinearJetSubspace(2, 1, ZERO2, sub.basis))
    # an all-dependent or empty spanning set spans the zero subspace
    zero = LinearJetSubspace(2, 1, ZERO2, [[0] * width] * 3)
    assert zero.basis == [] and zero.dim == 0 and zero.contains([0] * width)
    assert restrict_projection(zero, 1) == ([], 0, 0)


def test_levi_civita_flat_and_conformal():
    gamma = levi_civita(flat_metric())
    assert gamma.coeffs == {}
    # g = (1 + 2 x1) delta to first order: the only nonzero symbols are
    # built from the single derivative g_ii,1 = 2
    g = StructureJet(
        "metric",
        2,
        1,
        ZERO2,
        {
            (0, 0, (0, 0)): 1,
            (1, 1, (0, 0)): 1,
            (0, 0, (1, 0)): 2,
            (1, 1, (1, 0)): 2,
        },
    )
    gamma = levi_civita(g)
    expected = Christoffel(
        2,
        {
            (0, 0, 0): Fraction(1),
            (0, 1, 1): Fraction(-1),
            (1, 0, 1): Fraction(1),
        },
    )
    assert gamma == expected


def test_second_order_completion_matches_killing_solver():
    """On random invertible metric jets, the closed-form completion of a
    Killing 1-jet reproduces exactly the order-2 slots of every order-2
    solution, and the restricted projection to order 1 is injective."""
    rng = random.Random(77)
    slots2 = vector_slots(2, 2)
    pos = {s: i for i, s in enumerate(slots2)}
    n1 = len(vector_slots(2, 1))
    for _ in range(20):
        g = rand_metric_jet(rng)
        sub2 = solve_system(g, 2)
        _, rk, ker = restrict_projection(sub2, 1)
        assert ker == 0
        for v in sub2.basis:
            predicted = killing_order2_completion(g, v[:n1])
            for (i, alpha), val in predicted.items():
                assert v[pos[(i, alpha)]] == val


def test_atiyah_sequence_dimensions():
    for structure, k in ((flat_metric(), 2), (standard_symplectic(), 2)):
        sub = solve_system(structure, k)
        rep = atiyah_exactness(sub)
        assert rep["anchor_surjective"]
        assert rep["kernel_dim"] == rep["dim"] - 2
        assert rep["exact"]


def test_intransitive_system_is_flagged():
    slots = vector_slots(2, 1)
    basis = []
    for idx, (i, al) in enumerate(slots):
        if i == 0:
            v = [Fraction(0)] * len(slots)
            v[idx] = Fraction(1)
            basis.append(v)
    sub = LinearJetSubspace(2, 1, ZERO2, basis)
    rep = atiyah_exactness(sub)
    assert not rep["anchor_surjective"]
    assert not rep["exact"]


def test_bracket_closure_of_solution_sections():
    for structure in (flat_metric(), standard_symplectic()):
        sections = linear_solution_sections(structure, 2)
        sub = solve_system(structure, 2)
        assert bracket_closure_check(sections, sub)


def test_ad_transform_by_isometry_preserves_solutions():
    sub = solve_system(flat_metric(), 2)
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    comps = [
        Poly(2, {(1, 0): rot[i][0], (0, 1): rot[i][1]}) for i in range(2)
    ]
    arrow = Arrow.from_polynomial_map(comps, 3, ZERO2)
    assert subspaces_equal(ad_transform_subspace(arrow, sub), sub)


def test_ad_transform_inverts_the_arrow_once(monkeypatch):
    """The conjugated subspace along a nonlinear arrow calls invert_arrow
    once and agrees with pushing each basis jet by the public function."""
    import jetcalc.arrows

    sub = solve_system(flat_metric(), 2)
    comps = [
        Poly(2, {(1, 0): 1, (0, 1): 1, (2, 0): 1}),
        Poly(2, {(0, 1): 1, (1, 1): 2, (0, 3): 1}),
    ]
    arrow = Arrow.from_polynomial_map(comps, 3, ZERO2)
    # the reference pushforwards run along an unlinked copy, which they link
    unlinked = Arrow(arrow.n, arrow.k, arrow.source, arrow.target, arrow.coeffs)
    expected = LinearJetSubspace(
        2, 2, arrow.target,
        [jetcalc.arrows.pushforward_vector_jet(unlinked, jet).as_vector() for jet in sub.jets()],
    )
    real = jetcalc.arrows.invert_arrow
    calls = []

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(jetcalc.arrows, "invert_arrow", counting)
    moved = ad_transform_subspace(arrow, sub)
    assert len(calls) == 1
    assert subspaces_equal(moved, expected)
    assert moved.basis == expected.basis


def test_ad_transform_by_shear_matches_transformed_metric():
    sub = solve_system(flat_metric(), 2)
    shear = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    comps = [
        Poly(2, {(1, 0): shear[i][0], (0, 1): shear[i][1]}) for i in range(2)
    ]
    arrow = Arrow.from_polynomial_map(comps, 3, ZERO2)
    moved = ad_transform_subspace(arrow, sub)
    assert not subspaces_equal(moved, sub)
    # the image solves the system of the pushed-forward metric A^-T g A^-1
    inv = invert(shear)
    h = [
        [
            sum(inv[a][i] * inv[a][j] for a in range(2))
            for j in range(2)
        ]
        for i in range(2)
    ]
    pushed = StructureJet(
        "metric",
        2,
        3,
        ZERO2,
        {(i, j, (0, 0)): h[i][j] for i in range(2) for j in range(2)},
    )
    assert subspaces_equal(moved, solve_system(pushed, 2))


# ---------------------------------------------------------------------------
# incremental prolongation against the per-order dense builder it replaced,
# kept here as the oracle


def oracle_rows(structure, k):
    """The order-k invariance rows, dense Fraction lists built slot by slot."""
    n = structure.n
    pos = {s: i for i, s in enumerate(vector_slots(n, k))}
    pairs = [(i, j) for i in range(n) for j in range(i + (structure.kind != "metric"), n)]
    rows = []
    for alpha in multi_indices(n, k - 1):
        for i, j in pairs:
            row = [Fraction(0)] * len(pos)
            for beta in sub_indices(alpha):
                c = multi_binomial(alpha, beta)
                rest = sub(alpha, beta)
                for a in range(n):
                    row[pos[(a, beta)]] += c * structure.slot(i, j, add(rest, unit(n, a)))
                    row[pos[(a, add(beta, unit(n, i)))]] += c * structure.slot(a, j, rest)
                    row[pos[(a, add(beta, unit(n, j)))]] += c * structure.slot(i, a, rest)
            rows.append(row)
    return rows


def oracle_prolongation(structure, k_max):
    """Report and top basis, each order solved from scratch by its own echelon."""
    orders, prev = [], None
    for k in range(1, k_max + 1):
        width = len(vector_slots(structure.n, k))
        sub_k = LinearJetSubspace(
            structure.n, k, structure.point, Echelon(oracle_rows(structure, k)).nullspace(width)
        )
        entry = {"k": k, "dim": sub_k.dim}
        if prev is not None:
            images, rk, ker = restrict_projection(sub_k, k - 1)
            assert all(prev.contains(v) for v in images)
            entry.update(projection_rank=rk, kernel_dim=ker, surjective=rk == prev.dim,
                         bijective=rk == prev.dim and ker == 0)
        orders.append(entry)
        prev = sub_k
    return {"kind": structure.kind, "n": structure.n, "k_max": k_max, "orders": orders}, prev.basis


def seeded_structure(kind, n, order, density, seed):
    """An invertible metric or nondegenerate 2-form jet at a seeded point:
    the flat order-0 part plus a seeded coupling, and a seeded share of
    the higher slots set to small rationals."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + (kind != "metric"), n)]
    zero = (0,) * n
    if kind == "metric":
        coeffs = {(i, i, zero): n + rng.randint(0, 2) for i in range(n)}
        coeffs.update({(i, j, zero): rng.choice((-1, 0, 1)) for i, j in pairs if i < j})
    else:
        coeffs = {(i, i + 1, zero): rng.randint(1, 3) for i in range(0, n, 2)}
    for alpha in multi_indices(n, order, k_min=1):
        for i, j in pairs:
            if rng.random() < density:
                coeffs[(i, j, alpha)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    point = tuple(rng.randint(-2, 2) for _ in range(n))
    return StructureJet(kind, n, order, point, coeffs)


# (kind, n, k_max, density): flat and generic, n = 2..4, k <= 4, each cheap
PROLONG_CASES = [
    ("metric", 2, 4, 0.0), ("metric", 2, 4, 0.6), ("two_form", 2, 4, 0.0),
    ("two_form", 2, 4, 0.6), ("metric", 3, 4, 0.0), ("metric", 3, 3, 0.15),
    ("metric", 3, 2, 1.0), ("two_form", 4, 3, 0.0), ("two_form", 4, 2, 0.3),
    ("metric", 4, 3, 0.0), ("metric", 4, 2, 0.1),
]


@pytest.mark.parametrize("case", PROLONG_CASES, ids=lambda c: "-".join(map(str, c)))
def test_incremental_prolongation_matches_per_order_oracle(case):
    kind, n, k_max, density = case
    for seed in range(2):
        structure = seeded_structure(kind, n, k_max, density, seed)
        report, anchor = _prolongation(structure, k_max)
        want_report, want_basis = oracle_prolongation(structure, k_max)
        assert report == want_report == prolongation_report(structure, k_max)
        top = solve_system(structure, k_max)
        assert top.basis == want_basis
        assert all(type(x) is Fraction for v in top.basis for x in v)
        assert anchor == atiyah_exactness(top)


@pytest.mark.parametrize("case", PROLONG_CASES, ids=lambda c: "-".join(map(str, c)))
def test_invariance_rows_are_scaled_oracle_rows_and_grow_by_prefix(case):
    kind, n, k_max, density = case
    structure = seeded_structure(kind, n, k_max, density, 0)
    system = killing_system if kind == "metric" else symplectic_system
    den = lcm(*[c.denominator for c in structure.coeffs.values()])
    prev = []
    for k in range(1, k_max + 1):
        rows = system(structure, k)
        width = len(vector_slots(n, k))
        # the oracle's rows, times the lcm of the structure's denominators
        dense = [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]
        assert dense == [[den * x for x in row] for row in oracle_rows(structure, k)]
        # the rows with |alpha| <= k-2 are the order-(k-1) rows, zero-padded
        assert rows[: len(prev)] == prev
        assert all(0 <= c < width and type(x) is int and x for row in rows for c, x in row.items())
        prev = rows


def test_subspace_from_equations_is_their_nullspace():
    structure = seeded_structure("metric", 3, 2, 0.5, 1)
    rows = killing_system(structure, 2)
    width = len(vector_slots(3, 2))
    sub = solve_system(structure, 2)
    assert sub.basis == Echelon([[row.get(c, 0) for c in range(width)] for row in rows]).nullspace(width)
    assert all(sub.contains(v) for v in sub.basis)
    # a vector that breaks one equation is not in the subspace
    c, x = next(iter(rows[0].items()))
    off = [Fraction(0)] * width
    off[c] = Fraction(1, x)
    assert not sub.contains([a + b for a, b in zip(sub.basis[0], off)])
    assert subspaces_equal(sub, LinearJetSubspace(3, 2, structure.point, sub.basis))


def test_prolongation_checks_projection_ranks_against_lower_dimensions(monkeypatch):
    """The cross-check reads the pivots: hiding the lowest pivot where the
    order-2 projection rank is read raises that rank past dim R_1."""
    calls, real = [], Echelon.pivots.fget

    def pivots(self):
        calls.append(None)
        # the third read is the order-2 echelon's projection to order 1
        return real(self)[:-1] if len(calls) == 3 else real(self)

    monkeypatch.setattr(Echelon, "pivots", property(pivots))
    with pytest.raises(AssertionError, match="projection left the lower solution space"):
        _prolongation(flat_metric(), 2)


def test_prolongation_adds_each_row_once_and_builds_no_nullspace(monkeypatch):
    """One echelon of the order-k_max rows: each row goes in once, and
    every dimension and rank is read off its pivots."""
    structure = seeded_structure("two_form", 4, 3, 0.3, 1)
    added, nulls = [], []
    real_add, real_null = Echelon.add_row, Echelon.nullspace
    monkeypatch.setattr(Echelon, "add_row", lambda self, v: added.append(v) or real_add(self, v))
    monkeypatch.setattr(Echelon, "nullspace", lambda self, w: nulls.append(w) or real_null(self, w))
    _prolongation(structure, 3)
    assert len(added) == len(symplectic_system(structure, 3)) and nulls == []


# generic n = 4 jets at order 4, seed 1, recorded from the per-order
# nullspace builder the echelon replaced (too slow there for the oracle)
HEAVY_REPORTS = {
    "two_form": [
        {"k": 1, "dim": 14},
        {"k": 2, "dim": 30, "projection_rank": 10, "kernel_dim": 20, "surjective": False, "bijective": False},
        {"k": 3, "dim": 50, "projection_rank": 15, "kernel_dim": 35, "surjective": False, "bijective": False},
        {"k": 4, "dim": 73, "projection_rank": 17, "kernel_dim": 56, "surjective": False, "bijective": False},
    ],
    "metric": [
        {"k": 1, "dim": 10},
        {"k": 2, "dim": 10, "projection_rank": 10, "kernel_dim": 0, "surjective": True, "bijective": True},
        {"k": 3, "dim": 0, "projection_rank": 0, "kernel_dim": 0, "surjective": False, "bijective": False},
        {"k": 4, "dim": 0, "projection_rank": 0, "kernel_dim": 0, "surjective": True, "bijective": True},
    ],
}


@pytest.mark.parametrize("kind", sorted(HEAVY_REPORTS))
def test_generic_order4_reports_match_recorded(kind):
    structure = seeded_structure(kind, 4, 4, 1.0, 1)
    report, anchor = _prolongation(structure, 4)
    assert report == {"kind": kind, "n": 4, "k_max": 4, "orders": HEAVY_REPORTS[kind]}
    dim = HEAVY_REPORTS[kind][-1]["dim"]
    assert anchor == {"dim": dim, "anchor_rank": 0, "anchor_surjective": False,
                      "kernel_dim": dim, "exact": False}


# ---------------------------------------------------------------------------
# projection ranks read from the pivots of the span echelon


def assert_projection_ranks_are_image_ranks(sub):
    """For every order m in 0..k, the pivot-read projection rank is the
    rank of the returned images, which are the basis prefixes."""
    for m in range(sub.k + 1):
        images, rk, ker = restrict_projection(sub, m)
        assert images == [v[: len(vector_slots(sub.n, m))] for v in sub.basis]
        assert rk == rank(images) and ker == sub.dim - rk


@pytest.mark.parametrize("case", PROLONG_CASES, ids=lambda c: "-".join(map(str, c)))
def test_projection_rank_of_solution_spaces_is_image_rank(case):
    kind, n, k_max, density = case
    for seed in range(2):
        assert_projection_ranks_are_image_ranks(
            solve_system(seeded_structure(kind, n, k_max, density, seed), k_max)
        )


def test_projection_rank_of_seeded_spans_is_image_rank():
    rng = random.Random(23)
    for n, k in ((1, 3), (2, 1), (2, 2), (3, 2)):
        width = len(vector_slots(n, k))
        for _ in range(6):
            vectors = [
                [Fraction(rng.choice((0, 0, 0, 1, -2, 3)), rng.randint(1, 3)) for _ in range(width)]
                for _ in range(rng.randint(0, width))
            ]
            # a dependent combination, and the first vector cut to a prefix
            if vectors:
                vectors.append([2 * x - y for x, y in zip(vectors[0], vectors[-1])])
                cut = rng.randrange(width)
                vectors.append(vectors[0][:cut] + [Fraction(0)] * (width - cut))
            sub = LinearJetSubspace(n, k, tuple(rng.randint(-2, 2) for _ in range(n)), vectors)
            assert sub.dim == rank(vectors)
            assert_projection_ranks_are_image_ranks(sub)


def test_projection_order_out_of_range_raises():
    sub = solve_system(flat_metric(), 2)
    assert sub.dim == 3
    for m in (-1, 3, 5):
        with pytest.raises(ValueError, match=rf"projection order {m} out of range 0\.\.2"):
            restrict_projection(sub, m)
    assert restrict_projection(sub, 0)[1:] == (2, 1)
    assert restrict_projection(sub, 2)[1:] == (3, 0)
