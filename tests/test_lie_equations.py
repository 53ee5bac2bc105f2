import random
from fractions import Fraction

import pytest

from jetcalc.arrows import Arrow
from jetcalc.jets import vector_slots
from jetcalc.lie_equations import (
    Christoffel,
    LinearJetSubspace,
    StructureJet,
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
from jetcalc.linalg import invert
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


def test_levi_civita_flat_and_conformal():
    gamma = levi_civita(flat_metric())
    assert all(c == 0 for c in gamma.coeffs.values())
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
    expected = LinearJetSubspace(
        2, 2, arrow.target,
        [jetcalc.arrows.pushforward_vector_jet(arrow, jet).as_vector() for jet in sub.jets()],
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
