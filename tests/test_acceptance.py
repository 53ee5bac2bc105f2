"""Acceptance suite: one test per criterion, named so the verbose
pytest output gives a single pass/fail line for each."""

import json
import random
from fractions import Fraction

from jetcalc.arrows import (
    Arrow,
    compose_arrows,
    invert_arrow,
)
from jetcalc.forms import (
    FormKR,
    basis_section,
    eval_form,
    exterior_derivative,
    theta_structure_algebra,
)
from jetcalc.jets import (
    FunctionJetSection,
    VectorJetSection,
    jet_product,
    prolong_vector_field,
    vector_slots,
)
from jetcalc.liealg import jet_group_algebra
from jetcalc.multiindex import multi_indices
from jetcalc.poly import Poly
from jetcalc.spencer import jet_action, spencer_bracket


def rand_poly(n, rng, degree=2):
    coeffs = {}
    for alpha in multi_indices(n, degree):
        c = rng.randint(-3, 3)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 2))
    return Poly(n, coeffs)


def rand_vector_section(n, k, rng, degree=2):
    return VectorJetSection(
        n, k, {s: rand_poly(n, rng, degree) for s in vector_slots(n, k)}
    )


def rand_function_section(n, k, rng, degree=2):
    return FunctionJetSection(
        n, k, {a: rand_poly(n, rng, degree) for a in multi_indices(n, k)}
    )


def sections_equal(a, b):
    return all(a.coeffs[key] == b.coeffs[key] for key in a.coeffs)


def test_criterion_01_spencer_bracket_suite():
    """Antisymmetry, Jacobi, lift-independence, projection
    equivariance, and order-0 classical reduction on 200+ seeded random
    non-holonomic sections."""
    rng = random.Random(101)
    instances = 0
    # pairs: antisymmetry + lift independence + projection equivariance
    for _ in range(150):
        n = rng.randint(1, 2)
        k = rng.randint(1, 3)
        x = rand_vector_section(n, k, rng)
        y = rand_vector_section(n, k, rng)
        xy = spencer_bracket(x, y)
        yx = spencer_bracket(y, x)
        assert all(
            xy.coeffs[s] == -yx.coeffs[s] for s in xy.coeffs
        ), "antisymmetry failed"
        rnd = spencer_bracket(x, y, lift_policy="random", rng=rng)
        assert sections_equal(xy, rnd), "lift-independence failed"
        m = rng.randint(0, k - 1)
        assert sections_equal(
            xy.project(m), spencer_bracket(x.project(m), y.project(m))
        ), "projection equivariance failed"
        instances += 1
    # triples: Jacobi
    for _ in range(60):
        n = rng.randint(1, 2)
        k = rng.randint(1, 2)
        x = rand_vector_section(n, k, rng)
        y = rand_vector_section(n, k, rng)
        z = rand_vector_section(n, k, rng)
        total = spencer_bracket(spencer_bracket(x, y), z)
        total = total + spencer_bracket(spencer_bracket(y, z), x)
        total = total + spencer_bracket(spencer_bracket(z, x), y)
        assert all(p.is_zero() for p in total.coeffs.values()), "Jacobi failed"
        instances += 1
    # order-0 classical reduction
    for _ in range(20):
        n = 2
        x = rand_vector_section(n, 0, rng)
        y = rand_vector_section(n, 0, rng)
        br = spencer_bracket(x, y)
        z = (0,) * n
        for i in range(n):
            classical = sum(
                (
                    x.slot(a, z) * y.slot(i, z).diff(a)
                    - y.slot(a, z) * x.slot(i, z).diff(a)
                    for a in range(n)
                ),
                Poly.zero(n),
            )
            assert br.slot(i, z) == classical, "order-0 reduction failed"
        instances += 1
    assert instances >= 200


def test_criterion_02_jet_action_suite():
    """The bracket-action compatibility, the Leibniz rule, and the
    module rule for smooth-function jets, plus the prolongation
    homomorphism for polynomial fields."""
    rng = random.Random(202)
    instances = 0
    for _ in range(70):
        n = rng.randint(1, 2)
        k = rng.randint(1, 2)
        x = rand_vector_section(n, k, rng)
        y = rand_vector_section(n, k, rng)
        f = rand_function_section(n, k, rng)
        lhs = jet_action(spencer_bracket(x, y), f)
        rhs = jet_action(x, jet_action(y, f)) - jet_action(y, jet_action(x, f))
        assert sections_equal(lhs, rhs), "bracket-action compatibility failed"
        instances += 1
    for _ in range(70):
        n = rng.randint(1, 2)
        k = rng.randint(1, 2)
        x = rand_vector_section(n, k, rng)
        f = rand_function_section(n, k, rng)
        g = rand_function_section(n, k, rng)
        lhs = jet_action(x, jet_product(f, g))
        rhs = jet_product(jet_action(x, f), g) + jet_product(
            f, jet_action(x, g)
        )
        assert sections_equal(lhs, rhs), "Leibniz rule failed"
        instances += 1
    for _ in range(70):
        # smooth-function jets: higher slots vanish; the action reduces
        # to the classical derivative on the scalar factor
        n = rng.randint(1, 2)
        k = rng.randint(1, 2)
        x = rand_vector_section(n, k, rng)
        p = rand_poly(n, rng)
        z = (0,) * n
        smooth = FunctionJetSection(n, k, {z: p})
        g = rand_function_section(n, k, rng)
        lhs = jet_action(x, jet_product(smooth, g))
        xf0 = sum(
            (x.slot(a, z) * p.diff(a) for a in range(n)), Poly.zero(n)
        )
        rhs = jet_product(FunctionJetSection(n, k, {z: xf0}), g) + jet_product(
            smooth, jet_action(x, g)
        )
        assert sections_equal(lhs, rhs), "module rule failed"
        instances += 1
    assert instances >= 200
    # prolongation homomorphism j_k[X, Y] = [j_k X, j_k Y], degree <= 3
    for _ in range(20):
        n = rng.randint(1, 2)
        k = rng.randint(1, 3)
        xc = [rand_poly(n, rng, 3) for _ in range(n)]
        yc = [rand_poly(n, rng, 3) for _ in range(n)]
        classical = [
            sum(
                (
                    xc[a] * yc[i].diff(a) - yc[a] * xc[i].diff(a)
                    for a in range(n)
                ),
                Poly.zero(n),
            )
            for i in range(n)
        ]
        lhs = prolong_vector_field(classical, k)
        rhs = spencer_bracket(
            prolong_vector_field(xc, k), prolong_vector_field(yc, k)
        )
        assert sections_equal(lhs, rhs), "prolongation homomorphism failed"


def _classical_de_rham_d(r, coeffs, n):
    """Independent classical exterior derivative on polynomial forms,
    with the 1/(r+1) normalization used throughout the library.

    Forms are dicts: increasing index tuples -> Poly.
    """
    from itertools import combinations

    out = {key: Poly.zero(n) for key in combinations(range(n), r + 1)}
    for key, poly in coeffs.items():
        for j in range(n):
            if j in key:
                continue
            merged = tuple(sorted(key + (j,)))
            sign = (-1) ** merged.index(j)
            out[merged] = out[merged] + poly.diff(j) * Poly.const(
                n, Fraction(sign, r + 1)
            )
    return out


def test_criterion_03_form_complex_suite():
    """d squared is zero, d commutes with projection on compatible
    forms, the order-0 differential matches an independently coded
    classical de Rham operator slot-for-slot, and the intrinsic-formula
    evaluation is independent of how arguments extend the jets."""
    from itertools import combinations

    from jetcalc.forms import _intrinsic_value, kr_membership

    rng = random.Random(303)
    n = 2
    checked = 0
    # d^2 = 0 on 0-forms through the r <= 1 range of the complex
    for k in (1, 2):
        for _ in range(15):
            f = FormKR.from_function_section(rand_function_section(n, k, rng))
            assert exterior_derivative(exterior_derivative(f)).is_zero()
            checked += 1
    # projection commutation on filtration-compatible forms, r = 0, 1
    for k in (1, 2):
        for _ in range(10):
            f = FormKR.from_function_section(rand_function_section(n, k, rng))
            for m in range(k):
                assert exterior_derivative(f).project(m) == exterior_derivative(
                    f.project(m)
                )
            coeffs = {}
            for key in combinations(vector_slots(n, k), 1):
                max_order = max(sum(a) for _, a in key)
                sec = {
                    a: rand_poly(n, rng, 1)
                    for a in multi_indices(n, k)
                    if sum(a) >= max_order
                }
                coeffs[key] = FunctionJetSection(n, k, sec)
            omega = FormKR(n, k, 1, coeffs)
            for m in range(k):
                assert kr_membership(omega, m)
                assert exterior_derivative(omega).project(
                    m
                ) == exterior_derivative(omega.project(m))
            checked += 2
    assert checked >= 50
    # order 0: classical de Rham, slot for slot
    z = (0, 0)
    for _ in range(10):
        for r in (0, 1):
            poly_form = {
                key: rand_poly(n, rng)
                for key in combinations(range(n), r)
            }
            lib_form = FormKR(
                n,
                0,
                r,
                {
                    tuple((i, z) for i in key): FunctionJetSection(
                        n, 0, {z: poly}
                    )
                    for key, poly in poly_form.items()
                },
            )
            expected = _classical_de_rham_d(r, poly_form, n)
            got = exterior_derivative(lib_form)
            for key, poly in expected.items():
                assert (
                    got.coefficient(tuple((i, z) for i in key)).slot(z) == poly
                ), "classical de Rham mismatch"
    # extension-independence of the intrinsic evaluation
    for trial in range(20):
        r = rng.randint(0, 1)
        nn = 2 if r == 0 else 3
        omega = FormKR(
            nn,
            1,
            r,
            {
                key: rand_function_section(nn, 1, rng, 1)
                for key in combinations(vector_slots(nn, 1), r)
            },
        )
        args = [rand_vector_section(nn, 1, rng, 1) for _ in range(r + 1)]
        assert eval_form(exterior_derivative(omega), args) == _intrinsic_value(
            omega, args
        ), "extension-independence failed"


def test_criterion_04_constants_kernel():
    """Function jets annihilated by the full fiber of vector jets are
    exactly the constants."""
    for n in (1, 2):
        for k in (1, 2):
            spanning = [basis_section(n, k, s) for s in vector_slots(n, k)]
            basis = theta_structure_algebra(spanning, n, k, 3)
            assert len(basis) == 1, f"kernel not 1-dimensional at n={n}, k={k}"
            sec = basis[0]
            z = (0,) * n
            for j in range(n):
                assert sec.slot(z).diff(j).is_zero()
            for a in multi_indices(n, k):
                if a != z:
                    assert sec.slot(a).is_zero()


def test_criterion_05_riemannian_reproduction():
    """Flat, sphere, and stored generic 2D metrics reproduce the
    expected Killing solution dimensions and projection behavior."""
    from jetcalc.lie_equations import StructureJet, prolongation_report

    z2 = (Fraction(0), Fraction(0))
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    flat = StructureJet.from_polynomial_matrix(
        "metric", [[one, zero], [zero, one]], 4, z2
    )
    rep = prolongation_report(flat, 4)
    assert [e["dim"] for e in rep["orders"]] == [3, 3, 3, 3]
    assert all(e["bijective"] for e in rep["orders"][1:])

    d = Poly(2, {(0, 0): Fraction(4), (2, 0): Fraction(-8), (0, 2): Fraction(-8)})
    sphere = StructureJet.from_polynomial_matrix(
        "metric", [[d, zero], [zero, d]], 3, z2
    )
    rep = prolongation_report(sphere, 3)
    assert [e["dim"] for e in rep["orders"]] == [3, 3, 3]
    assert all(e["surjective"] for e in rep["orders"][1:])

    g22 = one + Poly.monomial(2, (2, 0)) + Poly.monomial(2, (3, 0))
    generic = StructureJet.from_polynomial_matrix(
        "metric", [[one, zero], [zero, g22]], 3, z2
    )
    rep = prolongation_report(generic, 3)
    last = rep["orders"][2]
    assert not last["surjective"]
    assert rep["orders"][1]["dim"] - last["projection_rank"] >= 1


def test_criterion_06_levi_civita_completion():
    """The closed-formula connection symbols give exactly the unique
    order-2 completion of Killing 1-jets, with injective restricted
    projection, on 20 random invertible metric jets."""
    from jetcalc.lie_equations import (
        killing_order2_completion,
        levi_civita,
        restrict_projection,
        solve_system,
        StructureJet,
    )

    rng = random.Random(606)
    slots2 = vector_slots(2, 2)
    pos = {s: i for i, s in enumerate(slots2)}
    n1 = len(vector_slots(2, 1))
    done = 0
    while done < 20:
        coeffs = {}
        for i in range(2):
            for j in range(i, 2):
                coeffs[(i, j, (0, 0))] = Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )
                for a in range(2):
                    al = (1, 0) if a == 0 else (0, 1)
                    coeffs[(i, j, al)] = Fraction(
                        rng.randint(-2, 2), rng.randint(1, 2)
                    )
        g = StructureJet("metric", 2, 2, (0, 0), coeffs)
        if not g.is_invertible():
            continue
        levi_civita(g)  # closed formula must exist for any such jet
        sub2 = solve_system(g, 2)
        _, _, ker = restrict_projection(sub2, 1)
        assert ker == 0, "restricted projection not injective"
        for v in sub2.basis:
            predicted = killing_order2_completion(g, v[:n1])
            for (i, alpha), val in predicted.items():
                assert v[pos[(i, alpha)]] == val, "completion mismatch"
        done += 1


def test_criterion_07_symplectic_surjectivity():
    """The standard area form passes the surjectivity probes at orders
    1..3; a stored non-closed 2-form jet in four variables fails the
    order-2 probe."""
    from jetcalc.lie_equations import StructureJet, prolongation_report

    omega = StructureJet("two_form", 2, 3, (0, 0), {(0, 1, (0, 0)): 1})
    rep = prolongation_report(omega, 3)
    assert all(e["surjective"] for e in rep["orders"][1:])

    bad = StructureJet(
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
    assert not bad.is_closed()
    rep = prolongation_report(bad, 2)
    assert not rep["orders"][1]["surjective"]


def test_criterion_08_jet_group_extension():
    """As stated for one variable: the order-3 over order-2 jet-group
    extension should have a nonzero class, the kernels one order down
    should be abelian, and the kernel over the order-1 quotient should
    be nilpotent non-abelian.

    The one-step kernels are abelian as required.  The other two
    sub-assertions fail in one variable: the bracket [x^2 d, x^3 d]
    truncates away in order-3 jets, making the section of the quotient a
    homomorphism (zero cocycle, split extension) and the kernel over the
    order-1 quotient abelian.  The same construction in two variables
    behaves as described (see the companion test below).  This test
    implements the criterion as stated and is expected to fail.
    """
    from jetcalc.liealg import (
        ExtensionData,
        extension_two_cocycle,
        is_split,
        nilpotency_analysis,
    )
    from jetcalc.multiindex import order

    g = jet_group_algebra(1, 3)
    E = g.finite_lie_algebra()

    # kernels of the one-step projections are abelian (m = 1, 2)
    for m in (1, 2):
        gm1 = jet_group_algebra(1, m + 1)
        Em1 = gm1.finite_lie_algebra()
        idx = [i for i, (c, al) in enumerate(gm1.slots) if order(al) > m]
        step = ExtensionData(Em1, idx)
        assert step.ideal_is_abelian(), f"one-step kernel not abelian at m={m}"

    # order-3 over order-2: the stated nonzero class
    idx_m2 = [i for i, (c, al) in enumerate(g.slots) if order(al) > 2]
    ext = ExtensionData(E, idx_m2)
    cocycle = extension_two_cocycle(ext)
    assert not is_split(ext), "extension splits in one variable"

    # kernel of the projection to order 1: stated nilpotent non-abelian
    idx_m1 = [i for i, (c, al) in enumerate(g.slots) if order(al) > 1]
    big = ExtensionData(E, idx_m1)
    nil = nilpotency_analysis(big.ideal_algebra())
    assert nil["nilpotent"] and not nil["abelian"], (
        "kernel to order 1 is abelian in one variable"
    )


def test_criterion_08_supplement_two_variables():
    """The same jet-group extension statements hold in two variables:
    nonzero class, non-split, and a nilpotent non-abelian kernel."""
    from jetcalc.liealg import (
        ExtensionData,
        extension_two_cocycle,
        is_split,
        nilpotency_analysis,
    )
    from jetcalc.multiindex import order

    g = jet_group_algebra(2, 3)
    E = g.finite_lie_algebra()
    idx_m2 = [i for i, (c, al) in enumerate(g.slots) if order(al) > 2]
    ext = ExtensionData(E, idx_m2)
    cocycle = extension_two_cocycle(ext)
    assert any(any(c != 0 for c in v) for v in cocycle.values())
    assert not is_split(ext)
    idx_m1 = [i for i, (c, al) in enumerate(g.slots) if order(al) > 1]
    nil = nilpotency_analysis(ExtensionData(E, idx_m1).ideal_algebra())
    assert nil["nilpotent"] and not nil["abelian"]


def test_criterion_09_klein_examples():
    """Affine line, projective line, and the full 2-by-2 linear algebra
    on the projective chart have the expected order and ghost, and jet
    evaluation is a bracket homomorphism through order 3."""
    from jetcalc.klein import (
        build_affine_example,
        build_projective_example,
        build_projective_line_example,
        isotropy_filtration,
        sigma_homomorphism_check,
    )

    affine = build_affine_example()
    rep = isotropy_filtration(affine)
    assert (rep["order"], rep["ghost_dim"]) == (1, 0)

    line = build_projective_line_example()
    rep = isotropy_filtration(line)
    assert (rep["order"], rep["ghost_dim"]) == (2, 0)

    gl2 = build_projective_example(1)
    rep = isotropy_filtration(gl2)
    assert (rep["order"], rep["ghost_dim"]) == (2, 1)

    for algebra in (affine, line, gl2):
        for m in (1, 2, 3):
            assert sigma_homomorphism_check(algebra, m)


def test_criterion_10_atiyah_exactness():
    """Anchor surjectivity and the kernel-dimension identity for the
    flat-metric and standard-symplectic systems; an intransitive system
    is flagged."""
    from jetcalc.lie_equations import (
        LinearJetSubspace,
        StructureJet,
        atiyah_exactness,
        solve_system,
    )

    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    flat = StructureJet.from_polynomial_matrix(
        "metric", [[one, zero], [zero, one]], 3, (Fraction(0), Fraction(0))
    )
    omega = StructureJet("two_form", 2, 3, (0, 0), {(0, 1, (0, 0)): 1})
    for structure in (flat, omega):
        for k in (1, 2):
            rep = atiyah_exactness(solve_system(structure, k))
            assert rep["anchor_surjective"]
            assert rep["kernel_dim"] == rep["dim"] - 2
            assert rep["exact"]

    slots = vector_slots(2, 1)
    basis = []
    for idx, (i, al) in enumerate(slots):
        if i == 0:
            v = [Fraction(0)] * len(slots)
            v[idx] = Fraction(1)
            basis.append(v)
    intransitive = LinearJetSubspace(2, 1, (Fraction(0), Fraction(0)), basis)
    rep = atiyah_exactness(intransitive)
    assert not rep["anchor_surjective"] and not rep["exact"]


def test_criterion_11_arrow_calculus():
    """Groupoid laws and projection compatibility on 500 random arrows,
    plus the one-variable chain-rule and inverse-derivative oracles."""
    rng = random.Random(1111)

    def rand_point(n):
        return tuple(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)
        )

    def rand_arrow(n, k, source):
        while True:
            comps = []
            for _ in range(n):
                coeffs = {}
                for alpha in multi_indices(n, k):
                    c = rng.randint(-2, 2)
                    if c:
                        coeffs[alpha] = Fraction(c, rng.randint(1, 2))
                comps.append(Poly(n, coeffs))
            try:
                return Arrow.from_polynomial_map(comps, k, source)
            except ValueError:
                continue

    for _ in range(500):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        p = rand_point(n)
        a = rand_arrow(n, k, p)
        b = rand_arrow(n, k, a.target)
        c = rand_arrow(n, k, b.target)
        ba = compose_arrows(b, a)
        assert compose_arrows(c, ba) == compose_arrows(compose_arrows(c, b), a)
        assert compose_arrows(a, Arrow.identity(n, k, p)) == a
        assert compose_arrows(Arrow.identity(n, k, a.target), a) == a
        inv = invert_arrow(a)
        assert compose_arrows(inv, a) == Arrow.identity(n, k, p)
        assert compose_arrows(a, inv) == Arrow.identity(n, k, a.target)
        if k > 1:
            m = rng.randint(1, k - 1)
            assert ba.project(m) == compose_arrows(b.project(m), a.project(m))

    # chain rule: g(x) = 2x + x^2, f(u) = 3u + 2u^2 at 0
    g = Arrow.from_polynomial_map(
        [Poly(1, {(1,): Fraction(2), (2,): Fraction(1)})], 2, (Fraction(0),)
    )
    f = Arrow.from_polynomial_map(
        [Poly(1, {(1,): Fraction(3), (2,): Fraction(2)})], 2, (Fraction(0),)
    )
    fg = compose_arrows(f, g)
    assert fg.slot(0, (1,)) == 6
    assert fg.slot(0, (2,)) == 22  # f'' g'^2 + f' g'' = 4*4 + 3*2
    inv = invert_arrow(g)
    assert inv.slot(0, (1,)) == Fraction(1, 2)
    assert inv.slot(0, (2,)) == Fraction(-1, 4)


def test_criterion_12_deterministic_reports(capsys):
    """Two runs of the CLI suites with identical seeds produce
    byte-identical JSON reports."""
    from jetcalc.cli import main

    suites = [
        ["check-identities", "--n", "2", "--k", "2", "--seed", "7", "--count", "2"],
        ["forms", "--n", "2", "--k", "1", "--seed", "5", "--count", "2"],
        ["prolong", "--builtin", "flat-metric-2d", "--kmax", "3"],
        ["klein", "--builtin", "gl2-projective"],
        ["extension", "--builtin", "jetgroup-ext-n1-k3-m2"],
        ["list-builtins"],
    ]
    first = []
    for argv in suites:
        main(argv)
        first.append(capsys.readouterr().out)
    for argv, before in zip(suites, first):
        main(argv)
        assert capsys.readouterr().out == before, f"nondeterministic: {argv}"
        json.loads(before)  # every report is valid JSON
