import json
import random
from fractions import Fraction
from functools import partial

import pytest

from jetcalc.klein import (
    RealizedLieAlgebra,
    build_affine_example,
    build_projective_example,
    build_projective_line_example,
    isotropy_filtration,
    klein_order_of_system,
    realized_jet_family,
    sigma_homomorphism_check,
    sigma_injective,
    validate_realization,
)
from jetcalc.jets import prolong_vector_field
from jetcalc.lie_equations import solve_system, StructureJet
from jetcalc.liealg import FiniteLieAlgebra
from jetcalc.linalg import Echelon, rank
from jetcalc.poly import Poly
from jetcalc.spencer import bracket_fields


def test_validate_realization_catches_wrong_constants():
    # claim [d, x d] = -d instead of d
    bad = FiniteLieAlgebra(
        2, {(0, 1, 0): Fraction(-1), (1, 0, 0): Fraction(1)}
    )
    fields = [[Poly.monomial(1, (0,))], [Poly.monomial(1, (1,))]]
    with pytest.raises(ValueError):
        RealizedLieAlgebra(bad, fields, (Fraction(0),))
    ok, witness = validate_realization(
        RealizedLieAlgebra(bad, fields, (Fraction(0),), check=False)
    )
    assert not ok and witness == (0, 1)


def test_affine_line_filtration():
    a = build_affine_example()
    assert a.is_transitive()
    rep = isotropy_filtration(a)
    assert rep["dims"][:2] == [1, 0]
    assert rep["order"] == 1
    assert rep["ghost_dim"] == 0


def test_projective_line_filtration():
    p = build_projective_line_example()
    rep = isotropy_filtration(p)
    assert rep["dims"][:3] == [2, 1, 0]
    assert rep["order"] == 2
    assert rep["ghost_dim"] == 0
    # effective at the stabilization order: jet evaluation is injective
    assert sigma_injective(p, rep["order"])


def test_gl2_projective_chart_has_scalar_ghost():
    g = build_projective_example(1)
    assert g.is_transitive()
    rep = isotropy_filtration(g)
    assert rep["dims"] == [3, 2, 1, 1]
    assert rep["order"] == 2
    assert rep["ghost_dim"] == 1
    # the ghost is the scalar matrices: coefficients equal on the two
    # diagonal cells, zero elsewhere
    (ghost,) = rep["ghost_basis"]
    diag = [ghost[0], ghost[3]]
    assert diag[0] == diag[1] != 0
    assert ghost[1] == ghost[2] == 0
    assert not sigma_injective(g, rep["order"])


def test_projective_plane_example():
    g = build_projective_example(2)
    rep = isotropy_filtration(g)
    assert rep["order"] == 2
    assert rep["ghost_dim"] == 1
    assert g.is_transitive()


def test_sigma_homomorphism_all_examples():
    for a in (
        build_affine_example(),
        build_projective_line_example(),
        build_projective_example(1),
    ):
        for m in (1, 2, 3):
            assert sigma_homomorphism_check(a, m)


def test_klein_order_of_flat_killing_system():
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    flat = StructureJet.from_polynomial_matrix(
        "metric", [[one, zero], [zero, one]], 4, (Fraction(0), Fraction(0))
    )
    family = [solve_system(flat, k) for k in range(1, 5)]
    assert klein_order_of_system(family, 4) == {
        "order": 1,
        "stabilized": True,
        "k_max": 4,
    }


def test_klein_order_of_projective_jets():
    g = build_projective_example(1)
    family = realized_jet_family(g, 4)
    assert [s.dim for s in family] == [2, 3, 3, 3]
    assert klein_order_of_system(family, 4)["order"] == 2


@pytest.mark.parametrize("n", [1, 2])
def test_realized_jet_family_projection_ranks_are_image_ranks(n):
    """Each order's subspace spans the prefixes of the basis jets, and for
    every m in 0..k its pivot-read projection rank is the rank of the
    returned images."""
    from jetcalc.jets import vector_slots
    from jetcalc.lie_equations import restrict_projection

    a = build_projective_example(n)
    table = a.basis_jets(3)
    for k, sub in enumerate(realized_jet_family(a, 3), start=1):
        jets = [v[: len(vector_slots(n, k))] for v in table]
        assert sub.dim == rank(jets) and all(sub.contains(v) for v in jets)
        for m in range(k + 1):
            images, rk, ker = restrict_projection(sub, m)
            assert images == [v[: len(vector_slots(n, m))] for v in sub.basis]
            assert rk == rank(images) and ker == sub.dim - rk


def test_realized_jet_family_eliminates_each_jet_once(monkeypatch):
    """The subspace's own span echelon picks the basis, so each order's
    jets go through `Echelon.add_row` once: 9 jets at 3 orders."""
    a = build_projective_example(2)
    calls, real = [], Echelon.add_row
    monkeypatch.setattr(Echelon, "add_row", lambda self, v: calls.append(v) or real(self, v))
    realized_jet_family(a, 3)
    assert len(calls) == 3 * a.algebra.dim == 27


def test_full_fiber_family_does_not_stabilize():
    from jetcalc.jets import vector_slots
    from jetcalc.lie_equations import LinearJetSubspace

    family = []
    for k in range(1, 4):
        w = len(vector_slots(2, k))
        basis = [
            [Fraction(1) if i == j else Fraction(0) for j in range(w)]
            for i in range(w)
        ]
        family.append(LinearJetSubspace(2, k, (Fraction(0), Fraction(0)), basis))
    out = klein_order_of_system(family, 3)
    assert out["order"] is None and not out["stabilized"]


def chart_change_example():
    """The projective line conjugated by the chart change x -> x + x^2,
    which fixes 0; the pushforward fields are computed symbolically via
    the inverse substitution, truncated beyond the jet orders probed."""
    p = build_projective_line_example()
    depth = 8
    fwd = Poly(1, {(1,): Fraction(1), (2,): Fraction(1)})
    # inverse series of x + x^2, refined iteratively to high degree
    inv = Poly(1, {(1,): Fraction(1)})
    for _ in range(depth):
        comp = fwd.compose([inv], depth)
        err = comp - Poly(1, {(1,): Fraction(1)})
        inv = inv - err
    assert fwd.compose([inv], depth // 2) == Poly(1, {(1,): Fraction(1)})
    dfwd = fwd.diff(0)
    new_fields = []
    for f in p.fields:
        # pushforward: (phi_* X)(y) = phi'(phi^-1 y) X(phi^-1 y)
        comp = (dfwd * f[0]).compose([inv], depth // 2)
        new_fields.append([comp])
    return RealizedLieAlgebra(p.algebra, new_fields, (Fraction(0),), check=False)


def test_filtration_invariant_under_chart_change():
    """Conjugating the realization by a polynomial chart change does not
    move the filtration dimensions."""
    p = build_projective_line_example()
    q = chart_change_example()
    rep_p = isotropy_filtration(p)
    rep_q = isotropy_filtration(q)
    assert rep_p["dims"] == rep_q["dims"]
    assert rep_p["order"] == rep_q["order"]


@pytest.mark.parametrize(
    "build",
    [
        build_affine_example,
        build_projective_line_example,
        partial(build_projective_example, 1),
        partial(build_projective_example, 2),
        partial(build_projective_example, 3),
        chart_change_example,
    ],
    ids=["affine-line", "projective-line", "gl2-projective", "projective-2",
         "projective-3", "chart-change"],
)
def test_isotropy_filtration_matches_rank_oracle(build):
    """dim h_k = dim - rank of the order-k jets of the basis fields at the
    base point, each order prolonged on its own."""
    a = build()
    rep = isotropy_filtration(a)
    dims, order = rep["dims"], rep["order"]
    oracle = [
        a.algebra.dim
        - rank([prolong_vector_field(f, k).at(a.point).as_vector() for f in a.fields])
        for k in range(len(dims))
    ]
    assert dims == oracle
    # reported one step past the order, where the chain is already stable
    assert len(dims) == order + 2 and rep["stabilized"]
    assert dims[order] == dims[order + 1] == rep["ghost_dim"]
    assert all(d > dims[order] for d in dims[:order])


@pytest.mark.parametrize(
    "build", [build_affine_example, build_projective_line_example, partial(build_projective_example, 1)],
    ids=["affine-line", "projective-line", "gl2-projective"],
)
def test_isotropy_filtration_builds_one_nullspace_the_ghost(build, monkeypatch):
    """Each dim h_k is read as dim less a rank; the one nullspace, at the
    top order, is the left kernel of the jets at the stabilization order,
    vector for vector."""
    from jetcalc.jets import vector_slots

    a = build()
    calls, real = [], Echelon.nullspace
    monkeypatch.setattr(Echelon, "nullspace", lambda self, w: calls.append(w) or real(self, w))
    rep = isotropy_filtration(a)
    assert calls == [a.algebra.dim]
    width = len(vector_slots(a.n, rep["order"]))
    jets = [v[:width] for v in a.basis_jets(rep["order"])]
    assert rep["ghost_basis"] == real(Echelon(zip(*jets)), a.algebra.dim)


def test_high_degree_field_stabilizes_at_its_degree():
    """x^11 d/dx spans a one-dimensional abelian algebra; its jets at 0
    vanish up to order 10 and not at order 11."""
    field = [Poly.monomial(1, (11,))]
    a = RealizedLieAlgebra(FiniteLieAlgebra(1, {}), [field], (Fraction(0),))
    rep = isotropy_filtration(a)
    assert rep["dims"] == [1] * 11 + [0, 0]
    assert rep["order"] == 11 and rep["stabilized"] and rep["ghost_dim"] == 0


def test_top_order_jet_homomorphism_check_implies_the_lower_ones():
    """On realizations built unchecked that break the homomorphism, the
    order-m check fails whenever a lower-order one does, so the CLI's one
    check at order + 1 equals the checks at every order up to it."""
    rng = random.Random(5)
    lower_failures = 0
    for trial in range(12):
        good = build_projective_example(1 + trial % 2)
        n = good.n
        fields = [list(f) for f in good.fields]
        b, i = rng.randrange(len(fields)), rng.randrange(n)
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        fields[b][i] = fields[b][i] + Poly.monomial(n, alpha, rng.choice((-1, 1, 2)))
        bad = RealizedLieAlgebra(good.algebra, fields, good.point, check=False)
        assert not validate_realization(bad)[0]
        checks = [sigma_homomorphism_check(bad, m) for m in range(1, 5)]
        for top in range(len(checks)):
            assert checks[top] == all(checks[: top + 1])
        lower_failures += not all(checks[:2])
    assert lower_failures


def test_klein_cli_validates_once_and_checks_the_top_order(monkeypatch, capsys):
    import jetcalc.klein
    from jetcalc.cli import main

    calls = []
    for name in ("validate_realization", "sigma_homomorphism_check"):
        real = getattr(jetcalc.klein, name)
        monkeypatch.setattr(
            jetcalc.klein, name,
            lambda *args, real=real, name=name: calls.append((name, args[1:])) or real(*args),
        )
    assert main(["klein", "--builtin", "projective", "--n", "2"]) == 0
    order = json.loads(capsys.readouterr().out)["results"]["order"]
    assert calls == [("validate_realization", ()), ("sigma_homomorphism_check", (order + 1,))]


def test_klein_cli_prolongs_each_basis_field_once(monkeypatch, capsys):
    """The filtration and the homomorphism check of one `klein` run read
    one table of basis jets: `jet_at_point` runs once per basis element."""
    from jetcalc.cli import main

    calls, real = [], RealizedLieAlgebra.jet_at_point
    monkeypatch.setattr(
        RealizedLieAlgebra, "jet_at_point",
        lambda self, coords, k: calls.append(k) or real(self, coords, k),
    )
    assert main(["klein", "--builtin", "projective", "--n", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == build_projective_example(3).algebra.dim == 16


def test_basis_jets_are_prefix_copies_of_the_highest_table():
    a = build_projective_example(2)
    top = a.basis_jets(3)
    low = a.basis_jets(1)
    assert low == [v[: len(low[0])] for v in top]
    low[0][0] = Fraction(99)
    assert a.basis_jets(3) == top and a.basis_jets(1)[0][0] != 99
