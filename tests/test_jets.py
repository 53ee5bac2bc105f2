import random
from fractions import Fraction

import pytest

from jetcalc.jets import (
    FunctionJetPoint,
    FunctionJetSection,
    VectorJetPoint,
    VectorJetSection,
    function_slots,
    is_holonomic,
    jet_product,
    jet_product_sum,
    jet_unit,
    prolong_function,
    prolong_vector_field,
    slot_layout,
    vector_point_from_coords,
    vector_slots,
)
from jetcalc.multiindex import add, multi_binomial, multi_indices, order, unit
from jetcalc.poly import Poly, random_poly
from oracles import derivative_value, diff_multi, sub, sub_indices


def test_slot_layout_orderings():
    assert function_slots(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert vector_slots(2, 1) == [
        (0, (0, 0)),
        (1, (0, 0)),
        (0, (0, 1)),
        (1, (0, 1)),
        (0, (1, 0)),
        (1, (1, 0)),
    ]
    assert all(order(a) >= 1 for _, a in vector_slots(2, 2, min_order=1))


def test_prolongation_is_holonomic_and_slots_are_derivatives():
    rng = random.Random(1)
    for _ in range(10):
        p = random_poly(2, rng, 3)
        jet = prolong_function(p, 3)
        ok, witness = is_holonomic(jet)
        assert ok and witness is None
        for alpha in multi_indices(2, 3):
            assert jet.slot(alpha) == diff_multi(p, alpha)


def test_generic_section_is_not_holonomic():
    jet = FunctionJetSection(
        2, 1, {(0, 0): Poly.zero(2), (1, 0): Poly.const(2, 1)}
    )
    ok, witness = is_holonomic(jet)
    assert not ok and witness is not None


def test_jet_product_matches_prolonged_product():
    rng = random.Random(2)
    for _ in range(10):
        p = random_poly(2, rng, 3)
        q = random_poly(2, rng, 3)
        lhs = jet_product(prolong_function(p, 2), prolong_function(q, 2))
        rhs = prolong_function(p * q, 2)
        assert all(lhs.slot(a) == rhs.slot(a) for a in multi_indices(2, 2))


def test_jet_unit_is_neutral():
    rng = random.Random(3)
    jet = prolong_function(random_poly(2, rng, 3), 2)
    one = jet_unit(2, 2)
    out = jet_product(one, jet)
    assert all(out.slot(a) == jet.slot(a) for a in multi_indices(2, 2))


def test_project_then_lift_preserves_low_slots():
    rng = random.Random(4)
    jet = prolong_function(random_poly(2, rng, 3), 3)
    low = jet.project(1)
    back = low.lift(3)
    for alpha in multi_indices(2, 1):
        assert back.slot(alpha) == jet.slot(alpha)
    for alpha in multi_indices(2, 3):
        if order(alpha) > 1:
            assert back.slot(alpha).is_zero()


def test_point_evaluation_round_trip():
    rng = random.Random(5)
    comps = [random_poly(2, rng, 3), random_poly(2, rng, 3)]
    section = prolong_vector_field(comps, 2)
    pt = (Fraction(1, 2), Fraction(-1, 3))
    jet = section.at(pt)
    rebuilt = vector_point_from_coords(2, 2, pt, jet.as_vector())
    assert rebuilt.as_vector() == jet.as_vector()
    for i, alpha in vector_slots(2, 2):
        assert jet.slot(i, alpha) == derivative_value(comps[i], alpha, pt)


POINT_KIND = {FunctionJetSection: FunctionJetPoint, VectorJetSection: VectorJetPoint}
SECTIONS = list(POINT_KIND)
ALL_KINDS = SECTIONS + list(POINT_KIND.values())
POINT = (Fraction(1, 2), Fraction(-1, 3))


def make_jet(cls, n, k, rng, point=POINT):
    """A random jet of the given class with every slot set."""
    vector = cls in (VectorJetSection, VectorJetPoint)
    slots = vector_slots(n, k) if vector else function_slots(n, k)
    if cls in SECTIONS:
        return cls(n, k, {s: random_poly(n, rng, 2) for s in slots})
    values = {s: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for s in slots}
    return cls(n, k, point[:n], values)


@pytest.mark.parametrize("cls", ALL_KINDS)
def test_jet_arithmetic_equality_and_hash(cls):
    rng = random.Random(6)
    a = make_jet(cls, 2, 2, rng)
    b = make_jet(cls, 2, 2, rng)
    assert a + b - b == a
    assert -a == a.scale(-1)
    assert a - a == a.scale(0)
    twin = make_jet(cls, 2, 2, random.Random(6))
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert len({a, twin, b}) == 2
    assert a.project(a.k) == a


@pytest.mark.parametrize("cls", ALL_KINDS)
def test_jet_mismatches_raise(cls):
    rng = random.Random(7)
    a = make_jet(cls, 2, 2, rng)
    others = [make_jet(cls, 2, 1, rng), make_jet(cls, 1, 2, rng)]
    if cls in SECTIONS:
        others.append(make_jet(POINT_KIND[cls], 2, 2, rng))
    else:
        others.append(make_jet(cls, 2, 2, rng, point=(Fraction(0), Fraction(0))))
        with pytest.raises(TypeError):
            cls(2, 2, None)
    for other in others:
        with pytest.raises(ValueError):
            a + other
        with pytest.raises(ValueError):
            a - other
        assert a != other


@pytest.mark.parametrize("cls", SECTIONS)
def test_section_evaluation_projection_lift_and_validation(cls):
    rng = random.Random(8)
    a = make_jet(cls, 2, 3, rng)
    for m in range(4):
        assert a.at(POINT).project(m) == a.project(m).at(POINT)
    old_slot = next(iter(a.coeffs))
    with pytest.raises(ValueError, match="lift may only set new slots"):
        a.lift(4, {old_slot: Poly.const(2, 1)})
    new_slot = list(a.lift(4).coeffs)[-1]
    assert a.lift(4, {new_slot: Poly.const(2, 1)}).project(3) == a
    above = list(a.lift(5).coeffs)[-1]
    with pytest.raises(ValueError, match="is not a slot of order at most 4"):
        a.lift(4, {above: Poly.const(2, 1)})
    if cls is FunctionJetSection:
        bad_slots = [(2, 0)]
    else:
        bad_slots = [(2, (0, 0)), (0, (2, 0))]
    for bad in bad_slots:
        with pytest.raises(ValueError, match="is not a slot of order at most 1"):
            cls(2, 1, {bad: 1})
        with pytest.raises(ValueError, match="is not a slot of order at most 1"):
            POINT_KIND[cls](2, 1, POINT, {bad: 1})
    with pytest.raises(ValueError):
        cls(2, -1)


def reference_jet_product(f, g):
    """(f*g)_alpha = sum C(alpha,beta) f_beta g_{alpha-beta}, term by term
    with one product per term."""
    out = {}
    for alpha in function_slots(f.n, f.k):
        total = 0
        for beta in sub_indices(alpha):
            total = total + multi_binomial(alpha, beta) * f.slot(beta) * g.slot(sub(alpha, beta))
        out[alpha] = total
    return out


@pytest.mark.parametrize("cls", [FunctionJetSection, FunctionJetPoint])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_jet_product_against_term_by_term_reference(cls, n, k):
    """The accumulating product, and a weighted sum of products, equal
    one product per term on non-holonomic sections and at a point."""
    rng = random.Random(10 + 10 * n + k)
    point = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))[:n]
    f, g, h = (make_jet(cls, n, k, rng, point) for _ in range(3))
    if cls is FunctionJetSection:
        assert not is_holonomic(f)[0]
    assert jet_product(f, g).coeffs == reference_jet_product(f, g)
    fg, hf = reference_jet_product(f, g), reference_jet_product(h, f)
    weighted = jet_product_sum({(): [(Fraction(-2, 3), f, g), (5, h, f)]})[()]
    assert weighted.coeffs == {a: fg[a] * Fraction(-2, 3) + hf[a] * 5 for a in fg}


def test_slot_layouts_are_shared_read_only_prefixes():
    """One cached layout per (kind, n, k, min_order): its slot tuple, its
    position map and its raised table cannot be mutated, and each
    order-m layout is a prefix of the order-k one."""
    layout = slot_layout("vector", 2, 2)
    assert slot_layout("vector", 2, 2) is layout
    assert layout.slots == tuple(vector_slots(2, 2))
    assert [layout.pos[s] for s in layout.slots] == list(range(len(layout.slots)))
    assert slot_layout("vector", 2, 3).slots[: len(layout.slots)] == layout.slots
    assert slot_layout("vector", 2, 2, min_order=1).slots == tuple(vector_slots(2, 2, min_order=1))
    assert layout.raised[(1, (0, 1)), 0] == (1, (1, 1))
    assert all(order(alpha) < 2 for (_, alpha), _ in layout.raised)
    assert slot_layout("function", 2, 1).raised == {
        ((0, 0), 0): (1, 0), ((0, 0), 1): (0, 1)
    }
    with pytest.raises(TypeError):
        layout.slots[0] = (0, (0, 0))
    with pytest.raises(AttributeError):
        layout.slots.append((0, (3, 0)))
    with pytest.raises(TypeError):
        layout.pos[(0, (3, 0))] = 0
    with pytest.raises(TypeError):
        del layout.pos[(0, (0, 0))]
    with pytest.raises(TypeError):
        layout.raised[(0, (2, 0)), 0] = (0, (3, 0))
    with pytest.raises(ValueError, match="unknown slot kind"):
        slot_layout("tensor", 2, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_slot_tables_match_the_multi_index_brute_force(n, k):
    """Every entry of a function layout's `products` and `leibniz` tables
    equals the sums, differences and binomials of `multiindex`, over every
    pair of slots the table covers, in layout order."""
    layout = slot_layout("function", n, k)
    slots = function_slots(n, k)
    products = {
        beta: tuple(
            (gamma, add(beta, gamma), multi_binomial(add(beta, gamma), beta))
            for gamma in slots
            if order(beta) + order(gamma) <= k
        )
        for beta in slots
    }
    assert dict(layout.products) == products
    leibniz = {
        (a, beta): tuple(
            (alpha, add(sub(alpha, beta), unit(n, a)), multi_binomial(alpha, beta))
            for alpha in slots
            if all(x >= y for x, y in zip(alpha, beta))
        )
        for beta in slots
        for a in range(n)
    }
    assert dict(layout.leibniz) == leibniz


def test_slot_tables_are_cached_and_read_only():
    layout = slot_layout("function", 2, 3)
    assert layout.products is slot_layout("function", 2, 3).products
    assert layout.leibniz is layout.leibniz
    with pytest.raises(TypeError):
        layout.products[(0, 0)] = ()
    with pytest.raises(TypeError):
        del layout.leibniz[0, (0, 0)]
    assert all(type(entries) is tuple for entries in layout.products.values())
    assert all(type(entries) is tuple for entries in layout.leibniz.values())
    for kind, min_order in (("vector", 0), ("function", 1)):
        with pytest.raises(ValueError, match="function layout of min_order 0"):
            slot_layout(kind, 2, 3, min_order).products
        with pytest.raises(ValueError, match="function layout of min_order 0"):
            slot_layout(kind, 2, 3, min_order).leibniz


@pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_basis_action_matches_the_slot_scan(n, k):
    """The table-driven closed form equals the scan it replaced: slot
    alpha is d_i f_alpha for b = 0, C(alpha, b) f_{alpha-b+e_i} for every
    alpha >= b, and zero elsewhere."""
    from jetcalc.spencer import basis_action

    f = make_jet(FunctionJetSection, n, k, random.Random(30 + 10 * n + k))
    fs = f.coeffs
    for i, b in vector_slots(n, k):
        if not order(b):
            scan = {alpha: p.diff(i) for alpha, p in fs.items()}
        else:
            scan = {
                alpha: fs[add(sub(alpha, b), unit(n, i))] * multi_binomial(alpha, b)
                for alpha in fs
                if all(x >= y for x, y in zip(alpha, b))
            }
        assert basis_action((i, b), f) == FunctionJetSection(n, k, scan), (i, b)


def test_slot_lists_are_fresh_copies_of_the_layout():
    for listed, kind in ((function_slots, "function"), (vector_slots, "vector")):
        first = listed(2, 2)
        first.append("junk")
        first[0] = None
        assert listed(2, 2) == list(slot_layout(kind, 2, 2).slots)
        assert listed(2, 2) is not listed(2, 2)


def rebuilt(jet):
    """The jet built again by its public constructor, which checks every
    key and gates every value."""
    if jet.point is None:
        return type(jet)(jet.n, jet.k, jet.coeffs)
    return type(jet)(jet.n, jet.k, jet.point, jet.coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_built_jets_equal_constructor_built_jets(n, k):
    """The jets that the kernels build on the unchecked `like` path equal
    their tables passed to the public constructors, slot for slot in
    layout order, with Poly values on sections and Fractions at a point."""
    from jetcalc.spencer import _bracket_slots, basis_action, spencer_operator

    rng = random.Random(100 + 10 * n + k)
    point = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))[:n]
    jets = {cls: [make_jet(cls, n, k, rng, point) for _ in range(2)] for cls in ALL_KINDS}
    built = []
    for cls in (FunctionJetSection, FunctionJetPoint):
        f, g = jets[cls]
        built += jet_product_sum({0: [(Fraction(-2, 3), f, g)], 1: [(5, g, f)]}).values()
    for cls in (VectorJetSection, VectorJetPoint):
        x, y = jets[cls]
        built += [_bracket_slots(x, y, k - 1), _bracket_slots(x, y, k)]
    built += [basis_action(s, jets[FunctionJetSection][0]) for s in vector_slots(n, k)]
    for cls in SECTIONS:
        built += spencer_operator(jets[cls][0])
    for cls, (jet, _) in jets.items():
        built += [jet.project(m) for m in range(k + 1)]
        listed = vector_slots if cls in (VectorJetSection, VectorJetPoint) else function_slots
        new = listed(n, k + 1)[len(jet.coeffs):]
        values = make_jet(cls, n, k + 1, rng, point).coeffs
        built.append(jet.lift(k + 1, {s: values[s] for s in new[::2]}))
    for jet in built:
        twin = rebuilt(jet)
        assert twin == jet and list(twin.coeffs) == list(jet.coeffs)
        kind = Poly if jet.point is None else Fraction
        assert all(type(v) is kind for v in jet.coeffs.values())


@pytest.mark.parametrize("cls", ALL_KINDS)
def test_like_still_rejects_a_slot_off_the_layout(cls):
    jet = make_jet(cls, 2, 1, random.Random(9))
    bad = (0, (2, 0)) if cls in (VectorJetSection, VectorJetPoint) else (2, 0)
    value = next(iter(jet.coeffs.values()))
    with pytest.raises(ValueError, match=r"\(2, 0\)\)? is not a slot of order at most 1"):
        jet.like(1, {bad: value})
    assert jet.like(1, {}) == jet.scale(0)
