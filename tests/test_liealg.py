import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc.linalg import Echelon, matmul, rank
from jetcalc.liealg import (
    ExtensionData,
    FiniteLieAlgebra,
    LieModule,
    ce_differential_rows,
    extension_two_cocycle,
    is_split,
    nilpotency_analysis,
    two_cocycle_witness,
    jet_group_algebra,
    validate_lie_algebra,
)
from jetcalc.cohomology import relative_ce_cohomology_dims, ce_cohomology_dims


def anti(structure):
    out = {}
    for (i, j, k), c in structure.items():
        out[(i, j, k)] = Fraction(c)
        out[(j, i, k)] = -Fraction(c)
    return out


def sl2():
    # basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return FiniteLieAlgebra(
        3, anti({(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
    )


def heisenberg():
    # [x, y] = z
    return FiniteLieAlgebra(3, anti({(0, 1, 2): 1}))


def test_validator_produces_witnesses():
    ok, witness = validate_lie_algebra(2, {(0, 1, 0): Fraction(1)})
    assert not ok and witness[0] == "antisymmetry"
    # perturb sl2 so antisymmetry holds but Jacobi fails
    bad = anti({(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1, (1, 2, 1): 1})
    ok, witness = validate_lie_algebra(3, bad)
    assert not ok and witness[0] == "jacobi"


def test_abelian_cohomology_is_full_exterior_algebra():
    g = FiniteLieAlgebra(3, {})
    dims = ce_cohomology_dims(g, g.trivial_module(), 3)
    assert dims == [comb(3, r) for r in range(4)]


def test_sl2_trivial_coefficients():
    dims = ce_cohomology_dims(sl2(), sl2().trivial_module(), 3)
    assert dims == [1, 0, 0, 1]


def test_two_dimensional_nonabelian():
    g = FiniteLieAlgebra(2, anti({(0, 1, 1): 1}))
    dims = ce_cohomology_dims(g, g.trivial_module(), 2)
    assert dims == [1, 1, 0]


def test_relative_cohomology_reduces_to_absolute_for_zero_subalgebra():
    g = sl2()
    absolute = ce_cohomology_dims(g, g.trivial_module(), 2)
    relative = relative_ce_cohomology_dims(g, [], g.trivial_module(), 2)
    assert absolute[: len(relative)] == relative


def test_relative_cohomology_of_sl2_over_its_cartan_subalgebra():
    """sl2 / span(h) is the 2-sphere: trivial coefficients give H*(S^2);
    the adjoint module has no relative cohomology."""
    g = sl2()
    h = [g.basis_vector(0)]
    assert relative_ce_cohomology_dims(g, h, g.trivial_module(), 2) == [1, 0, 1]
    assert relative_ce_cohomology_dims(g, h, g.trivial_module(), 3) == [1, 0, 1, 0]
    assert relative_ce_cohomology_dims(g, h, g.adjoint_module(), 2) == [0, 0, 0]
    # another Cartan subalgebra, off the basis: contracting with it
    # inserts e and f behind h, so the insertion signs matter
    other = [[Fraction(-1), Fraction(2), Fraction(2)]]
    assert relative_ce_cohomology_dims(g, other, g.trivial_module(), 3) == [1, 0, 1, 0]


def test_relative_cohomology_over_the_whole_algebra_is_a_point():
    g = sl2()
    s = [g.basis_vector(i) for i in range(g.dim)]
    assert relative_ce_cohomology_dims(g, s, g.trivial_module(), 3) == [1, 0, 0, 0]


def test_relative_cohomology_rejects_a_non_subalgebra():
    g = sl2()
    e_and_f = [g.basis_vector(1), g.basis_vector(2)]
    with pytest.raises(ValueError, match="not a subalgebra"):
        relative_ce_cohomology_dims(g, e_and_f, g.trivial_module(), 2)


def test_heisenberg_adjoint_cohomology():
    """H^0 with the adjoint module is the center, spanned by e_2; H^1 is
    the outer derivations, 6 - 2 dimensional."""
    g = heisenberg()
    assert ce_cohomology_dims(g, g.adjoint_module(), 1) == [1, 4]


def test_heisenberg_central_extension_does_not_split():
    g = heisenberg()
    ext = ExtensionData(g, [2])
    assert ext.ideal_is_abelian()
    cocycle = extension_two_cocycle(ext)
    assert any(any(c != 0 for c in v) for v in cocycle.values())
    assert not is_split(ext)


def test_direct_sum_extension_splits():
    # abelian 3-dim algebra, ideal spanned by the last coordinate
    g = FiniteLieAlgebra(3, {})
    ext = ExtensionData(g, [2])
    assert is_split(ext)


def test_nilpotency_analysis():
    h = nilpotency_analysis(heisenberg())
    assert h["lower_central_series_dims"] == [3, 1, 0]
    assert h["nilpotent"] and not h["abelian"]
    a = nilpotency_analysis(FiniteLieAlgebra(2, {}))
    assert a["abelian"]
    s = nilpotency_analysis(sl2())
    assert not s["nilpotent"]


def test_one_variable_jet_group_structure():
    """L(G_3) in one variable: with the jets of x d, x^2 d, x^3 d as
    basis, the brackets are [e1, e2] = e2, [e1, e3] = 2 e3, [e2, e3] = 0
    (the degree-4 field truncates away in order-3 jets)."""
    g = jet_group_algebra(1, 3)
    assert g.slots == [(0, (1,)), (0, (2,)), (0, (3,))]
    e = []
    from math import factorial

    for power in (1, 2, 3):
        v = [Fraction(0)] * 3
        v[power - 1] = Fraction(factorial(power))
        e.append(v)
    assert g.bracket(e[0], e[1]) == e[1]
    assert g.bracket(e[0], e[2]) == [2 * c for c in e[2]]
    assert g.bracket(e[1], e[2]) == [Fraction(0)] * 3


def test_one_variable_jet_group_extension_splits_with_abelian_kernel():
    """The order-3 jet group over the order-1 quotient in one variable:
    the ideal (jets of x^2 d, x^3 d) is abelian after truncation and the
    natural section is already a homomorphism, so the extension splits."""
    from jetcalc.multiindex import order

    g = jet_group_algebra(1, 3)
    E = g.finite_lie_algebra()
    a_indices = [i for i, (c, al) in enumerate(g.slots) if order(al) > 1]
    ext = ExtensionData(E, a_indices)
    assert ext.ideal_is_abelian()
    cocycle = extension_two_cocycle(ext)
    assert all(all(c == 0 for c in v) for v in cocycle.values())
    assert is_split(ext)
    nil = nilpotency_analysis(ext.ideal_algebra())
    assert nil["abelian"]


def test_two_variable_jet_group_extension_is_nonsplit_with_nonabelian_kernel():
    """In two variables the same construction behaves differently: the
    order-3 group over the order-1 quotient is a genuinely non-split
    extension and the kernel is nilpotent but not abelian."""
    from jetcalc.multiindex import order

    g = jet_group_algebra(2, 3)
    E = g.finite_lie_algebra()
    assert E.dim == 18
    a_indices = [i for i, (c, al) in enumerate(g.slots) if order(al) > 1]
    ext = ExtensionData(E, a_indices)
    assert not ext.ideal_is_abelian()
    nil = nilpotency_analysis(ext.ideal_algebra())
    assert nil["lower_central_series_dims"] == [14, 8, 0]
    assert nil["nilpotent"] and not nil["abelian"]
    # the abelian sub-extension over the order-2 quotient does not split
    m2_indices = [i for i, (c, al) in enumerate(g.slots) if order(al) > 2]
    ext2 = ExtensionData(E, m2_indices)
    assert ext2.ideal_is_abelian()
    cocycle = extension_two_cocycle(ext2)
    nonzero = sum(1 for v in cocycle.values() if any(c != 0 for c in v))
    assert nonzero > 0
    assert not is_split(ext2)


def _jet_group_extension_n2_k3_m2():
    from jetcalc.multiindex import order

    g = jet_group_algebra(2, 3)
    return ExtensionData(g, [i for i, (c, al) in enumerate(g.slots) if order(al) > 2])


def test_two_cocycle_witness_none_on_true_cocycles():
    for ext in (ExtensionData(heisenberg(), [2]), _jet_group_extension_n2_k3_m2()):
        assert ext.ideal_is_abelian()
        assert two_cocycle_witness(ext, extension_two_cocycle(ext)) is None


def test_two_cocycle_witness_finds_every_single_entry_corruption():
    ext = _jet_group_extension_n2_k3_m2()
    cocycle = extension_two_cocycle(ext)
    corruptions = 0
    for pair, value in cocycle.items():
        for a in range(len(value)):
            bad = dict(cocycle)
            bad[pair] = list(value)
            bad[pair][a] += 1
            witness = two_cocycle_witness(ext, bad)
            assert isinstance(witness, list) and len(witness) == 3
            assert witness == sorted(set(witness))
            corruptions += 1
            if corruptions == 40:
                return


def adjoint_algebras():
    return [
        sl2(),
        FiniteLieAlgebra(2, anti({(0, 1, 1): 1})),
        jet_group_algebra(1, 3),
        jet_group_algebra(2, 1),
    ]


def test_ce_differential_squares_to_zero_on_adjoint_modules():
    for g in adjoint_algebras():
        module = g.adjoint_module()
        for r in range(g.dim - 1):
            d0 = ce_differential_rows(g, module, r)
            for row in ce_differential_rows(g, module, r + 1):
                total = {}
                for j, x in row.items():
                    for col, y in d0[j].items():
                        total[col] = total.get(col, 0) + x * y
                assert not any(total.values()), (g.dim, r)


def test_sl2_adjoint_cohomology_vanishes():
    """Whitehead: a semisimple algebra has no cohomology with values in a
    nontrivial irreducible module."""
    assert ce_cohomology_dims(sl2(), sl2().adjoint_module(), 3) == [0, 0, 0, 0]


BRACKET_ALGEBRAS = {
    "sl2": sl2(),
    "heisenberg": heisenberg(),
    "jet_group_2_3": jet_group_algebra(2, 3),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BRACKET_ALGEBRAS)), st.data())
def test_bracket_matches_flat_structure_table(name, data):
    g = BRACKET_ALGEBRAS[name]
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    u = data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim))
    v = data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim))
    expected = [Fraction(0)] * g.dim
    for (i, j, k), c in g.structure.items():
        expected[k] += c * u[i] * v[j]
    assert g.bracket(u, v) == expected


def _matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def test_two_cocycle_witness_none_on_coboundaries():
    """d beta(i, j) = rho(e_i) beta(j) - rho(e_j) beta(i) - beta([e_i, e_j])
    is a 2-cocycle for every 1-cochain beta."""
    ext = _jet_group_extension_n2_k3_m2()
    Q, module = ext.Q, ext.kernel_module()
    rng = random.Random(13)
    for _ in range(5):
        beta = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(module.dim)]
            for _ in range(Q.dim)
        ]
        d_beta = {}
        for i in range(Q.dim):
            for j in range(i + 1, Q.dim):
                rho_i, rho_j = module.matrices[i], module.matrices[j]
                value = [x - y for x, y in zip(_matvec(rho_i, beta[j]), _matvec(rho_j, beta[i]))]
                for k, c in enumerate(Q.bracket(Q.basis_vector(i), Q.basis_vector(j))):
                    value = [x - c * y for x, y in zip(value, beta[k])]
                d_beta[(i, j)] = value
        assert any(any(x != 0 for x in v) for v in d_beta.values())
        assert two_cocycle_witness(ext, d_beta) is None


# The dense reference: the Chevalley-Eilenberg differential as a full
# matrix, entry by entry from its formula, and relative cohomology from a
# nullspace basis of the relative cochains and the matrix products of d.


def _oracle_keys(dim, r):
    return list(combinations(range(dim), r))


def _oracle_insert(k, rest):
    if k in rest:
        return None, 0
    pos = sum(1 for x in rest if x < k)
    return tuple(sorted(rest + (k,))), -1 if pos % 2 else 1


def oracle_differential(g, module, r):
    """(d w)(x_0..x_r) = sum_p (-1)^p rho(x_p) w(..^x_p..)
    + sum_{p<q} (-1)^(p+q) w([x_p, x_q], ..^x_p..^x_q..), as a dense
    matrix from r- to (r+1)-cochains."""
    m = module.dim
    in_pos = {key: i for i, key in enumerate(_oracle_keys(g.dim, r))}
    out_keys = _oracle_keys(g.dim, r + 1)
    mat = [[Fraction(0)] * (len(in_pos) * m) for _ in range(len(out_keys) * m)]
    for t, okey in enumerate(out_keys):
        for p, x in enumerate(okey):
            i = in_pos[okey[:p] + okey[p + 1 :]]
            for a in range(m):
                for b in range(m):
                    mat[t * m + a][i * m + b] += (-1) ** p * module.matrices[x][a][b]
        for p, q in combinations(range(len(okey)), 2):
            rest = tuple(x for s, x in enumerate(okey) if s not in (p, q))
            for k, c in enumerate(g.bracket(g.basis_vector(okey[p]), g.basis_vector(okey[q]))):
                merged, sign = _oracle_insert(k, rest)
                if c and merged is not None:
                    for a in range(m):
                        mat[t * m + a][in_pos[merged] * m + a] += (-1) ** (p + q) * sign * c
    return mat


def _oracle_contractions(g, s_basis, m, r):
    """Dense rows of w -> (i_X w)(rest) on r-cochains, r >= 1."""
    pos = {key: i for i, key in enumerate(_oracle_keys(g.dim, r))}
    rows = []
    for x in s_basis:
        for rest in _oracle_keys(g.dim, r - 1):
            for a in range(m):
                row = [Fraction(0)] * (len(pos) * m)
                for k, c in enumerate(x):
                    merged, sign = _oracle_insert(k, rest)
                    if c and merged is not None:
                        row[pos[merged] * m + a] += sign * c
                rows.append(row)
    return rows


def oracle_relative_cohomology(g, s_basis, module, r_max):
    """H^r = ker(d on C^r) / d(C^(r-1)), with C^r the nullspace of the
    contraction rows of w and of d w."""
    m = module.dim
    out, prev, contract = [], 0, []
    for r in range(r_max + 1):
        d = oracle_differential(g, module, r)
        width = len(_oracle_keys(g.dim, r)) * m
        contract_next = _oracle_contractions(g, s_basis, m, r + 1)
        sub = Echelon(contract + matmul(contract_next, d)).nullspace(width)
        rk = rank(matmul(sub, [list(col) for col in zip(*d)]))
        out.append(len(sub) - rk - prev)
        prev, contract = rk, contract_next
    return out


def _modules(g):
    return {"trivial1": g.trivial_module(), "trivial2": g.trivial_module(2), "adjoint": g.adjoint_module()}


ORACLE_ALGEBRAS = {
    "sl2": sl2,
    "heisenberg": heisenberg,
    "jet_group_1_3": lambda: jet_group_algebra(1, 3),
    "jet_group_2_1": lambda: jet_group_algebra(2, 1),
}


def _subalgebras(name, g):
    subs = {"zero": [], "e0": [g.basis_vector(0)], "whole": [g.basis_vector(i) for i in range(g.dim)]}
    if name == "sl2":
        subs["cartan"] = [[Fraction(-1), Fraction(2), Fraction(2)]]
    return subs


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_ce_differential_rows_match_the_dense_oracle(name):
    g = ORACLE_ALGEBRAS[name]()
    for module in _modules(g).values():
        for r in range(g.dim + 1):
            expected = oracle_differential(g, module, r)
            width = len(_oracle_keys(g.dim, r)) * module.dim
            rows = ce_differential_rows(g, module, r)
            dense = [[row.get(c, 0) for c in range(width)] for row in rows]
            assert dense == expected, (name, r)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_cohomology_matches_the_dense_oracle(name):
    g = ORACLE_ALGEBRAS[name]()
    for label, module in _modules(g).items():
        for sub_label, s_basis in _subalgebras(name, g).items():
            expected = oracle_relative_cohomology(g, s_basis, module, g.dim)
            got = relative_ce_cohomology_dims(g, s_basis, module, g.dim)
            assert got == expected, (name, label, sub_label)
            if not s_basis:
                assert ce_cohomology_dims(g, module, g.dim) == expected, (name, label)


def test_jet_group_2_2_adjoint_cohomology():
    """The adjoint cohomology of the order-2 jet algebra in two variables,
    absolute and relative to the span of its first basis vector."""
    g = jet_group_algebra(2, 2)
    module = g.adjoint_module()
    assert ce_cohomology_dims(g, module, 3) == [0, 1, 1, 0]
    assert relative_ce_cohomology_dims(g, [g.basis_vector(0)], module, 3) == [0, 1, 1, 0]


def _reference_ce_differential_rows(g, module, r):
    """The sparse differential with the Chevalley-Eilenberg formula
    written out in place, as it was before the term list moved to
    `multiindex.ce_terms`: the oracle of the shared formula."""
    m = module.dim
    in_pos = {key: i * m for i, key in enumerate(_oracle_keys(g.dim, r))}
    action = [
        [(a, b, c) for a, row in enumerate(mat) for b, c in enumerate(row) if c]
        for mat in module.matrices
    ]
    rows = []
    for okey in _oracle_keys(g.dim, r + 1):
        block = [{} for _ in range(m)]
        for p, x in enumerate(okey):
            i = in_pos[okey[:p] + okey[p + 1 :]]
            for a, b, c in action[x]:
                block[a][i + b] = -c if p % 2 else c
        for p, q in combinations(range(len(okey)), 2):
            rest = tuple(x for t, x in enumerate(okey) if t not in (p, q))
            for k, c in g.bracket_row(okey[p], okey[q]).items():
                merged, sign = _oracle_insert(k, rest)
                if merged is not None:
                    i, c = in_pos[merged], c if sign == (-1) ** (p + q) else -c
                    for a, row in enumerate(block):
                        row[i + a] = row[i + a] + c if i + a in row else c
        rows.extend(block)
    return rows


def test_ce_differential_rows_match_the_reference_rows():
    """Degrees 0..2 on the adjoint and trivial modules of two jet algebras
    and on the kernel module of the n=2, k=3, m=2 extension: the rows
    equal the reference rows, zero entries dropped."""
    modules = [
        module
        for g in (jet_group_algebra(1, 4), jet_group_algebra(2, 2))
        for module in (g.adjoint_module(), g.trivial_module())
    ]
    ext = _jet_group_extension_n2_k3_m2()
    cases = [(module.algebra, module) for module in modules] + [(ext.Q, ext.kernel_module())]

    def nonzero(rows):
        return [{col: c for col, c in row.items() if c} for row in rows]

    for g, module in cases:
        for r in range(3):
            expected = nonzero(_reference_ce_differential_rows(g, module, r))
            assert nonzero(ce_differential_rows(g, module, r)) == expected, (g.dim, module.dim, r)


# Integral constants stay ints after the gate; rational ones stay exact.


def test_jet_group_constants_and_ce_rows_are_ints():
    """Every constant of the jet-group algebra, every entry of the n=2,
    k=3, m=2 kernel module and of its degree-1 and degree-2 CE rows is
    an int: the integral path never builds a Fraction."""
    assert all(type(c) is int for c in jet_group_algebra(2, 3).structure.values())
    ext = _jet_group_extension_n2_k3_m2()
    module = ext.kernel_module()
    assert all(type(x) is int for mat in module.matrices for row in mat for x in row)
    for r in (1, 2):
        rows = ce_differential_rows(ext.Q, module, r)
        assert all(type(x) is int for row in rows for x in row.values()), r


def test_kernel_module_is_built_once_per_extension():
    ext = _jet_group_extension_n2_k3_m2()
    assert ext.kernel_module() is ext.kernel_module()
    from jetcalc.multiindex import order

    g = jet_group_algebra(2, 3)
    nonabelian = ExtensionData(g, [i for i, (c, al) in enumerate(g.slots) if order(al) > 1])
    with pytest.raises(ValueError, match="abelian ideal"):
        nonabelian.kernel_module()


@pytest.mark.parametrize("entry", ["structure", "module"])
def test_integral_scalars_are_stored_as_ints(entry):
    """"3", Fraction(6, 2) and 3 are stored as the int 3; "1/2" stays a
    Fraction."""

    def stored(x):
        if entry == "structure":
            neg = "-" + x if isinstance(x, str) else -x
            return FiniteLieAlgebra(2, {(0, 1, 0): x, (1, 0, 0): neg}).structure[(0, 1, 0)]
        return LieModule(FiniteLieAlgebra(1), 1, [[[x]]]).matrices[0][0][0]

    for x in ("3", Fraction(6, 2), 3):
        c = stored(x)
        assert type(c) is int and c == 3
    c = stored("1/2")
    assert type(c) is Fraction and c == Fraction(1, 2)


def _rescaled(g, scales):
    """g in the basis f_i = s_i e_i: [f_i, f_j] = sum_k c^k_ij s_i s_j / s_k f_k."""
    return FiniteLieAlgebra(
        g.dim, {(i, j, k): c * scales[i] * scales[j] / scales[k] for (i, j, k), c in g.structure.items()}
    )


def _no_floats(values):
    return all(type(x) in (int, Fraction) for x in values)


def test_rescaled_jet_group_algebra_gives_the_same_results():
    """Rescaling the basis of a jet-group algebra by seeded nonzero
    rationals makes its constants non-integral and leaves validation,
    adjoint cohomology, the lower central series and the extension's
    cocycle and splitting unchanged; no value on those paths is a float."""
    from jetcalc.multiindex import order

    rng = random.Random(25)
    for n, k, m in ((1, 4, 2), (2, 2, 1), (2, 3, 2)):
        g = jet_group_algebra(n, k)
        scales = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(2, 9)) for _ in range(g.dim)]
        h = _rescaled(g, scales)
        assert any(type(c) is Fraction for c in h.structure.values())
        assert _no_floats(h.structure.values())
        assert validate_lie_algebra(h.dim, h.structure) == validate_lie_algebra(g.dim, g.structure) == (True, None)
        if g.dim <= 10:
            assert ce_cohomology_dims(h, h.adjoint_module(), 2) == ce_cohomology_dims(g, g.adjoint_module(), 2)
        assert nilpotency_analysis(h) == nilpotency_analysis(g)
        a_indices = [i for i, (c, al) in enumerate(g.slots) if order(al) > m]
        exts = [ExtensionData(g, a_indices), ExtensionData(h, a_indices)]
        assert nilpotency_analysis(exts[1].ideal_algebra()) == nilpotency_analysis(exts[0].ideal_algebra())
        assert all(ext.ideal_is_abelian() for ext in exts)
        for ext in exts:
            module = ext.kernel_module()
            assert _no_floats(x for v in ext.cocycle.values() for x in v)
            assert _no_floats(x for mat in module.matrices for row in mat for x in row)
            for r in (1, 2):
                assert _no_floats(x for row in ce_differential_rows(ext.Q, module, r) for x in row.values())
            assert two_cocycle_witness(ext, ext.cocycle) is None
        assert is_split(exts[1]) == is_split(exts[0])
