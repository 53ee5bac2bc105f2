"""Finite-dimensional Lie algebras over the rationals: structure
constant validation, the isotropy jet group algebra (`JetGroupAlgebra`,
its constants `jets.basis_bracket`, read off the slot layout's `leibniz`
table), the Chevalley-Eilenberg differential, abelian extensions with
their 2-cocycles and splitting test, and lower-central-series analysis.
Cohomology dimensions, absolute and relative, are `cohomology`'s.

Structure constants and module entries pass the exact-scalar gate in
its normal form, `poly._as_exact`: an integral value is kept as an int,
so an integral algebra (every jet-group algebra) runs on int arithmetic
throughout, from the Jacobi check to the echelons of cohomology and the
splitting test, while a rational one keeps its Fractions.  No value here
is ever divided.

An algebra keeps its constants twice: flat, as validated, and indexed by
basis pair (`FiniteLieAlgebra.rows`), so brackets and the Jacobi check
visit only nonzero constants.  The Chevalley-Eilenberg differential is
built once, as sparse rows by `ce_differential_rows` from the term list
`multiindex.ce_terms` that `forms.exterior_derivative` shares, and every
reader takes those rows: the 2-cocycle check, the splitting test and
`cohomology`."""

from itertools import combinations

from .jets import basis_bracket, slot_layout
from .linalg import Echelon, matmul, solve
from .multiindex import ce_terms, is_natural
from .poly import _as_exact, _shown


class FiniteLieAlgebra:
    """Structure constants c[(i,j,k)] meaning [e_i, e_j] = sum_k c^k_{ij} e_k.

    `structure` is the flat table; `rows` indexes the same constants by
    basis pair, {(i, j): {k: c}}, so a basis bracket is one lookup.
    Each constant passes the exact-scalar gate in its normal form
    `poly._as_exact`, so integral constants are stored as ints.  A dim
    that is not a natural number, or an index outside 0..dim-1, always
    raises ValueError; antisymmetry and the Jacobi identity are verified
    at construction when check is set.
    """

    __slots__ = ("dim", "structure", "rows")

    def __init__(self, dim, structure=None, check=True):
        if not is_natural(dim):
            raise ValueError(f"dimension {_shown(dim)} is not a natural number")
        self.dim = dim
        table = {}
        if structure:
            for (i, j, k), c in structure.items():
                if not all(is_natural(x) and x < dim for x in (i, j, k)):
                    key = _shown((i, j, k))
                    raise ValueError(f"structure constant indices {key} not in 0..{dim - 1}")
                c = _as_exact(c)
                if c != 0:
                    table[(i, j, k)] = c
        self.structure = table
        self.rows = _rows(table)
        if check:
            ok, witness = validate_lie_algebra(dim, table)
            if not ok:
                raise ValueError(f"structure constants fail at {witness}")

    def bracket_row(self, i, j):
        """[e_i, e_j] as a sparse {k: c} row; do not mutate it."""
        return self.rows.get((i, j), {})

    def bracket(self, u, v):
        out = [0] * self.dim
        v_terms = [(j, b) for j, b in enumerate(v) if b != 0]
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in v_terms:
                for k, c in self.bracket_row(i, j).items():
                    out[k] += c * a * b
        return out

    def basis_vector(self, i):
        e = [0] * self.dim
        e[i] = 1
        return e

    def is_abelian(self):
        return not self.structure

    def adjoint_module(self):
        mats = [_zeros(self.dim) for _ in range(self.dim)]
        for (i, j, k), c in self.structure.items():
            mats[i][k][j] += c
        return LieModule(self, self.dim, mats)

    def trivial_module(self, m=1):
        return LieModule(self, m, [_zeros(m) for _ in range(self.dim)])


def _zeros(m):
    """The m x m zero matrix of ints."""
    return [[0] * m for _ in range(m)]


def _rows(structure):
    rows = {}
    for (i, j, k), c in structure.items():
        rows.setdefault((i, j), {})[k] = c
    return rows


def validate_lie_algebra(dim, structure):
    """Exact antisymmetry + Jacobi check; returns (ok, witness)."""
    for (i, j, k), c in structure.items():
        if structure.get((j, i, k), 0) != -c:
            return False, ("antisymmetry", i, j, k)
    rows = _rows(structure)
    for i, j, k in combinations(range(dim), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for e, x in rows.get((b, c), {}).items():
                for f, y in rows.get((a, e), {}).items():
                    total[f] = total.get(f, 0) + x * y
        if any(x != 0 for x in total.values()):
            return False, ("jacobi", i, j, k)
    return True, None


class JetGroupAlgebra(FiniteLieAlgebra):
    """The Lie algebra of the isotropy jet group at a point: basis slots
    (i, alpha) with 1 <= |alpha| <= k, the k-jets of the fields
    x^alpha/alpha! d_i, antisymmetry and Jacobi checked on construction."""

    __slots__ = ("n", "k", "slots")

    def __init__(self, n, k):
        if k < 1:
            raise ValueError("order must be at least 1")
        self.n = n
        self.k = k
        self.slots = list(slot_layout("vector", n, k, min_order=1).slots)
        super().__init__(len(self.slots), self._structure_constants())

    def _structure_constants(self):
        """[x^a/a! d_i, x^b/b! d_j] = `basis_bracket((i, a), (j, b), k)`,
        the bracket of the basis jets with a single slot equal to 1."""
        pos = slot_layout("vector", self.n, self.k, min_order=1).pos
        table = {}
        for (p, s), (q, t) in combinations(enumerate(self.slots), 2):
            out = {pos[u]: c for u, c in basis_bracket(s, t, self.k).items()}
            for r in sorted(out):
                table[(p, q, r)] = out[r]
                table[(q, p, r)] = -out[r]
        return table

    def finite_lie_algebra(self):
        """This algebra: it is a FiniteLieAlgebra, checked on construction."""
        return self


def jet_group_algebra(n, k):
    return JetGroupAlgebra(n, k)


class LieModule:
    """A representation: one dim x dim action matrix per basis element
    of g (a wrong count or shape always raises ValueError), each entry
    through the exact-scalar gate's normal form `poly._as_exact`, so
    integral entries are stored as ints."""

    __slots__ = ("algebra", "dim", "matrices")

    def __init__(self, algebra, dim, matrices, check=True):
        if len(matrices) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        if any(len(mat) != dim or any(len(row) != dim for row in mat) for mat in matrices):
            raise ValueError(f"action matrices must be {dim} x {dim}")
        self.algebra = algebra
        self.dim = dim
        self.matrices = [[[_as_exact(x) for x in row] for row in mat] for mat in matrices]
        if check and not self._is_representation():
            raise ValueError("matrices do not define a representation")

    def _is_representation(self):
        """rho(e_i) rho(e_j) - rho(e_j) rho(e_i) = rho([e_i, e_j])."""
        g, mats, m = self.algebra, self.matrices, self.dim
        for i, j in combinations(range(g.dim), 2):
            ij, ji = matmul(mats[i], mats[j]), matmul(mats[j], mats[i])
            comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ij, ji)]
            expected = _zeros(m)
            for k, c in g.bracket_row(i, j).items():
                for a in range(m):
                    for b in range(m):
                        expected[a][b] += c * mats[k][a][b]
            if comm != expected:
                return False
        return True


def _cochain_keys(dim, r):
    return list(combinations(range(dim), r))


def ce_differential_rows(g, module, r):
    """The Chevalley-Eilenberg differential from r- to (r+1)-cochains with
    values in the module, as sparse {column: value} rows: row t*m + a is
    the coordinate a of (d w) at the t-th (r+1)-key, and column i*m + b
    the coordinate b of w at the i-th r-key (m = module.dim, keys in
    `_cochain_keys` order), from the terms `multiindex.ce_terms` lists,
    x_p acting by rho(x_p)."""
    m = module.dim
    in_pos = {key: i * m for i, key in enumerate(_cochain_keys(g.dim, r))}
    action = [
        [(a, b, c) for a, row in enumerate(mat) for b, c in enumerate(row) if c]
        for mat in module.matrices
    ]
    rows = []
    for okey in _cochain_keys(g.dim, r + 1):
        block = [{} for _ in range(m)]
        # the action terms come first and never share a column: each drops another x_p
        for x, key, c in ce_terms(okey, g.bracket_row):
            i = in_pos[key]
            if x is not None:
                for a, b, v in action[x]:
                    block[a][i + b] = v if c > 0 else -v
            else:
                for a, row in enumerate(block):
                    row[i + a] = row[i + a] + c if i + a in row else c
        rows.extend(block)
    return rows


class ExtensionData:
    """An extension 0 -> A -> E -> Q -> 0 presented by a basis of the
    ideal A inside E and a linear section of the quotient map; `cocycle`
    is the section's 2-cocycle (see `extension_two_cocycle`)."""

    __slots__ = ("E", "Q", "q_lift", "a_coords", "cocycle", "_module")

    def __init__(self, E, a_indices):
        """Build from a big algebra and the indices of basis elements
        spanning the ideal; the complementary basis elements present the
        quotient and define the section."""
        self.E = E
        a_set = set(a_indices)
        q_indices = [i for i in range(E.dim) if i not in a_set]
        a_indices = sorted(a_set)
        # verify A is an ideal
        for (i, j, k), c in E.structure.items():
            if i in a_set and k not in a_set and c != 0:
                raise ValueError("span is not an ideal")
        # quotient structure constants
        qpos = {e: i for i, e in enumerate(q_indices)}
        q_struct = {
            (qpos[i], qpos[j], qpos[k]): c
            for (i, j, k), c in E.structure.items()
            if not a_set & {i, j, k}
        }
        self.Q = FiniteLieAlgebra(len(q_indices), q_struct, check=False)
        self.q_lift = q_indices
        self.a_coords = a_indices
        self.cocycle = extension_two_cocycle(self)
        # A as a Q-module via the adjoint action through the section
        self._module = None
        if self.ideal_is_abelian():
            apos = {e: i for i, e in enumerate(a_indices)}
            mats = [_zeros(len(apos)) for _ in q_indices]
            for (i, j, k), c in E.structure.items():
                if i in qpos and j in apos and k in apos:
                    mats[qpos[i]][apos[k]][apos[j]] += c
            self._module = LieModule(self.Q, len(apos), mats, check=False)

    def ideal_is_abelian(self):
        # the structure table holds only nonzero constants
        a_set = set(self.a_coords)
        return not any(i in a_set and j in a_set for i, j, _ in self.E.structure)

    def ideal_algebra(self):
        apos = {e: i for i, e in enumerate(self.a_coords)}
        struct = {
            (apos[i], apos[j], apos[k]): c
            for (i, j, k), c in self.E.structure.items() if i in apos and j in apos
        }
        return FiniteLieAlgebra(len(apos), struct, check=False)

    def kernel_module(self):
        """A as a Q-module via the adjoint action through the section,
        built once with the extension; do not mutate it."""
        if self._module is None:
            raise ValueError("module structure needs an abelian ideal")
        return self._module


def extension_two_cocycle(ext):
    """omega(q1, q2) = [sigma q1, sigma q2] - sigma [q1, q2], valued in A.

    Returns a dict (i, j) -> A-coordinates for i < j basis pairs of Q;
    `two_cocycle_witness` checks the cocycle identity.
    """
    E, Q, lift = ext.E, ext.Q, ext.q_lift
    cocycle = {}
    for i, j in combinations(range(Q.dim), 2):
        defect = dict(E.bracket_row(lift[i], lift[j]))
        for k, c in Q.bracket_row(i, j).items():
            defect[lift[k]] = defect.get(lift[k], 0) - c
        if any(defect.get(e, 0) != 0 for e in lift):
            raise ValueError("section defect leaves the ideal")
        cocycle[(i, j)] = [defect.get(e, 0) for e in ext.a_coords]
    return cocycle


def two_cocycle_witness(ext, cocycle):
    """The first basis triple [i, j, k] of Q at which d(cocycle) does not
    vanish, or None when it is a 2-cocycle; the ideal must be abelian."""
    Q, module = ext.Q, ext.kernel_module()
    flat = (x for key in _cochain_keys(Q.dim, 2) for x in cocycle[key])
    w = {col: x for col, x in enumerate(flat) if x}  # mostly zero: dot only these
    for t, row in enumerate(ce_differential_rows(Q, module, 2)):
        if sum(c * w[col] for col, c in row.items() if col in w) != 0:
            return list(_cochain_keys(Q.dim, 3)[t // module.dim])
    return None


def is_split(ext):
    """Whether the extension splits, decided by exactness of the class
    of the section defect in H^2(Q, A); only valid for abelian ideals."""
    if not ext.ideal_is_abelian():
        raise ValueError("splitting test needs an abelian ideal")
    Q, module = ext.Q, ext.kernel_module()
    # the cocycle is a coboundary iff d x = cocycle, d from 1- to 2-cochains, is solvable
    cocycle = [x for key in _cochain_keys(Q.dim, 2) for x in ext.cocycle[key]]
    return solve(ce_differential_rows(Q, module, 1), [cocycle], Q.dim * module.dim)[0] is not None


def nilpotency_analysis(g):
    """Lower central series dimensions until stabilization, with
    nilpotent/abelian verdicts."""
    basis = [g.basis_vector(i) for i in range(g.dim)]
    dims = [g.dim]
    current = basis
    while True:
        span, spanning = Echelon(), []
        for u in basis:
            for v in current:
                w = g.bracket(u, v)
                if span.add_row(w):
                    spanning.append(w)
        dims.append(span.rank)
        if span.rank in (0, dims[-2]):
            break
        current = spanning  # a basis of the next term, of brackets
    return {
        "lower_central_series_dims": dims,
        "nilpotent": dims[-1] == 0,
        "abelian": g.is_abelian(),
    }
