"""Finite-dimensional Lie algebras over the rationals: structure
constant validation, Chevalley-Eilenberg cohomology (absolute and
relative), abelian extensions with their 2-cocycles and splitting test,
and lower-central-series analysis."""

from fractions import Fraction
from itertools import combinations

from .linalg import Echelon, matvec, nullspace, rank, rref, solve, zeros


class FiniteLieAlgebra:
    """Structure constants c[(i,j,k)] meaning [e_i, e_j] = sum_k c^k_{ij} e_k.

    Antisymmetry and the Jacobi identity are verified at construction.
    """

    __slots__ = ("dim", "structure")

    def __init__(self, dim, structure=None, check=True):
        self.dim = dim
        table = {}
        if structure:
            for (i, j, k), c in structure.items():
                c = Fraction(c)
                if c != 0:
                    table[(i, j, k)] = c
        self.structure = table
        if check:
            ok, witness = validate_lie_algebra(dim, table)
            if not ok:
                raise ValueError(f"structure constants fail at {witness}")

    def bracket(self, u, v):
        return lie_bracket(self.dim, self.structure, u, v)

    def basis_vector(self, i):
        e = [Fraction(0)] * self.dim
        e[i] = Fraction(1)
        return e

    def is_abelian(self):
        return not self.structure

    def adjoint_module(self):
        mats = []
        for i in range(self.dim):
            m = zeros(self.dim, self.dim)
            for (a, j, k), c in self.structure.items():
                if a == i:
                    m[k][j] += c
            mats.append(m)
        return LieModule(self, self.dim, mats)

    def trivial_module(self, m=1):
        return LieModule(self, m, [zeros(m, m) for _ in range(self.dim)])


def lie_bracket(dim, structure, u, v):
    """[u, v] in coordinates, from structure constants c[(i, j, k)]."""
    out = [Fraction(0)] * dim
    for (i, j, k), c in structure.items():
        if u[i] != 0 and v[j] != 0:
            out[k] += c * u[i] * v[j]
    return out


def validate_lie_algebra(dim, structure):
    """Exact antisymmetry + Jacobi check; returns (ok, witness)."""
    for (i, j, k), c in structure.items():
        if structure.get((j, i, k), Fraction(0)) != -c:
            return False, ("antisymmetry", i, j, k)
    basis = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        basis.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [Fraction(0)] * dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = lie_bracket(dim, structure, basis[b], basis[c])
                    term = lie_bracket(dim, structure, basis[a], inner)
                    total = [x + y for x, y in zip(total, term)]
                if any(x != 0 for x in total):
                    return False, ("jacobi", i, j, k)
    return True, None


class LieModule:
    """A representation: one action matrix per basis element of g."""

    __slots__ = ("algebra", "dim", "matrices")

    def __init__(self, algebra, dim, matrices, check=True):
        if len(matrices) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        self.algebra = algebra
        self.dim = dim
        self.matrices = matrices
        if check and not self._is_representation():
            raise ValueError("matrices do not define a representation")

    def act(self, g_coords, v):
        out = [Fraction(0)] * self.dim
        for i, c in enumerate(g_coords):
            if c != 0:
                av = matvec(self.matrices[i], v)
                out = [x + c * y for x, y in zip(out, av)]
        return out

    def _is_representation(self):
        g = self.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                comm = [
                    [
                        sum(
                            (
                                self.matrices[i][a][b2] * self.matrices[j][b2][b]
                                - self.matrices[j][a][b2] * self.matrices[i][b2][b]
                                for b2 in range(self.dim)
                            ),
                            Fraction(0),
                        )
                        for b in range(self.dim)
                    ]
                    for a in range(self.dim)
                ]
                br = g.bracket(g.basis_vector(i), g.basis_vector(j))
                expected = zeros(self.dim, self.dim)
                for k, c in enumerate(br):
                    if c != 0:
                        for a in range(self.dim):
                            for b in range(self.dim):
                                expected[a][b] += c * self.matrices[k][a][b]
                if comm != expected:
                    return False
        return True


def _cochain_keys(dim, r):
    return list(combinations(range(dim), r))


def ce_differential_matrix(g, module, r):
    """Matrix of the Chevalley-Eilenberg differential from degree r to
    degree r+1 cochains with values in the module."""
    in_keys = _cochain_keys(g.dim, r)
    out_keys = _cochain_keys(g.dim, r + 1)
    in_pos = {key: i for i, key in enumerate(in_keys)}
    m = module.dim
    rows = len(out_keys) * m
    cols = len(in_keys) * m
    mat = zeros(rows, cols)
    for oi, okey in enumerate(out_keys):
        for p in range(r + 1):
            rest = okey[:p] + okey[p + 1 :]
            sign = 1 if p % 2 == 0 else -1
            # rho(e_{okey[p]}) applied to the cochain value at rest
            col_base = in_pos[rest] * m
            rho = module.matrices[okey[p]]
            for a in range(m):
                for b in range(m):
                    if rho[a][b] != 0:
                        mat[oi * m + a][col_base + b] += sign * rho[a][b]
        for p in range(r + 1):
            for q in range(p + 1, r + 1):
                br = g.bracket(g.basis_vector(okey[p]), g.basis_vector(okey[q]))
                sign = 1 if (p + q) % 2 == 1 else -1
                rest = tuple(
                    okey[t] for t in range(r + 1) if t not in (p, q)
                )
                for k, c in enumerate(br):
                    if c == 0:
                        continue
                    merged, merge_sign = _insert_sorted(k, rest)
                    if merged is None:
                        continue
                    col_base = in_pos[merged] * m
                    for a in range(m):
                        mat[oi * m + a][col_base + a] += sign * merge_sign * c
    return mat, in_keys, out_keys


def _insert_sorted(k, rest):
    """Insert index k into a strictly increasing tuple; returns the
    sorted tuple and the alternation sign, or (None, 0) on repetition."""
    if k in rest:
        return None, 0
    pos = 0
    while pos < len(rest) and rest[pos] < k:
        pos += 1
    sign = 1 if pos % 2 == 0 else -1
    return rest[:pos] + (k,) + rest[pos:], sign


def ce_cohomology_dims(g, module, r_max):
    """Dimensions of H^0 .. H^{r_max} by exact rank computation."""
    dims = []
    prev_rank = 0
    for r in range(r_max + 1):
        n_cochains = len(_cochain_keys(g.dim, r)) * module.dim
        if r < g.dim:
            mat, _, _ = ce_differential_matrix(g, module, r)
            rk = rank(mat) if mat else 0
        else:
            rk = 0
        kernel_dim = n_cochains - rk
        dims.append(kernel_dim - prev_rank)
        prev_rank = rk
    return dims


def _subalgebra_basis_check(g, s_basis):
    span = Echelon(s_basis)
    for i, u in enumerate(s_basis):
        for v in s_basis[i:]:
            if not span.contains(g.bracket(u, v)):
                return False
    return True


def relative_ce_cohomology_dims(g, s_basis, module, r_max):
    """Relative cohomology: cochains killed by contraction with the
    subalgebra and invariant under it."""
    if s_basis and not _subalgebra_basis_check(g, s_basis):
        raise ValueError("not a subalgebra")
    m = module.dim
    layouts = {}
    bases = {}
    for r in range(r_max + 2):
        keys = _cochain_keys(g.dim, r)
        layouts[r] = keys
        ncoords = len(keys) * m
        # constraints: i_X omega = 0 and L_X omega = 0 for X in s-basis
        constraints = []
        for x in s_basis:
            # contraction: for each (r-1)-key, sum over insertion
            if r >= 1:
                for rest in _cochain_keys(g.dim, r - 1):
                    for a in range(m):
                        row = [Fraction(0)] * ncoords
                        nonzero = False
                        for k, c in enumerate(x):
                            if c == 0:
                                continue
                            merged, sign = _insert_sorted(k, rest)
                            if merged is None:
                                continue
                            col = layouts[r].index(merged) * m + a
                            row[col] += sign * c
                            nonzero = True
                        if nonzero:
                            constraints.append(row)
            # invariance: (L_X omega)(key) = rho(X) omega(key)
            #   - sum_p omega(key with e_p replaced by [X, e_p])
            key_pos = {key: i for i, key in enumerate(keys)}
            for ki, key in enumerate(keys):
                for a in range(m):
                    row = [Fraction(0)] * ncoords
                    for i, c in enumerate(x):
                        if c == 0:
                            continue
                        rho = module.matrices[i]
                        for b in range(m):
                            if rho[a][b] != 0:
                                row[ki * m + b] += c * rho[a][b]
                    for p in range(r):
                        rest = key[:p] + key[p + 1 :]
                        br = g.bracket(x, g.basis_vector(key[p]))
                        for k, c in enumerate(br):
                            if c == 0:
                                continue
                            merged, sign = _insert_sorted(k, rest)
                            if merged is None:
                                continue
                            # replacing at position p: move to the front
                            # (factor (-1)^p) and then sort the insertion
                            col = key_pos[merged] * m + a
                            row[col] -= sign * c * ((-1) ** p)
                    if any(v != 0 for v in row):
                        constraints.append(row)
        basis = (
            nullspace(constraints, cols=ncoords)
            if constraints
            else [
                [Fraction(1) if i == j else Fraction(0) for i in range(ncoords)]
                for j in range(ncoords)
            ]
        )
        bases[r] = basis
    # H^r = ker(d restricted to relative r-cochains) / d(relative (r-1)-cochains)
    out = []
    prev_image_rank = 0
    for r in range(r_max + 1):
        sub = bases[r]
        if r < g.dim and sub:
            mat, _, _ = ce_differential_matrix(g, module, r)
            images = [matvec(mat, v) for v in sub] if mat else [[] for _ in sub]
            rk = rank(images) if images and images[0] else 0
        else:
            rk = 0
        kernel_dim = len(sub) - rk
        out.append(kernel_dim - prev_image_rank)
        prev_image_rank = rk
    return out


class ExtensionData:
    """An extension 0 -> A -> E -> Q -> 0 presented by a basis of the
    ideal A inside E and a linear section of the quotient map; `cocycle`
    is the section's 2-cocycle (see `extension_two_cocycle`)."""

    __slots__ = ("E", "Q", "q_lift", "a_coords", "cocycle")

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
        q_struct = {}
        for (i, j, k), c in E.structure.items():
            if i in a_set or j in a_set:
                continue
            if k in a_set:
                continue
            q_struct[(qpos[i], qpos[j], qpos[k])] = (
                q_struct.get((qpos[i], qpos[j], qpos[k]), Fraction(0)) + c
            )
        self.Q = FiniteLieAlgebra(len(q_indices), q_struct, check=False)
        self.q_lift = q_indices
        self.a_coords = a_indices
        self.cocycle = extension_two_cocycle(self)

    def ideal_is_abelian(self):
        a_set = set(self.a_coords)
        for (i, j, k), c in self.E.structure.items():
            if i in a_set and j in a_set and c != 0:
                return False
        return True

    def ideal_algebra(self):
        apos = {e: i for i, e in enumerate(self.a_coords)}
        a_set = set(self.a_coords)
        struct = {}
        for (i, j, k), c in self.E.structure.items():
            if i in a_set and j in a_set:
                struct[(apos[i], apos[j], apos[k])] = c
        return FiniteLieAlgebra(len(self.a_coords), struct, check=False)

    def kernel_module(self):
        """A as a Q-module via the adjoint action through the section."""
        if not self.ideal_is_abelian():
            raise ValueError("module structure needs an abelian ideal")
        apos = {e: i for i, e in enumerate(self.a_coords)}
        mats = []
        for qe in self.q_lift:
            m = zeros(len(self.a_coords), len(self.a_coords))
            for (i, j, k), c in self.E.structure.items():
                if i == qe and j in apos and k in apos:
                    m[apos[k]][apos[j]] += c
            mats.append(m)
        return LieModule(self.Q, len(self.a_coords), mats, check=False)

    def section(self, q_coords):
        v = [Fraction(0)] * self.E.dim
        for i, c in enumerate(q_coords):
            v[self.q_lift[i]] = c
        return v

    def project_to_a(self, e_coords):
        return [e_coords[i] for i in self.a_coords]


def extension_two_cocycle(ext):
    """omega(q1, q2) = [sigma q1, sigma q2] - sigma [q1, q2], valued in A.

    Returns a dict (i, j) -> A-coordinates for i < j basis pairs of Q;
    `two_cocycle_witness` checks the cocycle identity.
    """
    Q = ext.Q
    cocycle = {}
    for i in range(Q.dim):
        for j in range(i + 1, Q.dim):
            si = ext.section(Q.basis_vector(i))
            sj = ext.section(Q.basis_vector(j))
            br = ext.E.bracket(si, sj)
            qbr = Q.bracket(Q.basis_vector(i), Q.basis_vector(j))
            diff = [x - y for x, y in zip(br, ext.section(qbr))]
            if any(diff[a] != 0 for a in ext.q_lift):
                raise ValueError("section defect leaves the ideal")
            cocycle[(i, j)] = ext.project_to_a(diff)
    return cocycle


def two_cocycle_witness(ext, cocycle):
    """The first basis triple [i, j, k] of Q at which the cyclic cocycle
    identity sum_cyc rho(x)w(y,z) - sum_cyc w([x,y],z) = 0 fails, or
    None when it holds; the ideal must be abelian."""
    Q = ext.Q
    module = ext.kernel_module()

    def omega(i, j):
        if i == j:
            return [Fraction(0)] * module.dim
        if i < j:
            return cocycle[(i, j)]
        return [-x for x in cocycle[(j, i)]]

    for i in range(Q.dim):
        for j in range(i + 1, Q.dim):
            for k in range(j + 1, Q.dim):
                total = [Fraction(0)] * module.dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    term = module.act(Q.basis_vector(a), omega(b, c))
                    br = Q.bracket(Q.basis_vector(b), Q.basis_vector(c))
                    sub = [Fraction(0)] * module.dim
                    for e, ce in enumerate(br):
                        if ce != 0:
                            sub = [
                                x + ce * y for x, y in zip(sub, omega(e, a))
                            ]
                    total = [
                        t + x - y for t, x, y in zip(total, term, sub)
                    ]
                if any(x != 0 for x in total):
                    return [i, j, k]
    return None


def is_split(ext):
    """Whether the extension splits, decided by exactness of the class
    of the section defect in H^2(Q, A); only valid for abelian ideals."""
    if not ext.ideal_is_abelian():
        raise ValueError("splitting test needs an abelian ideal")
    cocycle = ext.cocycle
    Q = ext.Q
    module = ext.kernel_module()
    mat, in_keys, out_keys = ce_differential_matrix(Q, module, 1)
    m = module.dim
    rhs = [Fraction(0)] * (len(out_keys) * m)
    for oi, (i, j) in enumerate(out_keys):
        vals = cocycle[(i, j)]
        for a in range(m):
            rhs[oi * m + a] = vals[a]
    return solve(mat, rhs) is not None if mat else all(x == 0 for x in rhs)


def nilpotency_analysis(g):
    """Lower central series dimensions until stabilization, with
    nilpotent/abelian verdicts."""
    basis = [g.basis_vector(i) for i in range(g.dim)]
    dims = [g.dim]
    current = basis
    while True:
        next_span = []
        for u in basis:
            for v in current:
                b = g.bracket(u, v)
                if any(x != 0 for x in b):
                    next_span.append(b)
        reduced, pivots = rref(next_span)
        dim = len(pivots)
        dims.append(dim)
        if dim == 0 or dim == dims[-2]:
            break
        # basis of the next term
        current = reduced[:dim]
    return {
        "lower_central_series_dims": dims,
        "nilpotent": dims[-1] == 0,
        "abelian": g.is_abelian(),
    }
