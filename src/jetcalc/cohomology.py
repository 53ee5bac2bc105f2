"""Chevalley-Eilenberg cohomology of a finite Lie algebra with values in
a module, absolute and relative to a subalgebra, on the differential
rows of `liealg.ce_differential_rows`.  No command computes cohomology.

Cohomology is relative cohomology over a subalgebra, the absolute kind
being the zero subalgebra's; its dimensions are ranks of one `Echelon`
per degree, grown first by the contraction conditions and then by the
differential (Cartan's formula makes invariance a contraction of d)."""

from .liealg import _cochain_keys, ce_differential_rows
from .linalg import Echelon
from .multiindex import _insert_sorted


def ce_cohomology_dims(g, module, r_max):
    """Dimensions of H^0 .. H^{r_max}: relative cohomology over the zero
    subalgebra."""
    return relative_ce_cohomology_dims(g, [], module, r_max)


def _subalgebra_basis_check(g, s_basis):
    span = Echelon(s_basis)
    for i, u in enumerate(s_basis):
        for v in s_basis[i:]:
            if not span.contains(g.bracket(u, v)):
                return False
    return True


def _contractions(g, s_basis, m, r, rows):
    """The contractions by each X in s_basis of a map whose rows are
    indexed like r-cochains with m-dimensional values (key position * m
    + coordinate): (i_X f)(rest) = f(X, rest), one sparse row per X,
    (r-1)-key and coordinate, built from the rows of f (r >= 1)."""
    if not s_basis:
        return []
    pos = {key: i * m for i, key in enumerate(_cochain_keys(g.dim, r))}
    out = []
    for x in s_basis:
        terms = [(k, c) for k, c in enumerate(x) if c]
        for rest in _cochain_keys(g.dim, r - 1):
            # the rows f(e_k, rest) = sign * f(merged) that X's terms pick
            picked = []
            for k, c in terms:
                merged, sign = _insert_sorted(k, rest)
                if merged is not None:
                    picked.append((pos[merged], sign * c))
            for a in range(m if picked else 0):
                row = {}
                for i, c in picked:
                    for col, v in rows[i + a].items():
                        row[col] = row.get(col, 0) + c * v
                out.append(row)
    return out


def relative_ce_cohomology_dims(g, s_basis, module, r_max):
    """Relative cohomology H^0 .. H^{r_max}: the cochains w with i_X w = 0
    and L_X w = 0 for X in the subalgebra, under d.  By Cartan's formula
    L_X = i_X d + d i_X, a cochain with i_X w = 0 is invariant iff
    i_X (d w) = 0, so both conditions are contractions, of unit rows and
    of d's rows.  One echelon per degree takes these rows C and then d's:
    the relative cochains have dimension width - rank C, and d has rank
    rank(C + d) - rank C on them, so no basis of them is ever formed."""
    if s_basis and not _subalgebra_basis_check(g, s_basis):
        raise ValueError("not a subalgebra")
    m = module.dim
    out = []
    prev_rank = 0
    for r in range(r_max + 1):
        width = len(_cochain_keys(g.dim, r)) * m
        d = ce_differential_rows(g, module, r)
        units = [{c: 1} for c in range(width)]
        span = Echelon(_contractions(g, s_basis, m, r, units) if r else ())
        for row in _contractions(g, s_basis, m, r + 1, d):
            span.add_row(row)
        constrained = span.rank
        for row in d:
            span.add_row(row)
        rk = span.rank - constrained
        # H^r = ker(d on relative r-cochains) / d(relative (r-1)-cochains)
        out.append(width - constrained - rk - prev_rank)
        prev_rank = rk
    return out
