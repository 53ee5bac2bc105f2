"""Runner of `extension`: the jet-group algebra of order k as an
extension of its order-m quotient by the slots of order above m, with
the ideal's 2-cocycle, splitting and lower central series."""

from .cli import BUILTINS, ResourceError, SchemaError, _bound, _check
from .liealg import (
    ExtensionData,
    is_split,
    jet_group_algebra,
    nilpotency_analysis,
    two_cocycle_witness,
)
from .multiindex import order


def run_extension(args):
    n, k, m = BUILTINS[args.builtin]["nkm"] if args.builtin else (args.n, args.k, args.m)
    n = _bound("n", n, "n")
    if n < 1:
        raise SchemaError("extension needs n >= 1")
    if n > 2:
        raise ResourceError("extension computations are bounded at n <= 2")
    k = _bound("k", k, "k")
    if not 1 <= m < k:
        raise SchemaError("need 1 <= m < k")
    group = jet_group_algebra(n, k)
    E = group.finite_lie_algebra()
    a_indices = [
        idx for idx, (i, alpha) in enumerate(group.slots) if order(alpha) > m
    ]
    ext = ExtensionData(E, a_indices)
    cocycle = ext.cocycle
    nonzero = sum(1 for v in cocycle.values() if any(c != 0 for c in v))
    abelian = ext.ideal_is_abelian()
    # the cocycle identity is defined only for an abelian ideal
    witness = two_cocycle_witness(ext, cocycle) if abelian else None
    split = is_split(ext) if abelian else None
    nil = nilpotency_analysis(ext.ideal_algebra())
    checks = [_check("cocycle_identity", witness is None, witness)]
    results = {
        "n": n,
        "k": k,
        "m": m,
        "total_dim": E.dim,
        "ideal_dim": len(a_indices),
        "ideal_abelian": abelian,
        "cocycle_nonzero_pairs": nonzero,
        "is_split": split,
        "ideal_lower_central_series_dims": nil["lower_central_series_dims"],
        "ideal_nilpotent": nil["nilpotent"],
    }
    return None, checks, results
