"""Runner of `klein`: the isotropy filtration, order and ghost of a
realized Lie algebra (a klein builtin or the projective family), with
the jet-evaluation homomorphism checked at the top order."""

from . import klein
from .cli import SchemaError, _bound, _check


def run_klein(args):
    if args.builtin == "affine-line":
        algebra = klein.build_affine_example()
    elif args.builtin == "projective-line":
        algebra = klein.build_projective_line_example()
    else:
        # gl2-projective is the n = 1 member of the projective family
        n = 1 if args.builtin == "gl2-projective" else _bound("n", args.n, "n")
        if n < 1:
            raise SchemaError("projective example needs n >= 1")
        algebra = klein.build_projective_example(n)
    report = klein.isotropy_filtration(algebra)
    order = report["order"]
    # passing at order m implies passing at every lower order
    sigma_ok = klein.sigma_homomorphism_check(algebra, order + 1)
    checks = [
        # the builder validated the realization: it raises on a failure
        _check("realization_homomorphism", True),
        _check("filtration_stabilized", bool(report["stabilized"])),
        _check("jet_evaluation_homomorphism", sigma_ok),
    ]
    results = {
        "transitive": algebra.is_transitive(),
        "filtration_dims": report["dims"],
        "order": order,
        "ghost_dim": report["ghost_dim"],
    }
    return None, checks, results
