"""Command-line front end: scenario files in, deterministic JSON
reports out, plus a catalog of built-in example scenarios.

Exit codes: 0 all checks pass; 1 a check failed (witnesses in the
report); 2 scenario or usage error; 3 resource bound exceeded.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .jets import (
    VectorJetSection,
    prolong_vector_field,
    vector_slots,
)
from .poly import Poly

VERSION = "0.1.0"

LIMITS = {"n": 4, "k": 6, "kmax": 6, "degree": 6, "count": 5000}


class SchemaError(Exception):
    pass


class ResourceError(Exception):
    pass


def _frac(value, field):
    """Exact rational from a JSON value; floats are rejected."""
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{field}: rationals must be strings or integers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{field}: cannot parse rational {value!r}")
    raise SchemaError(f"{field}: cannot parse rational {value!r}")


def _frac_str(x):
    return str(Fraction(x))


def _require(scenario, field, kind):
    if field not in scenario:
        raise SchemaError(f"missing field {field!r}")
    v = scenario[field]
    if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
        raise SchemaError(f"{field}: expected an integer")
    if kind is list and not isinstance(v, list):
        raise SchemaError(f"{field}: expected a list")
    if kind is dict and not isinstance(v, dict):
        raise SchemaError(f"{field}: expected an object")
    if kind is str and not isinstance(v, str):
        raise SchemaError(f"{field}: expected a string")
    return v


def _bound(name, value, limit_key):
    if value > LIMITS[limit_key]:
        raise ResourceError(
            f"{name}={value} exceeds the bound {LIMITS[limit_key]}"
        )
    if value < 0:
        raise SchemaError(f"{name} must be non-negative")
    return value


def _parse_poly(n, spec, field):
    """Sparse polynomial: list of {"exponents": [...], "value": "p/q"}."""
    if not isinstance(spec, list):
        raise SchemaError(f"{field}: expected a list of terms")
    coeffs = {}
    for t, term in enumerate(spec):
        if not isinstance(term, dict):
            raise SchemaError(f"{field}[{t}]: expected an object")
        exps = term.get("exponents")
        if (
            not isinstance(exps, list)
            or len(exps) != n
            or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps)
        ):
            raise SchemaError(f"{field}[{t}].exponents: expected {n} naturals")
        c = _frac(term.get("value"), f"{field}[{t}].value")
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, Fraction(0)) + c
    return Poly(n, coeffs)


def _parse_point(n, spec, field):
    if not isinstance(spec, list) or len(spec) != n:
        raise SchemaError(f"{field}: expected {n} rationals")
    return tuple(_frac(x, f"{field}[{i}]") for i, x in enumerate(spec))


def _parse_structure_jet(scenario):
    from .lie_equations import StructureJet

    kind = _require(scenario, "kind", str)
    if kind not in ("metric", "two_form"):
        raise SchemaError("kind: expected 'metric' or 'two_form'")
    n = _bound("n", _require(scenario, "n", int), "n")
    order = _bound("order", _require(scenario, "order", int), "k")
    point = _parse_point(n, _require(scenario, "point", list), "point")
    coeffs = {}
    for t, entry in enumerate(_require(scenario, "coeffs", list)):
        if not isinstance(entry, list) or len(entry) != 4:
            raise SchemaError(f"coeffs[{t}]: expected [i, j, alpha, value]")
        i, j, alpha, value = entry
        if not isinstance(i, int) or not isinstance(j, int):
            raise SchemaError(f"coeffs[{t}]: component indices must be integers")
        if not isinstance(alpha, list) or len(alpha) != n:
            raise SchemaError(f"coeffs[{t}]: alpha must list {n} naturals")
        key = (i, j, tuple(alpha))
        c = _frac(value, f"coeffs[{t}][3]")
        if coeffs.get(key, c) != c:
            raise SchemaError(f"coeffs[{t}]: conflicting values for slot {list(key)}")
        coeffs[key] = c
    try:
        return StructureJet(kind, n, order, point, coeffs)
    except ValueError as exc:
        raise SchemaError(f"coeffs: {exc}")


# ---------------------------------------------------------------------------
# built-in scenarios


def _builtin_flat_metric_2d():
    return {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 4,
        "point": ["0", "0"],
        "coeffs": [[0, 0, [0, 0], "1"], [1, 1, [0, 0], "1"]],
        "expect": {"dims": [3, 3, 3, 3], "surjective": [True, True, True]},
    }


def _builtin_sphere_metric_2d():
    # order-3 slots of 4/(1 + x1^2 + x2^2)^2 times the identity at 0
    coeffs = []
    for i in range(2):
        coeffs.append([i, i, [0, 0], "4"])
        coeffs.append([i, i, [2, 0], "-16"])
        coeffs.append([i, i, [0, 2], "-16"])
    return {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 3,
        "point": ["0", "0"],
        "coeffs": coeffs,
        "expect": {"dims": [3, 3, 3], "surjective": [True, True]},
    }


def _builtin_generic_metric_2d():
    return {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 3,
        "point": ["0", "0"],
        "coeffs": [
            [0, 0, [0, 0], "1"],
            [1, 1, [0, 0], "1"],
            [1, 1, [2, 0], "2"],
            [1, 1, [3, 0], "6"],
        ],
        "expect": {"dims": [3, 3, 2], "surjective": [True, False]},
    }


def _builtin_standard_symplectic_2d():
    return {
        "task": "prolongation",
        "kind": "two_form",
        "n": 2,
        "order": 3,
        "point": ["0", "0"],
        "coeffs": [[0, 1, [0, 0], "1"]],
        "expect": {"dims": [5, 9, 14], "surjective": [True, True]},
    }


def _builtin_nonclosed_2form_4d():
    return {
        "task": "prolongation",
        "kind": "two_form",
        "n": 4,
        "order": 2,
        "point": ["0", "0", "0", "0"],
        "coeffs": [
            [0, 1, [0, 0, 0, 0], "1"],
            [2, 3, [0, 0, 0, 0], "1"],
            [2, 3, [1, 0, 0, 0], "1"],
        ],
        "expect": {"surjective": [False]},
    }


BUILTINS = {
    "flat-metric-2d": {
        "task": "prolongation",
        "description": "Euclidean metric on two variables; Killing solutions have dimensions (3, 3, 3, 3) with bijective projections.",
        "build": _builtin_flat_metric_2d,
    },
    "sphere-metric-2d": {
        "task": "prolongation",
        "description": "Round-sphere metric jets at the origin to order three; solution dimensions (3, 3, 3), surjective projections.",
        "build": _builtin_sphere_metric_2d,
    },
    "generic-metric-2d": {
        "task": "prolongation",
        "description": "A metric with no infinitesimal symmetries beyond order two; the order-3-to-2 restricted projection is not surjective.",
        "build": _builtin_generic_metric_2d,
    },
    "standard-symplectic-2d": {
        "task": "prolongation",
        "description": "Constant area form on two variables; solution dimensions (5, 9, 14), surjective projections.",
        "build": _builtin_standard_symplectic_2d,
    },
    "nonclosed-2form-4d": {
        "task": "prolongation",
        "description": "A non-closed 2-form jet on four variables; the order-2-to-1 restricted projection fails.",
        "build": _builtin_nonclosed_2form_4d,
    },
    "affine-line": {
        "task": "klein",
        "description": "Constant and linear fields on one variable; order 1, no ghost.",
        "build": None,
    },
    "projective-line": {
        "task": "klein",
        "description": "Fractional-linear fields on one variable; order 2, no ghost.",
        "build": None,
    },
    "gl2-projective": {
        "task": "klein",
        "description": "The full 2-by-2 linear algebra on the projective-line chart; order 2 with a one-dimensional ghost (the scalars).",
        "build": None,
    },
    "jetgroup-ext-n1-k3-m2": {
        "task": "extension",
        "description": "The jet-group algebra of order 3 on one variable as an extension of the order-2 quotient by an abelian ideal.",
        "build": None,
    },
}


# ---------------------------------------------------------------------------
# subcommand: check-identities


def _random_poly(n, rng, degree):
    from .multiindex import multi_indices

    coeffs = {}
    for alpha in multi_indices(n, degree):
        c = rng.randint(-4, 4)
        if c:
            coeffs[alpha] = Fraction(c, rng.randint(1, 3))
    return Poly(n, coeffs)


def _random_vector_section(n, k, rng, degree):
    coeffs = {}
    for slot in vector_slots(n, k):
        coeffs[slot] = _random_poly(n, rng, degree)
    return VectorJetSection(n, k, coeffs)


def _trials(name, count, holds):
    """Run the seeded check `holds()` count times; the witness is the
    first failing trial."""
    passed = 0
    first_failure = None
    for trial in range(count):
        if holds():
            passed += 1
        elif first_failure is None:
            first_failure = trial
    return {"name": name, "pass": passed == count, "trials": count, "witness": first_failure}


def _run_check_identities(args):
    from .forms import FormKR, exterior_derivative, wedge
    from .spencer import spencer_bracket

    n = _bound("n", args.n, "n")
    k = _bound("k", args.k, "k")
    degree = _bound("degree", args.degree, "degree")
    count = _bound("count", args.count, "count")
    if n < 1 or k < 1:
        raise SchemaError("check-identities needs n >= 1 and k >= 1")
    rng = random.Random(args.seed)

    def section():
        return _random_vector_section(n, k, rng, degree)

    def function():
        return FormKR(n, k, 0, {(): _function_section(n, k, rng, degree)})

    def jacobi():
        x, y, z = section(), section(), section()
        total = spencer_bracket(spencer_bracket(x, y), z)
        total = total + spencer_bracket(spencer_bracket(y, z), x)
        total = total + spencer_bracket(spencer_bracket(z, x), y)
        return all(p.is_zero() for p in total.coeffs.values())

    def lift_independence():
        x, y = section(), section()
        a = spencer_bracket(x, y, lift_policy="zero")
        b = spencer_bracket(x, y, lift_policy="random", rng=rng)
        return all(a.coeffs[slot] == b.coeffs[slot] for slot in a.coeffs)

    def d_squared_zero():
        return exterior_derivative(exterior_derivative(function())).is_zero()

    def leibniz_degree_zero():
        f, g = function(), function()
        df, dg = exterior_derivative(f), exterior_derivative(g)
        return exterior_derivative(wedge(f, g)) == wedge(df, g) + wedge(f, dg)

    checks = [
        _trials("jacobi", count, jacobi),
        _trials("lift_independence", count, lift_independence),
    ]
    if n >= 2:
        # d of a 1-form needs a 2-form, so the chain stops short on one
        # variable
        checks.append(_trials("d_squared_zero", count, d_squared_zero))
    checks.append(_trials("leibniz_degree_zero", count, leibniz_degree_zero))
    return checks, {"n": n, "k": k, "degree": degree, "count": count}


def _function_section(n, k, rng, degree):
    from .jets import FunctionJetSection
    from .multiindex import multi_indices

    coeffs = {}
    for alpha in multi_indices(n, k):
        coeffs[alpha] = _random_poly(n, rng, degree)
    return FunctionJetSection(n, k, coeffs)


# ---------------------------------------------------------------------------
# subcommand: bracket


def _run_bracket(scenario):
    from .klein import bracket_fields
    from .spencer import spencer_bracket

    n = _bound("n", _require(scenario, "n", int), "n")
    k = _bound("k", _require(scenario, "k", int), "k")
    point = _parse_point(n, _require(scenario, "point", list), "point")
    fields = []
    for name in ("x", "y"):
        comp_spec = _require(scenario, name, list)
        if len(comp_spec) != n:
            raise SchemaError(f"{name}: expected {n} components")
        comps = [
            _parse_poly(n, c, f"{name}[{i}]") for i, c in enumerate(comp_spec)
        ]
        fields.append(comps)
    x_comps, y_comps = fields
    classical = bracket_fields(x_comps, y_comps)
    spencer = spencer_bracket(
        prolong_vector_field(x_comps, k), prolong_vector_field(y_comps, k)
    )
    direct = prolong_vector_field(classical, k)
    agree = all(
        spencer.coeffs[slot] == direct.coeffs[slot] for slot in spencer.coeffs
    )
    jet = direct.at(point)
    coords = [_frac_str(c) for c in jet.as_vector()]
    checks = [{"name": "spencer_matches_classical", "pass": agree, "witness": None}]
    results = {
        "bracket_jet_coordinates": coords,
        "slot_order": [[i, list(alpha)] for i, alpha in vector_slots(n, k)],
    }
    return checks, results


# ---------------------------------------------------------------------------
# subcommand: prolong


def _run_prolong(scenario, kmax):
    from .lie_equations import _prolongation, atiyah_exactness

    structure = _parse_structure_jet(scenario)
    kmax = _bound("kmax", kmax, "kmax")
    if kmax < 1:
        raise SchemaError("kmax must be at least 1")
    if structure.order < kmax:
        raise ResourceError(
            f"structure jet order {structure.order} cannot support kmax={kmax}"
        )
    try:
        report, top = _prolongation(structure, kmax)
    except ValueError as exc:
        raise SchemaError(f"structure: {exc}")
    anchor = atiyah_exactness(top)
    results = {
        "kind": report["kind"],
        "n": report["n"],
        "orders": report["orders"],
        "anchor": anchor,
    }
    checks = []
    expect = scenario.get("expect")
    if expect is not None:
        if not isinstance(expect, dict):
            raise SchemaError("expect: expected an object")
        if "dims" in expect:
            dims = [e["dim"] for e in report["orders"]]
            want = expect["dims"][:kmax]
            checks.append(
                {
                    "name": "expected_dimensions",
                    "pass": dims == want,
                    "witness": None if dims == want else {"got": dims, "want": want},
                }
            )
        if "surjective" in expect:
            got = [bool(e["surjective"]) for e in report["orders"][1:]]
            want = [bool(b) for b in expect["surjective"][: kmax - 1]]
            checks.append(
                {
                    "name": "expected_surjectivity",
                    "pass": got == want,
                    "witness": None if got == want else {"got": got, "want": want},
                }
            )
    return checks, results


# ---------------------------------------------------------------------------
# subcommand: klein


def _run_klein(builtin, n):
    from .klein import (
        build_affine_example,
        build_projective_example,
        build_projective_line_example,
        isotropy_filtration,
        sigma_homomorphism_check,
        validate_realization,
    )

    if builtin in ("projective", "gl2-projective"):
        if builtin == "gl2-projective":
            n = 1
        n = _bound("n", n, "n")
        if n < 1:
            raise SchemaError("projective example needs n >= 1")
        algebra = build_projective_example(n)
    elif builtin == "affine-line":
        algebra = build_affine_example()
    elif builtin == "projective-line":
        algebra = build_projective_line_example()
    else:
        raise SchemaError(f"unknown klein builtin {builtin!r}")
    ok, witness = validate_realization(algebra)
    report = isotropy_filtration(algebra)
    checks = [
        {"name": "realization_homomorphism", "pass": ok, "witness": witness},
        {
            "name": "filtration_stabilized",
            "pass": bool(report["stabilized"]),
            "witness": None,
        },
    ]
    order = report["order"]
    sigma_ok = True
    if order is not None:
        for m in range(1, order + 2):
            if not sigma_homomorphism_check(algebra, m):
                sigma_ok = False
    checks.append(
        {"name": "jet_evaluation_homomorphism", "pass": sigma_ok, "witness": None}
    )
    results = {
        "transitive": algebra.is_transitive(),
        "filtration_dims": report["dims"],
        "order": order,
        "ghost_dim": report["ghost_dim"],
    }
    return checks, results


# ---------------------------------------------------------------------------
# subcommand: extension


def _run_extension(n, k, m):
    from .liealg import (
        ExtensionData,
        is_split,
        nilpotency_analysis,
        two_cocycle_witness,
    )
    from .multiindex import order
    from .spencer import jet_group_algebra

    n = _bound("n", n, "n")
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
    checks = [
        {
            "name": "cocycle_identity",
            "pass": witness is None,
            "witness": witness,
        }
    ]
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
    return checks, results


# ---------------------------------------------------------------------------
# driver


def _load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}")
    if not isinstance(scenario, dict):
        raise SchemaError("scenario: expected a JSON object")
    return scenario


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact jet-calculus checks over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall-clock timing in the report (off by default so reports are byte-identical)",
        )

    p = sub.add_parser("check-identities", help="seeded random identity suite")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--count", type=int, default=5)
    common(p)

    p = sub.add_parser("bracket", help="bracket of two polynomial fields")
    p.add_argument("--scenario", required=True)
    common(p)

    p = sub.add_parser("forms", help="form identities from a scenario seed")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--count", type=int, default=5)
    common(p)

    p = sub.add_parser("prolong", help="solution dimensions of a linear system")
    p.add_argument("--scenario")
    p.add_argument("--builtin", choices=sorted(BUILTINS))
    p.add_argument("--kmax", type=int, default=2)
    common(p)

    p = sub.add_parser("klein", help="isotropy filtration of a realized algebra")
    p.add_argument(
        "--builtin",
        required=True,
        choices=["affine-line", "projective-line", "gl2-projective", "projective"],
    )
    p.add_argument("--n", type=int, default=1)
    common(p)

    p = sub.add_parser("extension", help="jet-group algebra extension analysis")
    p.add_argument("--builtin", choices=["jetgroup-ext-n1-k3-m2"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    common(p)

    p = sub.add_parser("list-builtins", help="catalog of example scenarios")
    p.add_argument("--out")
    return parser


def _run_forms_suite(args):
    from .forms import (
        FormKR,
        exterior_derivative,
        interior_product,
        lie_derivative,
        wedge,
    )

    n = _bound("n", args.n, "n")
    k = _bound("k", args.k, "k")
    degree = _bound("degree", args.degree, "degree")
    count = _bound("count", args.count, "count")
    if n < 2:
        raise SchemaError("forms needs n >= 2: the wedge check builds 2-forms")
    rng = random.Random(args.seed)

    def function():
        return FormKR(n, k, 0, {(): _function_section(n, k, rng, degree)})

    def cartan_degree_zero():
        x = _random_vector_section(n, k, rng, degree)
        f = function()
        return lie_derivative(x, f) == interior_product(x, exterior_derivative(f))

    def odd_wedge_anticommutes():
        f, g = function(), function()
        df, dg = exterior_derivative(f), exterior_derivative(g)
        return wedge(df, dg) + wedge(dg, df) == FormKR(n, k, 2, {})

    checks = [
        _trials("cartan_degree_zero", count, cartan_degree_zero),
        _trials("odd_wedge_anticommutes", count, odd_wedge_anticommutes),
    ]
    return checks, {"n": n, "k": k, "degree": degree, "count": count}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    scenario_echo = None
    try:
        if args.command == "list-builtins":
            catalog = {
                name: {"task": entry["task"], "description": entry["description"]}
                for name, entry in sorted(BUILTINS.items())
            }
            report = {
                "library": "jetcalc",
                "version": VERSION,
                "task": "list-builtins",
                "builtins": catalog,
            }
            _emit(report, args.out)
            return 0
        if args.command == "check-identities":
            checks, results = _run_check_identities(args)
        elif args.command == "forms":
            checks, results = _run_forms_suite(args)
        elif args.command == "bracket":
            scenario_echo = _load_scenario(args.scenario)
            checks, results = _run_bracket(scenario_echo)
        elif args.command == "prolong":
            if args.builtin:
                entry = BUILTINS.get(args.builtin)
                if entry is None or entry["task"] != "prolongation":
                    raise SchemaError(
                        f"builtin {args.builtin!r} is not a prolongation scenario"
                    )
                scenario_echo = entry["build"]()
            elif args.scenario:
                scenario_echo = _load_scenario(args.scenario)
            else:
                raise SchemaError("prolong needs --scenario or --builtin")
            checks, results = _run_prolong(scenario_echo, args.kmax)
        elif args.command == "klein":
            checks, results = _run_klein(args.builtin, args.n)
        elif args.command == "extension":
            if args.builtin == "jetgroup-ext-n1-k3-m2":
                n, k, m = 1, 3, 2
            else:
                n, k, m = args.n, args.k, args.m
            checks, results = _run_extension(n, k, m)
        else:
            raise SchemaError(f"unknown command {args.command!r}")
    except SchemaError as exc:
        _emit({"error": str(exc), "exit": 2}, getattr(args, "out", None))
        return 2
    except ResourceError as exc:
        _emit({"error": str(exc), "exit": 3}, getattr(args, "out", None))
        return 3
    report = {
        "library": "jetcalc",
        "version": VERSION,
        "task": args.command,
        "seed": getattr(args, "seed", None),
        "scenario": scenario_echo,
        "checks": checks,
        "results": results,
    }
    if getattr(args, "timing", False):
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    _emit(report, args.out)
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
