"""Command-line front end: scenario files in, deterministic JSON
reports out, plus a catalog of built-in example scenarios.

`BUILTINS` is the catalog: `list-builtins` and each subcommand's
`--builtin` choices are read from it.  Each subcommand registers one
runner, `_run_*(args) -> (scenario_echo, checks, results)`, and `main`
turns its outcome into the report and the exit code.

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
    FunctionJetSection,
    VectorJetSection,
    prolong_vector_field,
    vector_slots,
)
from .multiindex import is_natural, multi_indices
from .poly import Poly, random_poly

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


_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string"}


def _require(scenario, field, kind):
    if field not in scenario:
        raise SchemaError(f"missing field {field!r}")
    v = scenario[field]
    if isinstance(v, bool) or not isinstance(v, kind):
        raise SchemaError(f"{field}: expected {_KINDS[kind]}")
    return v


def _naturals(values, n):
    """Whether values is a JSON list of n natural numbers."""
    return isinstance(values, list) and len(values) == n and all(map(is_natural, values))


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
        if not _naturals(exps, n):
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
        if not _naturals(alpha, n):
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
# built-in scenarios: a prolongation builtin holds its scenario (echoed in
# the report with its task), the extension preset its (n, k, m)

BUILTINS = {
    "flat-metric-2d": {
        "task": "prolongation",
        "description": "Euclidean metric on two variables; Killing solutions have dimensions (3, 3, 3, 3) with bijective projections.",
        "scenario": {
            "kind": "metric",
            "n": 2,
            "order": 4,
            "point": ["0", "0"],
            "coeffs": [[0, 0, [0, 0], "1"], [1, 1, [0, 0], "1"]],
            "expect": {"dims": [3, 3, 3, 3], "surjective": [True, True, True]},
        },
    },
    "sphere-metric-2d": {
        "task": "prolongation",
        "description": "Round-sphere metric jets at the origin to order three; solution dimensions (3, 3, 3), surjective projections.",
        # order-3 slots of 4/(1 + x1^2 + x2^2)^2 times the identity at 0
        "scenario": {
            "kind": "metric",
            "n": 2,
            "order": 3,
            "point": ["0", "0"],
            "coeffs": [
                [0, 0, [0, 0], "4"],
                [0, 0, [2, 0], "-16"],
                [0, 0, [0, 2], "-16"],
                [1, 1, [0, 0], "4"],
                [1, 1, [2, 0], "-16"],
                [1, 1, [0, 2], "-16"],
            ],
            "expect": {"dims": [3, 3, 3], "surjective": [True, True]},
        },
    },
    "generic-metric-2d": {
        "task": "prolongation",
        "description": "A metric with no infinitesimal symmetries beyond order two; the order-3-to-2 restricted projection is not surjective.",
        "scenario": {
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
        },
    },
    "standard-symplectic-2d": {
        "task": "prolongation",
        "description": "Constant area form on two variables; solution dimensions (5, 9, 14), surjective projections.",
        "scenario": {
            "kind": "two_form",
            "n": 2,
            "order": 3,
            "point": ["0", "0"],
            "coeffs": [[0, 1, [0, 0], "1"]],
            "expect": {"dims": [5, 9, 14], "surjective": [True, True]},
        },
    },
    "nonclosed-2form-4d": {
        "task": "prolongation",
        "description": "A non-closed 2-form jet on four variables; the order-2-to-1 restricted projection fails.",
        "scenario": {
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
        },
    },
    "affine-line": {
        "task": "klein",
        "description": "Constant and linear fields on one variable; order 1, no ghost.",
    },
    "projective-line": {
        "task": "klein",
        "description": "Fractional-linear fields on one variable; order 2, no ghost.",
    },
    "gl2-projective": {
        "task": "klein",
        "description": "The full 2-by-2 linear algebra on the projective-line chart; order 2 with a one-dimensional ghost (the scalars).",
    },
    "jetgroup-ext-n1-k3-m2": {
        "task": "extension",
        "description": "The jet-group algebra of order 3 on one variable as an extension of the order-2 quotient by an abelian ideal.",
        "nkm": (1, 3, 2),
    },
}


def _builtin_names(task):
    return sorted(name for name, entry in BUILTINS.items() if entry["task"] == task)


def _check(name, ok, witness=None):
    """One entry of a report's `checks`."""
    return {"name": name, "pass": ok, "witness": witness}


# ---------------------------------------------------------------------------
# subcommands: check-identities and forms


def _trials(count, holds):
    """Run the seeded check `holds()` count times; the check is named
    after the function and its witness is the first failing trial."""
    passed = 0
    first_failure = None
    for trial in range(count):
        if holds():
            passed += 1
        elif first_failure is None:
            first_failure = trial
    return {**_check(holds.__name__, passed == count, first_failure), "trials": count}


def _suite(args, min_n, min_k, message):
    """What the seeded suites share: bounds on n, k, degree and count, a
    minimum n and k (else `message`), and generators of random vector
    sections and 0-forms drawing from one `random.Random(args.seed)`.
    Returns (params, rng, section, function)."""
    from .forms import FormKR

    n = _bound("n", args.n, "n")
    k = _bound("k", args.k, "k")
    degree = _bound("degree", args.degree, "degree")
    count = _bound("count", args.count, "count")
    if n < min_n or k < min_k:
        raise SchemaError(message)
    rng = random.Random(args.seed)

    def section():
        return VectorJetSection(
            n, k, {s: random_poly(n, rng, degree) for s in vector_slots(n, k)}
        )

    def function():
        coeffs = {alpha: random_poly(n, rng, degree) for alpha in multi_indices(n, k)}
        return FormKR(n, k, 0, {(): FunctionJetSection(n, k, coeffs)})

    params = {"n": n, "k": k, "degree": degree, "count": count}
    return params, rng, section, function


def _run_check_identities(args):
    from .forms import exterior_derivative, wedge
    from .spencer import spencer_bracket

    params, rng, section, function = _suite(
        args, 1, 1, "check-identities needs n >= 1 and k >= 1"
    )

    def jacobi():
        x, y, z = section(), section(), section()
        total = spencer_bracket(spencer_bracket(x, y), z)
        total = total + spencer_bracket(spencer_bracket(y, z), x)
        total = total + spencer_bracket(spencer_bracket(z, x), y)
        return total.is_zero()

    def lift_independence():
        x, y = section(), section()
        a = spencer_bracket(x, y, lift_policy="zero")
        b = spencer_bracket(x, y, lift_policy="random", rng=rng)
        return a == b

    def d_squared_zero():
        return exterior_derivative(exterior_derivative(function())).is_zero()

    def leibniz_degree_zero():
        f, g = function(), function()
        df, dg = exterior_derivative(f), exterior_derivative(g)
        return exterior_derivative(wedge(f, g)) == wedge(df, g) + wedge(f, dg)

    # d of a 1-form needs a 2-form, so the chain stops short on one variable
    chain = [d_squared_zero] if params["n"] >= 2 else []
    suite = [jacobi, lift_independence, *chain, leibniz_degree_zero]
    return None, [_trials(params["count"], holds) for holds in suite], params


def _run_forms_suite(args):
    from .forms import (
        FormKR,
        exterior_derivative,
        interior_product,
        lie_derivative,
        wedge,
    )

    params, _, section, function = _suite(
        args, 2, 0, "forms needs n >= 2: the wedge check builds 2-forms"
    )

    def cartan_degree_zero():
        x, f = section(), function()
        return lie_derivative(x, f) == interior_product(x, exterior_derivative(f))

    def odd_wedge_anticommutes():
        f, g = function(), function()
        df, dg = exterior_derivative(f), exterior_derivative(g)
        return wedge(df, dg) + wedge(dg, df) == FormKR(params["n"], params["k"], 2, {})

    suite = [cartan_degree_zero, odd_wedge_anticommutes]
    return None, [_trials(params["count"], holds) for holds in suite], params


# ---------------------------------------------------------------------------
# subcommand: bracket


def _run_bracket(args):
    from .klein import bracket_fields
    from .spencer import spencer_bracket

    scenario = _load_scenario(args.scenario)
    n = _bound("n", _require(scenario, "n", int), "n")
    if n < 1:
        raise SchemaError("bracket needs n >= 1")
    k = _bound("k", _require(scenario, "k", int), "k")
    point = _parse_point(n, _require(scenario, "point", list), "point")
    fields = []
    for name in ("x", "y"):
        spec = _require(scenario, name, list)
        if len(spec) != n:
            raise SchemaError(f"{name}: expected {n} components")
        fields.append([_parse_poly(n, c, f"{name}[{i}]") for i, c in enumerate(spec)])
    x_comps, y_comps = fields
    spencer = spencer_bracket(
        prolong_vector_field(x_comps, k), prolong_vector_field(y_comps, k)
    )
    direct = prolong_vector_field(bracket_fields(x_comps, y_comps), k)
    checks = [_check("spencer_matches_classical", spencer == direct)]
    results = {
        "bracket_jet_coordinates": [str(c) for c in direct.at(point).as_vector()],
        "slot_order": [[i, list(alpha)] for i, alpha in vector_slots(n, k)],
    }
    return scenario, checks, results


# ---------------------------------------------------------------------------
# subcommand: prolong


def _expectation(name, got, want):
    return _check(name, got == want, None if got == want else {"got": got, "want": want})


def _run_prolong(args):
    from .lie_equations import _prolongation, atiyah_exactness

    if args.builtin:
        scenario = {"task": "prolongation", **BUILTINS[args.builtin]["scenario"]}
    elif args.scenario:
        scenario = _load_scenario(args.scenario)
    else:
        raise SchemaError("prolong needs --scenario or --builtin")
    structure = _parse_structure_jet(scenario)
    kmax = _bound("kmax", args.kmax, "kmax")
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
    results = {key: report[key] for key in ("kind", "n", "orders")}
    results["anchor"] = atiyah_exactness(top)
    checks = []
    expect = scenario.get("expect")
    if expect is not None:
        if not isinstance(expect, dict):
            raise SchemaError("expect: expected an object")
        if "dims" in expect:
            dims = [e["dim"] for e in report["orders"]]
            want = _require(expect, "dims", list)[:kmax]
            checks.append(_expectation("expected_dimensions", dims, want))
        if "surjective" in expect:
            got = [bool(e["surjective"]) for e in report["orders"][1:]]
            want = [bool(b) for b in _require(expect, "surjective", list)[: kmax - 1]]
            checks.append(_expectation("expected_surjectivity", got, want))
    return scenario, checks, results


# ---------------------------------------------------------------------------
# subcommand: klein


def _run_klein(args):
    from .klein import (
        build_affine_example,
        build_projective_example,
        build_projective_line_example,
        isotropy_filtration,
        sigma_homomorphism_check,
        validate_realization,
    )

    if args.builtin == "affine-line":
        algebra = build_affine_example()
    elif args.builtin == "projective-line":
        algebra = build_projective_line_example()
    else:
        # gl2-projective is the n = 1 member of the projective family
        n = 1 if args.builtin == "gl2-projective" else _bound("n", args.n, "n")
        if n < 1:
            raise SchemaError("projective example needs n >= 1")
        algebra = build_projective_example(n)
    ok, witness = validate_realization(algebra)
    report = isotropy_filtration(algebra)
    order = report["order"]
    sigma_ok = order is None or all(
        sigma_homomorphism_check(algebra, m) for m in range(1, order + 2)
    )
    checks = [
        _check("realization_homomorphism", ok, witness),
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


# ---------------------------------------------------------------------------
# subcommand: extension


def _run_extension(args):
    from .liealg import (
        ExtensionData,
        is_split,
        nilpotency_analysis,
        two_cocycle_witness,
    )
    from .multiindex import order
    from .spencer import jet_group_algebra

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

    def common(p, run):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall-clock timing in the report (off by default so reports are byte-identical)",
        )
        p.set_defaults(run=run)

    def suite(name, run, help, k):
        p = sub.add_parser(name, help=help)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--k", type=int, default=k)
        p.add_argument("--degree", type=int, default=2)
        p.add_argument("--count", type=int, default=5)
        common(p, run)

    suite("check-identities", _run_check_identities, "seeded random identity suite", k=2)

    p = sub.add_parser("bracket", help="bracket of two polynomial fields")
    p.add_argument("--scenario", required=True)
    common(p, _run_bracket)

    suite("forms", _run_forms_suite, "form identities from a scenario seed", k=1)

    p = sub.add_parser("prolong", help="solution dimensions of a linear system")
    p.add_argument("--scenario")
    p.add_argument("--builtin", choices=_builtin_names("prolongation"))
    p.add_argument("--kmax", type=int, default=2)
    common(p, _run_prolong)

    p = sub.add_parser("klein", help="isotropy filtration of a realized algebra")
    p.add_argument(
        "--builtin", required=True, choices=_builtin_names("klein") + ["projective"]
    )
    p.add_argument("--n", type=int, default=1)
    common(p, _run_klein)

    p = sub.add_parser("extension", help="jet-group algebra extension analysis")
    p.add_argument("--builtin", choices=_builtin_names("extension"))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    common(p, _run_extension)

    p = sub.add_parser("list-builtins", help="catalog of example scenarios")
    p.add_argument("--out")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    header = {"library": "jetcalc", "version": VERSION, "task": args.command}
    if args.command == "list-builtins":
        catalog = {
            name: {"task": entry["task"], "description": entry["description"]}
            for name, entry in sorted(BUILTINS.items())
        }
        _emit({**header, "builtins": catalog}, args.out)
        return 0
    started = time.monotonic()
    try:
        scenario_echo, checks, results = args.run(args)
    except SchemaError as exc:
        _emit({"error": str(exc), "exit": 2}, args.out)
        return 2
    except ResourceError as exc:
        _emit({"error": str(exc), "exit": 3}, args.out)
        return 3
    report = {
        **header,
        "seed": args.seed,
        "scenario": scenario_echo,
        "checks": checks,
        "results": results,
    }
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    _emit(report, args.out)
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
