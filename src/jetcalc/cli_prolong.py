"""Runner of `prolong`: solution dimensions and restricted-projection
surjectivity of the Killing or symplectic system of a structure jet,
read from a scenario file or a prolongation builtin, with the anchor
report and the scenario's expectations as checks."""

from .cli import (
    BUILTINS,
    ResourceError,
    SchemaError,
    _bound,
    _check,
    _frac,
    _load_scenario,
    _naturals,
    _parse_point,
    _require,
)
from .lie_equations import StructureJet, _prolongation
from .multiindex import is_natural
from .poly import _shown


def _parse_structure_jet(scenario):
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
            raise SchemaError(f"coeffs[{t}]: conflicting values for slot {_shown(list(key))}")
        coeffs[key] = c
    try:
        return StructureJet(kind, n, order, point, coeffs)
    except ValueError as exc:
        raise SchemaError(f"coeffs: {exc}")


def _expected(expect, field, valid, kind):
    """The list expect[field], each entry of which must pass valid."""
    values = _require(expect, field, list)
    for t, v in enumerate(values):
        if not valid(v):
            raise SchemaError(f"expect.{field}[{t}]: expected {kind}")
    return values


def _expectation(name, got, want):
    return _check(name, got == want, None if got == want else {"got": got, "want": want})


def run_prolong(args):
    if args.builtin:
        scenario = {"task": "prolongation", **BUILTINS[args.builtin]["scenario"]}
    elif args.scenario:
        scenario = _load_scenario(args.scenario, "prolongation")
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
        report, anchor = _prolongation(structure, kmax)
    except ValueError as exc:
        raise SchemaError(f"structure: {exc}")
    results = {key: report[key] for key in ("kind", "n", "orders")}
    results["anchor"] = anchor
    checks = []
    expect = scenario.get("expect")
    if expect is not None:
        if not isinstance(expect, dict):
            raise SchemaError("expect: expected an object")
        if "dims" in expect:
            dims = [e["dim"] for e in report["orders"]]
            want = _expected(expect, "dims", is_natural, "a natural number")[:kmax]
            checks.append(_expectation("expected_dimensions", dims, want))
        if "surjective" in expect:
            got = [e["surjective"] for e in report["orders"][1:]]
            want = _expected(expect, "surjective", lambda b: type(b) is bool, "true or false")
            checks.append(_expectation("expected_surjectivity", got, want[: kmax - 1]))
    return scenario, checks, results
