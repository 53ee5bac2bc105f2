"""Runner of `bracket`: the Spencer bracket of the prolongations of two
polynomial vector fields from a scenario file, checked against the
prolongation of their classical bracket."""

from .cli import (
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
from .jets import prolong_vector_field, slot_layout
from .poly import Poly
from .spencer import bracket_fields, spencer_bracket


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
        coeffs[key] = coeffs.get(key, 0) + c
    try:
        return Poly(n, coeffs)
    except OverflowError as exc:
        raise ResourceError(f"{field}: {exc}")


def run_bracket(args):
    scenario = _load_scenario(args.scenario, "bracket")
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
    values = direct.at(point).as_vector()
    try:
        coords = [str(c) for c in values]
    except ValueError as exc:  # a value past CPython's int-to-string digit limit
        raise ResourceError(f"report value: {exc}")
    results = {
        "bracket_jet_coordinates": coords,
        "slot_order": [[i, list(alpha)] for i, alpha in slot_layout("vector", n, k).slots],
    }
    return scenario, checks, results
