"""Runners of the seeded identity suites, `check-identities` and
`forms`: each trial draws random sections from `cli._suite`'s generators
and checks one identity of the Spencer bracket or the form complex."""

from . import spencer
from .cli import _suite, _trials
from .forms import (
    FormKR,
    exterior_derivative,
    interior_product,
    lie_derivative,
    wedge,
)


def run_check_identities(args):
    params, rng, section, function = _suite(
        args, 1, 1, "check-identities needs n >= 1 and k >= 1"
    )

    def jacobi():
        x, y, z = section(), section(), section()
        total = spencer.spencer_bracket(spencer.spencer_bracket(x, y), z)
        total = total + spencer.spencer_bracket(spencer.spencer_bracket(y, z), x)
        total = total + spencer.spencer_bracket(spencer.spencer_bracket(z, x), y)
        return total.is_zero()

    def lift_independence():
        x, y = section(), section()
        a = spencer.spencer_bracket(x, y, lift_policy="zero")
        b = spencer.spencer_bracket(x, y, lift_policy="random", rng=rng)
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


def run_forms_suite(args):
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
