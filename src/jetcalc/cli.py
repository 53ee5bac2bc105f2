"""Command-line front end: scenario files in, deterministic JSON
reports out, plus a catalog of built-in example scenarios.

This module is the shell every command loads: `main`, the option table
`COMMANDS`, `_emit` and the exit codes, the gates several commands
share (`_frac`, `_require`, `_bound`, `_parse_point`, `_load_scenario`,
...), the seeded-suite harness of `check-identities` and `forms`, and
`BUILTINS`, the catalog that `list-builtins` and each subcommand's `--builtin`
choices read.  Each command's runner, `run_*(args) -> (scenario_echo,
checks, results)`, lives in its own module (`cli_suites`, `cli_bracket`,
`cli_prolong`, `cli_klein`, `cli_extension`) with the parsing only it
reads; `_run` imports it when its command runs, so no command compiles
another's runner.

`COMMANDS` feeds both parses.  A plain command line (a command, then
exact `--name value` pairs of its options) is read off the table by
`_plain_args` without loading argparse; `--help`, abbreviations,
`--opt=value` and every refusal go to the argparse parser that
`_build_parser` builds from the same table, so their text is argparse's.

Exit codes: 0 all checks pass; 1 a check failed (witnesses in the
report); 2 scenario or usage error; 3 resource bound exceeded.
"""

import json
import random
import sys
import time
from types import SimpleNamespace

from .jets import FunctionJetSection, VectorJetSection, slot_layout
from .multiindex import is_natural
from .poly import _as_fraction, _shown, random_poly

VERSION = "0.1.0"

LIMITS = {"n": 4, "k": 6, "kmax": 6, "degree": 6, "count": 5000}


class SchemaError(Exception):
    pass


class ResourceError(Exception):
    pass


def _frac(value, field):
    """Exact rational from a JSON value; floats are rejected, the gate's
    OverflowError (a decimal exponent past its bound) passes, and a
    string with more digits than CPython's int-string limit is a
    resource error.  Both error messages cut the value short."""
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{field}: rationals must be strings or integers")
    try:
        return _as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        if str(exc).startswith("Exceeds the limit"):  # CPython's int-string digit limit
            raise ResourceError(f"{field}: {_shown(value)}: {exc}")
        raise SchemaError(f"{field}: cannot parse rational {_shown(value)}")


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
            f"{name}={_shown(value)} exceeds the bound {LIMITS[limit_key]}"
        )
    if value < 0:
        raise SchemaError(f"{name} must be non-negative")
    return value


def _parse_point(n, spec, field):
    if not isinstance(spec, list) or len(spec) != n:
        raise SchemaError(f"{field}: expected {n} rationals")
    return tuple(_frac(x, f"{field}[{i}]") for i, x in enumerate(spec))


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
# the seeded-suite harness of check-identities and forms


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
    if count < 1:
        raise SchemaError("count must be at least 1")
    if n < min_n or k < min_k:
        raise SchemaError(message)
    rng = random.Random(args.seed)

    def section():
        return VectorJetSection(
            n, k, {s: random_poly(n, rng, degree) for s in slot_layout("vector", n, k).slots}
        )

    def function():
        coeffs = {a: random_poly(n, rng, degree) for a in slot_layout("function", n, k).slots}
        return FormKR(n, k, 0, {(): FunctionJetSection(n, k, coeffs)})

    params = {"n": n, "k": k, "degree": degree, "count": count}
    return params, rng, section, function


# ---------------------------------------------------------------------------
# driver


def _load_scenario(path, task):
    """The JSON object in the file at path, whose `task` must be task."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # both are ValueErrors
        raise SchemaError(f"scenario is not valid JSON: {exc}")
    except (ValueError, RecursionError) as exc:
        # an integer literal past CPython's string-to-int digit limit, or
        # nesting past the parser's recursion limit
        raise ResourceError(f"scenario: {exc}")
    if not isinstance(scenario, dict):
        raise SchemaError("scenario: expected a JSON object")
    if scenario.get("task") != task:
        raise SchemaError(f"task: expected {task!r}")
    return scenario


def _emit(report, out_path, code):
    """Write report to out_path, or to stdout without one, and return the
    exit code: code, or 2 with a JSON error on stdout when out_path
    cannot be written."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        error = f"--out: cannot write {_shown(out_path)}: {exc.strerror or type(exc).__name__}"
        return _emit({"error": error, "exit": 2}, None, 2)
    return code


def _ints(**defaults):
    """Integer options, each with its default."""
    return {name: {"type": int, "default": value} for name, value in defaults.items()}


_TIMING_HELP = "include wall-clock timing in the report (off by default so reports are byte-identical)"
_COMMON = {
    "out": {"help": "write the JSON report to this path"},
    **_ints(seed=0),
    "timing": {"action": "store_true", "default": False, "help": _TIMING_HELP},
}
# every command's summary, its options in help order (each one's
# `add_argument` keywords: type or choices, default, help, required) and
# the names among them that may not be given together
COMMANDS = {
    "check-identities": ("seeded random identity suite", {**_ints(n=2, k=2, degree=2, count=5), **_COMMON}, ()),
    "bracket": ("bracket of two polynomial fields", {"scenario": {"required": True}, **_COMMON}, ()),
    "forms": ("form identities from a scenario seed", {**_ints(n=2, k=1, degree=2, count=5), **_COMMON}, ()),
    "prolong": (
        "solution dimensions of a linear system",
        {"scenario": {}, "builtin": {"choices": _builtin_names("prolongation")}, **_ints(kmax=2), **_COMMON},
        ("scenario", "builtin"),
    ),
    "klein": (
        "isotropy filtration of a realized algebra",
        {"builtin": {"required": True, "choices": _builtin_names("klein") + ["projective"]}, **_ints(n=1), **_COMMON},
        (),
    ),
    "extension": (
        "jet-group algebra extension analysis",
        {"builtin": {"choices": _builtin_names("extension")}, **_ints(n=1, k=3, m=2), **_COMMON},
        (),
    ),
    "list-builtins": ("catalog of example scenarios", {"out": {}}, ()),
}


def _build_parser(command=None):
    """The jetcalc parser, built from COMMANDS.  Every subcommand is
    registered with its name and help, but only `command`'s gets its
    options, or every one's when command names none (as for `--help`)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact jet-calculus checks over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, exclusive) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command == name or command not in COMMANDS:
            group = p.add_mutually_exclusive_group() if exclusive else None
            for option, spec in options.items():
                (group if option in exclusive else p).add_argument(f"--{option}", **spec)
    return parser


def _plain_args(argv):
    """The namespace argparse gives argv, read off COMMANDS without it, if
    argv is a command and exact `--name value` pairs of its options (or
    the bare `--timing`), each given once, no value beginning with "-",
    every int and choice valid, every required option present and no
    two exclusive ones given; else None, and argparse parses argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, exclusive = COMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for word in words:
        name = word[2:] if word.startswith("--") else None
        spec = options.get(name)
        if spec is None or name in given:
            return None
        if "action" in spec:
            given[name] = True
            continue
        value = next(words, "-")  # an option with no value left goes to argparse
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", [value]):
            return None
        given[name] = value
    if sum(name in given for name in exclusive) > 1 or any(
        spec.get("required") and name not in given for name, spec in options.items()
    ):
        return None
    return SimpleNamespace(
        command=argv[0], **{name: given.get(name, spec.get("default")) for name, spec in options.items()}
    )


def _run(args):
    """Run the invoked command, importing its runner module only now."""
    if args.command == "check-identities":
        from .cli_suites import run_check_identities
        return run_check_identities(args)
    if args.command == "forms":
        from .cli_suites import run_forms_suite
        return run_forms_suite(args)
    if args.command == "bracket":
        from .cli_bracket import run_bracket
        return run_bracket(args)
    if args.command == "prolong":
        from .cli_prolong import run_prolong
        return run_prolong(args)
    if args.command == "klein":
        from .cli_klein import run_klein
        return run_klein(args)
    from .cli_extension import run_extension
    return run_extension(args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    header = {"library": "jetcalc", "version": VERSION, "task": args.command}
    if args.command == "list-builtins":
        catalog = {
            name: {"task": entry["task"], "description": entry["description"]}
            for name, entry in sorted(BUILTINS.items())
        }
        return _emit({**header, "builtins": catalog}, args.out, 0)
    started = time.monotonic()
    try:
        scenario_echo, checks, results = _run(args)
    except SchemaError as exc:
        return _emit({"error": str(exc), "exit": 2}, args.out, 2)
    except (ResourceError, OverflowError) as exc:  # OverflowError: past poly's degree or exponent bound
        return _emit({"error": str(exc), "exit": 3}, args.out, 3)
    report = {
        **header,
        "seed": args.seed,
        "scenario": scenario_echo,
        "checks": checks,
        "results": results,
    }
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    return _emit(report, args.out, 0 if all(c["pass"] for c in checks) else 1)


if __name__ == "__main__":
    # under `python -m jetcalc.cli` this file runs as `__main__`, but the
    # runners raise the errors of the package module: run its `main`
    from jetcalc.cli import main as package_main

    sys.exit(package_main())
