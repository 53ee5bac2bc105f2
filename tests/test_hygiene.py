"""Source hygiene: no unused imports, no unreferenced definitions, and a
stdlib-only runtime."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
PACKAGE = SRC / "jetcalc"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [entry for p in sorted(PACKAGE.glob("*.py")) for entry in _unused_imports(p)]
    assert unused == []


def _definitions(path):
    """Every function, class and non-dunder method defined in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _references(path):
    """Every name a module uses, as a bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_definition_is_referenced():
    used = set()
    for p in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        used |= _references(p)
    unreferenced = sorted(
        f"{p.name}:{line} {name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name, line in _definitions(p)
        if name not in used
    )
    assert unreferenced == []


# private attributes and the one module that may read or write each
PRIVATE = {"_num": "poly.py", "_den": "poly.py", "_inverse": "arrows.py", "_rows": "linalg.py"}


def test_private_attributes_stay_in_their_module():
    """Poly's numerators and denominator, an arrow's link to its inverse
    and an echelon's pivot table are read and written only in the module
    defining them."""
    leaks = sorted(
        f"{p.relative_to(SRC.parent)}:{node.lineno} {node.attr}"
        for p in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in PRIVATE
        and p != PACKAGE / PRIVATE[node.attr]
    )
    assert leaks == []


def test_only_arrows_imports_private_names_of_arrows():
    """The transport protocol is reached through the public pushforwards:
    no other module imports an underscore name from jetcalc.arrows."""
    leaks = sorted(
        f"{p.relative_to(SRC.parent)}:{node.lineno} {alias.name}"
        for p in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
        if p != PACKAGE / "arrows.py"
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("arrows", 1), ("jetcalc.arrows", 0))
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert leaks == []


# the packed-monomial helpers of poly, and the files that may name them
PACKING = {"_pack", "_unpack", "_check_degree", "_BITS", "_MASK"}
PACKING_USERS = {PACKAGE / "poly.py", TESTS / "test_poly.py"}


def test_only_poly_and_its_tests_see_packed_monomials():
    """No other module imports or reads the packing helpers of poly, and
    Poly hands out its monomials as tuples: packed keys never leave it."""
    from jetcalc.poly import Poly

    leaks = sorted(
        f"{p.relative_to(SRC.parent)}:{node.lineno} {name}"
        for p in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
        if p not in PACKING_USERS
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute) else []
        )
        if name in PACKING
    )
    assert leaks == []
    p = Poly(3, {(0, 0, 0): 1, (1, 2, 0): "1/2", (0, 0, 5): -2})
    for monomials in (p.coeffs, [m for m, _ in p.terms()]):
        assert sorted(monomials) == [(0, 0, 0), (0, 0, 5), (1, 2, 0)]
        assert all(type(m) is tuple and all(type(e) is int for e in m) for m in monomials)


def _src_names_outside(names, home):
    """Each use of one of names (imported, called or read) in a src/
    module other than home."""
    return sorted(
        f"{p.relative_to(SRC.parent)}:{node.lineno} {name}"
        for p in sorted(SRC.rglob("*.py"))
        if p != PACKAGE / home
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [node.id] if isinstance(node, ast.Name) else []
        )
        if name in names
    )


def test_only_jets_names_the_slot_lists():
    """The slot layout has one owner: no src/ module but jets imports,
    calls or reads `function_slots` or `vector_slots`; the others read
    `jets.slot_layout`.  Tests may still call the public list views."""
    assert _src_names_outside({"function_slots", "vector_slots"}, "jets.py") == []


def test_only_linalg_converts_rows_to_ints():
    """Rows reach the echelon kernel through its public methods: no src/
    module but linalg names `_int_row`."""
    assert _src_names_outside({"_int_row"}, "linalg.py") == []


def test_every_public_name_of_linalg_has_an_importer():
    """linalg holds only what other modules use: each public function,
    class or module-level name it defines is imported by another src/
    module, so dense views no module calls cannot grow back."""
    defined = set()
    for node in ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    imported = {
        alias.name
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "linalg.py"
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "linalg" and node.level == 1
        for alias in node.names
    }
    assert "Echelon" in public
    assert sorted(public - imported) == []


def test_jets_fills_tables_with_a_kernel_built_zero():
    """A jet has checked its dimension, so the zero Poly of its table
    comes off `Poly._canon`, not the validating `Poly.zero`."""
    calls = sorted(
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "jets.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "zero"
        and getattr(node.value, "id", None) == "Poly"
    )
    assert calls == []


# the kernels that read slot index arithmetic from the layout tables
TABLE_READERS = {
    "jets.py": {
        "jet_product_sum", "_derivatives", "prolong_function", "prolong_vector_field",
        "basis_bracket",
    },
    "spencer.py": {"_leibniz_terms", "basis_action"},
    "lie_equations.py": {"_lie_derivative_rows", "is_closed", "killing_order2_completion"},
}
# the per-use multi-index arithmetic that the layout tables replace
PER_USE_ARITHMETIC = {"add", "sub", "multi_binomial", "sub_indices", "diff_multi"}


def test_slot_kernels_read_index_arithmetic_from_the_layout():
    """`SlotLayout` is the one home of slot index arithmetic: the jet
    product, the Leibniz action, the bracket of constant basis sections,
    the prolongation of a polynomial, the invariance rows of a Lie
    equation and the closedness of a 2-form jet read its `products`, `leibniz` and `raised` tables and call none of
    the multi-index `add`, `sub`, `multi_binomial` or `sub_indices`, nor
    `Poly.diff_multi`, themselves."""
    calls = sorted(
        f"{module}:{node.lineno} {name}"
        for module, functions in TABLE_READERS.items()
        for definition in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
        if isinstance(definition, ast.FunctionDef) and definition.name in functions
        for node in ast.walk(definition)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in PER_USE_ARITHMETIC
    )
    found = {
        node.name
        for module in TABLE_READERS
        for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert set().union(*TABLE_READERS.values()) <= found
    assert calls == []


def _jetcalc_modules_after(code):
    """The jetcalc modules a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport sys\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('jetcalc')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return set(
        subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
    )


def test_forms_and_lie_equations_load_arrows_only_when_an_arrow_acts():
    """Importing forms or lie_equations loads no arrows, forms loads no
    linear algebra until a function of it needs some, spencer loads
    neither the Lie algebras nor linear algebra, and the Lie algebras
    load no bracket calculus."""
    for module, absent in (
        ("forms", ["arrows", "klein", "liealg", "linalg"]),
        ("lie_equations", ["arrows"]),
        ("spencer", ["liealg", "linalg"]),
        ("liealg", ["spencer"]),
    ):
        loaded = _jetcalc_modules_after(f"import jetcalc.{module}")
        assert f"jetcalc.{module}" in loaded
        assert sorted(loaded & {f"jetcalc.{m}" for m in absent}) == [], module


# the modules every command loads to parse its arguments
START_UP = {"cli", "jets", "multiindex", "poly"}
# the modules each command loads beyond those, and small arguments to run it with
COMMAND_LAYERS = {
    "check-identities": (["--n", "2", "--k", "1", "--count", "1"], {"forms", "spencer"}),
    "forms": (["--n", "2", "--k", "0", "--count", "1"], {"forms", "spencer"}),
    "bracket": (["--scenario", "{scenario}"], {"spencer"}),
    "prolong": (["--builtin", "flat-metric-2d"], {"lie_equations", "linalg"}),
    "klein": (["--builtin", "affine-line"], {"klein", "liealg", "linalg", "spencer"}),
    "extension": (["--n", "1", "--k", "2", "--m", "1"], {"liealg", "linalg"}),
    "list-builtins": ([], set()),
}


def test_each_command_loads_only_its_layers(tmp_path):
    """Each subcommand, run to completion in a fresh interpreter, loads
    exactly the start-up modules and the layers it computes with."""
    scenario = tmp_path / "bracket.json"
    scenario.write_text(
        '{"task": "bracket", "n": 1, "k": 2, "point": ["0"],'
        ' "x": [[{"exponents": [0], "value": "1"}]], "y": [[{"exponents": [1], "value": "1"}]]}'
    )
    out = tmp_path / "report.json"
    for command, (args, layers) in COMMAND_LAYERS.items():
        argv = [command, *(a.format(scenario=scenario) for a in args), "--out", str(out)]
        loaded = _jetcalc_modules_after(
            f"from jetcalc.cli import main\nassert main({argv!r}) == 0"
        )
        assert loaded == {"jetcalc"} | {f"jetcalc.{m}" for m in START_UP | layers}, command


def test_modules_import_only_the_standard_library():
    probe = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for m in {MODULES!r}:\n"
        "    importlib.import_module('jetcalc.' + m)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "jetcalc.cli" in out
    outside = [
        m for m in out
        if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "jetcalc"
    ]
    assert outside == []


# concepts that have one implementation, each in one src/ module
ONE_DEFINITION = {
    "_insert_sorted", "ce_terms", "_sign", "determinant", "_as_fraction", "_as_exact", "slot_layout",
    "Echelon", "random_poly", "basis_bracket",
}


def test_each_concept_is_defined_in_one_module():
    """The alternating-key helpers, the Chevalley-Eilenberg term list, the
    determinant, the exact-scalar gate and its int normal form, the slot
    layout, the bracket of constant basis sections, the echelon and the
    seeded random-polynomial generator are each defined (as a function, a class or a module-level name) in
    exactly one src/ module."""
    homes = {name: [] for name in ONE_DEFINITION}
    for p in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in ONE_DEFINITION.intersection(names):
                homes[name].append(p.relative_to(SRC.parent).as_posix())
    assert {name: files for name, files in homes.items() if len(files) != 1} == {}
