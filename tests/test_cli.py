import copy
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc.cli import BUILTINS, main
from jetcalc.poly import random_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_builtins_catalog(capsys):
    code, out = run_cli(capsys, "list-builtins")
    assert code == 0
    report = json.loads(out)
    names = set(report["builtins"])
    assert names == {
        "flat-metric-2d",
        "sphere-metric-2d",
        "generic-metric-2d",
        "standard-symplectic-2d",
        "nonclosed-2form-4d",
        "affine-line",
        "projective-line",
        "gl2-projective",
        "jetgroup-ext-n1-k3-m2",
    }
    code2, out2 = run_cli(capsys, "list-builtins")
    assert out == out2  # stable across runs


def test_reports_are_byte_identical(capsys):
    args = ("check-identities", "--n", "2", "--k", "2", "--seed", "7", "--count", "2")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["seed"] == 7
    assert all(c["pass"] for c in report["checks"])
    assert "timing_seconds" not in report


def test_timing_flag_adds_timing(capsys):
    code, out = run_cli(
        capsys, "check-identities", "--n", "1", "--k", "1", "--count", "1", "--timing"
    )
    assert code == 0
    assert "timing_seconds" in json.loads(out)


def test_prolong_builtin_flat(capsys):
    code, out = run_cli(capsys, "prolong", "--builtin", "flat-metric-2d", "--kmax", "4")
    assert code == 0
    report = json.loads(out)
    assert [e["dim"] for e in report["results"]["orders"]] == [3, 3, 3, 3]
    assert report["results"]["anchor"]["anchor_surjective"]


def test_prolong_builtin_generic_expectations_pass(capsys):
    code, out = run_cli(
        capsys, "prolong", "--builtin", "generic-metric-2d", "--kmax", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert [e["dim"] for e in report["results"]["orders"]] == [3, 3, 2]
    assert report["results"]["orders"][2]["surjective"] is False


def test_prolong_scenario_file_and_failed_expectation(capsys, tmp_path):
    scenario = {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 2,
        "point": ["0", "0"],
        "coeffs": [[0, 0, [0, 0], "1"], [1, 1, [0, 0], "1"]],
        "expect": {"dims": [3, 999]},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "2")
    assert code == 1  # check failure carries exit status 1
    report = json.loads(out)
    bad = [c for c in report["checks"] if not c["pass"]]
    assert bad and bad[0]["witness"]["got"] == [3, 3]


def test_klein_projective_order_and_ghost(capsys):
    code, out = run_cli(capsys, "klein", "--builtin", "projective", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["order"] == 2
    assert report["results"]["ghost_dim"] == 1


def test_extension_builtin(capsys):
    code, out = run_cli(capsys, "extension", "--builtin", "jetgroup-ext-n1-k3-m2")
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["ideal_abelian"] is True
    assert res["cocycle_nonzero_pairs"] == 0
    assert res["is_split"] is True
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cocycle_identity"] == {
        "name": "cocycle_identity",
        "pass": True,
        "witness": None,
    }


def test_bracket_scenario(capsys, tmp_path):
    scenario = {
        "task": "bracket",
        "n": 1,
        "k": 2,
        "point": ["0"],
        "x": [[{"exponents": [0], "value": "1"}]],
        "y": [[{"exponents": [1], "value": "1"}]],
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "bracket", "--scenario", str(path))
    assert code == 0
    report = json.loads(out)
    # [d, x d] = d: jet coordinates (1, 0, 0)
    assert report["results"]["bracket_jet_coordinates"] == ["1", "0", "0"]


def test_schema_violation_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "prolongation", "kind": "metric"}))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "1")
    assert code == 2
    assert "error" in json.loads(out)
    # a bracket on no variables has no fields to bracket
    path.write_text(json.dumps({"task": "bracket", "n": 0, "k": 1, "point": [], "x": [], "y": []}))
    code, out = run_cli(capsys, "bracket", "--scenario", str(path))
    assert code == 2
    assert "n >= 1" in json.loads(out)["error"]
    code, out = run_cli(capsys, "extension", "--n", "0", "--k", "2", "--m", "1")
    assert code == 2
    assert "n >= 1" in json.loads(out)["error"]


def test_json_floats_rejected(capsys, tmp_path):
    scenario = {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 1,
        "point": ["0", "0"],
        "coeffs": [[0, 0, [0, 0], 1.5], [1, 1, [0, 0], "1"]],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "1")
    assert code == 2


def test_resource_bound_exits_3(capsys):
    code, out = run_cli(capsys, "extension", "--n", "3", "--k", "3", "--m", "2")
    assert code == 3
    assert "exceed" in json.loads(out)["error"] or "bounded" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "entry",
    [
        [5, 0, [0, 0], "1"],
        [0, 1, [-1, 0], "1"],
        [0, 1, [True, 0], "1"],
        [0, 1, ["a", 0], "1"],
        [0, 0, [[0], 0], "1"],
        [0, 0, {"a": 1}, "1"],
    ],
    ids=[
        "component-index-out-of-range",
        "negative-exponent",
        "boolean-exponent",
        "string-exponent",
        "nested-exponent",
        "alpha-an-object",
    ],
)
def test_malformed_structure_jet_exits_2(capsys, tmp_path, entry):
    scenario = {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 2,
        "point": ["0", "0"],
        "coeffs": [[0, 0, [0, 0], "1"], [1, 1, [0, 0], "1"], entry],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "1")
    assert code == 2
    assert "error" in json.loads(out)


def test_forms_needs_two_variables(capsys):
    code, out = run_cli(capsys, "forms", "--n", "1", "--k", "1", "--count", "1")
    assert code == 2
    assert "n >= 2" in json.loads(out)["error"]


def test_conflicting_duplicate_structure_slot_exits_2(capsys, tmp_path):
    scenario = {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 2,
        "point": ["0", "0"],
        "coeffs": [[0, 0, [0, 0], "1"], [1, 1, [0, 0], "1"], [1, 1, [0, 0], "5"]],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "1")
    assert code == 2
    assert "conflicting" in json.loads(out)["error"]
    # repeating a slot with the same value is not a conflict
    scenario["coeffs"][2] = [1, 1, [0, 0], "1"]
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "1")
    assert code == 0


# each builtin task and the subcommand that runs it
SUBCOMMAND = {"prolongation": "prolong", "klein": "klein", "extension": "extension"}


def _listed_builtins(capsys):
    code, out = run_cli(capsys, "list-builtins")
    assert code == 0
    return json.loads(out)["builtins"]


def test_every_listed_builtin_runs_under_its_subcommand(capsys):
    catalog = _listed_builtins(capsys)
    assert set(catalog) == set(BUILTINS)
    for name, entry in catalog.items():
        code, out = run_cli(capsys, SUBCOMMAND[entry["task"]], "--builtin", name)
        assert code == 0, name
        assert json.loads(out)["task"] == SUBCOMMAND[entry["task"]]


def test_builtin_under_another_task_exits_2(capsys):
    for name, entry in _listed_builtins(capsys).items():
        for task, subcommand in SUBCOMMAND.items():
            if task != entry["task"]:
                code, out = run_cli(capsys, subcommand, "--builtin", name)
                assert code == 2, (subcommand, name)
                assert out == ""  # argparse rejects it before any report


def test_random_poly_draws_are_pinned():
    # the sections that check-identities and forms draw depend on this
    # exact stream: an integer in [-4, 4] per monomial in graded lex
    # order and, only when it is nonzero, a denominator in [1, 3]
    rng = random.Random(2)
    p = random_poly(2, rng, 2)
    assert p.coeffs == {
        (0, 0): Fraction(-4),
        (1, 0): Fraction(-2, 3),
        (0, 1): Fraction(-3, 2),
        (2, 0): Fraction(-1, 3),
    }
    assert rng.randrange(1000) == 36


@pytest.mark.parametrize(
    "expect",
    [{"dims": 5}, {"surjective": "yes"}, {"surjective": 3}],
    ids=["dims-an-int", "surjective-a-string", "surjective-an-int"],
)
def test_malformed_expectation_exits_2(capsys, tmp_path, expect):
    scenario = {
        "task": "prolongation",
        "kind": "metric",
        "n": 2,
        "order": 2,
        "point": ["0", "0"],
        "coeffs": [[0, 0, [0, 0], "1"], [1, 1, [0, 0], "1"]],
        "expect": expect,
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "prolong", "--scenario", str(path), "--kmax", "2")
    assert code == 2
    assert "error" in json.loads(out)


_OTHER_TYPES = [None, True, -1, 1.5, "x", "1/2", [], [0], ["0", "0"], {}, {"dims": [1]}]


@st.composite
def _mutated_prolongation_scenarios(draw):
    """A prolongation builtin's scenario with one field dropped or given
    a value of another type: a top-level field, a field of `expect`, or
    a position in one `coeffs` entry."""
    name = draw(st.sampled_from(sorted(n for n, e in BUILTINS.items() if e["task"] == "prolongation")))
    scenario = copy.deepcopy({"task": "prolongation", **BUILTINS[name]["scenario"]})
    places = [scenario, scenario["expect"], *scenario["coeffs"]]
    target = draw(st.sampled_from(places))
    key = draw(st.sampled_from(sorted(target) if isinstance(target, dict) else range(len(target))))
    if draw(st.booleans()):
        del target[key]
    else:
        old = target[key]
        target[key] = draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(old)]))
    return scenario


@settings(max_examples=40, deadline=None)
@given(_mutated_prolongation_scenarios())
def test_mutated_builtin_scenarios_exit_cleanly(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["prolong", "--scenario", path, "--kmax", "2"])
    assert code in (0, 1, 2, 3)
    json.loads(buf.getvalue())
