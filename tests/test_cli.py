import json

import pytest

from jetcalc.cli import main


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
    ],
    ids=["component-index-out-of-range", "negative-exponent", "boolean-exponent", "string-exponent"],
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
