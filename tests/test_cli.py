import copy
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jetcalc
from jetcalc.cli import BUILTINS, COMMANDS, _build_parser, _plain_args, main
from jetcalc.poly import random_poly

# the source tree the package under test was imported from
SRC = Path(jetcalc.__file__).resolve().parents[1]


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


def test_prolong_builtin_and_scenario_exclude_each_other(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out = run_cli(
        capsys, "prolong", "--builtin", "flat-metric-2d", "--scenario", missing, "--kmax", "2"
    )
    assert code == 2
    assert out == ""


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _perfbench_workloads():
    """perfbench/workloads.py, imported from its file without touching it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", GOLDEN.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plain_reports_match_recorded_digests(capsys, tmp_path):
    """Every recorded op (check-identities, forms, klein, extension and
    prolong) prints a report whose sha256 equals its digest in
    perfbench/golden.json.  The prolong ops that read a scenario file are
    regenerated from the workload seed by perfbench/workloads.py and their
    files written under tmp_path; the perfbench files are only read."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    plain = {
        key: digest for key, digest in golden.items()
        if key.split()[0] in ("check-identities", "forms", "klein", "extension", "prolong")
    }
    assert len(plain) == 376
    assert sum(key.split()[0] in ("check-identities", "forms") for key in plain) == 200
    assert sum(key.startswith("prolong") for key in plain) == 152
    workloads = _perfbench_workloads()
    ops = {op.key(): op for op in workloads.take(workloads.cli_schedule("prolong", 0), 200)}
    drifted = []
    for key, digest in sorted(plain.items()):
        argv = key.split()
        if "--scenario" in argv:
            argv = list(ops[key].argv)
            for name, data in ops[key].files.items():
                path = tmp_path / f"{name}.json"
                path.write_bytes(data)
                argv = [a.replace("{" + name + "}", str(path)) for a in argv]
        code, out = run_cli(capsys, *argv)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            drifted.append(key)
    assert drifted == []


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


@pytest.mark.parametrize(
    "x, y, field",
    [
        ([[{"exponents": [65536, 0], "value": "1"}], []], [[], []], "x[0]"),
        # each field fits, but their bracket's products do not
        ([[{"exponents": [40000, 0], "value": "1"}], []],
         [[{"exponents": [40000, 0], "value": "1"}], []], None),
    ],
    ids=["term-past-the-field", "product-past-the-field"],
)
def test_bracket_past_the_monomial_field_exits_3(capsys, tmp_path, x, y, field):
    scenario = {"task": "bracket", "n": 2, "k": 1, "point": ["0", "0"], "x": x, "y": y}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(capsys, "bracket", "--scenario", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["exit"] == 3 and "65535" in report["error"]
    assert field is None or report["error"].startswith(field)


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


def _bracket(**fields):
    return json.dumps({"task": "bracket", "n": 1, "k": 1, "point": ["0"],
                       "x": [[]], "y": [[]], **fields})


def _metric(**fields):
    return json.dumps({"task": "prolongation", "kind": "metric", "n": 2, "order": 2,
                       "point": ["0", "0"], "coeffs": [[0, 0, [0, 0], "1"]], **fields})


def _without_task(text):
    return json.dumps({key: v for key, v in json.loads(text).items() if key != "task"})


@pytest.mark.parametrize(
    "argv, text, code, message",
    [
        (["bracket"], _bracket(point=["1/x"]), 2, "point[0]: cannot parse rational '1/x'"),
        (["check-identities", "--n", "5"], None, 3, "n=5 exceeds the bound 4"),
        (["check-identities", "--count", "-1"], None, 2, "count must be non-negative"),
        (["check-identities", "--n", "1", "--k", "1", "--count", "0"], None, 2,
         "count must be at least 1"),
        (["forms", "--count", "0"], None, 2, "count must be at least 1"),
        (["bracket"], _bracket(x=[{"exponents": [0]}]), 2, "x[0]: expected a list of terms"),
        (["bracket"], _bracket(x=[[7]]), 2, "x[0][0]: expected an object"),
        (["bracket"], _bracket(x=[[{"exponents": [0, 0], "value": "1"}]]), 2,
         "x[0][0].exponents: expected 1 naturals"),
        (["bracket"], _bracket(point=[]), 2, "point: expected 1 rationals"),
        (["bracket"], _bracket(y=[[], []]), 2, "y: expected 1 components"),
        (["prolong", "--kmax", "1"], _metric(kind="conformal"), 2,
         "kind: expected 'metric' or 'two_form'"),
        (["prolong"], None, 2, "prolong needs --scenario or --builtin"),
        (["prolong", "--builtin", "flat-metric-2d", "--kmax", "0"], None, 2,
         "kmax must be at least 1"),
        (["prolong", "--builtin", "sphere-metric-2d", "--kmax", "4"], None, 3,
         "structure jet order 3 cannot support kmax=4"),
        (["prolong", "--kmax", "1"], _metric(), 2, "structure is singular at the base point"),
        (["prolong", "--kmax", "1"], _metric(kind="two_form", n=3, point=["0", "0", "0"],
                                             coeffs=[[0, 1, [0, 0, 0], "1"]]), 2,
         "structure: nondegenerate 2-forms need even dimension"),
        (["klein", "--builtin", "projective", "--n", "0"], None, 2,
         "projective example needs n >= 1"),
        (["extension", "--n", "1", "--k", "3", "--m", "3"], None, 2, "need 1 <= m < k"),
        (["bracket"], "missing", 2, "cannot read scenario"),
        (["bracket"], "{", 2, "scenario is not valid JSON"),
        (["bracket"], "[]", 2, "scenario: expected a JSON object"),
        (["bracket"], _bracket(task="prolongation"), 2, "task: expected 'bracket'"),
        (["prolong", "--kmax", "1"], _metric(task="bracket"), 2, "task: expected 'prolongation'"),
        (["bracket"], _without_task(_bracket()), 2, "task: expected 'bracket'"),
        (["prolong", "--kmax", "1"], _without_task(_metric()), 2, "task: expected 'prolongation'"),
        (["bracket"], _bracket(task=["bracket"]), 2, "task: expected 'bracket'"),
        (["prolong", "--kmax", "1"], _metric(task=None), 2, "task: expected 'prolongation'"),
        (["bracket"], _bracket().encode()[:-1] + b', "note": "\xff"}', 2,
         "scenario is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (["bracket"], '{"task": "bracket", "x": [' + "[" * 5000, 3,
         "scenario: maximum recursion depth exceeded"),
    ],
    ids=[
        "unparsable-rational",
        "past-a-limit",
        "negative-bound",
        "identities-count-0",
        "forms-count-0",
        "poly-not-a-list",
        "term-not-an-object",
        "bad-exponents",
        "point-length",
        "component-count",
        "bad-kind",
        "prolong-without-source",
        "kmax-below-1",
        "order-below-kmax",
        "singular-structure",
        "two-form-odd-dimension",
        "projective-n-below-1",
        "extension-m-range",
        "unreadable-scenario",
        "scenario-not-json",
        "scenario-not-an-object",
        "bracket-task-mismatched",
        "prolong-task-mismatched",
        "bracket-task-missing",
        "prolong-task-missing",
        "bracket-task-not-a-string",
        "prolong-task-not-a-string",
        "scenario-not-utf-8",
        "scenario-nested-past-the-recursion-limit",
    ],
)
def test_malformed_input_exits_with_one_json_error(capsys, tmp_path, argv, text, code, message):
    # text None: no scenario; "missing": a path with no file behind it;
    # bytes: the file's raw content
    if text is not None:
        path = tmp_path / "s.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text != "missing":
            path.write_text(text)
        argv = [*argv, "--scenario", str(path)]
    got = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert got == code and report["exit"] == code and set(report) == {"error", "exit"}
    assert message in report["error"]
    assert "\n" not in report["error"] and len(report["error"]) < 200
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [(["prolong"], 2), (["prolong", "--builtin", "flat-metric-2d", "--kmax", "6"], 3)],
    ids=["usage-error", "resource-bound"],
)
def test_module_entry_point_exits_like_main(capsys, argv, code):
    """`python -m jetcalc.cli` is `main`: a runner's error gives the same
    exit code and one JSON object on stdout, and no traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jetcalc.cli", *argv], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv)
    assert proc.returncode == code and json.loads(proc.stdout)["exit"] == code
    assert "Traceback" not in proc.stderr


def test_rational_past_the_exponent_bound_exits_3_at_once(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"task":"bracket","n":1,"k":1,"point":["1e10000000"],"x":[[]],"y":[[]]}')
    start = time.perf_counter()
    code, out = run_cli(capsys, "bracket", "--scenario", str(path))
    assert time.perf_counter() - start < 2
    assert code == 3
    assert json.loads(out) == {"error": "'1e10000000': decimal exponent past 4300", "exit": 3}
    path.write_text('{"task":"bracket","n":1,"k":1,"point":["1e4300"],"x":[[]],"y":[[]]}')
    assert run_cli(capsys, "bracket", "--scenario", str(path))[0] == 0


def test_rational_string_past_the_digit_limit_exits_3(capsys, tmp_path):
    """A quoted rational with more digits than CPython's int-string limit
    is a resource error: one line naming the limit, the value cut short."""
    path = tmp_path / "b.json"
    for value in ("7" * 5000, "1/" + "7" * 5000, "0." + "7" * 5000):
        path.write_text(json.dumps({"task": "bracket", "n": 1, "k": 1, "point": [value], "x": [[]], "y": [[]]}))
        code, out = run_cli(capsys, "bracket", "--scenario", str(path))
        report = json.loads(out)
        assert code == 3 and report["exit"] == 3 and set(report) == {"error", "exit"}
        assert report["error"].startswith("point[0]: ") and "4300 digits" in report["error"]
        assert "\n" not in report["error"] and len(report["error"]) < 200
    path.write_text(json.dumps({"task": "bracket", "n": 1, "k": 1, "point": ["7" * 4300], "x": [[]], "y": [[]]}))
    assert run_cli(capsys, "bracket", "--scenario", str(path))[0] == 0


def test_unparseable_rational_error_cuts_the_value_short(capsys, tmp_path):
    """A long value that is no rational exits 2 with a one-line error that
    names the field and shows only the start of the value."""
    path = tmp_path / "b.json"
    for value in ("x" + "7" * 5000, ["7"] * 5000, {"7" * 5000: 1}):
        path.write_text(json.dumps({"task": "bracket", "n": 1, "k": 1, "point": [value], "x": [[]], "y": [[]]}))
        code, out = run_cli(capsys, "bracket", "--scenario", str(path))
        report = json.loads(out)
        assert code == 2 and set(report) == {"error", "exit"} and report["exit"] == 2
        assert report["error"].startswith("point[0]: cannot parse rational ")
        assert "\n" not in report["error"] and len(out) < 200


def test_integer_literal_past_the_digit_limit_exits_3(capsys, tmp_path):
    """A scenario integer literal past CPython's 4,300-digit string-to-int
    limit cannot be loaded: one JSON error naming the limit, exit 3.
    JSON that is broken after a literal at the limit stays exit 2."""
    path = tmp_path / "b.json"
    path.write_text('{"task":"bracket","n":1,"k":1,"point":[' + "7" * 5000 + '],"x":[[]],"y":[[]]}')
    code = main(["bracket", "--scenario", str(path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3 and set(report) == {"error", "exit"} and report["exit"] == 3
    assert "4300 digits" in report["error"]
    assert "Traceback" not in captured.err
    path.write_text('{"task":"bracket","n":1,"k":1,"point":[' + "7" * 4300 + "],")
    code, out = run_cli(capsys, "bracket", "--scenario", str(path))
    assert code == 2 and "scenario is not valid JSON" in json.loads(out)["error"]


def test_report_value_past_the_digit_limit_exits_3(capsys, tmp_path):
    """[x0^2 d, d] = -2 x0 d at x0 = 10^4300 has a 4,301-digit coordinate,
    past CPython's int-to-string limit: one JSON error naming it, exit 3."""
    path = tmp_path / "b.json"
    path.write_text(json.dumps({
        "task": "bracket", "n": 1, "k": 1, "point": ["1e4300"],
        "x": [[{"exponents": [2], "value": "1"}]], "y": [[{"exponents": [0], "value": "1"}]],
    }))
    code = main(["bracket", "--scenario", str(path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3 and set(report) == {"error", "exit"} and report["exit"] == 3
    assert "4300 digits" in report["error"]
    assert "Traceback" not in captured.err


def test_failing_trial_is_the_witness(capsys, monkeypatch):
    import jetcalc.spencer as spencer

    real, random_lifts = spencer.spencer_bracket, []

    def failing_from_trial_2(x, y, **kwargs):
        out = real(x, y, **kwargs)
        if kwargs.get("lift_policy") == "random":
            random_lifts.append(out)
            if len(random_lifts) > 2:
                return None  # unequal to the zero-lift bracket
        return out

    monkeypatch.setattr(spencer, "spencer_bracket", failing_from_trial_2)
    code, out = run_cli(capsys, "check-identities", "--n", "1", "--k", "1", "--count", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks.pop("lift_independence") == {
        "name": "lift_independence", "pass": False, "witness": 2, "trials": 4
    }
    assert checks and all(c["pass"] for c in checks.values())


def test_out_writes_the_bytes_stdout_would_carry(capsys, tmp_path):
    args = ("prolong", "--builtin", "generic-metric-2d", "--kmax", "3")
    code, out = run_cli(capsys, *args)
    path = tmp_path / "report.json"
    assert run_cli(capsys, *args, "--out", str(path)) == (code, "")
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["extension", "--n", "1", "--k", "3", "--m", "1"],
        ["extension", "--n", "9", "--k", "3", "--m", "1"],
    ],
    ids=["report", "error-report"],
)
@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
def test_unwritable_out_exits_2_with_one_json_error(capsys, tmp_path, argv, target):
    """A report or an error report that cannot be written to --out exits 2
    with one JSON error on stdout that cuts the path short."""
    out = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
    got = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert got == 2 and report["exit"] == 2 and set(report) == {"error", "exit"}
    assert report["error"].startswith("--out: cannot write ")
    assert str(out) not in report["error"] and len(report["error"]) < 120
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# for each command: an unknown option, and a value its parser refuses
REFUSED = {
    "check-identities": ["--n", "x"],
    "bracket": ["--scenario", "s.json", "--seed", "x"],
    "forms": ["--count", "x"],
    "prolong": ["--builtin", "no-such-builtin"],
    "klein": ["--builtin", "no-such-builtin"],
    "extension": ["--builtin", "no-such-builtin"],
    "list-builtins": ["--out"],
}


def _parsed_output(capsys, argv):
    """Exit code, stdout and stderr of the parser built for every command."""
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return (0 if exc.value.code in (0, None) else 2), captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["no-such-command"]]
    + [[c, "--help"] for c in COMMANDS]
    + [[c, "--bogus"] for c in COMMANDS]
    + [[c, *REFUSED[c]] for c in COMMANDS],
    ids=lambda argv: " ".join(argv),
)
def test_the_invoked_command_parses_as_with_every_command_built(capsys, argv):
    """Only the invoked command gets its options, and every help text,
    usage error and exit code is byte-identical to the parser built for
    every command; an error exits 2 with empty stdout and no traceback."""
    expected = _parsed_output(capsys, argv)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    if argv[-1] != "--help":
        assert code == 2 and captured.out == "" and "Traceback" not in captured.err
    else:
        assert code == 0 and captured.out.startswith("usage: jetcalc")


def _valid_value(draw, spec):
    """A value the option's parser accepts (None for a flag)."""
    if "action" in spec:
        return None
    if "choices" in spec:
        return draw(st.sampled_from(spec["choices"]))
    if spec.get("type") is int:
        return draw(st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["+3", " 7 ", "1_0", "\u0663"])))
    return draw(st.text(max_size=8).filter(lambda v: not v.startswith("-")))


@st.composite
def _command_lines(draw):
    """An argv drawn from the option table, and whether it was mutated.
    A valid line is a command with its required options and any others,
    each once and at most one of an exclusive pair, with values its
    parser accepts, in any order.  A mutation abbreviates an option,
    joins one to its value by `=`, repeats one, gives an integer option
    a negative or non-integer value or a choice option a bogus value,
    drops a required option, gives both exclusive options, adds a
    positional word, or puts `-h` or `--help` anywhere."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, options, exclusive = COMMANDS[command]
    names = [name for name, spec in options.items() if spec.get("required") or draw(st.booleans())]
    if exclusive:
        keep = draw(st.sampled_from(exclusive))
        names = [name for name in names if name not in exclusive or name == keep]
    pairs = [(name, _valid_value(draw, options[name])) for name in draw(st.permutations(names))]
    mutations = ["abbreviate", "join", "repeat", "positional", "help"]
    mutations += ["negative", "non-integer"] * any(spec.get("type") is int for spec in options.values())
    mutations += ["bogus choice"] * any("choices" in spec for spec in options.values())
    mutations += ["missing required"] * any(spec.get("required") for spec in options.values())
    mutations += ["both exclusive"] * bool(exclusive)
    mutation = draw(st.sampled_from(mutations)) if draw(st.booleans()) else None
    if mutation in ("abbreviate", "join", "repeat") and not any(len(n) > 1 and v is not None for n, v in pairs):
        pairs.append(("out", "r.json"))
    valued = [i for i, (_, v) in enumerate(pairs) if v is not None]
    if mutation == "abbreviate":
        i = draw(st.sampled_from([i for i in valued if len(pairs[i][0]) > 1]))
        name, value = pairs[i]
        pairs[i] = (draw(st.sampled_from([name[:j] for j in range(1, len(name)) if name[:j] not in options])), value)
    elif mutation == "join":
        i = draw(st.sampled_from(valued))
        pairs[i] = (f"{pairs[i][0]}={pairs[i][1]}", None)
    elif mutation == "repeat":
        pairs.insert(draw(st.integers(0, len(pairs))), pairs[draw(st.sampled_from(valued))])
    elif mutation in ("negative", "non-integer"):
        name = draw(st.sampled_from([n for n, spec in options.items() if spec.get("type") is int]))
        value = draw(st.sampled_from(["-1", "-0"] if mutation == "negative" else ["x", "1.5", "", "7" * 5000]))
        pairs = [p for p in pairs if p[0] != name] + [(name, value)]
    elif mutation == "bogus choice":
        name = draw(st.sampled_from([n for n, spec in options.items() if "choices" in spec]))
        pairs = [p for p in pairs if p[0] not in (name, *exclusive)] + [(name, "no-such-builtin")]
    elif mutation == "missing required":
        pairs = [p for p in pairs if not options[p[0]].get("required")]
    elif mutation == "both exclusive":
        pairs = [p for p in pairs if p[0] not in exclusive]
        pairs += [(name, _valid_value(draw, options[name])) for name in exclusive]
    argv = [command]
    for name, value in pairs:
        argv += [f"--{name}"] if value is None else [f"--{name}", value]
    if mutation in ("positional", "help"):
        word = "extra" if mutation == "positional" else draw(st.sampled_from(["-h", "--help"]))
        argv.insert(draw(st.integers(0 if mutation == "help" else 1, len(argv))), word)
    return argv, mutation is not None


@settings(max_examples=300, deadline=None)
@given(_command_lines())
@example((["extension", "--n", "-1"], True))
@example((["bracket", "--scenario", "-h"], True))
@example((["prolong", "--kmax=3"], True))
def test_the_plain_parse_agrees_with_argparse(line):
    """A valid command line is read off the option table, into the
    namespace argparse gives it; a mutated one goes to argparse, and so
    does every line argparse refuses or answers with help."""
    argv, mutated = line
    plain = _plain_args(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = _build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            parsed = None
    assert (plain is None) == mutated
    if parsed is None:
        assert plain is None
    if plain is not None:
        assert vars(plain) == vars(parsed)


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
    "expect, field",
    [
        ({"dims": 5}, "dims"),
        ({"surjective": "yes"}, "surjective"),
        ({"surjective": 3}, "surjective"),
        ({"surjective": ["false"]}, "expect.surjective[0]"),
        ({"surjective": [0]}, "expect.surjective[0]"),
        ({"dims": [3, 3], "surjective": [True, None]}, "expect.surjective[1]"),
        ({"dims": [3.0, 3.0]}, "expect.dims[0]"),
        ({"dims": [3, "3"]}, "expect.dims[1]"),
        ({"dims": [True, 3]}, "expect.dims[0]"),
        ({"dims": [3, -1]}, "expect.dims[1]"),
        ({"dims": ["3", 3.0], "surjective": [0]}, "expect.dims[0]"),
        ({"dims": [3, 3, 3.5]}, "expect.dims[2]"),
    ],
    ids=[
        "dims-an-int", "surjective-a-string", "surjective-an-int", "surjective-a-string-entry",
        "surjective-an-int-entry", "surjective-a-null-entry", "dims-float-entries",
        "dims-a-string-entry", "dims-a-bool-entry", "dims-a-negative-entry",
        "dims-and-surjective-mistyped", "dims-entry-past-kmax",
    ],
)
def test_malformed_expectation_exits_2(capsys, tmp_path, expect, field):
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
    assert json.loads(out)["error"].startswith(field)


_OTHER_TYPES = [None, True, -1, 1.5, "x", "1/2", [], [0], ["0", "0"], {}, {"dims": [1]}]
# digits past CPython's 4,300-digit int-string limit, and the placeholder
# that becomes them as a bare JSON integer (json.dumps cannot write one)
_DIGITS, _GROWN = "7" * 5000, "<grown integer>"
# the placeholder of a bare JSON integer of 4,000 digits, within the limit
_WIDE = "<wide integer>"
# a decimal exponent past the exact-scalar gate's bound
_EXPONENT = "e" + "9" * 12
BRACKET_SCENARIO = {
    "task": "bracket", "n": 2, "k": 2, "point": ["1", "-1/2"],
    "x": [[{"exponents": [1, 0], "value": "1"}], [{"exponents": [0, 2], "value": "-3/2"}]],
    "y": [[{"exponents": [0, 0], "value": "2"}], []],
}
# the small values each command runs with, in a few milliseconds; an
# integer option of the table not named here runs with its default
COMMAND_OPTIONS = {
    "check-identities": {"n": 2, "k": 1, "degree": 1, "count": 1, "seed": 3},
    "forms": {"n": 2, "k": 1, "degree": 1, "count": 1, "seed": 3},
    "bracket": {"seed": 3},
    "prolong": {"kmax": 2, "seed": 3},
    "klein": {"builtin": "projective", "n": 1, "seed": 3},
    "extension": {"n": 1, "k": 3, "m": 2, "seed": 3},
    "list-builtins": {},
}


def _int_options(command):
    return [name for name, spec in COMMANDS[command][1].items() if spec.get("type") is int]


def _command_argv(command):
    """The command with every integer option of the table given, at its
    value in COMMAND_OPTIONS or else its default, and the other values
    of COMMAND_OPTIONS."""
    defaults = {name: COMMANDS[command][1][name]["default"] for name in _int_options(command)}
    values = {**defaults, **COMMAND_OPTIONS[command]}
    return [command, *(word for name, v in values.items() for word in (f"--{name}", str(v)))]


# the longest one-line error a report may carry
MAX_ERROR = 200


def _grow(draw, old):
    """A string gains the digits, the exponent or both; any other value
    becomes a bare integer literal, past the digit limit or just within it."""
    if isinstance(old, str):
        return old + draw(st.sampled_from([_DIGITS, _EXPONENT, _DIGITS + _EXPONENT]))
    return draw(st.sampled_from([_GROWN, _WIDE]))


@st.composite
def _mutated_scenarios(draw):
    """The argv and scenario text of a prolongation builtin's scenario or
    a bracket scenario, with one place dropped, given a value of another
    type, or grown (past the digit limit, or past the exponent bound).  A
    place is a top-level field, a field of `expect`, a point coordinate, a
    position in one `coeffs` entry, or a field of a bracket term or its
    exponents."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(n for n, e in BUILTINS.items() if e["task"] == "prolongation")))
        scenario = copy.deepcopy({"task": "prolongation", **BUILTINS[name]["scenario"]})
        places = [scenario, scenario["expect"], scenario["point"], *scenario["coeffs"]]
        argv = _command_argv("prolong")
    else:
        scenario = copy.deepcopy(BRACKET_SCENARIO)
        terms = [t for field in ("x", "y") for comp in scenario[field] for t in comp]
        places = [scenario, scenario["point"], *terms, *(t["exponents"] for t in terms)]
        argv = _command_argv("bracket")
    target = draw(st.sampled_from(places))
    key = draw(st.sampled_from(sorted(target) if isinstance(target, dict) else range(len(target))))
    mutation, old = draw(st.sampled_from(["drop", "retype", "grow"])), target[key]
    if mutation == "drop":
        del target[key]
    elif mutation == "retype":
        target[key] = draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(old)]))
    else:
        target[key] = _grow(draw, old)
    text = json.dumps(scenario).replace(json.dumps(_GROWN), _DIGITS)
    return argv, text.replace(json.dumps(_WIDE), "7" * 4000)


@st.composite
def _mutated_options(draw):
    """The argv and scenario text (None for a command that reads none) of
    one command with `--out` pointed at a directory, or one integer option
    of the table dropped, given a value out of range, or grown within the
    parser's digit limit (an integer option is only given integers, as
    its parser accepts nothing else).  The scenario is left as it is."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = _command_argv(command)
    text = None
    if command == "prolong":
        name = draw(st.sampled_from(sorted(n for n, e in BUILTINS.items() if e["task"] == "prolongation")))
        text = json.dumps({"task": "prolongation", **BUILTINS[name]["scenario"]})
    elif command == "bracket":
        text = json.dumps(BRACKET_SCENARIO)
    options = [argv.index(f"--{name}") + 1 for name in _int_options(command)]
    if not options or draw(st.booleans()):
        return argv + ["--out", "{tmp}"], text
    i = draw(st.sampled_from(options))
    mutation = draw(st.sampled_from(["drop", "retype", "grow"]))
    if mutation == "drop":
        del argv[i - 1 : i + 1]
    elif mutation == "retype":
        argv[i] = draw(st.sampled_from(["-1", "0"]))
    else:
        argv[i] += "0" * 4000
    return argv, text


def _assert_exits_cleanly(argv, text=None):
    """Run `argv` (with `text` as its scenario file, if given) and require
    exit 0-3, exactly one JSON object on stdout and no traceback; an error
    report carries its exit code and a one-line message of at most
    MAX_ERROR characters."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        if text is not None:
            path = os.path.join(tmp, "s.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += ["--scenario", path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    assert "Traceback" not in err.getvalue()
    if "error" in report:
        assert set(report) == {"error", "exit"} and report["exit"] == code > 1
        assert "\n" not in report["error"] and len(report["error"]) <= MAX_ERROR, report["error"][:300]


@settings(max_examples=60, deadline=None)
@given(_mutated_scenarios())
def test_mutated_builtin_scenarios_exit_cleanly(case):
    """Every mutated scenario exits cleanly (see _assert_exits_cleanly)."""
    _assert_exits_cleanly(*case)


@settings(max_examples=90, deadline=None)
@given(_mutated_options())
def test_mutated_command_options_exit_cleanly(case):
    """Every command, run with one mutated option or an unwritable
    `--out`, exits cleanly (see _assert_exits_cleanly)."""
    _assert_exits_cleanly(*case)
