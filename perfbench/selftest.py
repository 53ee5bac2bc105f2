"""Self-tests of the benchmark (not of jetcalc).

Usage: python3 perfbench/selftest.py

- the generators are deterministic: one seed gives the same argv lists,
  scenario bytes and arrow specs twice, and another seed differs;
- BENCHMARK.json declares exactly the metrics run.py reports;
- the tracer rebinds every alias, restores them all, and reports a
  missing name as absent;
- every traced function is observed by some workload's ops, except the
  ones no jetcalc code path reaches (UNREACHABLE);
- smoke mode (one op per workload) passes.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

# Traced functions no workload can reach: nothing in jetcalc calls
# linalg.row_space_contains, so its trace counts stay 0.
UNREACHABLE = ("linalg.row_space_contains",)

# Cheap ops that between them reach every traced CLI-side function.
COVERAGE_OPS = (
    ("check-identities", "--n", "2", "--k", "1", "--count", "1", "--seed", "3"),
    ("forms", "--n", "2", "--k", "1", "--count", "1", "--seed", "3"),
    ("extension", "--n", "1", "--k", "3", "--m", "2"),
    ("klein", "--builtin", "projective-line"),
    ("prolong", "--builtin", "flat-metric-2d", "--kmax", "2"),
)


def expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def test_generators_deterministic():
    for workload in workloads.CLI_WORKLOADS:
        first = workloads.take(workloads.cli_schedule(workload, 11), 80)
        again = workloads.take(workloads.cli_schedule(workload, 11), 80)
        other = workloads.take(workloads.cli_schedule(workload, 12), 80)
        expect([(o.argv, o.files) for o in first] == [(o.argv, o.files) for o in again],
               f"{workload}: same seed gave different ops")
        if workload != "algebra":  # algebra ops carry no seeded input
            expect([o.key() for o in first] != [o.key() for o in other],
                   f"{workload}: seeds 11 and 12 gave the same ops")
    specs = [workloads.arrow_chain_spec(11, b) for b in range(20)]
    expect(specs == [workloads.arrow_chain_spec(11, b) for b in range(20)],
           "arrows: same seed gave different specs")
    expect(specs != [workloads.arrow_chain_spec(12, b) for b in range(20)],
           "arrows: seeds 11 and 12 gave the same specs")


def test_declared_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(declared == run.per_layer_names(), "BENCHMARK.json per_layer differs from run.py")
    ops = [{"op_s": 1.0, "wall_s": 1.1, "speed": 1.0}, {"op_s": 2.0, "wall_s": 2.1, "speed": 1.0}]
    e2e = run.end_to_end(ops, [{"setup_s": 0.1, "speed": 1.0}])
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == [(name, unit) for name, (_, unit) in e2e.items()],
           "BENCHMARK.json end_to_end differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.py")


def test_tracer_rebinds_and_restores():
    tracer.import_layers()
    import jetcalc.klein as klein
    import jetcalc.linalg as linalg
    import jetcalc.poly as poly

    rank, mul = linalg.rank, poly.Poly.__dict__["__mul__"]
    t = tracer.Tracer().install()
    try:
        expect(klein.rank is linalg.rank and linalg.rank is not rank,
               "imported alias of linalg.rank not rebound")
        expect(poly.Poly.__dict__["__rmul__"] is poly.Poly.__dict__["__mul__"],
               "__rmul__ alias not rebound with __mul__")
        snapshot = t.begin_op()
        x = poly.Poly.variable(2, 0)
        _ = 3 * x, x * x
        stats = t.end_op(snapshot)["stats"]
        expect(stats["poly.Poly.__mul__"][0] == 2, "calls through __rmul__ not counted")
    finally:
        t.uninstall()
    expect(linalg.rank is rank and klein.rank is rank, "rank not restored")
    expect(poly.Poly.__dict__["__mul__"] is mul and poly.Poly.__dict__["__rmul__"] is mul,
           "Poly.__mul__ not restored")

    saved = tracer.LAYERS, tracer.TARGETS
    tracer.LAYERS = saved[0] + (("poly", ("Poly.no_such_method",)), ("no_such_module", ("f",)))
    tracer.TARGETS = saved[1] + ("poly.Poly.no_such_method", "no_such_module.f")
    try:
        t = tracer.Tracer().install()
        t.uninstall()
    finally:
        tracer.LAYERS, tracer.TARGETS = saved
    expect({"poly.Poly.no_such_method", "no_such_module.f"} <= set(t.absent),
           "missing names not reported as absent")


def test_every_target_observed():
    observed = set()
    for argv in COVERAGE_OPS:
        proc = subprocess.run(
            [sys.executable, run.OPCHILD, "--trace", "--", *argv],
            capture_output=True, text=True, env=run.child_env(), cwd=run.ROOT, timeout=120,
        )
        rec = json.loads(proc.stdout.splitlines()[-1])
        expect(rec["rc"] == 0, f"{argv}: exit {rec['rc']}")
        expect(not rec["absent"], f"absent trace targets: {rec['absent']}")
        observed |= set(rec["trace"]["stats"])
    # one block: every step of one chain per arrow shape
    proc, _ = run.start_worker(5, 60, True, limit=7 * len(workloads.ARROW_SHAPES))
    result = run.finish_worker(proc, time.perf_counter())
    expect(not result["failures"], f"arrows: {result['failures']}")
    for rec in result["ops"]:
        observed |= set(rec["trace"]["stats"])
    missing = set(tracer.TARGETS) - observed - set(UNREACHABLE)
    expect(not missing, f"never observed: {sorted(missing)}")
    reached = observed & set(UNREACHABLE)
    expect(not reached, f"now reachable, update UNREACHABLE: {sorted(reached)}")


def test_smoke():
    expect(run.smoke() == 0, "smoke mode failed")


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except Exception as exc:  # report every test, then fail once
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
