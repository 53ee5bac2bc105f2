"""jetcalc benchmark: four seeded workloads, end-to-end and per-layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke            # one op per workload
  python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` and scratch files go to ``.perfbench/`` at its root.

Load: one client in a closed loop.  CLI workloads start a fresh
interpreter per op (perfbench/opchild.py calling ``jetcalc.cli.main``);
the arrows workload runs library calls in one worker process
(perfbench/arrows_worker.py).  At most one child runs at a time.

With --trace 0 the last stdout line carries the end-to-end metrics:
ops_per_s (ops completed per second of wall time, interpreter starts
included), op_s.p50 and op_s.p90 (op latency measured inside the child),
setup_s (median of several set-ups: input generation plus the first
import of jetcalc, each timed in the process that does it) and
peak_rss_mb (largest child).  Op and set-up times are scaled to a
reference machine speed (see speed.py); the lines before the JSON line
print the raw values beside them, and fail_ratio.  With --trace 1 the
same ops run traced for --seconds, are replayed untraced to measure the
overhead, and the last line carries the per-layer metrics; span trees,
one per op, go to .perfbench/spans-<workload>-seed<N>.json.

Every op is checked: exit code 0 (each report carries its own checks),
the sha256 of each CLI report against perfbench/golden.json where the op
is listed there, and exact identities for the arrows results.  A failed
check counts in ``failed`` and makes the command exit 1.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
OPCHILD = os.path.join(HERE, "opchild.py")
WORKER = os.path.join(HERE, "arrows_worker.py")

sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sections", "arrows", "algebra", "prolong")
SETUP_REPEATS = 15
# Ops per CLI workload that --record-golden digests.
GOLDEN_OPS = 200
# No op may start after this many seconds, and none may outlive it by
# more than the per-op timeout, so a run always ends within 180 s.
HARD_LIMIT_S = 165.0
# Ops generated up front: more than a run can complete, since no op
# (interpreter start included) takes less than this.
MIN_OP_S = 0.05


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI workloads


def write_plan(ops, rundir):
    """Write the ops' scenario files; return (op, argv) pairs naming them."""
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    plan = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        for name, data in op.files.items():
            path = os.path.join(rundir, f"{i}-{name}.json")
            with open(path, "wb") as fh:
                fh.write(data)
            argv = [path if a == "{" + name + "}" else a for a in argv]
        plan.append((op, argv))
    return plan


def cli_setup(workload, seed, seconds):
    """Generate the run's ops, then import jetcalc once in a fresh interpreter.

    Returns the ops and the set-up's record: the raw seconds of the
    generation plus those of the import, and the speed factor that scales
    their sum as each part's own factor scales it.  Interpreter start and
    writing the scenario files are left out: neither is jetcalc's work,
    and file creation time on a shared host does not follow the probe.
    """
    count = int(seconds / MIN_OP_S) + 10
    ops, gen_s, gen_speed = speed.timed(
        lambda: workloads.take(workloads.cli_schedule(workload, seed), count))
    proc = subprocess.run(
        [sys.executable, OPCHILD, "--import-only", "--"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing jetcalc failed:\n{proc.stderr}")
    imp = json.loads(proc.stdout.splitlines()[-1])
    raw = gen_s + imp["setup_s"]
    scaled = gen_s * gen_speed + imp["setup_s"] * imp["speed"]
    return ops, {"setup_s": raw, "speed": scaled / raw}


def run_cli_ops(plan, seconds, trace, stop_at, limit=None):
    """Closed loop over the plan until the deadline or ``limit`` ops.

    No op starts after, or runs past, the absolute time ``stop_at``.  Each
    record holds the op's wall time (interpreter start included, speed
    probes excluded), its time inside the child, and the speed factor the
    child read around the op.
    """
    records = []
    deadline = time.perf_counter() + seconds
    flags = ["--trace"] if trace else []
    env = child_env()
    for op, argv in plan:
        now = time.perf_counter()
        if (limit is None and now >= deadline) or (limit is not None and len(records) >= limit):
            break
        rec = {"name": argv[0], "key": op.key(), "argv": argv, "speed": 1.0, "probe_s": 0.0}
        budget = stop_at - now
        if budget <= 1:
            break
        try:
            proc = subprocess.run(
                [sys.executable, OPCHILD, *flags, "--", *argv],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            rec.update(rc=-2, op_s=budget, wall_s=budget, error="timed out")
            records.append(rec)
            break
        wall = time.perf_counter() - now
        try:
            rec.update(json.loads(proc.stdout.splitlines()[-1]))
        except (IndexError, ValueError):
            rec.update(rc=-1, op_s=wall, error=proc.stderr[-2000:])
        rec["wall_s"] = wall - rec["probe_s"]
        if rec.get("rc") and "error" not in rec:
            rec["error"] = proc.stderr[-2000:]
        records.append(rec)
    return records


def check_cli(records, golden):
    failures = []
    for rec in records:
        if rec.get("rc") != 0:
            failures.append(f"{rec['key']}: exit {rec.get('rc')} {rec.get('error', '')}".strip())
        elif rec["key"] in golden and golden[rec["key"]] != rec["sha256"]:
            failures.append(f"{rec['key']}: report differs from the golden digest")
    return failures


# ---------------------------------------------------------------------------
# arrows workload


def start_worker(seed, seconds, trace, setup_only=False, limit=0):
    """Spawn the worker; once it has imported jetcalc and built its first
    arrow (later arrows are built between blocks, untimed), return it and
    the set-up record from its ready line."""
    cmd = [sys.executable, WORKER, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if limit:
        cmd += ["--limit", str(limit)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    if not line.startswith('{"ready"'):
        proc.kill()
        proc.communicate()
        raise RuntimeError("arrows worker failed to start")
    return proc, json.loads(line)


def finish_worker(proc, started):
    try:
        out, _ = proc.communicate(timeout=max(1.0, HARD_LIMIT_S + 10 - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("arrows worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"arrows worker exited {proc.returncode}")
    return json.loads(out.splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q):
    """Inclusive quantile, q in (0, 1); needs two values or more."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(records, setups, scaled=True):
    """End-to-end metrics from the op records and the set-up records.

    Op and set-up times are scaled by their speed factors unless
    ``scaled`` is false.
    """
    f = (lambda r: r["speed"]) if scaled else (lambda r: 1.0)
    lat = [r["op_s"] * f(r) for r in records]
    return {
        "ops_per_s": (len(records) / speed.busy(records, scaled), "1/s"),
        "op_s.p50": (quantile(lat, 0.5), "s"),
        "op_s.p90": (quantile(lat, 0.9), "s"),
        "setup_s": (statistics.median(s["setup_s"] * f(s) for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, quals in tracer.LAYERS:
        for qual in quals:
            names += [(f"{module}.{qual}.calls", "count"), (f"{module}.{qual}.self_s", "s")]
        names.append((f"{module}.self_s", "s"))
    names += [
        ("poly.mul.term_pairs", "count"),
        ("poly.mul_truncated.kept_ratio", "ratio"),
        ("linalg.rref.cells", "count"),
        ("linalg.rref.nnz", "count"),
        ("linalg.rref.rank_per_row", "ratio"),
        ("linalg.rref.max_rows", "count"),
        ("linalg.rref.max_bits", "bits"),
        ("forms.basis_bracket.hit_ratio", "ratio"),
        ("repeat.jacobi_checks_per_extension", "count"),
        ("repeat.two_cocycles_per_abelian_extension", "count"),
        ("repeat.invert_arrow_per_pushforward", "count"),
        ("repeat.displacement_polynomials_per_pushforward", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.ops", "count"),
        ("trace.op_s_sum", "s"),
        ("trace.absent", "count"),
    ]
    return names


def _ratio(a, b):
    return a / b if b else 0.0


def _per_op(records, select, keys):
    """Mean over the selected ops of the summed calls of ``keys``."""
    chosen = [r for r in records if select(r)]
    calls = sum(r["trace"]["stats"].get(k, [0])[0] for r in chosen for k in keys)
    return _ratio(calls, len(chosen))


def per_layer(records, untraced_busy, absent):
    """Per-layer metrics of traced ops; self times are scaled like op times."""
    stats = {key: [0, 0.0] for key in tracer.TARGETS}
    counters = {}
    for rec in records:
        for key, (calls, self_s) in rec["trace"]["stats"].items():
            stats[key][0] += calls
            stats[key][1] += self_s * rec["speed"]
        tracer.merge_counters(counters, rec["trace"]["counters"])
    values = {}
    for module, quals in tracer.LAYERS:
        total = 0.0
        for qual in quals:
            key = f"{module}.{qual}"
            values[f"{key}.calls"] = stats[key][0]
            values[f"{key}.self_s"] = stats[key][1]
            total += stats[key][1]
        values[f"{module}.self_s"] = total
    c = counters.get
    is_ext = lambda r: r["name"] == "extension"  # noqa: E731
    is_push = lambda r: r["name"].startswith("pushforward")  # noqa: E731
    values.update({
        "poly.mul.term_pairs": c("poly.mul.term_pairs", 0),
        "poly.mul_truncated.kept_ratio": _ratio(c("poly.mul_truncated.kept", 0), c("poly.mul_truncated.pairs", 0)),
        "linalg.rref.cells": c("linalg.rref.cells", 0),
        "linalg.rref.nnz": c("linalg.rref.nnz", 0),
        "linalg.rref.rank_per_row": _ratio(c("linalg.rref.rank", 0), c("linalg.rref.rows", 0)),
        "linalg.rref.max_rows": c("linalg.rref.max_rows", 0),
        "linalg.rref.max_bits": c("linalg.rref.max_bits", 0),
        "forms.basis_bracket.hit_ratio": _ratio(c("forms.basis_bracket.hits", 0), c("forms.basis_bracket.calls", 0)),
        "repeat.jacobi_checks_per_extension": _per_op(
            records, is_ext, ("spencer.JetGroupAlgebra.check_jacobi", "liealg.validate_lie_algebra")),
        "repeat.two_cocycles_per_abelian_extension": _per_op(
            records,
            lambda r: is_ext(r) and "liealg.is_split" in r["trace"]["stats"],
            ("liealg.extension_two_cocycle",)),
        "repeat.invert_arrow_per_pushforward": _per_op(records, is_push, ("arrows.invert_arrow",)),
        "repeat.displacement_polynomials_per_pushforward": _per_op(
            records, is_push, ("arrows.Arrow.displacement_polynomials",)),
        "trace.overhead_ratio": _ratio(untraced_busy, speed.busy(records)),
        "trace.ops": len(records),
        "trace.op_s_sum": sum(r["op_s"] * r["speed"] for r in records),
        "trace.absent": len(set(absent)),
    })
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def write_spans(workload, seed, records):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    spans = [
        {"op_id": i, "op": r.get("argv") or r["name"], "op_s": r["op_s"], "tree": r["trace"]["tree"]}
        for i, r in enumerate(records)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return path


# ---------------------------------------------------------------------------
# one run


def arrows_setup(seed):
    """One set-up of a worker that exits once it is ready."""
    proc, ready = start_worker(seed, 0, False, setup_only=True)
    if proc.wait(timeout=60) != 0:
        raise RuntimeError(f"arrows worker exited {proc.returncode}")
    return ready


def run_workload(workload, seed, seconds, trace, started):
    """Returns (records, failures, setups, metrics).

    Untraced, half of the SETUP_REPEATS set-ups run after the ops, so
    that their median spans the run and not only the host's speed at
    its start.  Traced runs report no set-up time and skip those.
    """
    after = SETUP_REPEATS // 2
    if workload == "arrows":
        setups = [arrows_setup(seed) for _ in range(SETUP_REPEATS - after - 1)]
        proc, ready = start_worker(seed, seconds, trace)
        setups.append(ready)
        result = finish_worker(proc, started)
        records, failures = result["ops"], result["failures"]
        if trace:
            metrics = per_layer(records, result["untraced_busy_s"], result["absent"])
            write_spans(workload, seed, records)
        else:
            setups += [arrows_setup(seed) for _ in range(after)]
            metrics = end_to_end(records, setups)
        return records, failures, setups, metrics

    golden = load_golden()
    rundir = os.path.join(OUT, f"run-{workload}-{os.getpid()}")
    setups = []
    try:
        for _ in range(SETUP_REPEATS - after):
            ops, setup = cli_setup(workload, seed, seconds)
            setups.append(setup)
        plan = write_plan(ops, rundir)
        records = run_cli_ops(plan, seconds, trace, started + HARD_LIMIT_S)
        failures = check_cli(records, golden)
        if trace:
            replay = run_cli_ops(plan, seconds, False, started + HARD_LIMIT_S, limit=len(records))
            failures += check_cli(replay, golden)
            if len(replay) < len(records):
                failures.append("untraced replay did not finish before the time limit")
            absent = next((r["absent"] for r in records if "absent" in r), [])
            metrics = per_layer(records, speed.busy(replay), absent)
            write_spans(workload, seed, records)
        else:
            setups += [cli_setup(workload, seed, seconds)[1] for _ in range(after)]
            metrics = end_to_end(records, setups)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return records, failures, setups, metrics


def summary_lines(workload, records, failures, setups, metrics, trace):
    attempted = max(1, len(records))
    factors = [r["speed"] for r in records]
    lines = [
        f"workload {workload}: {len(records)} ops, {len(failures)} failed, "
        f"speed factor median {statistics.median(factors) if factors else 0:.4g}"
    ]
    raw = {} if trace or not records else end_to_end(records, setups, scaled=False)
    for name, (value, unit) in metrics.items():
        extra = f"   (raw {raw[name][0]:.6g})" if name in raw and raw[name] != (value, unit) else ""
        lines.append(f"  {name:<48} {value:.6g} {unit}{extra}")
    lines.append(f"  {'fail_ratio':<48} {len(failures) / attempted:.6g} ratio")
    lines += [f"  FAILED {msg}" for msg in failures[:20]]
    return lines


def smoke():
    """One op per workload, untraced; returns the number of failures."""
    started = time.perf_counter()
    golden = load_golden()
    bad = 0
    for workload in WORKLOADS:
        if workload == "arrows":
            result = finish_worker(start_worker(0, 1, False, limit=1)[0], started)
            failures = result["failures"] + [r["name"] for r in result["ops"] if r["rc"]]
            count = len(result["ops"])
        else:
            rundir = os.path.join(OUT, f"smoke-{workload}-{os.getpid()}")
            try:
                plan = write_plan(cli_setup(workload, 0, 1)[0], rundir)
                records = run_cli_ops(plan, 1, False, started + HARD_LIMIT_S, limit=1)
            finally:
                shutil.rmtree(rundir, ignore_errors=True)
            failures = check_cli(records, golden)
            count = len(records)
        print(f"smoke {workload}: {count} op, {len(failures)} failed {failures}")
        bad += len(failures) + (count != 1)
    return bad


def record_golden():
    """Digest every CLI report of the default seed's first ops."""
    golden = {}
    for workload in workloads.CLI_WORKLOADS:
        rundir = os.path.join(OUT, f"golden-{workload}")
        try:
            ops = workloads.take(workloads.cli_schedule(workload, 0), GOLDEN_OPS)
            plan = write_plan(ops, rundir)
            unique = list({op.key(): (op, argv) for op, argv in plan}.values())
            records = run_cli_ops(unique, 0, False, time.perf_counter() + 3600, limit=len(unique))
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        for rec in records:
            if rec["rc"] != 0:
                raise RuntimeError(f"{rec['key']}: exit {rec['rc']}: {rec.get('error')}")
            golden[rec["key"]] = rec["sha256"]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} digests in {GOLDEN}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "jetcalc", "cli.py")):
        print(f"error: no jetcalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return 1 if smoke() else 0
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        p.error("--workload is required")

    records, failures, setups, metrics = run_workload(
        args.workload, args.seed, args.seconds, args.trace, started)
    for line in summary_lines(args.workload, records, failures, setups, metrics, args.trace):
        print(line)
    result = {
        "correct": not failures,
        "attempted": max(1, len(records)),
        "failed": min(len(failures), max(1, len(records))),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
