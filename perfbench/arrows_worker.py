"""The arrows workload: library calls in one long-lived worker process.

Usage: python3 perfbench/arrows_worker.py --seed N --seconds S
       [--trace 0|1] [--setup-only] [--limit OPS]

Each seeded arrow ``a`` runs one chain of seven ops: invert it, compose
the inverse with ``a`` on both sides, and push a vector jet and a
function jet along ``a`` and back along the inverse.  Every op's result
is checked by an exact identity once timing is over: both composites
are identities and the round trips return the input jets.

Prints ``{"ready": true, ...}`` once jetcalc is imported and the first
arrow is built, with the raw seconds of that set-up and its speed factor
(see speed.py), then one JSON line with the per-op records.  With
--trace 1 the ops run traced for --seconds and are then replayed
untraced to measure the overhead.
"""

import argparse
import itertools
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def chain_inputs(seed, b):
    """Arrow ``b`` of the seed with the vector and function jet at its source."""
    from jetcalc.arrows import Arrow
    from jetcalc.jets import FunctionJetPoint, VectorJetPoint

    n, k, source, target, coeffs, vjet, fjet = workloads.arrow_chain_spec(seed, b)
    a = Arrow(n, k, source, target, coeffs)
    return a, VectorJetPoint(n, k - 1, source, vjet), FunctionJetPoint(n, k, source, fjet)


def chain(a, v, f):
    """The seven (op name, call) steps of one arrow, sharing one state."""
    import jetcalc.arrows as ar

    s = {}

    def step(name, key, call):
        def run():
            s[key] = call()
        return name, run

    steps = [
        step("invert_arrow", "inv", lambda: ar.invert_arrow(a)),
        step("compose_arrows", "left", lambda: ar.compose_arrows(s["inv"], a)),
        step("compose_arrows", "right", lambda: ar.compose_arrows(a, s["inv"])),
        step("pushforward_vector_jet", "v1", lambda: ar.pushforward_vector_jet(a, v)),
        step("pushforward_vector_jet", "v2", lambda: ar.pushforward_vector_jet(s["inv"], s["v1"])),
        step("pushforward_function_jet", "f1", lambda: ar.pushforward_function_jet(a, f)),
        step("pushforward_function_jet", "f2", lambda: ar.pushforward_function_jet(s["inv"], s["f1"])),
    ]

    def check():
        ident = ar.Arrow.identity
        bad = []
        if s["left"] != ident(a.n, a.k, a.source):
            bad.append("inverse o a is not the identity")
        if s["right"] != ident(a.n, a.k, a.target):
            bad.append("a o inverse is not the identity")
        if s["v2"] != v:
            bad.append("vector jet round trip changed the jet")
        if s["f2"] != f:
            bad.append("function jet round trip changed the jet")
        return bad

    return steps, check


def run_ops(seed, deadline, tr, limit=None, check=True):
    """Run the seed's chains until the deadline (or ``limit`` ops).

    Chains go in blocks of one arrow per shape, and a block runs step by
    step across its chains, so a run cut anywhere holds every shape in
    about the same share.  Each block's inputs are built just before it,
    outside the timed ops.  Returns the op records (time and speed factor
    of each) and, with ``check``, the failed identities; the block cut by
    the deadline is then completed untimed so that all of its results are
    checked.
    """
    records = []
    failures = []
    gauge = speed.Speed()
    width = len(workloads.ARROW_SHAPES)
    for first in itertools.count(0, width):
        chains = [(b, *chain(*chain_inputs(seed, b))) for b in range(first, first + width)]
        done = False
        for step in range(len(chains[0][1])):
            for idx, steps, _ in chains:
                name, call = steps[step]
                if done:
                    if check:
                        call()
                    continue
                factor = gauge.current()
                snapshot = tr.begin_op() if tr else None
                start = time.perf_counter()
                try:
                    call()
                    rc = 0
                except Exception:
                    traceback.print_exc()
                    rc = -1
                op_s = time.perf_counter() - start
                rec = {"name": name, "chain": idx, "rc": rc, "op_s": op_s, "wall_s": op_s, "speed": factor}
                if tr:
                    rec["trace"] = tr.end_op(snapshot)
                records.append(rec)
                if rc:
                    return records, failures + [f"chain {idx}: {name} raised"]
                if time.perf_counter() >= deadline or (limit and len(records) >= limit):
                    done = True
        if check:
            for idx, _, verify in chains:
                failures.extend(f"chain {idx}: {msg}" for msg in verify())
        if done:
            break
    return records, failures


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _, setup_s, factor = speed.timed(lambda: (tracer.import_layers(), chain_inputs(args.seed, 0)))
    print(json.dumps({"ready": True, "setup_s": setup_s, "speed": factor}), flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        tr = tracer.Tracer().install()
        deadline = time.perf_counter() + args.seconds
        records, failures = run_ops(args.seed, deadline, tr, args.limit)
        tr.uninstall()
        replay, _ = run_ops(args.seed, float("inf"), None, len(records), check=False)
        result.update(absent=tr.absent, untraced_busy_s=speed.busy(replay))
    else:
        deadline = time.perf_counter() + args.seconds
        records, failures = run_ops(args.seed, deadline, None, args.limit)
    result.update(ops=records, failures=failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
