"""Run one jetcalc CLI op in this fresh interpreter and describe it.

Usage: python3 perfbench/opchild.py [--trace | --import-only] -- ARGV...

With --import-only, times the first import of the CLI and prints its raw
seconds and speed factor (see speed.py).  Otherwise imports the CLI
(every layer, with --trace), then times
``jetcalc.cli.main(ARGV)`` with the report captured.  Prints one JSON
line: the exit code, the op time, the sha256 of the report, the speed
factor from probes just before and after the op (see speed.py) and, with
--trace, the per-op trace.  An exception escaping ``main`` is reported
as exit code -1 with its traceback on stderr.
"""

import hashlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402


def run(argv, trace):
    # Untraced, only the CLI module is imported up front: the modules main
    # imports lazily are part of what a CLI user pays per command.  The
    # tracer needs every layer imported before it can rebind them.
    t = None
    if trace:
        import tracer

        tracer.import_layers()
        t = tracer.Tracer().install()
    from jetcalc import cli

    probe_start = time.perf_counter()
    before = speed.probe()
    probe_s = time.perf_counter() - probe_start
    snapshot = t.begin_op() if t else None
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    op_s = time.perf_counter() - start
    probe_start = time.perf_counter()
    factor = speed.REFERENCE_S / ((before + speed.probe()) / 2)
    probe_s += time.perf_counter() - probe_start
    out = {
        "rc": rc,
        "op_s": op_s,
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "speed": factor,
        "probe_s": probe_s,
    }
    if t:
        out["trace"] = t.end_op(snapshot)
        out["absent"] = t.absent
    return out


def main(args):
    if "--" not in args:
        print("usage: opchild.py [--trace | --import-only] -- ARGV...", file=sys.stderr)
        return 2
    split = args.index("--")
    flags, argv = args[:split], args[split + 1:]
    if "--import-only" in flags:
        _, setup_s, factor = speed.timed(lambda: importlib.import_module("jetcalc.cli"))
        print(json.dumps({"setup_s": setup_s, "speed": factor}))
        return 0
    print(json.dumps(run(argv, "--trace" in flags)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
