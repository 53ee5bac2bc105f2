"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed one process gets drifts by a quarter or more
within minutes: a fixed loop of exact-rational arithmetic, timed in
2-second windows on a 2-core host, ranged 13-20 ms, and one CLI op moved
by a third between neighbouring runs.  Medians over a run do not remove
a drift that lasts longer than the run.

So every timed op is paired with readings of a probe, a fixed
``fractions.Fraction`` loop that does not touch jetcalc, taken in the
process that runs the op: just before and just after each CLI op, and at
most ``EVERY_S`` before each library op of the arrows worker.  Set-up
work (input generation, the first import of jetcalc) is timed the same
way, by ``timed``, inside the process that does it.  Timings
are reported scaled to the probe's reference time,
``seconds * REFERENCE_S / probe_seconds``.  A change to jetcalc moves a
scaled time as it moves the raw one; a host that is uniformly slower for
a while does not.  The benchmark prints raw figures beside scaled ones.
"""

import time
from fractions import Fraction

# Probe time on the reference host (2 cores, Python 3.11.7); it only
# fixes the unit, so it never needs to change.
REFERENCE_S = 0.002
# A new reading is taken before an op when the last one is this old.
EVERY_S = 0.25
READINGS = 5


def probe():
    """Median seconds of a fixed exact-rational loop, run now."""
    times = []
    for _ in range(READINGS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        times.append(time.perf_counter() - start)
    return sorted(times)[READINGS // 2]


def timed(call):
    """Run ``call()`` between two probes.

    Returns its result, its raw seconds and the speed factor of the two
    probes' mean.
    """
    before = probe()
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return result, seconds, REFERENCE_S / ((before + probe()) / 2)


def busy(records, scaled=True):
    """Wall time of op records, each scaled by its speed factor unless
    ``scaled`` is false; for CLI ops it includes the interpreter start."""
    return sum(r["wall_s"] * (r["speed"] if scaled else 1.0) for r in records)


class Speed:
    """Scale factor for timings: reference probe time over current."""

    def __init__(self):
        self._taken = None
        self.factor = 1.0

    def current(self):
        now = time.perf_counter()
        if self._taken is None or now - self._taken >= EVERY_S:
            self.factor = REFERENCE_S / probe()
            self._taken = time.perf_counter()
        return self.factor
