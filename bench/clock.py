"""Host speed, read from a fixed probe loop, and times scaled by it.

The shared hosts this benchmark runs on change speed while it runs: the CPU
clock switches between states, and the share of time in each drifts over
minutes.  A plain wall-time median follows that drift rather than the
program.  So the benchmark probes the host around every timed operation and
scales each operation's time by REFERENCE_S over the probe time next to it.
A scaled time reads as seconds on a host where the probe takes REFERENCE_S.

The probe fills a dict with string keys.  It allocates and hashes the way the
interpreter does while it imports and runs sphgreen, and it followed the
workloads' speed more closely than a pure arithmetic loop did (README.md,
"Host speed").
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

PROBE_ITEMS = 10000
# a probe's time on the reference host; the scale of every scaled time
REFERENCE_S = 0.0016
# seconds of timed work between probes, so that a speed change mid-pass is seen
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Seconds for a fixed loop (median of three, about 5 ms in all)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        for i in range(PROBE_ITEMS):
            table[str(i)] = i
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(values, bounds) -> list[float]:
    """Each value times REFERENCE_S over the geometric mean of the (before,
    after) probes around it."""
    return [v * REFERENCE_S / math.sqrt(a * b) for v, (a, b) in zip(values, bounds)]
