"""A fixed pure-Python loop that tells how fast the host runs right now.

The benchmark shares its host with other work, and the host's load changes
how fast the same Python code runs by up to two times, in spells that last
from milliseconds to whole runs.  Timed right before and right after a
query, the loop tells how fast the host ran while the query ran.  The
benchmark scales each latency by REFERENCE_S over the loop's time next to
the query: its times are seconds on a reference host on which the loop
takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import statistics
import time

# about the loop's fastest time in a 55-second run on a 2-vCPU KVM guest
# (Intel Xeon, Python 3.11), which lay between 143 and 170 us; a constant
# rather than each run's own fastest time, because in a run that the host
# slows throughout, that is slow too
REFERENCE_S = 150e-6


def _loop() -> int:
    table = {}
    text = ""
    for i in range(500):
        table[i % 37] = table.get(i % 37, 0) + i
        text = (text + str(i))[-20:]
    return len(text) + len(table)


def probe() -> float:
    """Seconds one reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample() -> list:
    """Five probes in a row."""
    return [probe() for _ in range(5)]


def on_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, scaled to
    the reference host."""
    return seconds * REFERENCE_S / statistics.mean((before, after))
