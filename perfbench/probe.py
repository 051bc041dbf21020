"""A fixed task that measures how fast the host runs right now.

The CPU time a request costs moves with the shared host's speed: other
tenants on the same physical cores slowed the same code by up to a half
within seconds, and by a third for minutes, on the machine the baseline
comes from.  So the benchmark times this probe in the thread that runs
each measured request (or set-up), just before and just after it, and
rescales that CPU time by the mean of the two to a host on which the
probe takes :data:`REFERENCE_S`.

The probe mixes the two kinds of work the pipeline does: an interpreter
loop (the analysis and search code) and a JSON round trip that builds
and frees many small objects (store reads and result documents).  In
trials on a loaded host, the mix tracked the CPU time of both
``compute_dependences`` and store hits better than either half alone
did for both.  It never touches ``repro``, and garbage collection is
off while it runs, so the caller's heap does not decide when a
collection lands in it; what it allocates is freed before it returns.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

#: the probe's CPU time on the reference host
REFERENCE_S = 0.005
_ITERATIONS = 30_000
_DOCUMENT = json.dumps({f"k{i}": [i, str(i) * 3, {"a": i, "b": [1.5, 2.5]}]
                        for i in range(400)})


def probe_s() -> float:
    """CPU seconds this thread spends on the fixed task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        total = 0
        for i in range(_ITERATIONS):
            total += i * i % 7
        json.loads(json.dumps(json.loads(_DOCUMENT)))
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(samples: int = 5) -> float:
    """The median of ``samples`` probes."""
    return statistics.median(probe_s() for _ in range(samples))


def bracketed(probes: list) -> list:
    """For probes taken before each of n steps and once after the last:
    the mean of the two probes around each step."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def rescale(cpu_s: float, probe: float) -> float:
    """``cpu_s`` as it would read on the reference host, given the
    probe's time next to it."""
    return cpu_s * REFERENCE_S / probe
