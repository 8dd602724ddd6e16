"""Host speed reference: a fixed kernel that uses no program code.

The benchmark's shared 2-CPU host changes speed by up to 2x over
minutes (its neighbours come and go): the same serve-admit saturation
phase measured 0.53 ms of server CPU per request in one quarter of an
hour and 0.25 ms in the next.  Every end-to-end time is therefore
reported at a reference host speed: the raw figure times
:data:`NOMINAL_S` over the run's median :func:`reference` time, taken on
the same CPU between the run's phases.  A change to the program moves
the raw figure and leaves the reference alone; a change of host speed
moves both.  The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

#: Reference time (s) the scaled figures are expressed at: about the
#: kernel's time on a shared 2-CPU host in its slower state.
NOMINAL_S = 0.010


def _kernel() -> float:
    """A fixed mix of the program's kinds of work: dict churn, small
    NumPy expressions, JSON encode/decode."""
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 211] = counts.get(i % 211, 0) + i
    vector = np.arange(32.0)
    low = 0.0
    for i in range(600):
        low += float((vector * 1.5 + i).min())
    payload = {"op": "submit", "id": 7, "query": {"demanded": [1, 2, 3], "rate": 0.9}}
    for _ in range(600):
        payload = json.loads(json.dumps(payload))
    return low + len(counts)


#: Kernel runs per :func:`reference` call.
REPS = 5


def reference(cpu: int | None = None) -> list[float]:
    """Wall seconds of :data:`REPS` kernel runs, on ``cpu`` when given."""
    previous = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        times = []
        for _ in range(REPS):
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
        return times
    finally:
        os.sched_setaffinity(0, previous)


def scale(samples: list[float]) -> float:
    """Factor taking a raw time to the reference host speed."""
    return NOMINAL_S / statistics.median(samples)
