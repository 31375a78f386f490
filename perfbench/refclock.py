"""The core-speed reference that the benchmark's end-to-end times are scaled by.

A small shared host gives the benchmark cores whose speed swings by 30-60%
for seconds to minutes at a time (another tenant on the same physical core,
with no steal time to show for it), and the swings of two cores do not
follow each other. Medians over repetitions cannot remove a swing that lasts
a whole run. So run.py pins itself and every child to one core with `pin`,
and while a child runs, the parent wakes every GAP_S and times `sample`, a
fixed slice of pure-Python work, on that same core. A stretch is reported
scaled to a core that runs the sample in NOMINAL_SAMPLE_S:

    scaled = wall * NOMINAL_SAMPLE_S / mean(samples taken during it)

The sample touches no leftfact code, so a change to the program moves the
wall time and never the reference.
"""

from __future__ import annotations

import os
import statistics
import time

SAMPLE_LOOPS = 5_000
# The sample's time on an uncontended core of the 2-core reference host
# (Python 3.11); it only fixes the unit, a scaled time in seconds on that core.
NOMINAL_SAMPLE_S = 0.0003
GAP_S = 0.01
# A sample that took longer than this many times the median lost the core
# to the child part-way through; a slow core alone stays well under it.
PREEMPTED = 3.0


def pin() -> int:
    """Pin this process (and so every child it starts later) to one core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def sample() -> float:
    """Seconds a fixed slice of pure-Python work takes on this core now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SAMPLE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Meter:
    """Core-speed samples taken over one timed stretch."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take(self) -> float:
        s = sample()
        self.samples.append(s)
        return s

    @property
    def taken_s(self) -> float:
        """Time the samples themselves took (the stretch's child lost it)."""
        return sum(self.samples)

    def scale(self, wall_s: float) -> float:
        median = statistics.median(self.samples)
        kept = [s for s in self.samples if s <= PREEMPTED * median]
        return wall_s * NOMINAL_SAMPLE_S / statistics.mean(kept)
