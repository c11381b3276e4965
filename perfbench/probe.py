"""Same-core speed probe: scales measured times to a reference CPU speed.

On shared virtual machines one vCPU can run 1.5-2x slower for tens of
seconds while the other does not, so raw wall times of identical work
spread far beyond any usable regression bound.  The probe runs a fixed unit
of interpreter work (rational arithmetic, integer bytecode, dict/tuple
allocation) on the worker's own CPU and times it with the thread's CPU
clock.  A time measured while the probe ran, multiplied by
``REFERENCE_UNIT_S / median(unit time)``, is that time at the reference
speed.  The probe never calls qtheta, so a change to the engine cannot move it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

# median probe unit time on an idle 2-vCPU x86-64 VM (Python 3.11)
REFERENCE_UNIT_S = 1.2e-3
PERIOD_S = 0.05


def unit():
    """One probe unit; returns its thread CPU time in seconds."""
    t0 = time.thread_time()
    a = Fraction(3, 7)
    d = {}
    for i in range(120):
        a = a * Fraction(i + 1, i + 2) + 1
        d[(i, i & 7)] = a
    s = 0
    for i in range(3000):
        s += i * i % 7
    e = {}
    for i in range(1500):
        e[(i, i + 1)] = (i, str(i))
    return time.thread_time() - t0


def pin_to_current_cpu():
    """Keep this process (and its probe thread) on the CPU it started on."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no affinity control here: the probe still samples the same process


def burst(n=25):
    """Median unit time of ``n`` back-to-back units."""
    return statistics.median(unit() for _ in range(n))


class Sampler:
    """Runs one unit every ``PERIOD_S`` on a side thread while the block runs."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(unit())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def scale(self, fallback):
        """REFERENCE_UNIT_S over the median unit time (``fallback`` if no sample)."""
        med = statistics.median(self.samples) if self.samples else fallback
        return REFERENCE_UNIT_S / med
