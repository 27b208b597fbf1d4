"""Host-speed sampling: operation times in reference-speed seconds.

On a shared virtual machine the speed of this machine's CPUs changes
with what the host runs beside it: the same fixed Python loop takes 16 ms
one second and 30 ms the next, and the share of slow spells drifts over
minutes.  CPU time alone moves with it (wall-clock time moves further, as
it also counts the time the host hands the CPUs to others), so the same
code read 23 s and 29 s a few minutes apart.

A ``Sampler`` times a fixed probe (``probe``, code of the benchmark's own
that never changes) before and after an operation and, through an
interval timer (``SIGALRM``, handled in this thread; no extra thread or
process), every ``INTERVAL_S`` seconds during it.  The timer counts
real time: a CPU-time timer (``ITIMER_PROF``) would coarsen the process
CPU clock to the scheduler tick while it is armed.  Each
sample gives the host's speed at that moment as ``NOMINAL_S`` divided by
the probe's time.  An operation's reference-speed seconds are its CPU
seconds, without the probes, times the mean speed of its samples: the
seconds it would take on a host where the probe takes ``NOMINAL_S``.
Samples are spread evenly over the operation's time, so the mean speed
weights each stretch of the operation by its length.

The probe mixes what railsim does: an interpreted loop over a dict,
float formatting into text, and numpy array passes.  It tracks the drift
only in part, because railsim's share of each kind of work differs from
the probe's: over ten runs of a workload it cut the spread of the middle
half from 13-17 % (raw CPU seconds) to 1.5-5.3 % (see README.md).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CLOCK = time.process_time
# Probe CPU seconds on the reference host: about the median probe time of
# the 2-core virtual machine the benchmark's bounds were set on.
NOMINAL_S = 0.0033
INTERVAL_S = 0.1  # seconds between samples during an operation

_DATA = np.arange(16384, dtype=np.float64) * 0.37


def probe() -> int:
    """Fixed work, a few milliseconds long."""
    size = 0
    for _ in range(3):
        table: dict[int, int] = {}
        for i in range(1500):
            table[i % 97] = table.get(i % 97, 0) + i * 3
        text = ",".join([f"{x:.6f}" for x in _DATA[:600]])
        ranked = np.sort(np.cumsum(_DATA)[::-1])
        size += len(text) + len(table) + ranked.size
    return size


class Sampler:
    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.speeds: list[float] = []
        self.probe_s = 0.0

    def _sample(self, *_signal_args) -> None:
        t0 = CLOCK()
        probe()
        seconds = CLOCK() - t0
        self.probe_s += seconds
        self.speeds.append(NOMINAL_S / seconds)

    def time(self, fn):
        """Run ``fn()``; returns (its result, its CPU seconds, its
        reference-speed seconds).  ``fn`` must not raise."""
        self._sample()
        first, probe_before = len(self.speeds) - 1, self.probe_s
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        t0 = CLOCK()
        try:
            result = fn()
        finally:
            # The clock is read last: a sample still pending once the
            # handler is restored is dropped, so every sample taken here
            # falls inside the timed interval.
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            seconds = CLOCK() - t0
        cpu = seconds - (self.probe_s - probe_before)
        self._sample()
        return result, cpu, cpu * statistics.fmean(self.speeds[first:])
