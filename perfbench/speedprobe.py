"""How fast the host runs this process, sampled while a measurement runs.

On a shared host the same single-threaded work takes from 0.75 to 1.3
times its usual CPU time from one run to the next, as neighbours load
the cores and caches this process shares.  A profiling timer fires
every ``INTERVAL_S`` of process CPU time and runs a fixed kernel,
timing it; the median kernel time over a measurement says how
fast the host ran during it.  Scaling the measured CPU time by
``REF_KERNEL_S / median`` gives the CPU seconds the same work would
have taken at the reference speed, which cancels most of that drift
while a change to the code under test still moves the result in full.

The kernel is benchmark code and never changes with cfcsim.  It does
the two kinds of work that dominate the pipelines, interpreted float
arithmetic (the RK4 neuron, per-event loops) and formatting numpy
scalars into CSV lines (the writers): each half alone tracked the
host's drift on some workloads and not on others, the sum on all
three.  The sampler costs about 1.5% of CPU time, which
``Probe.scaled`` subtracts.
Python runs the handler between bytecodes, so a long numpy call delays
a sample; it does not skew one.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# Median kernel time on a quiet 2 GHz x86_64 Xeon (2 vCPUs, Python
# 3.11, numpy 2.4), where the benchmark was written; it only sets the
# scale.
REF_KERNEL_S = 300e-6

_ROWS = np.linspace(1e-3, 2.0, 120)


def _kernel() -> int:
    """Fixed work: Euler steps of a damped oscillator, then CSV lines."""
    x, v = 0.1, 0.0
    for _ in range(800):
        dv = -0.3 * x - 0.01 * v
        v += 1e-3 * dv
        x += 1e-3 * v
    lines = []
    for k in range(len(_ROWS)):
        lines.append(f"{float(_ROWS[k] * x):.17g},{k & 3},{k & 1}")
    return len("\n".join(lines))


class Probe:
    """Context manager that samples the kernel time while it is open."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def speed(self) -> float:
        """Host speed during the measurement relative to the reference
        (1.0 when no sample was taken)."""
        return REF_KERNEL_S / statistics.median(self.samples) if self.samples else 1.0

    def scaled(self, cpu_s: float) -> float:
        """``cpu_s`` measured while the probe was open, less the time
        of the samples, at the reference speed."""
        return (cpu_s - sum(self.samples)) * self.speed()
