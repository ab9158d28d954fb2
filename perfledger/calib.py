"""Host-speed calibration: timings reported at one reference speed.

On a shared host each CPU's speed switches between levels up to ~1.7x
apart, a level lasts from well under a second to minutes, and the two
CPUs switch independently.  CPU time tracks wall time, so the process is
not descheduled; its CPU runs slower.  No amount of work inside one run
averages that out, and a sample taken only between operations misses a
switch in the middle of a long one.

So :meth:`Calibrator.time` samples the host's *speed* -- ``REFERENCE_S``
over the CPU time of a fixed kernel, pure Python and numpy that calls no
``repro`` code, so a change to the program does not change what it
times -- right before the timed call, right after it, and from a
``SIGALRM`` handler at a fixed wall interval inside it.  Each slice of
the call between two samples is scaled by the mean speed at its ends.
The result is the call's time at the speed at which the kernel takes
``REFERENCE_S`` of CPU.

* In the benchmark's own process (``workers=False``) a sample measures
  the CPU the process runs on, and the handler's time is cut out of the
  call's.
* While worker processes do the work (``workers=True``) the speed is the
  mean over the CPUs: the bracketing samples visit every CPU, the
  handler one CPU in turn, each pinned there for the kernel.  The kernel's
  *CPU* time measures the CPU's speed even while it shares it with a
  worker, and the handler's time stays in the call's, since the workers
  keep working meanwhile (minus the few percent of one CPU it takes).
"""

from __future__ import annotations

import os
import signal
from time import perf_counter, thread_time

import numpy as np

#: Kernel CPU time at the reference speed (about the host's fast level).
REFERENCE_S = 0.0075
#: Wall time between two samples inside a timed call; longer while
#: workers run, since each sample takes a CPU from one of them.
INTERVAL_S = 0.05
WORKERS_INTERVAL_S = 0.1
#: A sample taken less than this before a call serves as its first.
REUSE_S = 0.05

_STACK = np.random.default_rng(0).random((16, 30, 30))


def kernel() -> float:
    """CPU seconds for one fixed mix of interpreter work and FFTs."""
    t0 = thread_time()
    acc = 0
    for i in range(60_000):
        acc += i * i
    for _ in range(20):
        spectrum = np.fft.rfft2(_STACK)
        np.fft.irfft2(spectrum * spectrum, s=(30, 30)).clip(0.0, None).sum()
    return thread_time() - t0


def speed() -> float:
    """The speed of the CPU this process runs on."""
    return REFERENCE_S / kernel()


class Calibrator:
    """Times calls at the reference speed.

    ``sample=False`` turns in-call sampling off for the whole pass (the
    traced run, whose spans would otherwise include the handler's time).
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.cpus = sorted(os.sched_getaffinity(0))
        self._cpu_speed: dict[int, float] = {}
        self._turn = 0
        self._workers = False
        self._marks: list[tuple[float, float, float]] = []  # start, end, speed
        self._last: tuple[float, bool, float] = (-1.0, False, 0.0)  # end, workers, speed

    def _speed_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        try:
            return speed()
        finally:
            os.sched_setaffinity(0, self.cpus)

    def _probe(self, every_cpu: bool) -> float:
        if not self._workers:
            return speed()
        if every_cpu:
            cpus = self.cpus
        else:
            cpus = [self.cpus[self._turn % len(self.cpus)]]
            self._turn += 1
        for cpu in cpus:
            self._cpu_speed[cpu] = self._speed_on(cpu)
        return sum(self._cpu_speed.values()) / len(self._cpu_speed)

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        s = self._probe(every_cpu=False)
        self._marks.append((t0, perf_counter(), s))

    def _bracket(self) -> float:
        s = self._probe(every_cpu=True)
        self._last = (perf_counter(), self._workers, s)
        return s

    def time(self, fn, *args, workers: bool = False):
        """Call ``fn(*args)``; returns ``(output, raw_s, scaled_s)``.

        ``raw_s`` is the call's wall time, without the handler's unless
        ``workers``.
        """
        self._workers = workers
        end, last_workers, before = self._last
        if last_workers != workers or perf_counter() - end > REUSE_S:
            before = self._bracket()
        self._marks = []
        previous = None
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            interval = WORKERS_INTERVAL_S if workers else INTERVAL_S
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        t0 = perf_counter()
        try:
            output = fn(*args)
        finally:
            t1 = perf_counter()
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        after = self._bracket()
        raw = scaled = 0.0
        edge, s_edge = t0, before
        for start, stop, s in self._marks + [(t1, t1, after)]:
            if start > t1:  # fired after the call returned
                continue
            piece = start - edge
            raw += piece
            scaled += piece * 0.5 * (s_edge + s)
            edge, s_edge = (start if workers else stop), s
        return output, raw, scaled
