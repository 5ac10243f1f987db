"""A speed meter that turns op times into reference-speed seconds.

The benchmark's machine is a 2-vCPU virtual machine on a shared host.
Other tenants slow its CPUs by up to a factor of two, in phases that
last from a few seconds to several minutes, and the two CPUs slow
independently of each other.  The slowdown is in the CPU time itself,
not in time spent waiting, so neither best of passes nor medians remove
a phase that covers a whole run.

So the runner pins itself, and with it every child, to one CPU, and a
meter times a fixed pure-Python kernel on that CPU every PERIOD_S: in a
thread while a child process runs, and between ops when they run in
the runner itself.  A reading is the kernel's own CPU time, so a child
that preempts the meter does not inflate it.  An op's time is
multiplied by REFERENCE_S over the mean reading taken during the op:
the time the op would have taken on a CPU running at the reference
speed.  On that machine the ops' times moved in proportion to the
readings (a fitted exponent of 0.84 to 1.07 for the three workloads),
so the product holds still while the raw times move by 20 to 40 %.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter, thread_time

#: Seconds between readings.  The kernel takes about 2 ms, so the
#: meter costs a CLI op about 2 % of its time.
PERIOD_S = 0.1
#: A reading at reference speed: about the median reading on the machine
#: the benchmark was written on, where quiet phases read 1.3 ms and slow
#: ones 2.4 ms.  Reference-speed seconds are thus close to typical wall
#: times there.
REFERENCE_S = 0.002
#: 512 fixed 2048-bit masks, 128 KB in all, about the size of a CPU's L2 cache.
_rng = random.Random(1)
MASKS = [_rng.getrandbits(2048) for _ in range(512)]
SMALL_STEPS = 10000
BIG_STEPS = 1500


def kernel() -> int:
    """Small-integer arithmetic, then big-integer AND, OR and popcount over MASKS.

    These are the library's two kinds of work.  A contended CPU slows
    the first less than the library's ops and the second more, so the
    kernel times both.
    """
    s = 0
    for i in range(SMALL_STEPS):
        s += i * i % 7
    acc = -1
    for i in range(BIG_STEPS):
        m = MASKS[i & 511]
        acc &= m | MASKS[(i * 7) & 511]
        s += (acc ^ m).bit_count()
        if not acc:
            acc = -1
    return s


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Meter:
    def __init__(self) -> None:
        self.times: list[float] = []  # when each reading ended, increasing
        self.readings: list[float] = []

    def read(self) -> None:
        start = thread_time()
        kernel()
        cpu = thread_time() - start
        self.times.append(perf_counter())
        self.readings.append(cpu)

    def tick(self) -> None:
        """Take a reading if the last one is PERIOD_S old: for in-process ops."""
        if not self.times or perf_counter() - self.times[-1] >= PERIOD_S:
            self.read()

    @contextmanager
    def running(self):
        """Take readings in a thread while the block waits on a child process."""
        stop = threading.Event()

        def sample() -> None:
            while not stop.is_set():
                self.read()
                stop.wait(PERIOD_S)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            yield
        finally:
            stop.set()
            sampler.join()

    def speed(self, start: float, end: float) -> float:
        """The CPU's speed relative to the reference during [start, end].

        It uses the readings taken in the span, widened by PERIOD_S on
        each side so that a short op still has the readings around it.
        """
        lo = bisect.bisect_left(self.times, start - PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PERIOD_S)
        if lo == hi:  # no reading near the span: the nearest one
            i = min(lo, len(self.times) - 1)
            if i > 0 and start - self.times[i - 1] < self.times[i] - end:
                i -= 1
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.fmean(self.readings[lo:hi])

    def normalise(self, start: float, end: float) -> float:
        """The span's duration in reference-speed seconds."""
        return (end - start) * self.speed(start, end)
