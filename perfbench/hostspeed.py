"""Host-speed calibration: a fixed pure-Python reference kernel.

The benchmark runs on a shared virtual machine whose vCPUs change speed
by tens of percent from one half-minute to the next (other tenants on
the same physical cores): the median unit time of 24-second windows of
the same sweep units spread 10-27% (quartiles) and 30-37% (range) in two
recordings of 5-8 minutes.  No statistic over one run removes a slowdown
that lasts the whole run.  So every timing is taken together with the
CPU time of this kernel, on the same CPU, right before and right after
it, and is scaled by the *host-speed factor*
``(REFERENCE_S / kernel seconds) ** ELASTICITY``: a control variate
that moves the timing to the reference host, one on which the kernel
takes :data:`REFERENCE_S` CPU seconds.

The kernel is part of the benchmark, never of the program: it imports
nothing from ``src/`` and runs with the garbage collector off, so no
change to the program can make it faster or slower.  It is a small
discrete-event loop -- event objects on a heap, method calls on a few
hundred entities, short per-entity queues, a seeded RNG -- the
interpreter work the simulator does.  It measures CPU time, not wall
time: a preemption in the middle of a 40 ms kernel would otherwise be
read as a slow host.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import statistics
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

#: CPU seconds of one kernel on the reference host (about the median on
#: the 2-vCPU Xeon VM of perfbench/README.md).
REFERENCE_S = 0.04

#: Events per kernel.
EVENTS = 25_000

#: How strongly a timing follows the kernel.  Least squares over
#: back-to-back recordings of the sweep gives 0.5-0.64 (lowered by the
#: kernel's own noise); between the host's slow and fast phases, which
#: differ by up to 1.7x, the workloads moved by 0.85-1 x the kernel's
#: change.  Over seventy 24-second runs of all four workloads, 0.9 kept
#: the largest quartile spread of ``cell_cycles_per_s`` smallest (8%,
#: against 14% at 0.75, 10% at 1.0 and 56% unscaled).
ELASTICITY = 0.9

#: Kernel runs per sample; the median is taken, so one interrupted run
#: does not move it.
RUNS = 3

T = TypeVar("T")


class _Event:
    __slots__ = ("time", "who")

    def __init__(self, time_: float, who: int):
        self.time = time_
        self.who = who

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class _Entity:
    def __init__(self) -> None:
        self.recent: List[float] = []
        self.handled = 0

    def handle(self, event: _Event, rng: random.Random,
               heap: List[_Event]) -> None:
        self.handled += 1
        self.recent.append(event.time)
        if len(self.recent) > 8:
            self.recent.pop(0)
        heapq.heappush(heap, _Event(event.time + rng.random(), event.who))


def kernel(events: int = EVENTS) -> int:
    rng = random.Random(3)
    entities = [_Entity() for _ in range(200)]
    heap = [_Event(rng.random(), who) for who in range(200)]
    heapq.heapify(heap)
    for _ in range(events):
        event = heapq.heappop(heap)
        entities[event.who].handle(event, rng, heap)
    return sum(entity.handled for entity in entities)


def kernel_s() -> float:
    """CPU seconds of one kernel run on the calling thread: the median
    of :data:`RUNS` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(RUNS):
            started = time.thread_time()
            kernel()
            samples.append(time.thread_time() - started)
        return statistics.median(samples)
    finally:
        if enabled:
            gc.enable()


def kernel_s_on(cpus: Sequence[int]) -> float:
    """Mean kernel CPU seconds over ``cpus``, one sample pinned to
    each; the calling process's affinity is restored afterwards."""
    if not cpus:
        return kernel_s()
    before = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples.append(kernel_s())
    finally:
        os.sched_setaffinity(0, before)
    return statistics.fmean(samples)


def bracketed(work: Callable[[], T], cpus: Sequence[int]
              ) -> Tuple[T, float]:
    """Run ``work`` between two kernel samples on ``cpus``.

    Returns its result and the host-speed factor for it, from the mean
    of the two samples (see :func:`factor`).
    """
    before = kernel_s_on(cpus)
    result = work()
    after = kernel_s_on(cpus)
    return result, factor((before + after) / 2)


def factor(kernel_seconds: float) -> float:
    """The host-speed factor of a kernel time: a duration times it is
    the duration on the reference host; a rate divided by it, the rate
    there."""
    return (REFERENCE_S / kernel_seconds) ** ELASTICITY
