"""Speed normalisation: a fixed pure-Python kernel brackets every repeat.

Wall-clock throughput of the *same* code drifts 10-40 % between
back-to-back runs on a shared box (frequency scaling, noisy neighbours,
cache pressure).  The kernel below exercises the interpreter paths the
runtime's hot loop lives on — generator ``send``, ``heapq`` and dict
stores — so its own duration tracks how fast this interpreter is running
*right now*.  A repeat's times are scaled by ``CAL_REF_MS / mean(kernel
before, kernel after)``: the reported number is what the repeat would have
taken on a machine where the kernel takes exactly ``CAL_REF_MS``.

Wall times are scaled by the kernel's wall time and CPU times by its CPU
time: when the process is descheduled the wall clock inflates and the CPU
clock does not, and each correction must follow its own clock.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel duration on the reference machine (the 2-core container this
#: benchmark was defined on, when quiet).  A constant, never re-measured:
#: changing it rescales every time-based metric.
CAL_REF_MS = 25.0

#: The kernel is ``CAL_PASSES`` passes of ``CAL_ITERS`` iterations and
#: reports ``CAL_PASSES`` x the median pass.  The host's interference
#: comes as a slow drift plus spikes of a few tens of milliseconds; the
#: median pass follows the drift and shrugs off a spike, which would
#: otherwise over-correct the repeat next to it.
CAL_PASSES = 3
CAL_ITERS = 15_000


def _echo():
    value = None
    while True:
        value = yield value


def _one_pass() -> tuple[float, float]:
    gen = _echo()
    next(gen)
    send = gen.send
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    store: dict = {}
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for i in range(CAL_ITERS):
        key = (i * 7919) & 1023
        push(heap, (key, i))
        store[key] = send(i)
        if len(heap) > 64:
            pop(heap)
    cpu = time.process_time() - cpu0
    return time.perf_counter() - wall0, cpu


def kernel() -> tuple[float, float]:
    """Run the calibration kernel once; returns ``(wall_ms, cpu_ms)``."""
    walls, cpus = zip(*(_one_pass() for _ in range(CAL_PASSES)))
    scale = 1e3 * CAL_PASSES
    return scale * statistics.median(walls), scale * statistics.median(cpus)


def factors(
    before: tuple[float, float], after: tuple[float, float]
) -> tuple[float, float]:
    """``(wall_factor, cpu_factor)`` for a repeat bracketed by two kernel
    passes: multiply a raw time by the factor to normalise it."""
    wall = CAL_REF_MS / ((before[0] + after[0]) / 2.0)
    cpu = CAL_REF_MS / ((before[1] + after[1]) / 2.0)
    return wall, cpu
