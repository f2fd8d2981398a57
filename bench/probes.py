"""Micro-probes: unit costs of single public operations, called standalone.

A probe times one operation in a tight loop, several rounds, and reports
the median round in nanoseconds (or microseconds) per operation — the
"unit cost" half of an executed-count × unit-cost ledger.  A probe's
factory imports its target and returns the loop; one whose target no
longer resolves yields ``None`` and is listed as missing, never an
exception.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

#: The program the ``lang`` probes parse and build (the deploy workload's).
PROBE_SOURCE = (
    "counting(limit=1000) >> greedy_pump >> buffer(64) "
    ">> greedy_pump >> collect"
)

ROUNDS = 7


def _per_op(loop: Callable[[int], None], ops: int) -> float:
    """Median seconds per operation of ``loop(ops)`` over ``ROUNDS``."""
    loop(max(1, ops // 10))  # warm the code paths
    rounds = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        loop(ops)
        rounds.append((time.perf_counter() - started) / ops)
    return statistics.median(rounds)


def mailbox_put_get_ns():
    from repro.mbt.mailbox import Mailbox
    from repro.mbt.message import Message

    box, message = Mailbox(), Message(kind="probe", target="t")

    def loop(n):
        put, get = box.put, box.get
        for _ in range(n):
            put(message)
            get()

    return loop


def switch_ns():
    from repro.mbt.coroutine import GeneratorSuspendable

    def echo():
        value = None
        while True:
            value = yield value

    body = GeneratorSuspendable(echo())
    body.resume(None)

    def loop(n):
        resume = body.resume
        for i in range(n):
            resume(i)

    return loop


def post_dispatch_ns():
    from repro.mbt import Scheduler, VirtualClock
    from repro.mbt.message import Message
    from repro.mbt.syscalls import CONTINUE

    scheduler = Scheduler(clock=VirtualClock())
    scheduler.spawn("probe", lambda thread, message: CONTINUE)

    def loop(n):
        post = scheduler.post
        for _ in range(n):
            post(Message(kind="probe", target="probe"))
        scheduler.run()

    return loop


def buffer_put_get_ns():
    from repro.components.buffers import Buffer

    buffer = Buffer(capacity=64)

    def loop(n):
        push, pull = buffer.try_push, buffer.try_pull
        for i in range(n):
            push(i)
            pull()

    return loop


def parse_us():
    from repro.lang.parser import parse

    def loop(n):
        for _ in range(n):
            parse(PROBE_SOURCE)

    return loop


def build_us():
    from repro.lang.builder import build

    def loop(n):
        for _ in range(n):
            build(PROBE_SOURCE)

    return loop


#: name -> (factory returning ``loop(n)``, operations per round, units
#: per second).  The factory imports the target, so a stale one raises.
PROBES: dict[str, tuple[Callable[[], Callable[[int], None]], int, float]] = {
    "mbt.mailbox_put_get_ns": (mailbox_put_get_ns, 20_000, 1e9),
    "mbt.switch_ns": (switch_ns, 50_000, 1e9),
    "mbt.post_dispatch_ns": (post_dispatch_ns, 10_000, 1e9),
    "components.buffer_put_get_ns": (buffer_put_get_ns, 20_000, 1e9),
    "lang.parse_us": (parse_us, 100, 1e6),
    "lang.build_us": (build_us, 40, 1e6),
}


def run_probes(
    probes: dict = PROBES, scale: float = 1.0
) -> tuple[dict[str, float | None], list[str]]:
    """Run every probe at ``scale`` x its operation count; returns
    ``(values, missing)`` with the raw (un-normalised) unit costs."""
    values: dict[str, float | None] = {}
    missing: list[str] = []
    for name, (factory, ops, per_second) in probes.items():
        try:
            loop = factory()
        except (ImportError, AttributeError, TypeError):
            # The public operation moved or changed shape.
            values[name] = None
            missing.append(name)
            continue
        values[name] = per_second * _per_op(loop, max(10, int(ops * scale)))
    return values, missing
