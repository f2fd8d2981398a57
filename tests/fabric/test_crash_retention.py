"""A crash, like a close, releases what its session held.

``Scheduler.errors`` records every crashed thread.  It is bounded like
``dead_letters`` (``DEAD_LETTER_LIMIT`` entries, evictions counted in
``errors_dropped``), and a removed thread's entries keep its name and
``repr(exc)`` — not the live exception, whose traceback frames would
keep the crashed tenant's whole component graph reachable after
``close_session``.
"""

import gc
import weakref

import pytest

from repro import CollectSink, GreedyPump, IterSource, MapFilter, pipeline
from repro.errors import SchedulerError
from repro.fabric import SessionFabric, SessionState
from repro.mbt import Scheduler
from repro.mbt.scheduler import DEAD_LETTER_LIMIT

TENANTS = 100


def _crashing_builder(refs: list):
    def build():
        boom = MapFilter(lambda item: item / 0)
        refs.append(weakref.ref(boom))
        return pipeline(IterSource(range(3)), GreedyPump(), boom,
                        CollectSink())

    return build


@pytest.mark.parametrize("contained_by", ["collect", "raise"])
def test_closed_crashed_tenants_are_released(contained_by):
    """``collect``: one ``fabric.run()`` contains every tenant's crash.
    ``raise``: the bare ``scheduler.run()`` raises each crash, the caller
    catches it and runs on; the sessions stay LIVE until closed.

    The two labels are historical: they once named the scheduler's crash
    policy, which is gone, and are kept so the case IDs stay stable.  What
    they now select is who handles the crash — the fabric, or a caller of
    the bare scheduler."""
    fabric = SessionFabric()
    scheduler = fabric.scheduler
    refs: list = []
    build = _crashing_builder(refs)
    for index in range(TENANTS):
        fabric.open_session(build, name=f"t{index}")
    if contained_by == "collect":
        fabric.run()
        states = {SessionState.CRASHED}
    else:
        for _ in range(TENANTS + 1):
            try:
                scheduler.run()
                break
            except SchedulerError:
                continue
        states = {SessionState.LIVE}
    assert {s.state for s in fabric.sessions.values()} == states
    assert len(scheduler.errors) == TENANTS
    for index in range(TENANTS):
        fabric.close_session(f"t{index}")
    gc.collect()
    assert len(refs) == TENANTS
    assert [ref for ref in refs if ref() is not None] == []
    # The record survives, as text: the thread and what it raised.
    name, error = scheduler.errors[0]
    assert name.startswith("pump:") and "ZeroDivisionError" in error


def test_errors_are_bounded_like_dead_letters():
    scheduler = Scheduler()
    names = [f"t{index}" for index in range(DEAD_LETTER_LIMIT + 5)]
    for name in names:
        scheduler.spawn(name, lambda thread, message: None)
        with pytest.raises(SchedulerError):
            scheduler.inject_crash(name)
    assert len(scheduler.errors) == DEAD_LETTER_LIMIT
    assert scheduler.errors_dropped == 5
    assert [name for name, _ in scheduler.errors] == names[5:]
    # A live thread's entry keeps the exception itself.
    assert isinstance(scheduler.errors[-1][1], BaseException)
