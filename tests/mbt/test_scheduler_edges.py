"""Edge-case tests for the scheduler: dead letters, horizons, tracing and
deadline ordering."""

import pytest

from repro.errors import SchedulerError
from repro.mbt import (
    CONTINUE,
    TERMINATE,
    Constraint,
    Message,
    Scheduler,
    Send,
    VirtualClock,
    Work,
)


def make():
    return Scheduler(clock=VirtualClock())


class TestTermination:
    def test_messages_to_terminated_thread_dead_letter(self):
        sched = make()
        sched.spawn("t", lambda th, m: TERMINATE)
        sched.post(Message(kind="first", target="t"))
        sched.run()
        sched.post(Message(kind="late", target="t"))
        assert [m.kind for m in sched.dead_letters] == ["late"]

    def test_remove_thread(self):
        sched = make()
        sched.spawn("t", lambda th, m: CONTINUE)
        sched.remove_thread("t")
        assert "t" not in sched.threads
        sched.remove_thread("t")  # idempotent


class TestHorizon:
    def test_work_overrunning_horizon_stops_promptly(self):
        """A thread whose simulated work crosses `until` finishes that work
        but the scheduler then stops even with more messages queued."""
        sched = make()

        def code(thread, msg):
            yield Work(0.4)
            return CONTINUE

        sched.spawn("t", code)
        for _ in range(10):
            sched.post(Message(kind="go", target="t"))
        sched.run(until=1.0)
        # 0.4s each: the third unit of work starts at 0.8 < 1.0 and ends at
        # 1.2 > 1.0; nothing more runs after that.
        assert sched.now() == pytest.approx(1.2)
        sched.run(until=2.0)
        # the horizon is inclusive, so a work unit may start at exactly
        # t=until; the overrun is bounded by one work unit.
        assert 2.0 <= sched.now() <= 2.4 + 1e-9

    def test_horizon_respected_under_permanent_readiness(self):
        sched = make()

        def ping(thread, msg):
            yield Work(0.01)
            yield Send(Message(kind="go", sender="t", target="t"))
            return CONTINUE

        sched.spawn("t", ping)
        sched.post(Message(kind="go", target="t"))
        sched.run(until=0.5)
        assert sched.now() == pytest.approx(0.5, abs=0.02)


class TestTracing:
    def test_trace_unavailable_unless_enabled(self):
        sched = make()
        with pytest.raises(SchedulerError):
            sched.trace

    def test_trace_events_filter(self):
        sched = Scheduler(clock=VirtualClock(), trace=True)
        sched.spawn("a", lambda th, m: CONTINUE)
        sched.post(Message(kind="go", target="a"))
        sched.run()
        kinds = {event[1] for event in sched.trace}
        assert {"deliver", "switch", "dispatch", "done"} <= kinds
        assert all(e[1] == "switch" for e in sched.trace_events("switch"))


class TestConstraintEdge:
    def test_deadline_orders_equal_priority_threads(self):
        sched = make()
        order = []
        sched.spawn("a", lambda th, m: order.append("a") or CONTINUE)
        sched.spawn("b", lambda th, m: order.append("b") or CONTINUE)
        sched.post(Message(kind="go", target="a",
                           constraint=Constraint(priority=1, deadline=5.0)))
        sched.post(Message(kind="go", target="b",
                           constraint=Constraint(priority=1, deadline=1.0)))
        sched.run()
        assert order == ["b", "a"]
