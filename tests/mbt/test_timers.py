"""Unit tests for timer services."""

import pytest

from repro.mbt import (
    CONTINUE,
    Constraint,
    Message,
    PeriodicTimer,
    Scheduler,
    VirtualClock,
)


def collector(log):
    def code(thread, msg):
        log.append((round(Scheduler.now(thread.local["sched"]), 6), msg.kind))
        return CONTINUE

    return code


def make():
    sched = Scheduler(clock=VirtualClock())
    log = []

    def code(thread, msg):
        log.append((round(sched.now(), 6), msg.kind, msg.payload))
        return CONTINUE

    sched.spawn("sink", code)
    return sched, log


def test_post_at_delivers_at_requested_time():
    sched, log = make()
    for when, payload in ((2.0, "a"), (1.0, "b")):
        sched.at(when, lambda p=payload: sched.post(
            Message(kind="tick", payload=p, target="sink")))
    sched.run_until_idle()
    assert log == [(1.0, "tick", "b"), (2.0, "tick", "a")]


def test_post_after_is_relative_to_now():
    sched, log = make()
    sched.after(0.25, lambda: sched.post(
        Message(kind="tick", payload=1, target="sink")))
    sched.run_until_idle()
    assert log == [(0.25, "tick", 1)]


def test_post_with_constraint_attaches_it():
    sched, _ = make()
    PeriodicTimer(
        sched, "sink", period=1.0, constraint=Constraint(priority=7),
    ).start()
    # Look at delivery through the mailbox before running.
    sched._fire_due_timers()
    queued = sched.threads["sink"].mailbox.peek()
    assert queued.constraint.priority == 7


def test_periodic_timer_is_drift_free():
    sched, log = make()
    timer = PeriodicTimer(sched, "sink", period=0.1)
    timer.start()
    sched.run(until=1.05)
    times = [t for t, _, _ in log]
    assert len(times) == 11  # t = 0.0, 0.1, ..., 1.0
    for i, t in enumerate(times):
        assert t == pytest.approx(i * 0.1)
    timer.stop()


def test_periodic_timer_stop_prevents_further_ticks():
    sched, log = make()
    timer = PeriodicTimer(sched, "sink", period=0.1)
    timer.start()
    sched.run(until=0.35)
    timer.stop()
    count = len(log)
    sched.run(until=2.0)
    assert len(log) == count


def test_periodic_timer_rate_change_applies_to_next_tick():
    sched, log = make()
    timer = PeriodicTimer(sched, "sink", period=0.5)
    timer.start()
    sched.run(until=0.6)  # ticks at 0.0, 0.5
    timer.period = 0.25
    assert timer.period == 0.25
    sched.run(until=1.6)
    times = [t for t, _, _ in log]
    assert times[0] == pytest.approx(0.0)
    assert times[1] == pytest.approx(0.5)
    # Subsequent gaps are 0.25
    gaps = [round(b - a, 6) for a, b in zip(times[2:], times[3:])]
    assert all(g == pytest.approx(0.25) for g in gaps)


def test_periodic_timer_rejects_nonpositive_period():
    sched, _ = make()
    with pytest.raises(ValueError):
        PeriodicTimer(sched, "sink", period=0.0)
    timer = PeriodicTimer(sched, "sink", period=1.0)
    with pytest.raises(ValueError):
        timer.period = -1.0


def test_periodic_timer_counts_ticks():
    sched, _ = make()
    timer = PeriodicTimer(sched, "sink", period=0.2)
    timer.start()
    sched.run(until=1.0)
    assert timer.ticks == 6  # 0.0, 0.2, ..., 1.0 (the horizon is inclusive)
