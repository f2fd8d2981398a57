"""Unit tests for clocks, including the real-time mode."""

import time

import pytest

from repro.mbt import RealClock, Scheduler, VirtualClock
from repro.mbt.syscalls import CONTINUE
from repro.mbt.message import Message


class TestVirtualClock:
    def test_starts_at_origin(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(1.5)
        assert clock.now() == 1.5

    def test_backward_beyond_tolerance_rejected(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        with pytest.raises(ValueError):
            clock.advance_to(0.5)

    def test_float_rounding_tolerated(self):
        clock = VirtualClock()
        clock.advance_to(1.0 + 5e-10)
        clock.advance_to(1.0)  # within tolerance: no-op
        assert clock.now() == pytest.approx(1.0)

    def test_is_virtual(self):
        assert VirtualClock().is_virtual
        assert not RealClock().is_virtual


class TestRealClock:
    def test_time_moves_forward(self):
        clock = RealClock()
        first = clock.now()
        time.sleep(0.01)
        assert clock.now() > first

    def test_advance_to_sleeps(self):
        clock = RealClock()
        target = clock.now() + 0.05
        started = time.monotonic()
        clock.advance_to(target)
        assert time.monotonic() - started >= 0.04

    def test_advance_into_past_is_noop(self):
        clock = RealClock()
        clock.advance_to(clock.now() - 10)  # returns immediately

    def test_scheduler_runs_on_real_clock(self):
        """A timer 30 ms out posts its message 30 ms of wall time later."""
        scheduler = Scheduler(clock=RealClock())
        stamps = []

        def code(thread, msg):
            stamps.append(time.monotonic())
            return CONTINUE

        scheduler.spawn("t", code)
        scheduler.post(Message(kind="go", target="t"))
        scheduler.after(
            0.03, lambda: scheduler.post(Message(kind="tick", target="t")))
        scheduler.run()
        assert stamps[1] - stamps[0] >= 0.025
