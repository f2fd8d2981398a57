"""Timer-to-message services.

The substrate maps timer expirations to ordinary messages, so threads handle
ticks through the same uniform message interface as everything else (paper
section 4: "network packets and signals from the operating system are mapped
to messages by the platform").
"""

from __future__ import annotations

from typing import Any

from repro.mbt.constraints import Constraint
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler, TimerHandle


class PeriodicTimer:
    """Drift-free periodic tick source for clocked pumps.

    Each tick is scheduled at ``origin + n * period`` rather than "now +
    period", so long runs do not accumulate drift even when tick processing
    is delayed.
    """

    __slots__ = (
        "_scheduler",
        "_target",
        "_period",
        "_kind",
        "_payload",
        "_constraint",
        "_constraint_fn",
        "_next_time",
        "_handle",
        "_running",
        "ticks",
    )

    def __init__(
        self,
        scheduler: Scheduler,
        target: str,
        period: float,
        kind: str = "tick",
        payload: Any = None,
        constraint: Constraint | None = None,
        constraint_fn=None,
    ):
        """``constraint_fn(fire_time) -> Constraint`` computes a fresh
        constraint per tick (e.g. a deadline relative to the tick time);
        it takes precedence over the static ``constraint``."""
        if period <= 0:
            raise ValueError("period must be positive")
        self._scheduler = scheduler
        self._target = target
        self._period = float(period)
        self._kind = kind
        self._payload = payload
        self._constraint = constraint
        self._constraint_fn = constraint_fn
        self._next_time: float | None = None
        self._handle: TimerHandle | None = None
        self._running = False
        #: Number of ticks posted so far.
        self.ticks = 0

    @property
    def period(self) -> float:
        return self._period

    @period.setter
    def period(self, value: float) -> None:
        """Adjust the rate on the fly (used by feedback-driven pumps)."""
        if value <= 0:
            raise ValueError("period must be positive")
        self._period = float(value)

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._next_time = self._scheduler.now()
        self._schedule()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _schedule(self) -> None:
        assert self._next_time is not None
        self._handle = self._scheduler.at(self._next_time, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        constraint = self._constraint
        if self._constraint_fn is not None:
            constraint = self._constraint_fn(self._scheduler.now())
        self._scheduler.post(
            Message(
                kind=self._kind,
                payload=self._payload,
                sender="timer",
                target=self._target,
                constraint=constraint,
            )
        )
        assert self._next_time is not None
        self._next_time += self._period
        now = self._scheduler.now()
        if self._next_time <= now:
            # Processing overran one or more periods; skip to the future
            # rather than flooding the mailbox with stale ticks.
            periods_missed = int((now - self._next_time) / self._period) + 1
            self._next_time += periods_missed * self._period
        self._schedule()
