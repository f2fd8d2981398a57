"""Pumps — the activity origins of a pipeline (paper section 3.1).

"Pumps encapsulate the timing control of the data stream.  Each pump has a
thread that operates the pipeline as far as the next passive components up-
and downstream."  The application programmer chooses timing and scheduling
policy simply by choosing a pump and setting its parameters; thread creation
and scheduler interaction stay hidden in the runtime.

The paper identifies two classes of pumps, both provided here:

* **clock-driven** (:class:`ClockedPump`) — operates at a constant rate,
  typically with passive sources and sinks;
* **self-adjusting** — :class:`GreedyPump` ("does not limit its rate at all
  and relies on buffers to block the thread when a buffer is full or
  empty") and :class:`FeedbackPump`, whose rate is adjusted by a feedback
  mechanism (e.g. to compensate for clock drift on the producer node of a
  distributed pipeline).
"""

from __future__ import annotations

from repro.core.component import Role
from repro.core.polarity import Mode
from repro.core.styles import ActivityOrigin


class Pump(ActivityOrigin):
    """Base class of all pumps.

    Parameters
    ----------
    priority:
        Static priority of the pump's thread; also the constraint priority
        attached to the data messages it originates, which propagates
        through its whole coroutine set ("the pump controls the scheduling
        in its part of the pipeline across coroutine boundaries").
    reservation:
        Optional CPU fraction to reserve with the scheduler at setup.
    """

    role = Role.PUMP

    def __init__(
        self,
        name: str | None = None,
        priority: int = 0,
        reservation: float | None = None,
    ):
        super().__init__(name, priority)
        self.add_in_port(mode=Mode.PULL)
        self.add_out_port(mode=Mode.PUSH)
        self.reservation = reservation


class ClockedPump(Pump):
    """Pump driven by a constant-rate clock.

    ``ClockedPump(30)`` moves one item through its section every 1/30 s —
    the paper's ``clocked_pump pump(30); // 30 Hz``.
    """

    def __init__(
        self,
        rate_hz: float,
        name: str | None = None,
        priority: int = 0,
        reservation: float | None = None,
        deadline_slack: float | None = None,
    ):
        if rate_hz <= 0:
            raise ValueError("pump rate must be positive")
        super().__init__(name, priority=priority, reservation=reservation)
        self.rate_hz = float(rate_hz)
        #: When set, every tick carries a deadline of tick-time + slack,
        #: so the scheduler favours the pump with the tighter timing need
        #: among equals ("they can assign and readjust thread scheduling
        #: parameters as the pipeline runs", section 3.1).
        self.deadline_slack = deadline_slack


class GreedyPump(Pump):
    """Pump that cycles as fast as the pipeline allows.

    It "does not limit its rate at all and relies on buffers to block the
    thread when a buffer is full or empty".  ``max_items`` optionally stops
    the pump after a fixed number of items (useful for batch workloads and
    tests); ``batch_max`` optionally overrides the engine's ``batch_max``
    for this pump alone (docs/RUNTIME.md §11).
    """

    def __init__(
        self,
        name: str | None = None,
        priority: int = 0,
        max_items: int | None = None,
        reservation: float | None = None,
        batch_max: int | None = None,
    ):
        super().__init__(name, priority=priority, reservation=reservation)
        self.max_items = max_items
        if batch_max is not None and batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        self.batch_max = batch_max


class FeedbackPump(Pump):
    """Clock-driven pump whose rate is adjusted at run time.

    The rate changes either through the :meth:`set_rate` actuator interface
    (used by :mod:`repro.feedback`) or through a ``set-rate`` control event
    — e.g. a consumer-side controller compensating for clock drift and
    network latency variation on the producer node of a distributed
    pipeline.
    """

    events_handled = Pump.events_handled | frozenset({"set-rate"})

    def __init__(
        self,
        initial_rate_hz: float,
        name: str | None = None,
        priority: int = 0,
        min_rate_hz: float = 0.1,
        max_rate_hz: float = 10_000.0,
        reservation: float | None = None,
    ):
        if initial_rate_hz <= 0:
            raise ValueError("pump rate must be positive")
        super().__init__(name, priority=priority, reservation=reservation)
        self.rate_hz = float(initial_rate_hz)
        self.min_rate_hz = float(min_rate_hz)
        self.max_rate_hz = float(max_rate_hz)
        #: History of (time-agnostic) applied rates, for tests/telemetry.
        self.rate_changes: list[float] = []

    def set_rate(self, rate_hz: float) -> None:
        clamped = min(max(rate_hz, self.min_rate_hz), self.max_rate_hz)
        self.rate_hz = clamped
        self.rate_changes.append(clamped)
        if self._rate_listener is not None:
            self._rate_listener(clamped)

    def on_set_rate(self, event) -> None:
        self.set_rate(float(event.payload))
