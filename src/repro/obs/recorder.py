"""Flight recorder: a bounded ring of the scheduler's most recent events.

Full tracing (``Engine(pipe, trace=True)``) keeps *every* event and is the
right tool for golden tests and offline analysis — but it grows without
bound, so production runs leave it off and fly blind.  The flight recorder
is the middle ground: the scheduler's event stream flows into a fixed-size
ring (a ``deque`` with ``maxlen``), so after an incident the last *N*
events — who ran, what blocked, which message crashed a thread — are
always available, at a constant memory cost and with zero configuration.

Implementation-wise the ring *is* a bounded scheduler trace
(:meth:`repro.mbt.scheduler.Scheduler.enable_trace` with a limit), which
keeps one event-emission path in the scheduler and means every trace
consumer — :mod:`repro.mbt.tracing`, the Chrome/JSONL exporters — works on
a flight recording unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import InvariantViolation
from repro.mbt.scheduler import Scheduler
from repro.mbt.tracing import format_events

DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Keeps the scheduler's last ``capacity`` events in a ring."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._scheduler: Scheduler | None = None

    def attach(self, scheduler: Scheduler) -> "FlightRecorder":
        """Start recording on ``scheduler``.

        A no-op when the scheduler already traces (the full trace subsumes
        the ring); otherwise enables ring-bounded tracing.
        """
        scheduler.enable_trace(limit=self.capacity)
        self._scheduler = scheduler
        return self

    # ------------------------------------------------------------ reading

    @property
    def scheduler(self) -> Scheduler:
        if self._scheduler is None:
            raise RuntimeError("flight recorder is not attached")
        return self._scheduler

    def events(self) -> list[tuple]:
        """The retained events, oldest first."""
        return list(self.scheduler.trace)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since recording started."""
        return self.scheduler.trace_dropped

    def __len__(self) -> int:
        return len(self.scheduler.trace)

    @contextmanager
    def dump_on(
        self,
        *exc_types: type[BaseException],
        limit: int | None = None,
    ) -> Iterator["FlightRecorder"]:
        """Attach the last retained events to matching exceptions.

        Wrap the run (or the check) in this context manager and any
        escaping :class:`~repro.errors.InvariantViolation` — which covers
        :class:`~repro.errors.RefinementViolation` — carries the flight
        recording as an exception note, so the report that reaches the
        test log or the operator already contains the last *N* scheduler
        events leading up to the violation::

            recorder = FlightRecorder(256).attach(engine.scheduler)
            with recorder.dump_on():
                engine.run()

        ``exc_types`` overrides which exceptions get the dump; ``limit``
        caps how many of the retained events are attached (default: all
        of them).  The exception always propagates.
        """
        if not exc_types:
            exc_types = (InvariantViolation,)
        try:
            yield self
        except exc_types as exc:
            exc.add_note(
                "flight recorder (last "
                f"{min(limit, len(self)) if limit is not None else len(self)}"
                f" of {len(self)} retained events):\n"
                + self.format(limit=limit)
            )
            raise

    def format(self, limit: int | None = None) -> str:
        """Human-readable dump of the retained events, newest last."""
        events = self.events()
        if limit is not None:
            events = events[-limit:]
        if not events:
            return "(no events retained)"
        dropped = self.dropped
        return format_events(
            events,
            header=f"... ({dropped} earlier events evicted)" if dropped else "",
        )
