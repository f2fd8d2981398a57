"""Sinks.

A passive sink is pushed into by the pump of its section; an active sink
has its own timing and pulls — the paper's example being an audio device
"implemented as a clock-driven active sink".
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable

from repro.core.component import Component, Role
from repro.core.polarity import Mode
from repro.core.styles import ActivityOrigin, Style
from repro.core.typespec import Typespec


class Sink(Component):
    """Base class for passive sinks (pushed into by the upstream pump)."""

    role = Role.SINK
    style = Style.CONSUMER

    #: Typespec capability of this sink ("[Sinks] likewise support certain
    #: data formats and ranges of QoS parameters").
    input_spec: Typespec = Typespec.any()

    def __init__(self, name: str | None = None, input_spec: Typespec | None = None):
        super().__init__(name)
        self.add_in_port(mode=Mode.PUSH)
        if input_spec is not None:
            self.input_spec = input_spec

    def push(self, item: Any) -> None:
        raise NotImplementedError


class CollectSink(Sink):
    """Passive sink collecting items into a list (ubiquitous in tests)."""

    def __init__(
        self,
        name: str | None = None,
        input_spec: Typespec | None = None,
        limit: int | None = None,
    ):
        super().__init__(name, input_spec)
        self.items: list[Any] = []
        self.limit = limit

    def push(self, item: Any) -> None:
        if self.limit is None or len(self.items) < self.limit:
            self.items.append(item)

    def push_many(self, items) -> None:
        """Run entry: one ``extend`` for a pure-data run, kept to
        ``limit`` exactly as per-item :meth:`push` calls would."""
        if self.limit is None:
            self.items.extend(items)
        else:
            room = self.limit - len(self.items)
            if room > 0:
                self.items.extend(islice(items, room))


class CallbackSink(Sink):
    """Passive sink invoking ``consumer(item)`` per item (no run entry:
    the callback *is* per-item user code)."""

    def __init__(
        self,
        consumer: Callable[[Any], None],
        name: str | None = None,
        input_spec: Typespec | None = None,
    ):
        super().__init__(name, input_spec)
        self._consumer = consumer

    def push(self, item: Any) -> None:
        self._consumer(item)


class NullSink(Sink):
    """Passive sink discarding everything (counting it in ``stats``)."""

    def push(self, item: Any) -> None:
        pass

    def push_many(self, items) -> None:
        pass


class ActiveSink(ActivityOrigin):
    """Base class for active (self-timed) sinks.

    An active sink is an activity origin: its thread pulls one item per
    tick from the upstream section and consumes it.  Subclasses override
    :meth:`consume`.
    """

    role = Role.SINK
    style = Style.ACTIVE

    input_spec: Typespec = Typespec.any()

    def __init__(
        self,
        rate_hz: float | None = None,
        name: str | None = None,
        priority: int = 0,
        max_items: int | None = None,
        input_spec: Typespec | None = None,
    ):
        super().__init__(name, priority)
        self.add_in_port(mode=Mode.PULL)
        if rate_hz is not None and rate_hz <= 0:
            raise ValueError("sink rate must be positive")
        self.rate_hz = rate_hz
        self.max_items = max_items
        if input_spec is not None:
            self.input_spec = input_spec

    def consume(self, item: Any) -> None:
        raise NotImplementedError


class ActiveCollectSink(ActiveSink):
    """Active sink collecting items (with arrival timestamps when given a
    clock callback)."""

    def __init__(
        self,
        rate_hz: float | None = None,
        name: str | None = None,
        priority: int = 0,
        max_items: int | None = None,
        now: Callable[[], float] | None = None,
    ):
        super().__init__(rate_hz, name, priority, max_items)
        self.items: list[Any] = []
        self.arrivals: list[float] = []
        self._now = now

    def consume(self, item: Any) -> None:
        self.items.append(item)
        if self._now is not None:
            self.arrivals.append(self._now())
