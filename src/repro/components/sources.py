"""Sources.

"Sources and sinks have only one end, and can be either active or passive."
A passive source is pulled by the pump of its section (it is a boundary,
like a buffer's out-end); an active source has its own timing and drives the
section itself (it is an activity origin, like a pump).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.component import Component, Role
from repro.core.events import EOS
from repro.core.items import NIL
from repro.core.polarity import Mode
from repro.core.styles import ActivityOrigin, Style
from repro.core.typespec import Typespec


class Source(Component):
    """Base class for passive sources (pulled by the downstream pump)."""

    role = Role.SOURCE
    style = Style.PRODUCER

    #: Typespec of the flow this source produces; subclasses or callers set
    #: concrete properties ("Sources typically supply one or more possible
    #: data formats along with information on the achievable QoS").
    flow_spec: Typespec = Typespec.any()

    def __init__(self, name: str | None = None, flow_spec: Typespec | None = None):
        super().__init__(name)
        self.add_out_port(mode=Mode.PULL)
        if flow_spec is not None:
            self.flow_spec = flow_spec

    def transform_typespec(self, spec: Typespec) -> Typespec:
        return spec.intersect(
            self.flow_spec, context=f"flow produced by {self.name!r}"
        )

    def pull(self) -> Any:
        """Produce the next item, or EOS when exhausted."""
        raise NotImplementedError


class IterSource(Source):
    """Passive source draining a Python iterable, then emitting EOS."""

    def __init__(
        self,
        items: Iterable,
        name: str | None = None,
        flow_spec: Typespec | None = None,
    ):
        super().__init__(name, flow_spec)
        self._iterator = iter(items)

    def pull(self) -> Any:
        for item in self._iterator:
            return item
        return EOS

    def pull_many(self, n: int) -> list:
        """Run entry: what up to ``n`` :meth:`pull` calls would deliver —
        data first, a trailing EOS once the iterable is exhausted.  A NIL
        or EOS *inside* the iterable ends the run where the per-item
        walker would stop pulling, so nothing behind it is drawn early
        (which is why this is a loop and not one ``islice``)."""
        run: list = []
        for item in self._iterator:
            if item is NIL:
                return run
            run.append(item)
            if item is EOS or len(run) >= n:
                return run
        run.append(EOS)
        return run


class CallbackSource(Source):
    """Passive source calling ``producer()`` for each pull.

    The callback may return EOS to end the stream.  There is no run entry:
    the callback *is* per-item user code, so a batched pump loops it.
    """

    def __init__(
        self,
        producer: Callable[[], Any],
        name: str | None = None,
        flow_spec: Typespec | None = None,
    ):
        super().__init__(name, flow_spec)
        self._producer = producer

    def pull(self) -> Any:
        return self._producer()


class CountingSource(Source):
    """Passive source yielding 0, 1, 2, ... (optionally bounded)."""

    def __init__(
        self,
        limit: int | None = None,
        name: str | None = None,
        flow_spec: Typespec | None = None,
    ):
        super().__init__(name, flow_spec)
        self.limit = limit
        self._next = 0

    def pull(self) -> Any:
        if self.limit is not None and self._next >= self.limit:
            return EOS
        value = self._next
        self._next += 1
        return value

    def pull_many(self, n: int) -> list:
        """Run entry: the next ``n`` integers, ending in EOS where the
        limit cuts the run short."""
        start = self._next
        stop = start + n
        if self.limit is not None and stop > self.limit:
            stop = max(self.limit, start)
        self._next = stop
        run = list(range(start, stop))
        if len(run) < n:
            run.append(EOS)
        return run


class ActiveSource(ActivityOrigin):
    """Base class for active (self-timed) sources.

    An active source is an activity origin: it owns the thread that pushes
    items into its section, at ``rate_hz`` when given ("Audio devices that
    have their own timing control" are the paper's example of active,
    clock-driven endpoints), or greedily when ``rate_hz`` is None.

    Subclasses override :meth:`generate`, returning one item per tick (or
    EOS to stop).
    """

    role = Role.SOURCE
    style = Style.ACTIVE

    def __init__(
        self,
        rate_hz: float | None = None,
        name: str | None = None,
        priority: int = 0,
        max_items: int | None = None,
    ):
        super().__init__(name, priority)
        self.add_out_port(mode=Mode.PUSH)
        if rate_hz is not None and rate_hz <= 0:
            raise ValueError("source rate must be positive")
        self.rate_hz = rate_hz
        self.max_items = max_items

    def generate(self) -> Any:
        raise NotImplementedError


class TickingSource(ActiveSource):
    """Active source calling ``producer()`` on each tick."""

    def __init__(
        self,
        producer: Callable[[], Any],
        rate_hz: float | None = None,
        name: str | None = None,
        priority: int = 0,
        max_items: int | None = None,
    ):
        super().__init__(rate_hz, name, priority, max_items)
        self._producer = producer

    def generate(self) -> Any:
        return self._producer()
