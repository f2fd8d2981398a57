"""Control events (paper section 2.2).

Besides data items, Infopipe components exchange *control events*: local
interaction between adjacent components (a display telling the resizer about
a new window size, a sink releasing a decoder's shared reference frame) and
global broadcast events (user commands such as START and STOP delivered
"to potentially many components" through an event service).

Control events are delivered with higher priority than data processing
(:data:`EVENT_PRIORITY`), are queued while a component's data-processing
function is running, and can be delivered while a component's thread is
blocked in a push or pull — the runtime (:mod:`repro.runtime`) implements
those guarantees; this module defines the vocabulary.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RuntimeFault
from repro.mbt.constraints import Constraint

#: Message-constraint priority of control events; data uses priority 0, so
#: events overtake queued data ("their handlers are executed with higher
#: priority than potentially long-running data processing").
EVENT_PRIORITY = 10

#: Constraint attached to every event message.
EVENT_CONSTRAINT = Constraint(priority=EVENT_PRIORITY)


class EventScope(enum.Enum):
    """How far an event travels."""

    #: To every component of the pipeline (user commands: START, STOP, ...).
    BROADCAST = "broadcast"
    #: To the component immediately upstream of the sender.
    UPSTREAM = "upstream"
    #: To the component immediately downstream of the sender.
    DOWNSTREAM = "downstream"
    #: To one named component.
    DIRECT = "direct"


_event_ids = itertools.count(1)


@dataclass(slots=True)
class Event:
    """A control event."""

    kind: str
    payload: Any = None
    source: str = ""
    scope: EventScope = EventScope.BROADCAST
    target: str | None = None
    event_id: int = field(default_factory=lambda: next(_event_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.target if self.target else self.scope.value
        return f"<Event {self.kind!r} from={self.source or '?'} to={where}>"


# -- standard event kinds ----------------------------------------------------

START = "start"
STOP = "stop"
PAUSE = "pause"
RESUME = "resume"
FLUSH = "flush"
QOS_REPORT = "qos-report"
WINDOW_RESIZE = "window-resize"
FRAME_RELEASE = "frame-release"
SET_DROP_LEVEL = "set-drop-level"
SET_RATE = "set-rate"


# -- end of stream ------------------------------------------------------------


class _Eos:
    """Singleton end-of-stream marker that flows through the pipeline."""

    _instance: "_Eos | None" = None

    def __new__(cls) -> "_Eos":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EOS"


#: End-of-stream marker: a finite source emits it once; the runtime forwards
#: it through every stage (without invoking user data functions) and stops
#: the affected pumps.
EOS = _Eos()


def is_eos(item: Any) -> bool:
    return item is EOS


# -- event service ------------------------------------------------------------


class EventService:
    """Distributes control events to registered receivers.

    Receivers are registered per component name with a delivery function;
    the runtime registers one that posts a prioritized message to the
    component's owning thread, while unit tests may register synchronous
    callbacks.  Remote pipelines bridge broadcasts across nodes by
    registering a relay receiver (see :mod:`repro.net.remote`).
    """

    def __init__(self):
        self._receivers: dict[str, Callable[[Event], None]] = {}
        self._relays: list[Callable[[Event], None]] = []
        #: Every event that passed through, for inspection by tests.
        self.history: list[Event] = []

    def register(self, name: str, deliver: Callable[[Event], None]) -> None:
        if name in self._receivers:
            raise RuntimeFault(f"duplicate event receiver {name!r}")
        self._receivers[name] = deliver

    def unregister(self, name: str) -> None:
        self._receivers.pop(name, None)

    def add_relay(self, relay: Callable[[Event], None]) -> None:
        """Relays receive every broadcast (used for cross-node delivery)."""
        self._relays.append(relay)

    def broadcast(self, event: Event) -> None:
        """Deliver a broadcast event to every receiver (except its source)
        and every relay."""
        self.history.append(event)
        for name, deliver in list(self._receivers.items()):
            if name == event.source:
                continue
            deliver(event)
        for forward in self._relays:
            forward(event)

    def send_to(self, name: str, event: Event) -> None:
        """Deliver an event to one named receiver."""
        deliver = self._receivers.get(name)
        if deliver is None:
            raise RuntimeFault(f"no event receiver named {name!r}")
        self.history.append(event)
        deliver(event)
