"""Actuators: applying control outputs to pipeline components.

Actuation goes through the event service, not through direct method calls:
the actuated component's handler then runs in its own thread with the
synchronized-object guarantees of section 3.2, and a loop spanning nodes
pays the control-channel latency automatically.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.component import Component
from repro.core.events import Event, EventService


class Actuator:
    """Base class: ``apply(signal)`` pushes the control output out."""

    def bind(self, events: EventService) -> None:
        self._events = events

    def apply(self, signal: float) -> None:
        raise NotImplementedError


class EventActuator(Actuator):
    """Sends an event carrying the (transformed) signal to one component;
    a payload equal to the last one sent is not sent again."""

    def __init__(
        self,
        target: Component,
        kind: str,
        transform: Callable[[float], Any] | None = None,
    ):
        self.target = target
        self.kind = kind
        self.transform = transform or (lambda s: s)
        self._last_payload: Any = object()
        self._events: EventService | None = None
        #: Actuations actually sent (after change suppression).
        self.applied: list[Any] = []

    def apply(self, signal: float) -> None:
        if self._events is None:
            raise RuntimeError("actuator not bound to an event service")
        payload = self.transform(signal)
        if payload == self._last_payload:
            return
        self._last_payload = payload
        self.applied.append(payload)
        self._events.send_to(
            self.target.name,
            Event(kind=self.kind, payload=payload, source="feedback"),
        )


class DropLevelActuator(EventActuator):
    """Sets the drop level of a dropping filter (Figure 1: "The dropping is
    controlled by a feedback mechanism using a sensor on the consumer
    side")."""

    def __init__(self, drop_filter: Component):
        super().__init__(
            drop_filter, kind="set-drop-level", transform=lambda s: int(round(s))
        )


class PumpRateActuator(EventActuator):
    """Adjusts a FeedbackPump's rate — e.g. compensating for clock drift on
    the producer node of a distributed pipeline (section 3.1)."""

    def __init__(self, pump: Component):
        super().__init__(pump, kind="set-rate", transform=float)
