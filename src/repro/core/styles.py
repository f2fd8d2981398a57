"""Activity styles for pipeline components (paper section 3.3).

"Altogether, there are four styles of components.  Active object
implementations provide a thread-like main function.  Passive objects are
consumers implementing push, producers implementing pull, or are based on a
conversion function."

* :class:`Consumer` — override ``push(item)``; emit downstream with
  ``self.put(item)`` (zero or more times per push).
* :class:`Producer` — override ``pull() -> item``; obtain upstream items
  with ``self.get()`` (zero or more times per pull).
* :class:`FunctionComponent` — override ``convert(item) -> item``; exactly
  one output per input, usable in either mode with trivial glue.
* :class:`ActiveComponent` — override ``run()`` as a generator whose
  suspension points are ``yield self.pull()`` and ``yield self.push(item)``
  — the Python rendering of the paper's free-form main loop.  Components
  written for the OS-thread backend instead override ``run_blocking(api)``
  and make genuinely blocking ``api.pull()`` / ``api.push(item)`` calls.

Whichever style a component is written in, the glue layer
(:mod:`repro.core.glue`) adapts it to the push or pull mode its position in
the pipeline requires, so "existing code can be reused regardless of its
activity model".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.component import Component, Role
from repro.errors import RuntimeFault


class Style(enum.Enum):
    ACTIVE = "active"
    CONSUMER = "consumer"
    PRODUCER = "producer"
    FUNCTION = "function"

    def __str__(self) -> str:
        return self.value


class EndOfStream(Exception):
    """Raised by ``get()`` / resumed into ``yield self.pull()`` when the
    upstream flow has ended.  Active components may catch it to flush
    internal state; if it escapes, the runtime forwards EOS downstream."""


# -- requests yielded by active components ------------------------------------


@dataclass(slots=True)
class PullOp:
    """Request one item from the named in-port."""

    port: str = "in"


@dataclass(slots=True)
class PushOp:
    """Deliver one item to the named out-port."""

    item: Any = None
    port: str = "out"


# -- activity origins ----------------------------------------------------------


class ActivityOrigin(Component):
    """A component that owns a thread: a pump or an active endpoint.

    Everything :class:`~repro.runtime.engine.PumpDriver` reads off the
    component whose section it runs is declared here with a default
    (docs/RUNTIME.md, "Seams and their contracts"); subclasses set what
    their constructor offers and add their ports.
    """

    is_activity_origin = True
    events_handled = frozenset({"start", "stop", "pause", "resume"})

    #: Ticks per second; None cycles as fast as the pipeline allows.
    rate_hz: float | None = None
    #: CPU fraction reserved with the scheduler at setup.
    reservation: float | None = None
    #: When set, every tick carries a deadline of tick-time + slack.
    deadline_slack: float | None = None
    #: Stop after this many items.
    max_items: int | None = None
    #: Overrides the engine's ``batch_max`` for this origin alone.
    batch_max: int | None = None
    #: Set by the runtime on a clocked origin: applies a new rate to the
    #: live timer.
    _rate_listener = None

    def __init__(self, name: str | None = None, priority: int = 0):
        super().__init__(name)
        #: Static priority of the origin's thread, and the constraint
        #: priority of the data messages it originates.
        self.priority = priority
        self.running = False

    @property
    def timing(self) -> str:
        """``"clocked"`` origins tick on a timer; ``"greedy"`` ones cycle
        continuously."""
        return "greedy" if self.rate_hz is None else "clocked"

    def period(self) -> float | None:
        """Seconds between ticks; None for a greedy origin."""
        return None if self.rate_hz is None else 1.0 / self.rate_hz

    def on_start(self, event) -> None:
        self.running = True

    def on_stop(self, event) -> None:
        self.running = False

    def on_pause(self, event) -> None:
        self.running = False

    def on_resume(self, event) -> None:
        self.running = True


# -- the four styles -----------------------------------------------------------


class _LinearComponent(Component):
    """Shared helper: a component with one ``in`` and one ``out`` port whose
    connections share a single mode (the α → α rule)."""

    mode_links = (("in", "out"),)

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self.add_in_port()
        self.add_out_port()


class Consumer(_LinearComponent):
    """Passive component implementing ``push``."""

    style = Style.CONSUMER
    role = Role.TRANSFORM

    def push(self, item: Any) -> None:
        raise NotImplementedError

    def put(self, item: Any, port: str = "out") -> None:
        """Emit ``item`` downstream (valid only while the pipeline runs)."""
        emit = self._emitters.get(port)
        if emit is None:
            raise RuntimeFault(
                f"{self.name!r}: put() on port {port!r} outside a running "
                "pipeline"
            )
        self.stats["items_out"] += 1
        emit(item)


class Producer(_LinearComponent):
    """Passive component implementing ``pull``.

    .. note::
       Under the default generator backend ``pull()`` may be *re-executed
       from the start* (see :mod:`repro.runtime.bridge`): always when the
       Producer is used in push mode, and in pull mode whenever a ``get()``
       had to wait — its port is fed across a buffer gate, a segment lock
       or a coroutine crossing, or the directly called upstream answered
       NIL.  A ``get()`` whose upstream is plain code of the same section
       is an ordinary call, and ``pull()`` then runs once per output.
       ``pull()`` should therefore be deterministic and free of external
       side effects until it completes — the natural shape for passive
       producers.  ``charge()`` follows the attempts: over a replayed port
       each aborted attempt bills what it charged before the abort, so
       charge after the last ``get()`` to be billed once per output
       everywhere.  The OS-thread backend has no such restriction.
    """

    style = Style.PRODUCER
    role = Role.TRANSFORM

    def pull(self) -> Any:
        raise NotImplementedError

    def get(self, port: str = "in") -> Any:
        """Obtain the next upstream item (valid only while running)."""
        intake = self._intakes.get(port)
        if intake is None:
            raise intake_fault(self, port)
        return intake()


def intake_fault(component: Component, port: str) -> RuntimeFault:
    """What a ``get()`` that finds no reader for ``port`` raises."""
    ports = ", ".join(map(repr, component._intakes))
    reason = f"it reads {ports}" if ports else "outside a running pipeline"
    return RuntimeFault(f"{component.name!r}: get() on port {port!r}: {reason}")


class FunctionComponent(_LinearComponent):
    """Passive one-to-one conversion function.

    The glue code for the respective modes is exactly the paper's:
    ``push(x) -> next.push(fct(x))`` and ``pull() -> fct(prev.pull())``.
    """

    style = Style.FUNCTION
    role = Role.TRANSFORM

    def convert(self, item: Any) -> Any:
        raise NotImplementedError

    def convert_many(self, items: list) -> list:
        """Vectorized conversion used by the batched data plane.

        Must behave exactly like ``[convert(x) for x in items]`` — one
        output per input, in order — which is what this default does.
        Override it only to amortize per-call overhead (e.g. one codec
        invocation for a whole run); the 1:1 in-order contract is what
        keeps batch runs per-item observable.
        """
        convert = self.convert
        return [convert(item) for item in items]


class ActiveComponent(_LinearComponent):
    """Component with a thread-like main function.

    Generator style (default backend)::

        class Doubler(ActiveComponent):
            def run(self):
                while True:
                    x = yield self.pull()
                    yield self.push(x)
                    yield self.push(x)

    Blocking style (OS-thread backend)::

        class Doubler(ActiveComponent):
            def run_blocking(self, api):
                while True:
                    x = api.pull()
                    api.push(x)
                    api.push(x)
    """

    style = Style.ACTIVE
    role = Role.TRANSFORM

    def run(self):
        raise NotImplementedError(
            f"{type(self).__name__} must override run() "
            "(or run_blocking() for the OS-thread backend)"
        )

    def run_blocking(self, api) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must override run_blocking() "
            "to be used with the OS-thread backend"
        )

    def has_blocking_body(self) -> bool:
        return type(self).run_blocking is not ActiveComponent.run_blocking

    def has_generator_body(self) -> bool:
        return type(self).run is not ActiveComponent.run

    # -- requests usable inside run() ------------------------------------

    def pull(self, port: str = "in") -> PullOp:
        return PullOp(port)

    def push(self, item: Any, port: str = "out") -> PushOp:
        return PushOp(item, port)
