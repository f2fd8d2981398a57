"""Component and port model.

Every pipeline stage is a :class:`Component` with named, directed
:class:`Port` s.  A component has a structural :class:`Role` (source, sink,
pump, buffer, transform, tee) that the glue layer uses to assign threads,
and — for transforms and passive endpoints — an activity
:class:`~repro.core.styles.Style` describing how its code is written.

Ports carry polarity; connections carry a *mode* (push or pull).  Fixing the
mode of one port may induce the mode of others through the component's
``mode_links`` ("when one end is connected to a port with a fixed polarity,
the other end of the filter or filter chain acquires an induced polarity").
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

from repro.core import events as ev
from repro.core.items import is_nil
from repro.core.naming import fresh_name
from repro.core.polarity import Direction, Mode, Polarity, polarity_for
from repro.core.typespec import Typespec
from repro.errors import PolarityError, PortError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.composition import Pipeline


class Role(enum.Enum):
    SOURCE = "source"
    SINK = "sink"
    PUMP = "pump"
    BUFFER = "buffer"
    TRANSFORM = "transform"
    TEE = "tee"


class Port:
    """One end of a component."""

    __slots__ = ("name", "direction", "component", "mode", "peer")

    def __init__(
        self,
        name: str,
        direction: Direction,
        component: "Component",
        mode: Mode | None = None,
    ):
        self.name = name
        self.direction = direction
        self.component = component
        #: Mode of the connection this port is on; ``None`` until resolved.
        self.mode = mode
        self.peer: Port | None = None

    @property
    def polarity(self) -> Polarity:
        """The paper's polarity view of this port (α while unresolved)."""
        return polarity_for(self.direction, self.mode)

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def qualified_name(self) -> str:
        return f"{self.component.name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Port {self.qualified_name()} {self.direction.value}"
            f" polarity={self.polarity}>"
        )


class Component:
    """Base class of every pipeline stage.

    Subclasses declare their structure with :meth:`add_in_port` /
    :meth:`add_out_port` (linear components get default ``in``/``out`` ports
    from the style base classes), their flow constraints through
    ``input_spec`` / ``output_props`` / :meth:`transform_typespec`, and their
    control-event interface through ``events_handled`` / ``on_<kind>``
    methods.
    """

    #: Structural role; overridden by subclasses.
    role: Role = Role.TRANSFORM
    #: Activity style (set by the style base classes; None for pumps etc.).
    style = None
    #: True for the components that own a thread (pumps, active endpoints:
    #: :class:`~repro.core.styles.ActivityOrigin`).
    is_activity_origin = False

    #: Typespec capability of the component's input(s).
    input_spec: Typespec = Typespec.any()
    #: Properties stamped onto the output flow (e.g. a decoder sets
    #: ``format="raw"``).
    output_props: dict[str, Any] = {}

    #: Event kinds this component reacts to (beyond ubiquitous start/stop).
    events_handled: frozenset[str] = frozenset()
    #: Event kinds this component sends to its neighbours; used for the
    #: pipeline operability check (section 2.3: "The capability of
    #: components to send or react to these control events is included in
    #: the Typespec to ensure that the resulting pipeline is operational").
    events_sent_upstream: frozenset[str] = frozenset()
    events_sent_downstream: frozenset[str] = frozenset()

    #: Pairs of port names whose connections must share one mode.  For
    #: linear transforms this defaults to (("in", "out"),): the α → α rule.
    mode_links: tuple[tuple[str, str], ...] = ()

    #: Flow-conservation claim checked by :mod:`repro.check.invariants`:
    #: None (default) means 1:1 — every item in comes out exactly once,
    #: minus declared drops and currently retained items.  Components with
    #: a different arity (batchers, fragmenters, multicast tees) set this
    #: to False to opt out of the count check.
    conserving: bool | None = None

    def __init__(self, name: str | None = None):
        self.name = name or fresh_name(type(self).__name__)
        self.ports: dict[str, Port] = {}
        # ``ports`` partitioned by direction, in declaration order; kept by
        # _add_port, the one place a port is declared.
        self._in_ports: tuple[Port, ...] = ()
        self._out_ports: tuple[Port, ...] = ()
        #: Item counters maintained by the runtime.
        self.stats: dict[str, int] = {"items_in": 0, "items_out": 0}
        self._cost_accumulator = 0.0
        # Wiring installed by the runtime before the pipeline starts:
        # per-out-port emit callables and per-in-port intake callables.
        self._emitters: dict[str, Callable[[Any], None]] = {}
        self._intakes: dict[str, Callable[[], Any]] = {}
        self._event_sender: Callable[[ev.Event], None] | None = None

    # ------------------------------------------------------------ ports

    def add_in_port(self, name: str = "in", mode: Mode | None = None) -> Port:
        return self._add_port(Port(name, Direction.IN, self, mode))

    def add_out_port(self, name: str = "out", mode: Mode | None = None) -> Port:
        return self._add_port(Port(name, Direction.OUT, self, mode))

    def _add_port(self, port: Port) -> Port:
        if port.name in self.ports:
            raise PortError(f"duplicate port {port.name!r} on {self.name!r}")
        self.ports[port.name] = port
        if port.direction is Direction.IN:
            self._in_ports += (port,)
        else:
            self._out_ports += (port,)
        return port

    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise PortError(f"{self.name!r} has no port {name!r}") from None

    @property
    def in_port(self) -> Port:
        return self.port("in")

    @property
    def out_port(self) -> Port:
        return self.port("out")

    def in_ports(self) -> tuple[Port, ...]:
        return self._in_ports

    def out_ports(self) -> tuple[Port, ...]:
        return self._out_ports

    # ------------------------------------------------------------ polarity

    def fix_port_mode(self, port_name: str, mode: Mode) -> None:
        """Fix a port's connection mode, propagating induced modes.

        Raises :class:`PolarityError` on conflict with an already-fixed mode.
        """
        port = self.port(port_name)
        if port.mode is mode:
            return
        if port.mode is not None:
            raise PolarityError(
                f"port {port.qualified_name()} already operates in "
                f"{port.mode} mode; cannot switch to {mode} "
                f"(polarity {port.polarity} is fixed)"
            )
        port.mode = mode
        # Induced polarity: propagate through same-mode links, then across
        # the connection to the peer component (filter chains).
        for a, b in self.mode_links:
            if a == port_name:
                self.fix_port_mode(b, mode)
            elif b == port_name:
                self.fix_port_mode(a, mode)
        if port.peer is not None and port.peer.mode is None:
            port.peer.component.fix_port_mode(port.peer.name, mode)

    # ------------------------------------------------------------ typespec

    def accepts(self) -> Typespec:
        """Typespec capability of this component's input."""
        return self.input_spec

    def transform_typespec(self, spec: Typespec) -> Typespec:
        """Derive the output flow Typespec from the (already intersected)
        input flow Typespec.  Default: pass through, stamping
        ``output_props``."""
        if not self.output_props:
            return spec
        return spec.with_props(**self.output_props)

    # ------------------------------------------------------------ events

    def handle_event(self, event: ev.Event) -> None:
        """Dispatch a control event to an ``on_<kind>`` method if present.

        The runtime guarantees handlers never run concurrently with this
        component's data-processing functions (synchronized objects,
        section 3.2).
        """
        method = getattr(self, "on_" + event.kind.replace("-", "_"), None)
        if method is not None:
            method(event)

    def send_event(
        self,
        kind: str,
        payload: Any = None,
        scope: ev.EventScope = ev.EventScope.BROADCAST,
        target: str | None = None,
    ) -> None:
        """Send a control event; requires the pipeline to be running."""
        if self._event_sender is None:
            raise PortError(
                f"{self.name!r} is not attached to a running pipeline; "
                "cannot send events"
            )
        self._event_sender(
            ev.Event(kind=kind, payload=payload, source=self.name,
                     scope=scope, target=target)
        )

    # ------------------------------------------------------------ CPU model

    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of simulated CPU time for the current data
        item (drained by the runtime into scheduler Work)."""
        if seconds < 0:
            raise ValueError("cannot charge negative CPU time")
        self._cost_accumulator += seconds

    def drain_cost(self) -> float:
        cost, self._cost_accumulator = self._cost_accumulator, 0.0
        return cost

    # ------------------------------------------------------------ runtime hooks

    def receive_push(self, item: Any, port: str = "in") -> None:
        """Entry point for a push arriving at ``port``.

        Multi-input components (tees) override this; linear consumers get
        the default dispatch to :meth:`push`.
        """
        push = getattr(self, "push", None)
        if push is None:
            raise PortError(f"{self.name!r} cannot receive a push")
        self.stats["items_in"] += 1
        push(item)

    def serve_pull(self, port: str = "out") -> Any:
        """Entry point for a pull arriving at ``port``.

        Multi-output components (activity routers) override this; linear
        producers get the default dispatch to :meth:`pull`.
        """
        pull = getattr(self, "pull", None)
        if pull is None:
            raise PortError(f"{self.name!r} cannot serve a pull")
        item = pull()
        if not ev.is_eos(item) and not is_nil(item):
            self.stats["items_out"] += 1
        return item

    # ------------------------------------------------------------ sugar

    def __rshift__(self, other) -> "Pipeline":
        from repro.core.composition import Pipeline

        return Pipeline.join(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

    # ------------------------------------------------------------ lifecycle

    def on_attach(self, context: Any) -> None:
        """Called by the runtime when the pipeline is set up."""

    def on_detach(self) -> None:
        """Called by the runtime when the pipeline shuts down."""
