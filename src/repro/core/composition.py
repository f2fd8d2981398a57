"""Pipeline composition (sections 2.1 and 2.3).

Components are composed with the ``>>`` operator — exactly the high-level
interface the paper demonstrates::

    source >> decode >> pump >> sink

``>>`` connects the single free out-port of its left operand to the single
free in-port of its right operand.  Non-linear topologies (tees) use
:func:`connect` on explicit ports and merge the operands' pipelines.

Every connection performs the paper's dynamic checks:

* **polarity** — fixed polarities must be opposite; polymorphic (α) ports
  acquire induced polarities that propagate through filter chains;
* **typespec** — flow Typespecs are derived incrementally from the sources
  forward through each component's Typespec transformation, and a connection
  whose intersection is empty raises
  :class:`~repro.errors.TypespecMismatch` ("If the components were not
  compatible, the composition operator >> would throw an exception").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.component import Component, Port, Role
from repro.core.polarity import Direction
from repro.core.typespec import Typespec
from repro.errors import CompositionError, PortError, TypespecMismatch

__all__ = ["Pipeline", "connect", "pipeline"]


def connect(out_port: Port, in_port: Port, check_typespecs: bool = True) -> None:
    """Connect an out-port to an in-port, checking polarity (and letting the
    owning pipelines re-derive Typespecs if requested)."""
    if out_port.direction is not Direction.OUT:
        raise PortError(f"{out_port.qualified_name()} is not an out-port")
    if in_port.direction is not Direction.IN:
        raise PortError(f"{in_port.qualified_name()} is not an in-port")
    if out_port.peer is not None:
        raise PortError(f"{out_port.qualified_name()} is already connected")
    if in_port.peer is not None:
        raise PortError(f"{in_port.qualified_name()} is already connected")
    if (
        out_port.mode is not None
        and in_port.mode is not None
        and out_port.mode is not in_port.mode
    ):
        raise CompositionError(
            f"cannot connect {out_port.qualified_name()} "
            f"(polarity {out_port.polarity}) to {in_port.qualified_name()} "
            f"(polarity {in_port.polarity}): same polarity on both ports"
        )

    out_port.peer = in_port
    in_port.peer = out_port

    # Induce polarity across the new connection.
    if out_port.mode is not None and in_port.mode is None:
        in_port.component.fix_port_mode(in_port.name, out_port.mode)
    elif in_port.mode is not None and out_port.mode is None:
        out_port.component.fix_port_mode(out_port.name, in_port.mode)

    if check_typespecs:
        derive_typespecs(reachable_components(out_port.component))


class Pipeline:
    """A set of connected components.

    A Pipeline is itself component-like: it can be extended with ``>>``, it
    exposes free ports, and its end-to-end Typespec can be queried —
    "facilitating the composition of larger building blocks and the
    construction of incremental pipelines".
    """

    def __init__(self, components: Iterable[Component] = ()):
        #: Members in insertion order (a dict as an ordered set).
        self._components: dict[Component, None] = dict.fromkeys(components)

    # ------------------------------------------------------------ building

    def add(self, component: Component) -> Component:
        self._components.setdefault(component)
        return component

    @staticmethod
    def join(left, right) -> "Pipeline":
        """Implements ``left >> right`` for components and pipelines."""
        left_pipe = left if isinstance(left, Pipeline) else Pipeline([left])
        right_pipe = right if isinstance(right, Pipeline) else Pipeline([right])
        out_port = left_pipe.free_out_port()
        in_port = right_pipe.free_in_port()
        merged = Pipeline(left_pipe._components | right_pipe._components)
        connect(out_port, in_port, check_typespecs=False)
        merged.derive_typespecs()
        return merged

    def __rshift__(self, other) -> "Pipeline":
        return Pipeline.join(self, other)

    def connect(self, out_port: Port, in_port: Port) -> "Pipeline":
        """Connect two ports of components belonging to this pipeline
        (explicit form used for tees)."""
        for port in (out_port, in_port):
            self.add(port.component)
        connect(out_port, in_port, check_typespecs=False)
        self.derive_typespecs()
        return self

    # ------------------------------------------------------------ queries

    @property
    def components(self) -> list[Component]:
        return list(self._components)

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __contains__(self, component: Component) -> bool:
        return component in self._components

    def component(self, name: str) -> Component:
        for candidate in self._components:
            if candidate.name == name:
                return candidate
        raise PortError(f"no component named {name!r} in pipeline")

    def free_in_ports(self) -> list[Port]:
        return _free_in_ports(self._components)

    def free_out_ports(self) -> list[Port]:
        return _free_out_ports(self._components)

    def free_in_port(self) -> Port:
        return _single(self.free_in_ports(), "free in-port")

    def free_out_port(self) -> Port:
        return _single(self.free_out_ports(), "free out-port")

    def sources(self) -> list[Component]:
        return [c for c in self._components if c.role is Role.SOURCE]

    def sinks(self) -> list[Component]:
        return [c for c in self._components if c.role is Role.SINK]

    def is_complete(self) -> bool:
        """True when every port of every component is connected."""
        return not self.free_in_ports() and not self.free_out_ports()

    # ------------------------------------------------------------ typespec

    def derive_typespecs(self) -> dict[str, Typespec]:
        """(Re-)derive the flow Typespec on every connection.

        Returns a mapping from ``"component.port"`` (out-port side) to the
        derived Typespec, raising :class:`TypespecMismatch` on conflict.
        """
        return derive_typespecs(self._components)

    def typespec_at(self, port: Port) -> Typespec:
        """The derived flow Typespec on the connection at ``port``."""
        specs = self.derive_typespecs()
        if port.direction is Direction.OUT:
            key_port = port
        else:
            if port.peer is None:
                raise PortError(f"{port.qualified_name()} is not connected")
            key_port = port.peer
        return specs[key_port.qualified_name()]

    def end_to_end_typespec(self) -> Typespec:
        """Typespec of the flow arriving at the (single) sink."""
        sinks = self.sinks()
        if len(sinks) != 1:
            raise PortError(
                f"end_to_end_typespec() needs exactly one sink, "
                f"found {len(sinks)}"
            )
        return self.typespec_at(sinks[0].in_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " >> ".join(c.name for c in self._components)
        return f"<Pipeline {names}>"


def pipeline(*components: Component) -> Pipeline:
    """Build a linear pipeline: ``pipeline(a, b, c)`` == ``a >> b >> c``,
    its Typespecs derived once, not after every join (a forward fold: the
    first mismatch and its message are the same), and each part's ports
    scanned once: every join consumes the chain's one free out-port, so
    the free out-ports of the chain are those of the part added last."""
    merged = Pipeline()
    free_out: list[Port] = []
    try:
        for part in components:
            members = (
                part._components if isinstance(part, Pipeline) else {part: None}
            )
            if merged._components:
                connect(
                    _single(free_out, "free out-port"),
                    _single(_free_in_ports(members), "free in-port"),
                    check_typespecs=False,
                )
            free_out = _free_out_ports(members)
            merged._components.update(members)
    finally:
        # Also when a join failed: ``>>`` would have reported a mismatch
        # among the joins before it first.
        merged.derive_typespecs()
    return merged


def _free_in_ports(components: Iterable[Component]) -> list[Port]:
    return [
        port
        for component in components
        for port in component.in_ports()
        if port.peer is None
    ]


def _free_out_ports(components: Iterable[Component]) -> list[Port]:
    return [
        port
        for component in components
        for port in component.out_ports()
        if port.peer is None
    ]


def _single(items: list, what: str):
    if len(items) != 1:
        names = ", ".join(p.qualified_name() for p in items) or "none"
        raise PortError(
            f">> needs exactly one {what} on each operand; found: {names}"
        )
    return items[0]


# ---------------------------------------------------------------------------
# Typespec derivation over the component graph
# ---------------------------------------------------------------------------


def reachable_components(start: Component) -> list[Component]:
    """All components connected (transitively) to ``start``."""
    seen: dict[Component, None] = {}
    stack = [start]
    while stack:
        component = stack.pop()
        if component in seen:
            continue
        seen[component] = None
        for port in component.ports.values():
            if port.peer is not None:
                stack.append(port.peer.component)
    return list(seen)


def derive_typespecs(components: Iterable[Component]) -> dict[str, Typespec]:
    """Fold Typespec transformations forward through the component graph.

    Walks components in topological order (data-flow edges only; feedback
    travels as control events and never creates data cycles).  For each
    component the incoming flow specs are intersected with the component's
    input capability — raising :class:`TypespecMismatch` with the offending
    connection in the message — then transformed to its out-ports.
    """
    any_flow = Typespec.any()
    flow_at: dict[Port, Typespec] = {}
    for component in _topological(list(components)):
        step = "merging flows into"
        try:
            incoming = any_flow
            for port in component.in_ports():
                if port.peer is not None:
                    incoming = incoming.intersect(
                        flow_at.get(port.peer, any_flow)
                    )
            step = "flow into"
            narrowed = incoming.intersect(component.accepts())
        except TypespecMismatch as mismatch:
            # The connection is named only when the check fails.
            raise mismatch.in_context(f"{step} {component.name!r}") from None
        outgoing = component.transform_typespec(narrowed)
        for port in component.out_ports():
            flow_at[port] = outgoing
    return {port.qualified_name(): flow for port, flow in flow_at.items()}


def _topological(components: list[Component]) -> list[Component]:
    indegree: dict[Component, int] = dict.fromkeys(components, 0)
    for component in components:
        for port in component.in_ports():
            if port.peer is not None and port.peer.component in indegree:
                indegree[component] += 1
    # Kahn's queue and its result are one list, read while it grows.
    ordered = [c for c, d in indegree.items() if d == 0]
    for component in ordered:
        for port in component.out_ports():
            if port.peer is None:
                continue
            downstream = port.peer.component
            if downstream in indegree:
                indegree[downstream] -= 1
                if indegree[downstream] == 0:
                    ordered.append(downstream)
    if len(ordered) != len(components):
        cyclic = [c.name for c in components if c not in ordered]
        raise CompositionError(
            f"data-flow cycle involving: {', '.join(sorted(cyclic))} "
            "(feedback must use control events, not data connections)"
        )
    return ordered
