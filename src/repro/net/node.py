"""Nodes: placement of components on machines.

A :class:`Node` stamps the components created through it with a
``location`` — the Typespec property "that is changed only by netpipes"
(section 2.4).  Sources created on a node produce flows located there;
sinks created on a node only accept flows located there, so forgetting a
netpipe between nodes is caught by ordinary type checking.
"""

from __future__ import annotations

from typing import Any, Type, TypeVar

from repro.components.sinks import ActiveSink, Sink
from repro.components.sources import ActiveSource, Source
from repro.core.component import Component
from repro.core.typespec import props
from repro.net.network import Network

C = TypeVar("C", bound=Component)


class Node:
    """One machine in the simulated distributed system."""

    def __init__(self, name: str, network: Network):
        self.name = name
        self.network = network
        network.add_node(name)
        self.components: list[Component] = []

    def create(self, component_cls: Type[C], *args: Any, **kwargs: Any) -> C:
        """Instantiate a component placed on this node."""
        component = component_cls(*args, **kwargs)
        return self.place(component)

    def place(self, component: C) -> C:
        """Record an existing component as living on this node and stamp
        its location into its flow constraints."""
        component.location = self.name
        if isinstance(component, Source):
            component.flow_spec = component.flow_spec.with_props(
                **{props.LOCATION: self.name}
            )
        elif isinstance(component, ActiveSource):
            # Active sources stamp location through output_props.
            merged = dict(component.output_props)
            merged[props.LOCATION] = self.name
            component.output_props = merged
        elif isinstance(component, (Sink, ActiveSink)):
            component.input_spec = component.input_spec.with_props(
                **{props.LOCATION: self.name}
            )
        self.components.append(component)
        return component

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name!r} ({len(self.components)} components)>"
