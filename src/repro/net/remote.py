"""Remote factories and distributed pipeline binding (section 2.4).

"In addition to netpipes, the Infopipe platform provides protocols and
factories for the creation of remote Infopipe components.  Remote Typespec
queries also require a middleware protocol as well as a mechanism for
property marshalling."

The :class:`RemoteBinder` splices a ``marshal >> netpipe-send || netpipe-
recv >> unmarshal`` segment between a producer-side pipeline on one node
and a consumer-side pipeline on another, performing the remote Typespec
query (with property marshalling over the simulated network's control
channel) and the location update that only netpipes may make.
"""

from __future__ import annotations

from typing import Any, Type, TypeVar

from repro.core.component import Component
from repro.core.composition import Pipeline, connect, derive_typespecs
from repro.core.typespec import Choices, Interval, Typespec, props
from repro.errors import RemoteError
from repro.net.marshal import (
    MarshalFilter,
    UnmarshalFilter,
    decode_item,
    encode_item,
)
from repro.net.netpipe import make_netpipe
from repro.net.network import Network
from repro.net.node import Node
from repro.net.qosmap import netpipe_flow_props

C = TypeVar("C", bound=Component)


def marshal_typespec(spec: Typespec) -> bytes:
    """Property marshalling for remote Typespec queries."""
    fields: dict = {}
    for key in spec:
        value = spec[key]
        if isinstance(value, Interval):
            fields[key] = ("interval", value.lo, value.hi)
        elif isinstance(value, Choices):
            fields[key] = ("choices", tuple(sorted(map(repr, value.options))),
                           tuple(value.options))
        elif isinstance(value, Typespec):
            fields[key] = ("nested", marshal_typespec(value))
        else:
            fields[key] = ("atom", value)
    return encode_item(fields)


def unmarshal_typespec(data: bytes) -> Typespec:
    fields = decode_item(data)
    props_out: dict = {}
    for key, packed in fields.items():
        kind = packed[0]
        if kind == "interval":
            props_out[key] = Interval(packed[1], packed[2])
        elif kind == "choices":
            props_out[key] = Choices(packed[2])
        elif kind == "nested":
            props_out[key] = unmarshal_typespec(packed[1])
        else:
            props_out[key] = packed[1]
    return Typespec(props_out)


class RemoteFactory:
    """Creates components on a remote node through the middleware.

    The factory protocol costs one control round trip per operation, which
    is accounted in :attr:`setup_cost` (setup happens before the pipeline
    starts, so the virtual clock is not advanced).
    """

    def __init__(self, network: Network):
        self.network = network
        self._nodes: dict[str, Node] = {}
        self._registry: dict[str, Type[Component]] = {}
        #: Accumulated control-plane time spent on factory/bind operations.
        self.setup_cost = 0.0

    def add_node(self, node: Node) -> Node:
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise RemoteError(f"unknown node {name!r}") from None

    def register(self, type_name: str, component_cls: Type[Component]) -> None:
        """Make a component type instantiable remotely by name."""
        self._registry[type_name] = component_cls

    def create_remote(
        self, node_name: str, type_name: str, *args: Any, **kwargs: Any
    ) -> Component:
        """Create a registered component type on a (possibly remote) node."""
        component_cls = self._registry.get(type_name)
        if component_cls is None:
            raise RemoteError(f"component type {type_name!r} not registered")
        self.setup_cost += self.network.rtt(_any_other(self._nodes, node_name),
                                            node_name)
        return self.node(node_name).create(component_cls, *args, **kwargs)

    def query_typespec(self, querying_node: str, component: Component) -> Typespec:
        """Remote Typespec query with property marshalling: the spec crosses
        the control channel in wire format both ways."""
        remote_node = component.location
        self.setup_cost += self.network.rtt(querying_node, remote_node)
        wire = marshal_typespec(component.accepts())
        return unmarshal_typespec(wire)


def _any_other(nodes: dict, name: str) -> str:
    for candidate in nodes:
        if candidate != name:
            return candidate
    return name


class RemoteBinder:
    """Splices netpipes into pipelines that span nodes."""

    def __init__(self, network: Network):
        self.network = network
        self.factory = RemoteFactory(network)

    def bind(
        self,
        producer_side: Pipeline | Component,
        consumer_side: Pipeline | Component,
        src_node: str,
        dst_node: str,
        flow: str,
        protocol: str = "datagram",
        **protocol_kwargs: Any,
    ) -> Pipeline:
        """Connect a producer-side pipeline on ``src_node`` to a consumer-
        side pipeline on ``dst_node`` across the network.

        Performs the binding protocol: remote Typespec query, compatibility
        check (with the location update a netpipe makes), and assembly of
        the marshal/netpipe/unmarshal segment.  Returns one Pipeline
        containing both sides; run it with a single Engine (one scheduler
        simulates the whole distributed system): its netpipes bind the
        network to that engine's scheduler as they attach.
        """
        producer = _as_pipeline(producer_side)
        consumer = _as_pipeline(consumer_side)
        link = self.network.link(src_node, dst_node)

        # -- binding protocol: remote typespec query --------------------------
        consumer_head = consumer.free_in_port().component
        remote_accepts = self.factory.query_typespec(src_node, consumer_head)

        carried = derive_typespecs(producer.components).get(
            producer.free_out_port().qualified_name(), Typespec.any()
        )
        # The netpipe is the only component allowed to change the location.
        moved = carried.with_props(**{props.LOCATION: dst_node})
        moved.intersect(
            remote_accepts,
            context=f"binding flow {flow!r} {src_node}->{dst_node}",
        )

        # -- assemble the segment ---------------------------------------------
        sender, receiver = make_netpipe(
            self.network,
            flow,
            src_node,
            dst_node,
            protocol=protocol,
            flow_spec=Typespec(
                {
                    props.FORMAT: "bytes",
                    "carried": moved,
                    props.LOCATION: dst_node,
                    **netpipe_flow_props(link),
                }
            ),
            **protocol_kwargs,
        )
        marshal = MarshalFilter(name=f"marshal-{flow}")
        marshal.location = src_node
        unmarshal = UnmarshalFilter(name=f"unmarshal-{flow}")
        unmarshal.location = dst_node

        left = producer >> marshal >> sender
        right = Pipeline([receiver, unmarshal])
        connect(receiver.out_port, unmarshal.in_port, check_typespecs=False)
        merged = Pipeline(left.components + right.components + consumer.components)
        connect(unmarshal.out_port, consumer.free_in_port(), check_typespecs=False)
        merged.derive_typespecs()
        return merged


def _as_pipeline(side: Pipeline | Component) -> Pipeline:
    return side if isinstance(side, Pipeline) else Pipeline([side])
