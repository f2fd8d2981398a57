"""Unit tests for nodes, remote factories and the binder."""

import pytest

from repro import (
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    Pipeline,
    TypespecMismatch,
    connect,
)
from repro.core.typespec import Choices, Interval, Typespec, props
from repro.errors import RemoteError
from repro.net import (
    NetpipeReceiver,
    NetpipeSender,
    Network,
    Node,
    RemoteBinder,
    RemoteFactory,
)
from repro.net.remote import marshal_typespec, unmarshal_typespec


def make_world(seed=0, **link_kw):
    net = Network(seed=seed)
    defaults = dict(bandwidth_bps=10_000_000, delay=0.01)
    defaults.update(link_kw)
    net.add_link("alpha", "beta", **defaults)
    return net, Node("alpha", net), Node("beta", net)


class TestNode:
    def test_source_flow_spec_gets_location(self):
        _, alpha, _ = make_world()
        src = alpha.place(IterSource([1]))
        assert src.flow_spec[props.LOCATION] == "alpha"
        assert src.location == "alpha"

    def test_sink_input_spec_gets_location(self):
        _, _, beta = make_world()
        sink = beta.place(CollectSink())
        assert sink.input_spec[props.LOCATION] == "beta"

    def test_create_instantiates_and_places(self):
        _, alpha, _ = make_world()
        src = alpha.create(IterSource, [1, 2])
        assert src.location == "alpha"
        assert src in alpha.components


class TestTypespecMarshalling:
    def test_round_trip_all_value_kinds(self):
        spec = Typespec(
            item_type="video-frame",
            rate=Interval(0, 30),
            fmt=Choices(["mpeg", "raw"]),
            depth=8,
        )
        assert unmarshal_typespec(marshal_typespec(spec)) == spec

    def test_nested_typespec(self):
        inner = Typespec(a=1)
        spec = Typespec(carried=inner)
        assert unmarshal_typespec(marshal_typespec(spec))["carried"] == inner


class TestRemoteFactory:
    def test_create_remote_registered_type(self):
        net, alpha, beta = make_world()
        factory = RemoteFactory(net)
        factory.add_node(alpha)
        factory.add_node(beta)
        factory.register("collect-sink", CollectSink)
        sink = factory.create_remote("beta", "collect-sink")
        assert sink.location == "beta"
        assert factory.setup_cost > 0

    def test_unregistered_type_rejected(self):
        net, alpha, _ = make_world()
        factory = RemoteFactory(net)
        factory.add_node(alpha)
        with pytest.raises(RemoteError):
            factory.create_remote("alpha", "mystery")

    def test_unknown_node_rejected(self):
        net, _, _ = make_world()
        factory = RemoteFactory(net)
        factory.register("collect-sink", CollectSink)
        with pytest.raises(RemoteError):
            factory.create_remote("gamma", "collect-sink")

    def test_remote_typespec_query_marshals_properties(self):
        net, alpha, beta = make_world()
        factory = RemoteFactory(net)
        factory.add_node(alpha)
        factory.add_node(beta)
        sink = beta.place(CollectSink(input_spec=Typespec(rate=Interval(0, 30))))
        queried = factory.query_typespec("alpha", sink)
        assert queried["rate"] == Interval(0, 30)
        assert queried[props.LOCATION] == "beta"


class TestBinder:
    def build(self, protocol="datagram", **link_kw):
        net, alpha, beta = make_world(**link_kw)
        src = alpha.place(IterSource(list(range(10))))
        producer = src >> GreedyPump()
        sink = beta.place(CollectSink())
        pump = GreedyPump()
        consumer = Pipeline([pump, sink])
        connect(pump.out_port, sink.in_port)
        pipe = RemoteBinder(net).bind(
            producer, consumer, "alpha", "beta", flow="t", protocol=protocol
        )
        return net, pipe, sink

    def test_binding_inserts_marshal_netpipe_unmarshal(self):
        _, pipe, _ = self.build()
        names = [c.name for c in pipe.components]
        assert any(n.startswith("marshal-") for n in names)
        assert any(n.startswith("netpipe-send-") for n in names)
        assert any(n.startswith("netpipe-recv-") for n in names)
        assert any(n.startswith("unmarshal-") for n in names)

    def test_end_to_end_delivery_stream(self):
        _, pipe, sink = self.build(protocol="stream")
        engine = Engine(pipe)
        engine.start()
        engine.run()
        assert sink.items == list(range(10))

    def test_end_to_end_delivery_datagram(self):
        _, pipe, sink = self.build(protocol="datagram")
        engine = Engine(pipe)
        engine.start()
        engine.run()
        assert sink.items == list(range(10))

    def test_location_updated_by_netpipe_only(self):
        _, pipe, sink = self.build()
        spec = pipe.typespec_at(sink.in_port)
        assert spec[props.LOCATION] == "beta"

    def test_missing_netpipe_is_a_type_error(self):
        _, alpha, beta = make_world()
        src = alpha.place(IterSource([1]))
        sink = beta.place(CollectSink())
        with pytest.raises(TypespecMismatch):
            src >> GreedyPump() >> sink

    def test_incompatible_remote_spec_rejected_at_bind(self):
        net, alpha, beta = make_world()
        src = alpha.place(
            IterSource([1], flow_spec=Typespec(item_type="audio"))
        )
        producer = src >> GreedyPump()
        sink = beta.place(CollectSink(input_spec=Typespec(item_type="video")))
        pump = GreedyPump()
        consumer = Pipeline([pump, sink])
        connect(pump.out_port, sink.in_port)
        with pytest.raises(TypespecMismatch):
            RemoteBinder(net).bind(
                producer, consumer, "alpha", "beta", flow="bad"
            )

    def test_netpipe_stamps_link_qos(self):
        _, pipe, sink = self.build()
        spec = pipe.typespec_at(sink.in_port)
        assert props.BANDWIDTH in spec
        assert props.LOSS_RATE in spec


class TestNetpipeComponents:
    def test_sender_rejects_non_bytes(self):
        from repro.errors import MarshalError
        from repro.net.protocols import DatagramProtocol

        net = Network()
        net.add_link("a", "b")
        proto = DatagramProtocol(net, "f", "a", "b")
        sender = NetpipeSender(proto)
        with pytest.raises(MarshalError):
            sender.push({"not": "bytes"})

    def test_receiver_rejects_pushes(self):
        from repro.net.protocols import DatagramProtocol

        net = Network()
        net.add_link("a", "b")
        proto = DatagramProtocol(net, "f2", "a", "b")
        receiver = NetpipeReceiver(proto)
        with pytest.raises(RemoteError):
            receiver.try_push(b"x")
