"""Figure 3: distributed Infopipe — marshal → network → marshal.

"Marshalling filters on either side translate the raw data flow to and
from a higher-level information flow" and "control events are delivered to
remote components through the platform".
"""

import pytest

from repro import (
    CollectSink,
    Engine,
    Event,
    Gate,
    GreedyPump,
    IterSource,
    Pipeline,
    connect,
)
from repro.core.typespec import Typespec, props
from repro.media import MidiSource
from repro.net import Network, Node, RemoteBinder


def build_world(**link_kw):
    network = Network(seed=1)
    defaults = dict(bandwidth_bps=2_000_000, delay=0.03)
    defaults.update(link_kw)
    network.add_link("alpha", "beta", **defaults)
    return network, Node("alpha", network), Node("beta", network)


class TestMarshalNetworkMarshal:
    def test_items_survive_the_wire_intact(self):
        network, alpha, beta = build_world()
        payloads = [
            {"seq": i, "data": bytes([i]) * 50, "tags": ("a", i)}
            for i in range(25)
        ]
        src = alpha.place(IterSource(payloads))
        sink = beta.place(CollectSink())
        pump2 = GreedyPump()
        consumer = Pipeline([pump2, sink])
        connect(pump2.out_port, sink.in_port)
        pipe = RemoteBinder(network).bind(
            src >> GreedyPump(), consumer, "alpha", "beta",
            flow="blob", protocol="stream",
        )
        engine = Engine(pipe)
        engine.start()
        engine.run()
        assert sink.items == payloads

    def test_media_items_cross_the_wire(self):
        network, alpha, beta = build_world()
        src = alpha.place(MidiSource(events=40))
        sink = beta.place(CollectSink(input_spec=Typespec()))
        pump2 = GreedyPump()
        consumer = Pipeline([pump2, sink])
        connect(pump2.out_port, sink.in_port)
        pipe = RemoteBinder(network).bind(
            src >> GreedyPump(), consumer, "alpha", "beta",
            flow="midi", protocol="stream",
        )
        engine = Engine(pipe)
        engine.start()
        engine.run()
        assert [e.seq for e in sink.items] == list(range(40))

    def test_end_to_end_latency_includes_the_link(self):
        network, alpha, beta = build_world(delay=0.05)
        src = alpha.place(IterSource([b"x"]))
        arrivals = []

        class StampSink(CollectSink):
            def push(self, item):
                arrivals.append(engine.scheduler.now())

        sink = beta.place(StampSink(input_spec=Typespec()))
        pump2 = GreedyPump()
        consumer = Pipeline([pump2, sink])
        connect(pump2.out_port, sink.in_port)
        pipe = RemoteBinder(network).bind(
            src >> GreedyPump(), consumer, "alpha", "beta", flow="lat"
        )
        engine = Engine(pipe)
        engine.start()
        engine.run()
        assert arrivals[0] >= 0.05

    def test_flow_typespec_crosses_with_location_update(self):
        network, alpha, beta = build_world()
        src = alpha.place(
            IterSource([1], flow_spec=Typespec(item_type="number"))
        )
        sink = beta.place(CollectSink())
        pump2 = GreedyPump()
        consumer = Pipeline([pump2, sink])
        connect(pump2.out_port, sink.in_port)
        pipe = RemoteBinder(network).bind(
            src >> GreedyPump(), consumer, "alpha", "beta", flow="spec"
        )
        spec = pipe.typespec_at(sink.in_port)
        assert spec["item_type"] == "number"
        assert spec[props.LOCATION] == "beta"
        assert props.BANDWIDTH in spec


class TestRemoteEvents:
    def test_an_event_from_outside_the_pipeline_pays_no_latency(self):
        """A sender no component is named after has no node: its event
        is posted at once, however slow the network the netpipes bound."""
        network, alpha, beta = build_world(delay=0.04)
        gate = alpha.place(Gate(name="outside-gate"))
        producer = alpha.place(IterSource(range(3))) >> GreedyPump() >> gate
        pipe = RemoteBinder(network).bind(
            producer, GreedyPump() >> beta.place(CollectSink()),
            "alpha", "beta", flow="out",
        )
        engine = Engine(pipe).setup()
        assert engine.network is network
        received_at = []
        original = gate.on_gate_close

        def spying_close(event):
            received_at.append(engine.scheduler.now())
            original(event)

        gate.on_gate_close = spying_close
        engine.events.send_to(
            "outside-gate", Event(kind="gate-close", source="operator")
        )
        engine.run(max_steps=1_000)
        assert received_at == [0.0]

    def test_remote_event_delivery_pays_control_latency(self):
        """Control events between nodes arrive after the link latency."""
        network, alpha, beta = build_world(delay=0.04)
        src = alpha.place(IterSource(range(1000)))
        gate = Gate(name="remote-gate")
        alpha.place(gate)
        producer = src >> GreedyPump() >> gate

        sink = beta.place(CollectSink())
        pump2 = GreedyPump()
        consumer = Pipeline([pump2, sink])
        connect(pump2.out_port, sink.in_port)
        pipe = RemoteBinder(network).bind(
            producer, consumer, "alpha", "beta", flow="evt",
            protocol="stream",
        )
        engine = Engine(pipe)
        engine.setup()

        class Probe:
            location = "beta"
            name = "beta-controller"

        # An event "sent from beta" to the alpha-side gate is delayed.
        sent_at = engine.scheduler.now()
        received_at = []

        original = gate.on_gate_close

        def spying_close(event):
            received_at.append(engine.scheduler.now())
            original(event)

        gate.on_gate_close = spying_close
        # Register a fake beta-side source component for latency lookup.
        engine.pipeline.add(Probe())  # type: ignore[arg-type]
        engine.events.send_to(
            "remote-gate",
            Event(kind="gate-close", source="beta-controller"),
        )
        engine.start()
        engine.run(until=2.0)
        engine.stop()
        engine.run(max_steps=200_000)
        assert received_at, "event never arrived"
        assert received_at[0] - sent_at >= 0.04
