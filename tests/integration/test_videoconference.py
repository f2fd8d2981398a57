"""A two-way videoconference: the section-2.1 reuse claim at full scale.

"developers of video on demand, video conferencing, and surveillance tools
all can use any available video codec components" — here the quickstart's
codec components are reused, twice, in opposite directions over the same
pair of nodes, all simulated by one engine/scheduler.
"""

import pytest

from repro import Buffer, ClockedPump, Engine, GreedyPump, Pipeline, connect
from repro.core.typespec import Typespec
from repro.media import CameraSource, MpegDecoder, VideoDisplay
from repro.net import Network, Node, RemoteBinder

SECONDS = 4.0
FPS = 20.0


def build_conference():
    network = Network(seed=9)
    network.add_link("alice", "bob", bandwidth_bps=4_000_000, delay=0.03,
                     jitter=0.002, queue_packets=64)
    alice, bob = Node("alice", network), Node("bob", network)
    binder = RemoteBinder(network)

    legs = {}
    for sender_node, receiver_node, flow in (
        (alice, bob, "alice-to-bob"),
        (bob, alice, "bob-to-alice"),
    ):
        camera = sender_node.place(
            CameraSource(rate_hz=FPS, max_items=int(SECONDS * FPS))
        )
        producer = Pipeline([camera])

        feeder = GreedyPump()
        decoder = MpegDecoder(share_references=False)
        jitter_buffer = Buffer(capacity=8)
        pump = ClockedPump(FPS)
        display = receiver_node.place(VideoDisplay(input_spec=Typespec()))
        consumer = Pipeline([feeder, decoder, jitter_buffer, pump, display])
        connect(feeder.out_port, decoder.in_port)
        connect(decoder.out_port, jitter_buffer.in_port)
        connect(jitter_buffer.out_port, pump.in_port)
        connect(pump.out_port, display.in_port)

        legs[flow] = binder.bind(
            producer, consumer, sender_node.name, receiver_node.name,
            flow=flow, protocol="stream",
        )

    combined = Pipeline(
        legs["alice-to-bob"].components + legs["bob-to-alice"].components
    )
    engine = Engine(combined)
    return engine, legs


def test_both_directions_deliver_video():
    engine, legs = build_conference()
    engine.start()
    engine.run(until=SECONDS + 2.0)
    engine.stop()
    engine.run(max_steps=500_000)

    for flow, pipe in legs.items():
        display = pipe.sinks()[-1]
        expected = int(SECONDS * FPS)
        assert display.stats["displayed"] >= expected * 0.9, flow


def test_two_legs_share_one_simulated_world():
    engine, legs = build_conference()
    engine.start()
    engine.run(until=SECONDS + 2.0)
    engine.stop()
    engine.run(max_steps=500_000)

    # Four pump sections per leg... count actual threads: each leg has one
    # active camera, one greedy feeder, one clocked output pump.
    pump_threads = [t for t in engine.scheduler.threads
                    if t.startswith("pump:")]
    assert len(pump_threads) == 6
    # Traffic flowed both ways over the symmetric link pair.
    assert engine.network.link("alice", "bob").stats.delivered > 0
    assert engine.network.link("bob", "alice").stats.delivered > 0


def test_displays_see_low_jitter_thanks_to_buffers():
    engine, legs = build_conference()
    engine.start()
    engine.run(until=SECONDS + 2.0)
    engine.stop()
    engine.run(max_steps=500_000)
    period = 1.0 / FPS
    for pipe in legs.values():
        display = pipe.sinks()[-1]
        # Startup transients included, jitter stays well under half the
        # frame period thanks to the jitter buffer + output pump.
        assert display.interarrival_jitter() < period / 2
