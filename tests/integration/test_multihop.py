"""Pipelines spanning several network nodes (section 2.1: "a uniform
abstraction for handling information flow from source to sink, possibly
across several network nodes").

A three-node chain: the source lives on `origin`, a transcoding relay on
`relay`, the display on `viewer` — two netpipes, one logical pipeline,
one engine simulating the whole system.
"""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    Engine,
    GreedyPump,
    MapFilter,
    Pipeline,
    connect,
)
from repro.core.typespec import Typespec, props
from repro.media import MpegDecoder, MpegFileSource, VideoDisplay
from repro.net import Network, Node, RemoteBinder

FRAMES = 60
FPS = 30.0


def build_three_node_pipeline():
    network = Network(seed=21)
    network.add_link("origin", "relay", bandwidth_bps=8_000_000, delay=0.01)
    network.add_link("relay", "viewer", bandwidth_bps=8_000_000, delay=0.02)
    origin = Node("origin", network)
    relay = Node("relay", network)
    viewer = Node("viewer", network)
    binder = RemoteBinder(network)

    # Stage 1: origin produces encoded frames.
    source = origin.place(MpegFileSource(frames=FRAMES))
    leg1_producer = source >> ClockedPump(FPS)

    # Stage 2: the relay thins the stream (drops B frames) and forwards
    # the still-encoded flow -- decoding at the relay would turn ~1 Mbit/s
    # of MPEG into ~110 Mbit/s of raw video, which no 8 Mbit/s hop could
    # carry (the first version of this test learned that the hard way).
    from repro.media import PriorityDropFilter

    relay_pump = GreedyPump()
    thinner = PriorityDropFilter(level=1)
    relay_chain = Pipeline([relay_pump, thinner])
    connect(relay_pump.out_port, thinner.in_port)
    leg1 = binder.bind(leg1_producer, relay_chain, "origin", "relay",
                       flow="hop1", protocol="stream")

    # Stage 3: viewer decodes and displays.
    viewer_pump = GreedyPump()
    decoder = MpegDecoder(share_references=False)
    display = viewer.place(VideoDisplay(input_spec=Typespec()))
    viewer_chain = Pipeline([viewer_pump, decoder, display])
    connect(viewer_pump.out_port, decoder.in_port)
    connect(decoder.out_port, display.in_port)

    # The second bind continues from the first leg's free out-port (the
    # decoder's), crossing relay -> viewer.
    full = binder.bind(leg1, viewer_chain, "relay", "viewer",
                       flow="hop2", protocol="stream")
    engine = Engine(full)
    return engine, full, display, network


def test_three_nodes_end_to_end():
    engine, pipe, display, network = build_three_node_pipeline()
    engine.start()
    engine.run(until=FRAMES / FPS + 2.0)
    engine.stop()
    engine.run(max_steps=500_000)
    # B frames (6 of 9 per GOP) were shed at the relay.
    assert display.stats["displayed"] == FRAMES // 3
    # both hops actually carried traffic
    assert network.link("origin", "relay").stats.delivered > 0
    assert network.link("relay", "viewer").stats.delivered > 0


def test_location_tracks_every_hop():
    engine, pipe, display, network = build_three_node_pipeline()
    spec = pipe.typespec_at(display.in_port)
    assert spec[props.LOCATION] == "viewer"
    # intermediate flow at the relay filter's output is located there
    thinner = next(c for c in pipe.components
                   if c.name.startswith("priority-drop-filter"))
    assert pipe.typespec_at(thinner.out_port)[props.LOCATION] == "relay"


def test_end_to_end_latency_accumulates_hops():
    engine, pipe, display, network = build_three_node_pipeline()
    engine.start()
    engine.run(until=FRAMES / FPS + 2.0)
    engine.stop()
    engine.run(max_steps=500_000)
    # first frame reaches the viewer no earlier than the summed one-way
    # delays (10 ms + 20 ms)
    assert display.arrivals[0] >= 0.03
