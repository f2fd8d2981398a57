"""The ``video-wire`` graph at smoke size against values recorded before
the media plane's run bodies were rewritten (ISSUE 20).

MPEG source -> pump -> dropper(0) -> stream netpipe over the simulated
1 Gbps link -> decoder -> resizer -> display at ``batch_max=32``, 120
payload frames.  The displayed stream, every arrival instant on the
virtual clock (``float.hex``, so bit for bit: the per-frame ``charge()``
calls kept their order) and every component's stats are what the parent
commit produced, on both array backends.  At ``batch_max`` 1 and 8 the
displayed stream is the same; arrivals and stats differ by batch size.
"""

import hashlib
import json
import zlib

import pytest

from repro import Engine, GreedyPump, connect
from repro.core.composition import Pipeline as Graph
from repro.core.typespec import Typespec
from repro.media import (
    GopStructure,
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    Resizer,
    VideoDisplay,
    arrays,
)
from repro.net import Network, Node, RemoteBinder

FRAMES, SEED = 120, 12345

RECORDED_STATS = {
    "pump-tx": {"items_in": 120, "items_out": 120},
    "pump-rx": {"items_in": 120, "items_out": 120},
    "marshal-video": {"bytes_out": 34622, "items_in": 120, "items_out": 120},
    "decoder": {
        "bytes_in": 28014, "bytes_out": 3456000, "decoded": 120,
        "items_in": 120, "items_out": 120, "released": 0,
        "skipped_undecodable": 0,
    },
    "source": {"bytes_out": 28014, "items_in": 0, "items_out": 120},
    "netpipe-recv-video": {
        "bytes_in": 35118, "bytes_out": 34622, "frames_in": 4,
        "items_in": 120, "items_out": 120,
    },
    "netpipe-send-video": {
        "bytes_in": 34622, "frames_out": 4, "items_in": 120, "items_out": 0,
    },
    "dropper": {
        "bytes_in": 28014, "bytes_out": 28014, "dropped_B": 0, "dropped_P": 0,
        "dropped_other": 0, "items_in": 120, "items_out": 120,
    },
    "resizer": {
        "bytes_in": 3456000, "bytes_out": 1944000, "items_in": 120,
        "items_out": 120, "resized": 120,
    },
    "unmarshal-video": {"bytes_in": 34622, "items_in": 120, "items_out": 120},
    "display": {
        "bytes_in": 1944000, "displayed": 120, "items_in": 120,
        "items_out": 0, "releases_sent": 0,
    },
}
RECORDED_SIGNATURE = (
    "bd23313c389a74c2c8ee28cb50cf6203f52c5c0d0c2f22ce0eeaaa6c96c34f8c"
)
RECORDED_ARRIVALS = (
    "c00b4b38c9b9b88e7e6c9d17fd2670af5adbcce642c4da9e9375815f459d6cc8"
)
RECORDED_LAST_ARRIVAL = "0x1.0c4269c323673p-4"


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def build(batch_max=32):
    network = Network(seed=SEED)
    network.add_link(
        "p", "c", bandwidth_bps=1_000_000_000, delay=0.001,
        queue_packets=FRAMES + 8,
    )
    producer, consumer = Node("p", network), Node("c", network)
    gop = GopStructure(pattern="IBBPBBPBB", seed=SEED, width=160, height=120)
    source = producer.place(
        MpegFileSource(
            "bench.mpg", frames=FRAMES, gop=gop, payloads=True, name="source"
        )
    )
    producer_side = (
        source >> GreedyPump(name="pump-tx")
        >> PriorityDropFilter(level=0, name="dropper")
    )
    feeder = GreedyPump(name="pump-rx")
    decoder = MpegDecoder(share_references=False, name="decoder")
    resizer = Resizer(120, 90, name="resizer")
    display = consumer.place(VideoDisplay(input_spec=Typespec(), name="display"))
    consumer_side = Graph([feeder, decoder, resizer, display])
    connect(feeder.out_port, decoder.in_port)
    connect(decoder.out_port, resizer.in_port)
    connect(resizer.out_port, display.in_port)
    graph = RemoteBinder(network).bind(
        producer_side, consumer_side, "p", "c",
        flow="video", protocol="stream", mtu=65536,
    )
    return Engine(graph, batch_max=batch_max), display


def run(batch_max=32):
    engine, display = build(batch_max)
    engine.setup()
    engine.start()
    engine.run()
    return engine, display


def signature(display):
    frames = [
        (f.seq, f.kind, f.size, zlib.crc32(f.payload)) for f in display.frames
    ]
    assert len(frames) == FRAMES
    return frames


@pytest.mark.parametrize("backend", ["numpy", "pure"])
def test_video_wire_smoke_graph_equals_the_recorded_run(backend, monkeypatch):
    if backend == "numpy" and arrays._numpy is None:
        pytest.skip("numpy not installed")
    monkeypatch.setattr(
        arrays, "np", arrays._numpy if backend == "numpy" else None
    )
    engine, display = run()
    assert digest(signature(display)) == RECORDED_SIGNATURE
    assert display.arrivals[-1].hex() == RECORDED_LAST_ARRIVAL
    assert digest([a.hex() for a in display.arrivals]) == RECORDED_ARRIVALS
    stats = {c.name: dict(c.stats) for c in engine.pipeline.components}
    assert stats == RECORDED_STATS


@pytest.mark.parametrize("batch_max", [1, 8])
def test_video_wire_displays_the_recorded_stream_at_smaller_batches(batch_max):
    """Batching changes arrival instants and per-component stats, never the
    displayed stream: smaller batches show the recorded frames too."""
    _, display = run(batch_max)
    assert digest(signature(display)) == RECORDED_SIGNATURE
