#!/usr/bin/env python3
"""Figure 1: adaptive video streaming over a congested best-effort network.

Topology (exactly the paper's figure)::

    source -> pump -> filter -> [netpipe over lossy link] ->
        decoder -> buffer -> pump -> display
                 ^                                |
                 +---- feedback (drop level) <----+ (loss sensor)

Two runs over the same undersized link:

* **without feedback** the network drops packets arbitrarily; fragments of
  large I frames are the most likely victims, so whole GOPs become
  undecodable;
* **with feedback** a consumer-side loss sensor drives the producer-side
  priority filter, which sheds B frames (then P) *before* the bottleneck —
  "This lets us control which data is dropped rather than incurring
  arbitrary dropping in the network."

Pass ``--payloads`` to stream real payload bytes (see ``docs/MEDIA.md``)
instead of metadata-only frames; the payload-weighted variant of this
pipeline is also the ``video-wire`` workload of ``python3 -m bench``.
"""

import sys

from repro import Buffer, ClockedPump, Engine, GreedyPump, Pipeline, connect
from repro.core.typespec import Typespec
from repro.feedback import (
    CallbackSensor,
    DropLevelActuator,
    FeedbackLoop,
    StepController,
)
from repro.media import (
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    VideoDisplay,
)
from repro.net import Network, Node, RemoteBinder

FRAMES = 300
FPS = 30.0
BANDWIDTH = 600_000  # bits/s; the stream nominally needs ~1 Mbit/s


def run(with_feedback: bool, seed: int = 5, payloads: bool = False):
    network = Network(seed=seed)
    network.add_link(
        "producer", "consumer",
        bandwidth_bps=BANDWIDTH, delay=0.02, jitter=0.002,
        loss_rate=0.01, queue_packets=16,
    )
    producer = Node("producer", network)
    consumer = Node("consumer", network)

    source = producer.place(
        MpegFileSource("movie.mpg", frames=FRAMES, payloads=payloads)
    )
    pump1 = ClockedPump(FPS)
    drop_filter = PriorityDropFilter()
    producer_side = source >> pump1 >> drop_filter

    feeder = GreedyPump()
    decoder = MpegDecoder(share_references=False)
    jitter_buffer = Buffer(capacity=16)
    pump2 = ClockedPump(FPS)
    display = consumer.place(VideoDisplay(input_spec=Typespec()))
    consumer_side = Pipeline([feeder, decoder, jitter_buffer, pump2, display])
    connect(feeder.out_port, decoder.in_port)
    connect(decoder.out_port, jitter_buffer.in_port)
    connect(jitter_buffer.out_port, pump2.in_port)
    connect(pump2.out_port, display.in_port)

    pipe = RemoteBinder(network).bind(
        producer_side, consumer_side, "producer", "consumer",
        flow="video", protocol="datagram",
    )
    engine = Engine(pipe)

    loop = None
    if with_feedback:
        receiver = next(c for c in pipe.components
                        if c.name.startswith("netpipe-recv"))
        loop = FeedbackLoop(
            CallbackSensor(receiver.protocol.receiver_loss_sample),
            StepController(high=0.05, low=0.005, max_level=2),
            DropLevelActuator(drop_filter),
            period=0.5,
        )
        loop.attach(engine)

    engine.start()
    engine.run(until=FRAMES / FPS + 3.0)
    engine.stop()
    engine.run(max_steps=200_000)

    link = network.link("producer", "consumer")
    kinds = {}
    for frame in display.frames:
        kinds[frame.kind] = kinds.get(frame.kind, 0) + 1
    return {
        "displayed": display.stats["displayed"],
        "payload_bytes": display.stats["bytes_in"],
        "kinds": kinds,
        "undecodable": decoder.stats["skipped_undecodable"],
        "filter_drops": drop_filter.stats["dropped_B"]
        + drop_filter.stats["dropped_P"],
        "network_drops": link.stats.dropped,
        "jitter_ms": display.interarrival_jitter() * 1000,
        "loop": loop,
    }


def main() -> None:
    payloads = "--payloads" in sys.argv[1:]
    mode = "real payload bytes" if payloads else "metadata-only frames"
    print(f"streaming {FRAMES} frames at {FPS:.0f} fps ({mode}) over a "
          f"{BANDWIDTH / 1e6:.1f} Mbit/s link (stream needs ~1 Mbit/s)\n")

    baseline = run(with_feedback=False, payloads=payloads)
    adaptive = run(with_feedback=True, payloads=payloads)

    header = (f"{'':22} {'displayed':>9} {'undecodable':>11} "
              f"{'filter drops':>12} {'net drops':>9} {'jitter':>9}")
    print(header)
    print("-" * len(header))
    for name, r in (("without feedback", baseline),
                    ("with feedback", adaptive)):
        print(f"{name:22} {r['displayed']:>9} {r['undecodable']:>11} "
              f"{r['filter_drops']:>12} {r['network_drops']:>9} "
              f"{r['jitter_ms']:>7.1f}ms")

    print()
    if payloads:
        print(f"payload delivered to the display with feedback: "
              f"{adaptive['payload_bytes'] / 1e6:.1f} MB")
    print("frame kinds reaching the display with feedback:",
          adaptive["kinds"])
    print("drop-level trajectory (t, measured loss, level):")
    for t, measurement, level in adaptive["loop"].history[:12]:
        print(f"  t={t:4.1f}s  loss={measurement:5.1%}  level={int(level)}")


if __name__ == "__main__":
    main()
