"""Figure 1: the adaptive streaming pipeline, swept over link bandwidth.

Regenerates the experiment behind the paper's motivating figure: displayed
(decodable) frames with and without the feedback-controlled producer-side
dropping filter, as the bottleneck tightens.  The paper's qualitative
claim — controlled dropping beats arbitrary network dropping whenever the
link is congested — appears as the feedback curve dominating the baseline
at every congested bandwidth.
"""

import pytest

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

FRAMES = 150
FPS = 30.0


def run_streaming(with_feedback: bool, bandwidth_bps: float, seed: int = 5):
    network = Network(seed=seed)
    network.add_link(
        "producer", "consumer",
        bandwidth_bps=bandwidth_bps, delay=0.02, jitter=0.002,
        loss_rate=0.01, queue_packets=16,
    )
    producer_node = Node("producer", network)
    consumer_node = Node("consumer", network)

    source = producer_node.place(MpegFileSource(frames=FRAMES))
    drop_filter = PriorityDropFilter()
    producer_side = source >> ClockedPump(FPS) >> drop_filter

    feeder = GreedyPump()
    decoder = MpegDecoder(share_references=False)
    jitter_buffer = Buffer(capacity=16)
    pump2 = ClockedPump(FPS)
    display = consumer_node.place(VideoDisplay(input_spec=Typespec()))
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
    if with_feedback:
        receiver = next(c for c in pipe.components
                        if c.name.startswith("netpipe-recv"))
        FeedbackLoop(
            CallbackSensor(receiver.protocol.receiver_loss_sample),
            StepController(high=0.05, low=0.005, max_level=2),
            DropLevelActuator(drop_filter),
            period=0.5,
        ).attach(engine)
    engine.start()
    engine.run(until=FRAMES / FPS + 3.0)
    engine.stop()
    engine.run(max_steps=200_000)
    return display.stats["displayed"]


def test_bench_fig1_adaptive_streaming(benchmark):
    """Wall time of simulating the full adaptive pipeline (5s of video)."""
    benchmark.pedantic(
        run_streaming, args=(True, 600_000), rounds=3, iterations=1
    )


def test_fig1_feedback_dominates_under_congestion():
    bandwidths = [400_000, 600_000, 800_000, 1_200_000, 2_000_000]
    print("\n--- Figure 1: displayed frames vs link bandwidth "
          f"(of {FRAMES} sent; stream needs ~1 Mbit/s) ---")
    print(f"{'bandwidth':>12} {'no feedback':>12} {'feedback':>9}")
    rows = []
    for bandwidth in bandwidths:
        base = run_streaming(False, bandwidth)
        adaptive = run_streaming(True, bandwidth)
        rows.append((bandwidth, base, adaptive))
        print(f"{bandwidth / 1e6:>10.1f}Mb {base:>12} {adaptive:>9}")

    congested = [r for r in rows if r[0] <= 800_000]
    # Under congestion, feedback always delivers more decodable frames.
    assert all(adaptive > base for _, base, adaptive in congested)
    # With ample bandwidth both approaches deliver nearly everything and
    # feedback stops dropping (no penalty for having the loop).
    _, base_hi, adaptive_hi = rows[-1]
    assert base_hi >= FRAMES * 0.8
    assert adaptive_hi >= FRAMES * 0.8
