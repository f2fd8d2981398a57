"""Figure 1: the distributed video pipeline with feedback-controlled
dropping.

"At the producer side frames are pumped through a filter into a netpipe
encapsulating a best-effort transport protocol.  The filter drops when the
network is congested.  The dropping is controlled by a feedback mechanism
using a sensor on the consumer side.  This lets us control which data is
dropped rather than incurring arbitrary dropping in the network.  After
decoding the frames, they are buffered to reduce jitter.  A second pump
controlling the output timing finally releases the frames to the display
sink."
"""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    Engine,
    GreedyPump,
    Pipeline,
    connect,
)
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

FRAMES = 240
FPS = 30.0


def build_figure1(with_feedback, bandwidth_bps=600_000, seed=5,
                  queue_packets=16, loss_rate=0.01):
    """The exact Figure-1 topology:

    source -> pump -> filter -> [marshal -> netpipe -> unmarshal]
           -> decoder -> buffer -> pump -> display,
    with a consumer-side sensor feeding back to the producer-side filter.
    """
    network = Network(seed=seed)
    network.add_link(
        "producer", "consumer",
        bandwidth_bps=bandwidth_bps, delay=0.02, jitter=0.002,
        loss_rate=loss_rate, queue_packets=queue_packets,
    )
    producer_node = Node("producer", network)
    consumer_node = Node("consumer", network)

    source = producer_node.place(MpegFileSource(frames=FRAMES))
    pump1 = ClockedPump(FPS)
    drop_filter = PriorityDropFilter()
    producer_side = source >> pump1 >> drop_filter

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

    loop = None
    if with_feedback:
        receiver = next(
            c for c in pipe.components if c.name.startswith("netpipe-recv")
        )
        sensor = CallbackSensor(receiver.protocol.receiver_loss_sample)
        controller = StepController(high=0.05, low=0.005, max_level=2)
        actuator = DropLevelActuator(drop_filter)
        loop = FeedbackLoop(sensor, controller, actuator, period=0.5)
        loop.attach(engine)

    engine.start()
    engine.run(until=FRAMES / FPS + 3.0)
    engine.stop()
    engine.run(max_steps=100_000)
    link = network.link("producer", "consumer")
    return {
        "engine": engine,
        "display": display,
        "decoder": decoder,
        "drop_filter": drop_filter,
        "loop": loop,
        "link": link,
    }


@pytest.fixture(scope="module")
def both_runs():
    return build_figure1(False), build_figure1(True)


class TestFigure1Shape:
    def test_feedback_displays_more_frames(self, both_runs):
        baseline, controlled = both_runs
        assert (
            controlled["display"].stats["displayed"]
            > baseline["display"].stats["displayed"]
        )

    def test_feedback_reduces_network_congestion_drops(self, both_runs):
        baseline, controlled = both_runs
        assert (
            controlled["link"].stats.dropped
            < baseline["link"].stats.dropped / 2
        )

    def test_dropping_is_controlled_not_arbitrary(self, both_runs):
        """With feedback the losses are B (then P) frames dropped at the
        producer filter; I frames dominate what reaches the display."""
        _, controlled = both_runs
        drops = controlled["drop_filter"].stats
        assert drops["dropped_B"] > 0
        assert drops["dropped_B"] >= drops["dropped_P"]
        kinds = [f.kind for f in controlled["display"].frames]
        assert kinds.count("I") >= kinds.count("B")

    def test_without_feedback_loss_is_arbitrary(self, both_runs):
        baseline, _ = both_runs
        assert baseline["drop_filter"].stats["dropped_B"] == 0
        assert baseline["link"].stats.dropped_queue > 0

    def test_feedback_loop_converged_to_moderate_level(self, both_runs):
        _, controlled = both_runs
        levels = [output for _, _, output in controlled["loop"].history]
        assert max(levels) >= 1          # it reacted
        assert levels[-1] <= 2           # and did not slam shut

    def test_uncongested_link_needs_no_dropping(self):
        run = build_figure1(True, bandwidth_bps=5_000_000,
                            queue_packets=64, loss_rate=0.0)
        assert run["display"].stats["displayed"] >= FRAMES * 0.9
        levels = [output for _, _, output in run["loop"].history]
        assert max(levels) <= 1
