"""Property: the columnar media plane is unobservable at the sink.

For the payload-weighted video pipeline (source -> dropper -> decoder ->
resizer -> display), columnar batches at ``batch_max`` 8 and 32 must
deliver the exact per-item (``batch_max=1``) frame stream — sequence
numbers, kinds, sizes, dimensions AND payload bytes — and the flow
conservation invariants must hold.  Same for the netpipe variant (the
zero-copy wire path).
"""

from hypothesis import given, settings, strategies as st

from repro import Engine, GreedyPump, Pipeline, connect, pipeline
from repro.check import assert_flow, explore
from repro.core.typespec import Typespec
from repro.media import (
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    Resizer,
    VideoDisplay,
    arrays,
)
from repro.net import Network, Node, RemoteBinder

BATCH_SIZES = (1, 8, 32)


def frame_signature(display):
    return [
        (
            f.seq, f.kind, f.size, f.width, f.height, f.encoded,
            None if f.payload is None else bytes(f.payload),
        )
        for f in display.frames
    ]


def build_local(frames, level, dims, payloads):
    source = MpegFileSource("prop.mpg", frames=frames, payloads=payloads)
    display = VideoDisplay(input_spec=Typespec())
    pipe = pipeline(
        source,
        GreedyPump(),
        PriorityDropFilter(level=level),
        MpegDecoder(share_references=False),
        Resizer(width=dims[0], height=dims[1]),
        display,
    )
    return pipe, display


def run_local(batch_max, frames, level, dims, payloads):
    pipe, display = build_local(frames, level, dims, payloads)
    engine = Engine(pipe, batch_max=batch_max)
    engine.start()
    engine.run(max_steps=500_000)
    assert_flow(engine)
    return frame_signature(display)


@given(
    frames=st.integers(min_value=1, max_value=48),
    level=st.integers(min_value=0, max_value=3),
    dims=st.sampled_from([(640, 480), (320, 240), (160, 120)]),
    payloads=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_columnar_batches_deliver_per_item_stream(
    frames, level, dims, payloads
):
    reference = run_local(1, frames, level, dims, payloads)
    for batch_max in BATCH_SIZES[1:]:
        got = run_local(batch_max, frames, level, dims, payloads)
        assert got == reference, f"batch_max={batch_max} diverged"


def run_netpipe(batch_max, frames=60, level=1):
    network = Network(seed=5)
    network.add_link("p", "c", bandwidth_bps=1_000_000_000, delay=0.001)
    producer, consumer = Node("p", network), Node("c", network)
    source = producer.place(
        MpegFileSource("prop.mpg", frames=frames, payloads=True)
    )
    producer_side = source >> GreedyPump() >> PriorityDropFilter(level=level)
    feeder = GreedyPump()
    decoder = MpegDecoder(share_references=False)
    resizer = Resizer(width=320, height=240)
    display = consumer.place(VideoDisplay(input_spec=Typespec()))
    consumer_side = Pipeline([feeder, decoder, resizer, display])
    connect(feeder.out_port, decoder.in_port)
    connect(decoder.out_port, resizer.in_port)
    connect(resizer.out_port, display.in_port)
    pipe = RemoteBinder(network).bind(
        producer_side, consumer_side, "p", "c",
        flow="video", protocol="stream",
    )
    engine = Engine(pipe, batch_max=batch_max)
    engine.start()
    engine.run(until=120.0)
    engine.stop()
    engine.run(max_steps=500_000)
    assert_flow(engine)
    sender = next(
        c for c in pipe.components if c.name.startswith("netpipe-send")
    )
    return frame_signature(display), sender


def test_netpipe_columnar_stream_matches_per_item():
    reference, _ = run_netpipe(1)
    for batch_max in BATCH_SIZES[1:]:
        got, sender = run_netpipe(batch_max)
        assert got == reference, f"batch_max={batch_max} diverged"
        # The batch path really coalesced: far fewer frames than items.
        assert 0 < sender.stats["frames_out"] < len(reference)


def test_netpipe_delivers_zero_copy_payload_views():
    got, _ = run_netpipe(32)
    assert got  # frames reached the display
    _, display_payloads = zip(*[(s[0], s[6]) for s in got])
    assert all(p is not None for p in display_payloads)


def test_columnar_flow_invariants_under_exploration():
    def build():
        pipe, display = build_local(30, 1, (320, 240), True)
        engine = Engine(pipe, batch_max=8)
        engine.check_display = display
        return engine

    def check(engine):
        assert_flow(engine)
        assert len(engine.check_display.frames) == 10  # 30 minus 20 B

    result = explore(build, seeds=12, check=check)
    assert result.ok, result.summary()

