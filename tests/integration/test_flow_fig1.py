"""Acceptance: end-to-end flow traces over the Figure-1 netpipe.

The ISSUE's acceptance criterion: running the fig-1 media pipeline over a
netpipe at ``batch_max=32`` with ``FlowTracer(sample_every=1)`` must yield
reassembled end-to-end :class:`FlowTrace` objects whose per-hop
wait + service + wire decomposition sums EXACTLY to the measured
end-to-end latency.

The producer uses a :class:`GreedyPump` (fig-1's ClockedPump releases one
frame per tick and therefore never coalesces frames into wire batches);
the greedy variant drives the batched data plane and multi-chunk frames
across the simulated link.
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
from repro.mbt.scheduler import Scheduler
from repro.media import MpegDecoder, MpegFileSource
from repro.net import Network, Node, RemoteBinder
from repro.obs import FlowTracer
from repro.obs.flow import DELIVERED

FRAMES = 120


def run_flow_fig1(batch_max=32, protocol="stream", frames=FRAMES, trace=False):
    """Fig-1 topology with a greedy producer and a lossless link, so
    every frame is delivered and every trace reassembles."""
    network = Network(seed=5)
    network.add_link(
        "producer", "consumer",
        bandwidth_bps=4_000_000, delay=0.02, jitter=0.0,
        loss_rate=0.0, queue_packets=256,
    )
    producer_node = Node("producer", network)
    consumer_node = Node("consumer", network)

    source = producer_node.place(MpegFileSource(frames=frames))
    producer_side = source >> GreedyPump()

    feeder = GreedyPump()
    decoder = MpegDecoder(share_references=False)
    jitter_buffer = Buffer(capacity=64)
    pump2 = ClockedPump(60.0)
    sink = consumer_node.place(CollectSink())
    consumer_side = Pipeline([feeder, decoder, jitter_buffer, pump2, sink])
    connect(feeder.out_port, decoder.in_port)
    connect(decoder.out_port, jitter_buffer.in_port)
    connect(jitter_buffer.out_port, pump2.in_port)
    connect(pump2.out_port, sink.in_port)

    pipe = RemoteBinder(network).bind(
        producer_side, consumer_side, "producer", "consumer",
        flow="video", protocol=protocol,
    )
    engine = Engine(pipe, scheduler=Scheduler(trace=trace),
                    batch_max=batch_max)
    tracer = FlowTracer(sample_every=1).attach(engine)
    engine.start()
    engine.run(until=60.0)
    engine.stop()
    engine.run(max_steps=2_000_000)
    tracer.finalize_inflight()
    return engine, sink, tracer


class TestFlowFig1Acceptance:
    @pytest.fixture(scope="class")
    def run(self):
        return run_flow_fig1()

    def test_every_frame_delivered_with_a_reassembled_trace(self, run):
        _, sink, tracer = run
        delivered = tracer.delivered()
        assert len(sink.items) == FRAMES
        assert len(delivered) == FRAMES
        assert all(t.status == DELIVERED for t in delivered)

    def test_traces_cross_the_wire(self, run):
        _, _, tracer = run
        for trace in tracer.delivered():
            kinds = [kind for kind, _, _ in trace.segments]
            assert "wire" in kinds, (
                f"{trace.trace_id} lost its netpipe crossing: {kinds}"
            )
            assert trace.decomposition()["wire"] > 0.0

    def test_decomposition_sums_exactly_to_end_to_end(self, run):
        """wait + service + wire == end-to-end, bit-exact per trace."""
        _, _, tracer = run
        for trace in tracer.delivered():
            decomposition = trace.decomposition()
            assert sum(decomposition.values()) == pytest.approx(
                trace.end_to_end, abs=1e-12
            )
            # Segments tile [birth, end] with no gaps or overlaps.
            at = trace.birth_ts
            for _, _, duration in trace.segments:
                at += duration
            assert at == pytest.approx(trace.end_ts, abs=1e-12)

    def test_critical_path_names_the_slowest_hop(self, run):
        _, _, tracer = run
        trace = max(tracer.delivered(), key=lambda t: t.end_to_end)
        path = trace.critical_path()
        assert path is not None
        _kind, _name, duration = path
        assert duration == max(d for _, _, d in trace.segments)
        assert duration > 0.0

    def test_per_item_plane_agrees(self):
        """batch_max=None exercises the per-item walkers over the same
        topology; the lineage guarantees are identical."""
        _, sink, tracer = run_flow_fig1(batch_max=None, frames=40)
        delivered = tracer.delivered()
        assert len(delivered) == len(sink.items) == 40
        for trace in delivered:
            assert "wire" in [kind for kind, _, _ in trace.segments]
            assert sum(d for _, _, d in trace.segments) == pytest.approx(
                trace.end_to_end, abs=1e-12
            )
