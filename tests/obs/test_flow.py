"""Causal flow tracing: lineage, decomposition, drops, forks, the wire."""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    OnFull,
    Pipeline,
    PredicateFilter,
    PushFragmenter,
    pipeline,
)
from repro import api
from repro.check import declare_lossy
from repro.components.sinks import Sink
from repro.errors import InvariantViolation
from repro.mbt import Scheduler
from repro.mbt.tracing import dump_on, format_tail
from repro.net import Network, Node, RemoteBinder
from repro.obs import (
    FlowTracer,
    LineageStore,
    MetricsRegistry,
    TraceContext,
)
from repro.obs.flow import DELIVERED, DROPPED, MAX_TRACES


def _tiles_exactly(trace) -> bool:
    return sum(d for _, _, d in trace.segments) == pytest.approx(
        trace.end_to_end, abs=1e-12
    )


# ---------------------------------------------------------------------------
# the context itself
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_segments_tile_the_trace(self):
        ctx = TraceContext("t1", 1.0, "service", "pump:a")
        ctx.advance("wait", "buffer", 1.5)
        ctx.advance("service", "pump:b", 2.25)
        ctx.finish(3.0, DELIVERED, site="sink")
        assert [seg[2] for seg in ctx.segments] == [0.5, 0.75, 0.75]
        assert sum(seg[2] for seg in ctx.segments) == ctx.end_ts - ctx.birth_ts

    def test_finish_is_idempotent(self):
        ctx = TraceContext("t1", 0.0, "service", "pump:a")
        ctx.finish(1.0, DELIVERED)
        ctx.finish(9.0, DROPPED)
        assert ctx.status == DELIVERED
        assert ctx.end_ts == 1.0

    def test_fork_copies_history_under_new_identity(self):
        ctx = TraceContext("t1", 0.0, "service", "pump:a")
        ctx.advance("wait", "buffer", 1.0)
        child = ctx.fork("t2")
        assert child.parent == "t1"
        assert child.segments == ctx.segments
        child.advance("service", "pump:b", 2.0)
        assert len(child.segments) == 2
        assert len(ctx.segments) == 1  # parent history untouched

    def test_wire_round_trip(self):
        ctx = TraceContext("t7", 0.25, "service", "pump:a")
        ctx.advance("wire", "netpipe-send", 0.5)
        copy = TraceContext.from_wire(ctx.to_wire())
        assert copy.trace_id == "t7"
        assert copy.birth_ts == 0.25
        assert copy.segments == ctx.segments
        copy.finish(1.0, DELIVERED)
        assert sum(seg[2] for seg in copy.segments) == 0.75


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class TestLineageStore:
    def _finished(self, trace_id, status=DELIVERED, duration=0.0):
        ctx = TraceContext(trace_id, 0.0, "service", "pump")
        ctx.finish(duration, status)
        return ctx

    def test_evicts_boring_delivered_first(self):
        store = LineageStore()
        dropped = self._finished("bad", status=DROPPED)
        store.complete(dropped)
        for i in range(MAX_TRACES):
            store.complete(self._finished(f"ok{i}"))
        assert len(store) == MAX_TRACES
        assert store.trace("bad") is not None  # kept over boring traces
        assert store.trace("ok0") is None  # the oldest boring one went
        assert store.evicted == 1


# ---------------------------------------------------------------------------
# tracing real pipelines
# ---------------------------------------------------------------------------


def _run(pipe, sample_every=1, until=None, batch_max=None, registry=None):
    engine = Engine(pipe, batch_max=batch_max)
    tracer = FlowTracer(sample_every=sample_every, registry=registry)
    tracer.attach(engine)
    engine.start()
    engine.run(until=until)
    if until is not None:
        engine.stop()
        engine.run(max_steps=200_000)
    tracer.finalize_inflight()
    return engine, tracer


class TestPipelineTracing:
    def test_every_item_delivered_and_tiled(self):
        sink = CollectSink()
        _, tracer = _run(
            pipeline(IterSource(range(25)), GreedyPump(), sink)
        )
        delivered = tracer.delivered()
        assert len(delivered) == 25
        assert len(sink.items) == 25
        for trace in delivered:
            assert trace.site == sink.name
            assert _tiles_exactly(trace)

    def test_sampling_one_in_n(self):
        _, tracer = _run(
            pipeline(IterSource(range(40)), GreedyPump(), CollectSink()),
            sample_every=4,
        )
        assert len(tracer.delivered()) == 10

    def test_buffer_crossing_adds_wait_segment(self):
        src = IterSource(range(30))
        buffer = Buffer(capacity=64)
        pipe = pipeline(
            src, GreedyPump(), buffer, ClockedPump(100.0), CollectSink()
        )
        _, tracer = _run(pipe, until=2.0)
        delivered = tracer.delivered()
        assert delivered
        for trace in delivered:
            kinds = [seg[0] for seg in trace.segments]
            names = [seg[1] for seg in trace.segments]
            assert "wait" in kinds
            assert buffer.name in names
            assert _tiles_exactly(trace)
        # The clocked consumer makes later items genuinely wait.
        assert any(
            trace.decomposition().get("wait", 0.0) > 0.0
            for trace in delivered
        )

    def test_drop_old_buffer_attributes_evictions(self):
        buffer = Buffer(capacity=4, on_full=OnFull.DROP_OLD)
        pipe = pipeline(
            IterSource(range(50)), GreedyPump(), buffer,
            ClockedPump(10.0), CollectSink(),
        )
        _, tracer = _run(pipe, until=1.0)
        dropped = tracer.traces(DROPPED)
        assert dropped
        for trace in dropped:
            assert trace.site == buffer.name
            assert trace.reason == "evicted at full buffer"
            assert _tiles_exactly(trace)

    def test_drop_new_buffer_attributes_rejections(self):
        buffer = Buffer(capacity=4, on_full=OnFull.DROP_NEW)
        pipe = pipeline(
            IterSource(range(50)), GreedyPump(), buffer,
            ClockedPump(10.0), CollectSink(),
        )
        _, tracer = _run(pipe, until=1.0)
        dropped = tracer.traces(DROPPED)
        assert dropped
        assert all(
            trace.reason == "rejected at full buffer" for trace in dropped
        )

    def test_declared_lossy_stage_named_in_drop(self):
        keep_even = PredicateFilter(lambda item: item % 2 == 0)
        declare_lossy(keep_even, "sheds odd items")
        pipe = pipeline(
            IterSource(range(20)), GreedyPump(), keep_even, CollectSink()
        )
        _, tracer = _run(pipe)
        assert len(tracer.delivered()) == 10
        dropped = tracer.traces(DROPPED)
        assert len(dropped) == 10
        for trace in dropped:
            assert trace.site == keep_even.name
            assert trace.reason == "sheds odd items"

    def test_fanout_forks_child_traces(self):
        pipe = pipeline(
            IterSource((i, i + 100) for i in range(8)),
            GreedyPump(), PushFragmenter(), CollectSink(),
        )
        _, tracer = _run(pipe)
        delivered = tracer.delivered()
        assert len(delivered) == 16  # 1:2 fan-out
        children = [t for t in delivered if t.parent is not None]
        assert len(children) == 8
        parents = {t.trace_id for t in delivered if t.parent is None}
        assert {t.parent for t in children} <= parents

    def test_batched_plane_traces_every_item(self):
        sink = CollectSink()
        pipe = pipeline(
            IterSource(range(100)), GreedyPump(), Buffer(capacity=256),
            GreedyPump(), sink,
        )
        _, tracer = _run(pipe, batch_max=32)
        assert len(tracer.delivered()) == 100
        assert len(sink.items) == 100

    @pytest.mark.parametrize("sample_every, sampled", [(1, 100), (8, 12)])
    def test_run_entry_sink_reports_its_run_delivered(
        self, sample_every, sampled
    ):
        """A sink taken a run at a time (``push_many``) that is not a wire
        sink still ends its items' traces: the run walker owes the same
        ``deliver_many`` epilogue as the per-item loop."""

        class RunSink(Sink):
            def __init__(self):
                super().__init__()
                self.runs = []

            def push(self, item):
                raise AssertionError("the run entry stands for push")

            def push_many(self, items):
                self.runs.append(list(items))

        sink = RunSink()
        pipe = pipeline(
            IterSource(range(100)), GreedyPump(), Buffer(capacity=256),
            GreedyPump(), sink,
        )
        _, tracer = _run(pipe, sample_every=sample_every, batch_max=32)
        assert sum(sink.runs, []) == list(range(100))
        assert tracer.dropped() == []
        delivered = tracer.delivered()
        assert len(delivered) == sampled
        assert all(trace.site == sink.name for trace in delivered)

    @pytest.mark.parametrize("batch_max", [1, 8, 32])
    def test_birth_is_when_the_item_leaves_the_sources_entry(self, batch_max):
        """One rule on both planes: the source's own cost is service time
        in the trace.  A cycle's items are born as the source hands them
        out, the cycle then drains their cost (10 ms each), and only then
        does the sink see them — so every trace of a full cycle spans
        exactly that cycle's source work, never 0.0."""
        from repro.components.sources import Source
        from repro.core.events import EOS

        class SlowSource(Source):
            def __init__(self):
                super().__init__()
                self.left = 64

            def pull(self):
                if not self.left:
                    return EOS
                self.left -= 1
                self.charge(0.01)
                return self.left

        sink = CollectSink()
        _, tracer = _run(
            pipeline(SlowSource(), GreedyPump(), sink), batch_max=batch_max
        )
        delivered = tracer.delivered()
        assert len(delivered) == len(sink.items) == 64
        for trace in delivered:
            assert trace.end_to_end == pytest.approx(0.01 * batch_max)
            assert trace.decomposition() == {
                "service": pytest.approx(0.01 * batch_max)
            }

    def test_registry_metrics_published(self):
        registry = MetricsRegistry()
        _, tracer = _run(
            pipeline(IterSource(range(10)), GreedyPump(), CollectSink()),
            registry=registry,
        )
        counter = registry.get("repro_flow_traces_total", status=DELIVERED)
        assert counter is not None and counter.value == 10
        hist = registry.get("repro_flow_end_to_end_seconds")
        assert hist is not None and hist.count == 10
        gauge = registry.get("repro_flow_store_size")
        assert gauge is not None and gauge.value == 10


# ---------------------------------------------------------------------------
# across the wire
# ---------------------------------------------------------------------------


def _run_netpipe(batch_max, protocol="stream", items=60, sample_every=1):
    network = Network(seed=3)
    network.add_link(
        "a", "b", bandwidth_bps=2_000_000, delay=0.01, jitter=0.0,
        loss_rate=0.0, queue_packets=256,
    )
    node_a, node_b = Node("a", network), Node("b", network)
    source = node_a.place(
        IterSource(bytes([i % 251]) * 16 for i in range(items))
    )
    producer = source >> GreedyPump()
    sink = node_b.place(CollectSink())
    consumer = GreedyPump() >> sink
    pipe = RemoteBinder(network).bind(
        producer, consumer, "a", "b", flow="data", protocol=protocol
    )
    engine = Engine(pipe, batch_max=batch_max)
    tracer = FlowTracer(sample_every=sample_every).attach(engine)
    engine.start()
    engine.run(until=60.0)
    engine.stop()
    engine.run(max_steps=500_000)
    tracer.finalize_inflight()
    return sink, tracer


class TestNetpipeCrossing:
    @pytest.mark.parametrize("batch_max", [None, 32])
    def test_trace_reassembles_across_the_hop(self, batch_max):
        sink, tracer = _run_netpipe(batch_max)
        delivered = tracer.delivered()
        assert len(delivered) == len(sink.items) == 60
        for trace in delivered:
            kinds = [seg[0] for seg in trace.segments]
            assert "wire" in kinds, "trace lost its netpipe crossing"
            assert _tiles_exactly(trace)
        # Wire time is real on a 2 Mb/s + 10 ms link.
        assert all(
            trace.decomposition()["wire"] > 0.0 for trace in delivered
        )

    def test_sampled_crossing_keeps_alignment(self):
        sink, tracer = _run_netpipe(32, sample_every=8)
        delivered = tracer.delivered()
        assert len(sink.items) == 60
        # 1-in-8 of 60 births = 7 sampled items, all delivered with wire.
        assert len(delivered) == 60 // 8
        for trace in delivered:
            assert "wire" in [seg[0] for seg in trace.segments]


# ---------------------------------------------------------------------------
# the flight recorder (the trace ring) attaches itself to violations
# ---------------------------------------------------------------------------


def _ring_run(items, limit):
    """A finished run whose scheduler kept a ring of ``limit`` events."""
    return api.Pipeline.from_pipeline(
        pipeline(IterSource(range(items)), GreedyPump(), CollectSink())
    ).with_trace(limit).run().engine.scheduler


class TestFlightRecorderDumpOn:
    def test_attaches_ring_to_invariant_violations(self):
        scheduler = _ring_run(items=5, limit=8)
        assert len(scheduler.trace) == 8 and scheduler.trace_dropped > 0
        with pytest.raises(InvariantViolation) as excinfo:
            with dump_on(scheduler, limit=5):
                raise InvariantViolation("conservation broke")
        # Exactly the header plus the one tail renderer's text: the five
        # newest events under a line counting the 3 earlier retained ones
        # and the ring's evictions.
        tail = format_tail(scheduler, 5)
        assert excinfo.value.__notes__ == [
            "flight recorder (last 5 of 8 retained events):\n" + tail
        ]
        assert tail.splitlines()[0] == (
            f"... (3 earlier events, {scheduler.trace_dropped} evicted "
            "from the ring)"
        )
        assert len(tail.splitlines()) == 6

    def test_unmatched_exceptions_pass_through_unannotated(self):
        scheduler = _ring_run(items=5, limit=8)
        with pytest.raises(ValueError) as excinfo:
            with dump_on(scheduler):
                raise ValueError("not an invariant problem")
        assert not getattr(excinfo.value, "__notes__", [])

    def test_custom_exception_types(self):
        scheduler = _ring_run(items=2, limit=16)
        with pytest.raises(RuntimeError) as excinfo:
            with dump_on(scheduler, RuntimeError):
                raise RuntimeError("anything the caller selects")
        assert excinfo.value.__notes__ == [
            f"flight recorder (last {len(scheduler.trace)} of "
            f"{len(scheduler.trace)} retained events):\n"
            + format_tail(scheduler)
        ]

    def test_tracing_off_attaches_no_events_retained(self):
        with pytest.raises(InvariantViolation) as excinfo:
            with dump_on(Scheduler(), limit=5):
                raise InvariantViolation("nothing was recorded")
        assert excinfo.value.__notes__ == [
            "flight recorder (last 0 of 0 retained events):\n"
            "(no events retained)"
        ]
