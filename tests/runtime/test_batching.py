"""Batched data plane: policy, equivalence, netpipe frames, stats.

The contract under test (docs/RUNTIME.md §11): ``batch_max`` is a pure
*transmission* policy — at every batch size the sink observes the same
item sequence, stats count individual items, and flow conservation holds;
only the number of scheduler messages per item changes.
"""

import json

import pytest

from repro import (
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    Pipeline,
    ZipBuffer,
    pipeline,
)
from repro.check import assert_flow, explore
from repro.components.buffers import EMPTY, FULL, OK
from repro.core.events import EOS
from repro.core.styles import FunctionComponent
from repro.errors import RuntimeFault

BATCH_SIZES = [1, 2, 7, 8, 32]


def run_linear(batch_max, items=40, capacity=8):
    src = IterSource(list(range(items)))
    sink = CollectSink()
    pipe = pipeline(
        src,
        GreedyPump(),
        MapFilter(lambda x: x * 2),
        Buffer(capacity=capacity),
        GreedyPump(),
        sink,
    )
    engine = Engine(pipe, batch_max=batch_max)
    engine.start()
    engine.run()
    return sink.items, engine


class TestBatchPolicy:
    def test_defaults_disable_batching(self):
        _, engine = run_linear(None)
        assert engine.batch_max == 1
        assert engine.stats.batching == {}

    def test_validation(self):
        pipe = pipeline(IterSource([1]), GreedyPump(), CollectSink())
        for batch_max in (0, -1):
            with pytest.raises(RuntimeFault, match="at least 1"):
                Engine(pipe, batch_max=batch_max)
            with pytest.raises(ValueError, match="at least 1"):
                GreedyPump(batch_max=batch_max)


class TestEquivalence:
    def test_sink_sequence_identical_across_batch_sizes(self):
        baseline, _ = run_linear(1)
        assert baseline == [x * 2 for x in range(40)]
        for batch_max in BATCH_SIZES[1:]:
            items, engine = run_linear(batch_max)
            assert items == baseline, f"batch_max={batch_max}"
            assert_flow(engine)

    def test_buffer_smaller_than_batch(self):
        baseline, _ = run_linear(1, items=30, capacity=3)
        for batch_max in (8, 32):
            items, engine = run_linear(batch_max, items=30, capacity=3)
            assert items == baseline
            assert_flow(engine)

    def test_zip_buffer_batched(self):
        def build(batch_max):
            left = IterSource([1, 2, 3, 4])
            right = IterSource(["x", "y", "z", "w"])
            zipped = ZipBuffer(2, capacity=4)
            sink = CollectSink()
            pump_l, pump_r, pump_out = GreedyPump(), GreedyPump(), GreedyPump()
            pipe = Pipeline(
                [left, pump_l, right, pump_r, zipped, pump_out, sink]
            )
            pipe.connect(left.out_port, pump_l.in_port)
            pipe.connect(pump_l.out_port, zipped.port("in0"))
            pipe.connect(right.out_port, pump_r.in_port)
            pipe.connect(pump_r.out_port, zipped.port("in1"))
            pipe.connect(zipped.out_port, pump_out.in_port)
            pipe.connect(pump_out.out_port, sink.in_port)
            engine = Engine(pipe, batch_max=batch_max)
            engine.start()
            engine.run()
            return sink.items

        # ZipBuffer zips heads across ports; the tuple order must match
        # the per-item run exactly.
        baseline = build(1)
        assert baseline == [(1, "x"), (2, "y"), (3, "z"), (4, "w")]
        for batch_max in (2, 8):
            assert build(batch_max) == baseline

    def test_stats_count_individual_items(self):
        _, per_item = run_linear(1)
        _, batched = run_linear(32)
        pairs = zip(per_item.pipeline.components, batched.pipeline.components)
        for peer, component in pairs:
            assert component.stats["items_in"] == peer.stats["items_in"], (
                component.name
            )
            assert component.stats["items_out"] == peer.stats["items_out"], (
                component.name
            )

    def test_pump_batch_max_pins_batch_size(self):
        src = IterSource(list(range(20)))
        sink = CollectSink()
        pump = GreedyPump(batch_max=4)
        engine = Engine(pipeline(src, pump, sink), batch_max=32)
        engine.start()
        engine.run()
        assert sink.items == list(range(20))
        counters = engine.stats.batching[pump.name]
        assert counters["avg_batch"] <= 4

    def test_convert_many_default_matches_per_item(self):
        class AddTen(FunctionComponent):
            def convert(self, item):
                return item + 10

        component = AddTen()
        assert component.convert_many([1, 2, 3]) == [11, 12, 13]


class TestBufferBatchOps:
    def test_try_push_many_partial_on_full(self):
        buffer = Buffer(capacity=3)
        taken = buffer.try_push_many([1, 2, 3, 4, 5])
        assert taken == 3
        assert buffer.fill_level == 3

    def test_try_pull_many_run_then_empty(self):
        buffer = Buffer(capacity=8)
        for i in range(5):
            assert buffer.try_push(i) == OK
        status, run = buffer.try_pull_many(3)
        assert (status, run) == (OK, [0, 1, 2])
        status, run = buffer.try_pull_many(8)
        assert (status, run) == (OK, [3, 4])
        assert buffer.try_pull_many(4) == (EMPTY, [])

    def test_try_pull_many_eos_is_last_and_once(self):
        buffer = Buffer(capacity=8)
        buffer.try_push(1)
        buffer.try_push(2)
        buffer.try_push(EOS)
        status, run = buffer.try_pull_many(8)
        assert status == OK
        assert run == [1, 2, EOS]
        assert buffer.try_pull_many(8) == (EMPTY, [])


class TestBatchStats:
    def test_summary_reports_batches_and_flush_reasons(self):
        _, engine = run_linear(8, items=40)
        stats = engine.stats
        assert stats.batching, "no batch counters collected"
        for counters in stats.batching.values():
            assert counters["items"] == 40
            assert counters["batches"] <= 40
            assert counters["avg_batch"] >= 1.0
            flushes = (
                counters["flush_full"]
                + counters["flush_dry"]
                + counters["flush_eos"]
            )
            assert flushes == counters["batches"]
        summary = stats.summary()
        assert "batch " in summary
        assert "avg=" in summary and "full=" in summary

    def test_per_item_run_has_no_batch_counters(self):
        _, engine = run_linear(1)
        assert engine.stats.batching == {}
        assert "batch " not in engine.stats.summary()

    def test_cli_batch_max_flag(self, capsys, tmp_path):
        from repro.__main__ import main

        code = main([
            "run",
            "counting(limit=12) >> greedy_pump >> collect",
            "--batch-max", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch " in out


class TestNetpipeFrames:
    def build_distributed(self, batch_max, protocol="stream", items=20):
        from repro import Pipeline as P, connect
        from repro.mbt import Scheduler, VirtualClock
        from repro.net import Network, Node, RemoteBinder

        sched = Scheduler(clock=VirtualClock())
        net = Network(sched, seed=0)
        net.add_link("alpha", "beta", bandwidth_bps=10_000_000, delay=0.01)
        alpha, beta = Node("alpha", net), Node("beta", net)
        src = alpha.place(IterSource(list(range(items))))
        producer = src >> GreedyPump()
        sink = beta.place(CollectSink())
        pump = GreedyPump()
        consumer = P([pump, sink])
        connect(pump.out_port, sink.in_port)
        pipe = RemoteBinder(net).bind(
            producer, consumer, "alpha", "beta", flow="t", protocol=protocol
        )
        engine = Engine(
            pipe, scheduler=sched, batch_max=batch_max
        ).attach_network(net)
        engine.start()
        engine.run()
        return engine, pipe, sink

    def test_encode_decode_batch_round_trip(self):
        from repro.net.marshal import decode_batch, encode_batch

        chunks = [b"", b"a", b"hello" * 100]
        assert decode_batch(encode_batch(chunks)) == chunks
        assert decode_batch(encode_batch([])) == []

    def test_decode_batch_rejects_truncation(self):
        from repro.errors import MarshalError
        from repro.net.marshal import decode_batch, encode_batch

        frame = encode_batch([b"abcdef"])
        with pytest.raises(MarshalError):
            decode_batch(frame[:-2])
        with pytest.raises(MarshalError):
            decode_batch(frame + b"x")

    @pytest.mark.parametrize("protocol", ["stream", "datagram"])
    def test_batched_delivery_matches_per_item(self, protocol):
        _, _, baseline_sink = self.build_distributed(1, protocol)
        engine, pipe, sink = self.build_distributed(32, protocol)
        assert sink.items == baseline_sink.items == list(range(20))
        sender = next(
            c for c in pipe.components if c.name.startswith("netpipe-send")
        )
        receiver = next(
            c for c in pipe.components if c.name.startswith("netpipe-recv")
        )
        # The run was coalesced: fewer frames than items, and the frame
        # counts agree end to end on a reliable transport.
        assert 0 < sender.stats["frames_out"] < 20
        if protocol == "stream":
            assert receiver.stats["frames_in"] == sender.stats["frames_out"]
        assert receiver.stats["items_in"] == 20

    def test_per_item_run_sends_no_frames(self):
        _, pipe, _ = self.build_distributed(1)
        sender = next(
            c for c in pipe.components if c.name.startswith("netpipe-send")
        )
        assert sender.stats["frames_out"] == 0


class TestExploredInvariants:
    @pytest.mark.parametrize("batch_max", [1, 8, 32])
    def test_flow_conservation_under_schedule_exploration(self, batch_max):
        def build():
            src = IterSource(list(range(24)))
            sink = CollectSink()
            pipe = pipeline(
                src,
                GreedyPump(),
                Buffer(capacity=4),
                GreedyPump(),
                sink,
            )
            return Engine(pipe, batch_max=batch_max)

        def check(engine):
            assert_flow(engine)
            sink = engine.pipeline.components[-1]
            assert sink.items == list(range(24))

        result = explore(build, seeds=10, check=check)
        assert result.ok, result.repro
