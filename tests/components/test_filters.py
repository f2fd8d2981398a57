"""Unit tests for filters."""

import pytest

from repro import (
    CollectSink,
    CostFilter,
    Gate,
    GreedyPump,
    IterSource,
    MapFilter,
    PredicateFilter,
    SequenceStamp,
    api,
    pipeline,
)
from repro.core.styles import Style


class TestMapFilter:
    def test_applies_function(self):
        sink = CollectSink()
        pipe = pipeline(
            IterSource([1, 2, 3]), GreedyPump(), MapFilter(lambda x: x * 10),
            sink,
        )
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [10, 20, 30]

    def test_function_style_works_in_both_modes(self):
        for position in ("push", "pull"):
            f = MapFilter(lambda x: x + 1)
            src, pump, sink = IterSource([1]), GreedyPump(), CollectSink()
            chain = (
                [src, pump, f, sink] if position == "push"
                else [src, f, pump, sink]
            )
            api.Pipeline.from_pipeline(pipeline(*chain)).run()
            assert sink.items == [2]

    def test_cost_charged_per_item(self):
        pipe = pipeline(
            IterSource(range(5)), GreedyPump(),
            MapFilter(lambda x: x, cost=0.01), CollectSink(),
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert engine.now() == pytest.approx(0.05, rel=0.01)

    def test_style(self):
        assert MapFilter(lambda x: x).style is Style.FUNCTION


class TestCostFilter:
    def test_identity_with_cost(self):
        sink = CollectSink()
        pipe = pipeline(
            IterSource([5]), GreedyPump(), CostFilter(0.5), sink
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == [5]
        assert engine.now() == pytest.approx(0.5)


class TestPredicateFilter:
    def test_drops_failing_items(self):
        keep_even = PredicateFilter(lambda x: x % 2 == 0)
        sink = CollectSink()
        pipe = pipeline(IterSource(range(10)), GreedyPump(), keep_even, sink)
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [0, 2, 4, 6, 8]
        assert keep_even.stats["dropped"] == 5

    def test_consumer_style_in_pull_mode_via_coroutine(self):
        keep_even = PredicateFilter(lambda x: x % 2 == 0)
        sink = CollectSink()
        pipe = pipeline(IterSource(range(10)), keep_even, GreedyPump(), sink)
        from repro import allocate

        plan = allocate(pipe)
        assert plan.sections[0].coroutine_count == 2  # wrapper needed
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [0, 2, 4, 6, 8]


class TestGate:
    def test_open_gate_passes(self):
        sink = CollectSink()
        api.Pipeline.from_pipeline(
            pipeline(IterSource([1]), GreedyPump(), Gate(), sink)
        ).run()
        assert sink.items == [1]

    def test_closed_gate_drops(self):
        gate = Gate(open_=False)
        sink = CollectSink()
        api.Pipeline.from_pipeline(
            pipeline(IterSource([1, 2]), GreedyPump(), gate, sink)
        ).run()
        assert sink.items == []
        assert gate.stats["dropped"] == 2


class TestSequenceStamp:
    def test_stamps_increasing_sequence(self):
        sink = CollectSink()
        pipe = pipeline(
            IterSource(["a", "b", "c"]), GreedyPump(), SequenceStamp(), sink
        )
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [(0, "a"), (1, "b"), (2, "c")]
