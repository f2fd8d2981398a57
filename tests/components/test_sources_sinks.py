"""Unit tests for sources and sinks."""

import pytest

from repro import (
    ActiveSink,
    ActiveSource,
    CallbackSink,
    CallbackSource,
    CollectSink,
    CountingSource,
    GreedyPump,
    IterSource,
    NullSink,
    api,
    pipeline,
)
from repro.components.sinks import ActiveCollectSink
from repro.components.sources import TickingSource
from repro.core.events import EOS, is_eos
from repro.core.polarity import Mode, Polarity
from repro.core.typespec import Typespec


class TestPassiveSources:
    def test_iter_source_drains_then_eos(self):
        src = IterSource([1, 2])
        assert src.pull() == 1
        assert src.pull() == 2
        assert is_eos(src.pull())
        assert is_eos(src.pull())  # stays exhausted

    def test_counting_source_bounded(self):
        src = CountingSource(limit=3)
        assert [src.pull() for _ in range(3)] == [0, 1, 2]
        assert is_eos(src.pull())

    def test_counting_source_unbounded(self):
        src = CountingSource()
        assert [src.pull() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_callback_source(self):
        values = iter([10, 20, EOS])
        src = CallbackSource(lambda: next(values))
        assert src.pull() == 10
        assert src.pull() == 20
        assert is_eos(src.pull())

    def test_out_port_is_passive_pull(self):
        src = IterSource([1])
        assert src.out_port.mode is Mode.PULL
        assert src.out_port.polarity is Polarity.NEGATIVE

    def test_flow_spec_becomes_output_typespec(self):
        src = IterSource([1], flow_spec=Typespec(item_type="blob"))
        out = src.transform_typespec(Typespec.any())
        assert out["item_type"] == "blob"


class TestPassiveSinks:
    def test_collect_sink_limit(self):
        sink = CollectSink(limit=2)
        pipe = IterSource(range(10)) >> GreedyPump() >> sink
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [0, 1]

    def test_callback_sink(self):
        seen = []
        pipe = IterSource(range(3)) >> GreedyPump() >> CallbackSink(seen.append)
        api.Pipeline.from_pipeline(pipe).run()
        assert seen == [0, 1, 2]

    def test_null_sink_counts(self):
        sink = NullSink()
        api.Pipeline.from_pipeline(
            IterSource(range(5)) >> GreedyPump() >> sink
        ).run()
        assert sink.stats["items_in"] == 5

    def test_in_port_is_passive_push(self):
        sink = CollectSink()
        assert sink.in_port.mode is Mode.PUSH
        assert sink.in_port.polarity is Polarity.NEGATIVE


class TestActiveSources:
    def test_ticking_source_pushes_at_rate(self):
        count = iter(range(1000))
        src = TickingSource(lambda: next(count), rate_hz=20)
        sink = CollectSink()
        pipe = src >> sink
        api.Pipeline.from_pipeline(pipe).run(until=1.0)
        assert 18 <= len(sink.items) <= 22

    def test_active_source_eos_ends_pipeline(self):
        values = iter([1, 2, EOS])
        src = TickingSource(lambda: next(values), rate_hz=100)
        sink = CollectSink()
        engine = api.Pipeline.from_pipeline(src >> sink).run().engine
        assert sink.items == [1, 2]
        assert engine.completed

    def test_active_source_max_items(self):
        count = iter(range(1000))
        src = TickingSource(lambda: next(count), rate_hz=1000, max_items=5)
        sink = CollectSink()
        api.Pipeline.from_pipeline(src >> sink).run()
        assert len(sink.items) == 5

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ActiveSource(rate_hz=-1)


class TestActiveSinks:
    def test_active_collect_sink_pulls_at_rate(self):
        src = CountingSource()
        buf_pipe = pipeline(src, ActiveCollectSink(rate_hz=10))
        engine = api.Pipeline.from_pipeline(buf_pipe).run(until=1.0).engine
        sink = buf_pipe.components[-1]
        assert 9 <= len(sink.items) <= 12

    def test_active_sink_greedy_mode(self):
        sink = ActiveCollectSink()  # no rate: greedy
        pipe = pipeline(IterSource(range(7)), sink)
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == list(range(7))
        assert engine.completed

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ActiveSink(rate_hz=0)

    def test_consume_abstract(self):
        with pytest.raises(NotImplementedError):
            ActiveSink(rate_hz=1).consume(1)
