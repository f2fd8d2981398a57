"""Unit tests for the engine: lifecycle, pumping, EOS, stats."""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    CostFilter,
    Engine,
    FeedbackPump,
    GreedyPump,
    IterSource,
    MapFilter,
    NullSink,
    OnEmpty,
    OnFull,
    Pipeline,
    RuntimeFault,
    api,
)
from repro.components.sources import CountingSource


class TestLifecycle:
    def test_nothing_flows_before_start_event(self):
        sink = CollectSink()
        pipe = IterSource([1, 2]) >> GreedyPump() >> sink
        engine = Engine(pipe)
        engine.setup()
        engine.run()
        assert sink.items == []
        engine.start()
        engine.run()
        assert sink.items == [1, 2]

    def test_stop_event_halts_clocked_pump(self):
        sink = CollectSink()
        pipe = CountingSource() >> ClockedPump(10) >> sink
        engine = Engine(pipe)
        engine.start()
        engine.run(until=1.0)
        engine.stop()
        engine.run()
        count = len(sink.items)
        assert 9 <= count <= 12
        # no further items after stop
        engine.run(until=5.0)
        assert len(sink.items) == count

    def test_pause_resume(self):
        sink = CollectSink()
        pipe = CountingSource() >> ClockedPump(10) >> sink
        engine = Engine(pipe)
        engine.start()
        engine.run(until=1.0)
        at_pause = len(sink.items)
        engine.send_event("pause")
        engine.run(until=2.0)
        assert len(sink.items) <= at_pause + 1
        engine.send_event("resume")
        engine.run(until=3.0)
        assert len(sink.items) > at_pause + 5

    def test_completion_on_eos(self):
        pipe = IterSource(range(5)) >> GreedyPump() >> CollectSink()
        engine = Engine(pipe)
        engine.run_to_completion()
        assert engine.completed

    def test_engine_requires_pipeline(self):
        with pytest.raises(RuntimeFault):
            Engine(IterSource([1]))

    def test_run_pipeline_with_until_stops(self):
        sink = CollectSink()
        pipe = CountingSource() >> ClockedPump(100) >> sink
        engine = api.Pipeline.from_pipeline(pipe).run(until=0.5).engine
        assert 45 <= len(sink.items) <= 55
        assert engine.now() >= 0.5


class TestClockedPump:
    def test_rate_controls_item_count(self):
        sink = CollectSink()
        pipe = CountingSource() >> ClockedPump(30) >> sink
        api.Pipeline.from_pipeline(pipe).run(until=2.0)
        assert 58 <= len(sink.items) <= 62

    def test_feedback_pump_rate_change_applies_live(self):
        sink = CollectSink()
        pump = FeedbackPump(10)
        pipe = CountingSource() >> pump >> sink
        engine = Engine(pipe)
        engine.start()
        engine.run(until=1.0)
        first_phase = len(sink.items)
        engine.send_event("set-rate", 100.0)
        engine.run(until=2.0)
        second_phase = len(sink.items) - first_phase
        assert second_phase > first_phase * 5

    def test_greedy_pump_max_items(self):
        sink = CollectSink()
        pipe = CountingSource() >> GreedyPump(max_items=7) >> sink
        api.Pipeline.from_pipeline(pipe).run()
        assert len(sink.items) == 7


class TestEos:
    def test_eos_propagates_through_sections(self):
        sink = CollectSink()
        pipe = (
            IterSource(range(10))
            >> GreedyPump()
            >> Buffer(capacity=4)
            >> GreedyPump()
            >> sink
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == list(range(10))
        assert engine.completed

    def test_eos_stops_clocked_downstream_pump(self):
        sink = CollectSink()
        pipe = (
            IterSource(range(5))
            >> GreedyPump()
            >> Buffer(capacity=8)
            >> ClockedPump(100)
            >> sink
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == list(range(5))
        assert engine.completed

    def test_eos_bypasses_transform_user_code(self):
        calls = []
        sink = CollectSink()
        pipe = (
            IterSource(range(3))
            >> GreedyPump()
            >> MapFilter(lambda x: calls.append(x) or x)
            >> sink
        )
        api.Pipeline.from_pipeline(pipe).run()
        assert calls == [0, 1, 2]  # convert never saw EOS


class TestBackpressure:
    def test_block_policy_paces_fast_producer(self):
        sink = CollectSink()
        buf = Buffer(capacity=4, on_full=OnFull.BLOCK)
        pipe = (
            CountingSource(limit=50)
            >> GreedyPump()
            >> buf
            >> ClockedPump(10)
            >> sink
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == list(range(50))
        assert buf.stats["drops"] == 0
        # pacing means completion takes about 5 seconds of virtual time
        assert engine.now() >= 4.5

    def test_drop_new_policy_loses_excess(self):
        buf = Buffer(capacity=4, on_full=OnFull.DROP_NEW)
        sink = CollectSink()
        pipe = (
            CountingSource(limit=50)
            >> GreedyPump()
            >> buf
            >> ClockedPump(10)
            >> sink
        )
        api.Pipeline.from_pipeline(pipe).run(until=20.0)
        assert buf.stats["drops"] > 0
        assert len(sink.items) < 50
        # delivered items preserve order
        assert sink.items == sorted(sink.items)

    def test_drop_old_policy_keeps_freshest(self):
        buf = Buffer(capacity=4, on_full=OnFull.DROP_OLD)
        sink = CollectSink()
        pipe = (
            CountingSource(limit=50)
            >> GreedyPump()
            >> buf
            >> ClockedPump(10)
            >> sink
        )
        api.Pipeline.from_pipeline(pipe).run(until=20.0)
        assert buf.stats["drops"] > 0
        assert 49 in sink.items  # the newest item survives

    def test_nil_policy_lets_consumer_spin(self):
        buf = Buffer(capacity=4, on_empty=OnEmpty.NIL)
        sink = CollectSink()
        pipe = (
            CountingSource(limit=3)
            >> ClockedPump(5)
            >> buf
            >> ClockedPump(50)
            >> sink
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == [0, 1, 2]
        # the fast consumer pump saw many empty (nil) cycles
        assert sum(engine.stats.nil_cycles.values()) > 10


class TestStats:
    def test_stats_snapshot(self):
        sink = NullSink()
        pipe = IterSource(range(20)) >> GreedyPump() >> CostFilter(0.001) >> sink
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        stats = engine.stats
        assert stats.items_in(sink.name) == 20
        assert stats.total_cycles() >= 20
        assert stats.threads == 1
        assert stats.time == pytest.approx(0.02, rel=0.1)
        assert "items_in=20" in stats.summary()

    def test_cost_filter_consumes_virtual_time(self):
        pipe = IterSource(range(10)) >> GreedyPump() >> CostFilter(0.01) >> NullSink()
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert engine.now() == pytest.approx(0.1, rel=0.05)

    def test_coroutine_switch_counter(self):
        from repro import ActiveDefragmenter

        pipe = (
            IterSource(range(10))
            >> GreedyPump()
            >> ActiveDefragmenter()
            >> NullSink()
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        # one ip-push per item, plus one for the EOS crossing the boundary
        assert engine.stats.coroutine_switches == 11

    def test_reservation_forwarded_to_scheduler(self):
        pump = GreedyPump(reservation=0.25)
        pipe = IterSource([1]) >> pump >> NullSink()
        engine = Engine(pipe)
        engine.setup()
        assert engine.scheduler.reservations[f"pump:{pump.name}"] == 0.25
