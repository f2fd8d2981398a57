"""Corner cases: NIL through coroutines, greedy pumps on nil buffers,
scheduler reuse across pipelines, explicit ports in the microlanguage."""

import pytest

from repro import (
    ActiveComponent,
    Buffer,
    ClockedPump,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    NIL,
    OnEmpty,
    api,
    is_nil,
    pipeline,
)
from repro.components.sources import CountingSource
from repro.mbt import Scheduler, VirtualClock


class TestNilThroughCoroutines:
    def test_active_component_sees_nil_items(self):
        """A nil-policy buffer upstream of a coroutine stage delivers NIL
        into the component, which must *yield* something per input: an
        active body that silently re-pulls on NIL would spin at constant
        virtual time (its bug, not the middleware's).  Here it forwards a
        gap marker instead."""

        GAP = ("gap",)

        class NilAware(ActiveComponent):
            def run(self):
                while True:
                    item = yield self.pull()
                    yield self.push(GAP if is_nil(item) else item)

        source = CountingSource(limit=3)
        slow = ClockedPump(5)
        buf = Buffer(capacity=4, on_empty=OnEmpty.NIL)
        fast = ClockedPump(50)
        sink = CollectSink()
        # NilAware is active and upstream of `fast` -> pull-mode coroutine.
        pipe = pipeline(source, slow, buf, NilAware(), fast, sink)
        api.Pipeline.from_pipeline(pipe).run()
        data = [i for i in sink.items if i != GAP]
        gaps = [i for i in sink.items if i == GAP]
        assert data == [0, 1, 2]
        assert gaps  # the fast pump really did overrun the buffer


class TestGreedyPumpOnNilBuffer:
    def test_greedy_pump_parks_instead_of_spinning(self):
        """A greedy pump pulling a nil-policy buffer must not livelock at
        constant virtual time; it parks until the gate pokes it."""
        source = CountingSource(limit=5)
        slow = ClockedPump(10)
        buf = Buffer(capacity=4, on_empty=OnEmpty.NIL)
        greedy = GreedyPump()
        sink = CollectSink()
        pipe = pipeline(source, slow, buf, greedy, sink)
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == [0, 1, 2, 3, 4]
        driver = next(d for d in engine.pump_drivers if d.origin is greedy)
        # a handful of nil cycles at most -- not thousands of spins
        assert driver.nil_cycles <= 15
        assert engine.scheduler.steps < 500


class TestSchedulerReuse:
    def test_two_pipelines_one_scheduler(self):
        """Several engines can share one scheduler/clock — the basis of
        every multi-pipeline simulation in this repo."""
        scheduler = Scheduler(clock=VirtualClock())
        sink_a, sink_b = CollectSink(), CollectSink()
        engine_a = Engine(
            pipeline(CountingSource(limit=5), GreedyPump(), sink_a),
            scheduler=scheduler,
        )
        engine_b = Engine(
            pipeline(CountingSource(limit=5), ClockedPump(10), sink_b),
            scheduler=scheduler,
        )
        engine_a.start()
        engine_b.start()
        scheduler.run()
        assert sink_a.items == list(range(5))
        assert sink_b.items == list(range(5))
        assert engine_a.completed and engine_b.completed


class TestLangExplicitPorts:
    def test_merge_inputs_addressed_by_port(self):
        from repro.lang import build

        result = build(
            """
            merge(2) : m
            counting(limit=2) >> greedy_pump >> m.in1
            counting(limit=2) >> greedy_pump >> m.in0
            m >> collect : out
            """
        )
        api.Pipeline.from_pipeline(result.pipeline).run()
        assert sorted(result["out"].items) == [0, 0, 1, 1]

    def test_router_outputs_addressed_by_port(self):
        from repro.lang import build

        result = build(
            """
            counting(limit=6) >> router(2) : r
            r.out0 >> greedy_pump(max_items=3) >> collect : left
            r.out1 >> greedy_pump(max_items=3) >> collect : right
            """
        )
        api.Pipeline.from_pipeline(result.pipeline).run()
        combined = sorted(result["left"].items + result["right"].items)
        assert combined == list(range(6))


class TestDropOldUnderCoroutines:
    def test_drop_old_buffer_with_coroutine_producer_section(self):
        from repro import PullDefragmenter
        from repro.components.buffers import OnFull

        source = CountingSource(limit=40)
        # producer style in push mode -> coroutine, pushing into a lossy
        # buffer drained slowly.
        defrag = PullDefragmenter()
        buf = Buffer(capacity=2, on_full=OnFull.DROP_OLD)
        sink = CollectSink()
        pipe = pipeline(source, GreedyPump(), defrag, buf, ClockedPump(5),
                        sink)
        api.Pipeline.from_pipeline(pipe).run(until=10.0)
        assert buf.stats["drops"] > 0
        # the freshest pair survived
        assert (38, 39) in sink.items
