"""Engine edge cases and API coverage."""

import pytest

from repro import (
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    MergeTee,
    Pipeline,
    RuntimeFault,
    allocate,
    api,
    pipeline,
)
from repro.core.events import EOS
from repro.errors import AllocationError


class TestEngineApi:
    def test_setup_is_idempotent(self):
        engine = Engine(IterSource([1]) >> GreedyPump() >> CollectSink())
        engine.setup()
        threads = len(engine.scheduler.threads)
        engine.setup()
        assert len(engine.scheduler.threads) == threads

    def test_thread_of_unknown_component(self):
        engine = Engine(IterSource([1]) >> GreedyPump() >> CollectSink())
        engine.setup()
        stranger = MapFilter(lambda x: x)
        with pytest.raises(RuntimeFault):
            engine.thread_of(stranger)

    def test_completed_false_before_run(self):
        engine = Engine(IterSource([1]) >> GreedyPump() >> CollectSink())
        engine.setup()
        assert not engine.completed

    def test_add_service_stop_called(self):
        stopped = []

        class Service:
            def stop(self):
                stopped.append(True)

        engine = Engine(IterSource([1]) >> GreedyPump() >> CollectSink())
        engine.add_service(Service())
        engine.stop()
        assert stopped == [True]

    def test_attach_network_returns_self(self):
        engine = Engine(IterSource([1]) >> GreedyPump() >> CollectSink())
        assert engine.attach_network(None) is engine


    def test_clocked_pump_without_a_period_is_refused_at_setup(self):
        from repro import Pump

        class Metronome(Pump):
            timing = "clocked"  # but inherits Pump.period(): None

        pump = Metronome()
        engine = Engine(IterSource([1]) >> pump >> CollectSink())
        with pytest.raises(RuntimeFault, match="clocked but has no period"):
            engine.setup()


class TestAllocationPlanApi:
    def test_section_for_origin_and_stage(self):
        stage = MapFilter(lambda x: x)
        pump = GreedyPump()
        pipe = pipeline(IterSource([1]), pump, stage, CollectSink())
        plan = allocate(pipe)
        assert plan.section_for(pump).origin is pump
        assert plan.section_for(stage).origin is pump

    def test_section_for_unknown_raises(self):
        pipe = IterSource([1]) >> GreedyPump() >> CollectSink()
        plan = allocate(pipe)
        with pytest.raises(AllocationError):
            plan.section_for(MapFilter(lambda x: x))

    def test_describe_round_trips_placements(self):
        pipe = pipeline(
            IterSource([1]), GreedyPump(), MapFilter(lambda x: x),
            CollectSink(),
        )
        description = allocate(pipe).describe()
        assert description[0]["coroutines"] == 1
        assert description[0]["stages"][0]["placement"] == "direct"


class TestMergeEosSemantics:
    def test_sink_completes_after_both_inputs_end(self):
        a, b = IterSource([1, 2]), IterSource([10, 20])
        pa, pb = GreedyPump(), GreedyPump()
        merge, sink = MergeTee(2), CollectSink()
        pipe = Pipeline([a, pa, b, pb, merge, sink])
        pipe.connect(a.out_port, pa.in_port)
        pipe.connect(pa.out_port, merge.port("in0"))
        pipe.connect(b.out_port, pb.in_port)
        pipe.connect(pb.out_port, merge.port("in1"))
        pipe.connect(merge.out_port, sink.in_port)
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert engine.completed
        assert sorted(sink.items) == [1, 2, 10, 20]

    def test_one_ended_input_does_not_end_the_merge(self):
        """The other flow keeps going after the first source dries up."""
        a, b = IterSource([1]), IterSource(range(100, 110))
        pa, pb = GreedyPump(), GreedyPump()
        merge, sink = MergeTee(2), CollectSink()
        pipe = Pipeline([a, pa, b, pb, merge, sink])
        pipe.connect(a.out_port, pa.in_port)
        pipe.connect(pa.out_port, merge.port("in0"))
        pipe.connect(b.out_port, pb.in_port)
        pipe.connect(pb.out_port, merge.port("in1"))
        pipe.connect(merge.out_port, sink.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        assert set(range(100, 110)) <= set(sink.items)


class TestEosThroughBufferChains:
    def test_three_section_chain_completes(self):
        pipe = pipeline(
            IterSource(range(5)), GreedyPump(), Buffer(2), GreedyPump(),
            Buffer(2), GreedyPump(), CollectSink(),
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert engine.completed
        assert engine.pipeline.sinks()[0].items == list(range(5))

    def test_empty_source_completes_immediately(self):
        sink = CollectSink()
        engine = api.Pipeline.from_pipeline(
            IterSource([]) >> GreedyPump() >> sink
        ).run().engine
        assert engine.completed
        assert sink.items == []

    def test_eos_item_in_source_iterable_is_the_end(self):
        sink = CollectSink()
        engine = api.Pipeline.from_pipeline(
            IterSource([1, EOS, 2]) >> GreedyPump() >> sink
        ).run().engine
        assert sink.items == [1]
        assert engine.completed
